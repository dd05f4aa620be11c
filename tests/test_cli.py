import json
import math

import numpy as np
import pytest

from aperio import PointPatch, io_json
from aperio.cli import main

from conftest import TAU, TAU_CONJ, make_lattice_patch


@pytest.fixture()
def workspace(tmp_path):
    scheme = {
        "d": 1,
        "m": 1,
        "basis": [[1.0, TAU], [1.0, TAU_CONJ]],
        "window": [{"lo": [-0.5], "hi": [0.5]}],
    }
    (tmp_path / "fib.json").write_text(json.dumps(scheme))
    (tmp_path / "z.json").write_text(json.dumps({"d": 1, "m": 0, "basis": [[1.0]]}))
    (tmp_path / "z2.json").write_text(json.dumps({"d": 2, "m": 0, "basis": [[1.0, 0.0], [0.0, 1.0]]}))
    (tmp_path / "pw.json").write_text(
        json.dumps({"kind": "paley_wiener", "band": [[-0.5, 0.5]]})
    )
    return tmp_path


def run(workspace, *args):
    return main(["--workspace", str(workspace), *args])


class TestJsonRoundTrip:
    def test_patch_exact_round_trip(self):
        patch = make_lattice_patch(1.0, 5.0)
        obj = io_json.patch_to_jsonable(patch)
        text = io_json.canonical_dumps(obj)
        back = io_json.patch_from_jsonable(json.loads(text))
        assert back == patch

    def test_irrational_coordinates_round_trip_exactly(self):
        pts = np.array([[math.sqrt(2)], [math.pi], [1.0 / 3.0]])
        patch = PointPatch(dim=1, box=[(0, 4)], points=pts)
        back = io_json.patch_from_jsonable(
            json.loads(io_json.canonical_dumps(io_json.patch_to_jsonable(patch)))
        )
        assert np.array_equal(back.points, patch.points)

    def test_scheme_accepts_numbers_and_strings(self):
        obj = {"d": 1, "m": 0, "basis": [["2.0"]]}
        scheme = io_json.scheme_from_jsonable(obj)
        assert scheme.abs_det == 2.0

    def test_density_report_round_trip(self, workspace):
        assert run(workspace, "gen", "--scheme", "z.json", "--box", "-50", "50", "--out", "p.json") == 0
        assert run(
            workspace, "density", "--patch", "p.json", "--folner", "5,10", "--out", "d.json"
        ) == 0
        obj = json.loads((workspace / "d.json").read_text())
        report = io_json.density_report_from_jsonable(obj)
        assert report.extrapolated_lower == pytest.approx(1.0)


class TestPipeline:
    def test_gen_density_verdict_chain(self, workspace):
        assert run(workspace, "gen", "--scheme", "fib.json", "--box", "-200", "200", "--out", "patch.json") == 0
        assert run(
            workspace,
            "density", "--patch", "patch.json", "--folner", "10,20,40",
            "--ell", "1", "--out", "density.json", "--csv", "density.csv",
        ) == 0
        assert run(
            workspace,
            "verdict", "--kernel", "pw.json", "--density", "density.json",
            "--ell", "1", "--out", "verdict.json",
        ) == 0
        verdict = json.loads((workspace / "verdict.json").read_text())
        # Fibonacci density 1/sqrt(5) < 1 rules out sampling at band 1
        assert verdict["necessary_sampling_ok"] is False
        assert verdict["necessary_interpolation_ok"] is True
        csv_bytes = (workspace / "density.csv").read_bytes()
        assert csv_bytes.startswith(b"n,inf,sup\r\n")

    def test_negative_exponent_box_parses(self, workspace):
        assert run(workspace, "gen", "--scheme", "fib.json", "--box", "-1e3", "1e3", "--out", "e.json") == 0
        assert run(workspace, "gen", "--scheme", "fib.json", "--box", "-1000", "1000", "--out", "d.json") == 0
        assert (workspace / "e.json").read_bytes() == (workspace / "d.json").read_bytes()

    def test_hull_sample_outputs_contain_origin(self, workspace):
        run(workspace, "gen", "--scheme", "fib.json", "--box", "-80", "80", "--out", "p.json")
        assert run(
            workspace,
            "hull-sample", "--patch", "p.json", "--k-box", "-5", "5",
            "--translates", "own", "--limit", "10", "--out", "samples.json",
        ) == 0
        obj = json.loads((workspace / "samples.json").read_text())
        assert isinstance(obj, list) and obj
        for item in obj:
            patch = io_json.patch_from_jsonable(item)
            assert np.any(np.abs(patch.points) < 1e-9)

    def test_frame_report_and_csv(self, workspace):
        run(workspace, "gen", "--scheme", "z.json", "--box", "-40", "40", "--out", "zp.json")
        assert run(
            workspace,
            "frame", "--kernel", "pw.json", "--patch", "zp.json",
            "--truncations", "10,20,40", "--out", "frame.json", "--csv", "frame.csv",
        ) == 0
        obj = json.loads((workspace / "frame.json").read_text())
        assert obj["verdict"] == "frame_evidence"
        assert (workspace / "frame.csv").read_bytes().startswith(b"truncation,A,B\r\n")

    def test_weil_and_amalgam(self, workspace):
        assert run(workspace, "weil-check", "--scheme", "z.json", "--out", "w.json") == 0
        assert float(json.loads((workspace / "w.json").read_text())["residual"]["value"]) < 1e-6
        assert run(
            workspace,
            "amalgam", "--kernel", "pw.json", "--q", "0.5", "--trunc", "20", "--step", "0.02",
            "--out", "a.json",
        ) == 0
        assert float(json.loads((workspace / "a.json").read_text())["norm"]["value"]) > 1.0

    def test_eigenvalue_csv(self, workspace):
        run(workspace, "gen", "--scheme", "z.json", "--box", "-20", "20", "--out", "zp.json")
        run(
            workspace,
            "frame", "--kernel", "pw.json", "--patch", "zp.json",
            "--truncations", "5,10,20", "--out", "frame.json",
        )
        assert run(
            workspace, "csv", "--report", "frame.json", "--columns", "eigenvalue", "--out", "e.csv"
        ) == 0
        lines = (workspace / "e.csv").read_bytes().decode().strip().split("\r\n")
        assert lines[0] == "eigenvalue"
        values = [float(v) for v in lines[1:]]
        assert values == sorted(values)


class TestProvenanceTags:
    def test_every_numeric_field_carries_a_known_tag(self, workspace):
        run(workspace, "gen", "--scheme", "fib.json", "--box", "-150", "150", "--out", "p.json")
        run(workspace, "density", "--patch", "p.json", "--folner", "10,20", "--ell", "1", "--out", "d.json")
        run(workspace, "verdict", "--kernel", "pw.json", "--density", "d.json", "--out", "v.json")
        run(workspace, "frame", "--kernel", "pw.json", "--patch", "p.json",
            "--truncations", "20,40,80", "--out", "f.json")
        run(workspace, "weil-check", "--scheme", "z.json", "--out", "w.json")

        def tags(node):
            if isinstance(node, dict):
                if set(node) == {"value", "provenance"}:
                    yield node["provenance"]
                else:
                    for v in node.values():
                        yield from tags(v)
            elif isinstance(node, list):
                for v in node:
                    yield from tags(v)

        for name in ("d.json", "v.json", "f.json", "w.json"):
            obj = json.loads((workspace / name).read_text())
            found = list(tags(obj))
            assert found
            for tag in found:
                assert (
                    tag in ("exact", "trend", "assumes-unique-ergodicity")
                    or tag.startswith(("quadrature(n=", "grid(step=", "trend(truncations="))
                ), tag


class TestErrorHandling:
    def test_missing_input_is_config_error(self, workspace):
        assert run(workspace, "density", "--patch", "nope.json", "--folner", "5") == 2

    def test_unknown_csv_column_lists_valid(self, workspace, capsys):
        run(workspace, "gen", "--scheme", "z.json", "--box", "-50", "50", "--out", "p.json")
        run(workspace, "density", "--patch", "p.json", "--folner", "5,10", "--out", "d.json")
        assert run(workspace, "csv", "--report", "d.json", "--columns", "n,bogus") == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "valid columns" in err

    def test_operation_error_exit_one(self, workspace):
        run(workspace, "gen", "--scheme", "z.json", "--box", "-10", "10", "--out", "p.json")
        # Folner size beyond the patch: operation error, not a config error
        assert run(workspace, "density", "--patch", "p.json", "--folner", "5,50") == 1

    @pytest.mark.parametrize(
        "flags",
        [("--step", "inf"), ("--step", "nan"), ("--folner", "5,nan")],
        ids=["step-inf", "step-nan", "folner-nan"],
    )
    def test_non_finite_folner_input_is_config_error(self, workspace, capsys, flags):
        run(workspace, "gen", "--scheme", "z2.json", "--box", "-10", "10", "-10", "10", "--out", "p.json")
        capsys.readouterr()
        args = {"--folner": "2,4", "--step": "0.5", **dict([flags])}
        argv = [item for pair in args.items() for item in pair]
        assert run(workspace, "density", "--patch", "p.json", *argv, "--out", "d.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config error" in err[0] and "finite" in err[0]
        assert not (workspace / "d.json").exists()

    def test_run_step_infinity_no_partial_outputs(self, workspace):
        cfg = (
            '{"steps": ['
            '{"command": "gen", "args": {"scheme": "z2.json", "box": [-10, 10, -10, 10], "out": "p.json"}},'
            '{"command": "density", "args": {"patch": "p.json", "folner": [2, 4], "step": Infinity, "out": "d.json"}}'
            "]}"
        )
        (workspace / "cfg.json").write_text(cfg)
        assert run(workspace, "run", "--config", "cfg.json") == 2
        assert not (workspace / "p.json").exists()
        assert not (workspace / "d.json").exists()

    def test_grid_past_cap_is_operation_error(self, workspace):
        run(workspace, "gen", "--scheme", "z2.json", "--box", "-10", "10", "-10", "10", "--out", "p.json")
        assert run(workspace, "density", "--patch", "p.json", "--folner", "2,4", "--step", "1e-9") == 1

    def test_run_config_missing_file_no_partial_outputs(self, workspace):
        cfg = {
            "seed": 3,
            "steps": [
                {"command": "gen", "args": {"scheme": "z.json", "box": [-50, 50], "out": "out1.json"}},
                {"command": "density", "args": {"patch": "missing.json", "folner": [5], "out": "out2.json"}},
            ],
        }
        (workspace / "cfg.json").write_text(json.dumps(cfg))
        assert run(workspace, "run", "--config", "cfg.json") == 2
        assert not (workspace / "out1.json").exists()
        assert not (workspace / "out2.json").exists()

    def test_run_step_unknown_key_no_partial_outputs(self, workspace, capsys):
        cfg = {
            "steps": [
                {"command": "gen", "args": {"scheme": "z.json", "box": [-50, 50], "out": "p.json"}},
                {"command": "density", "args": {"patch": "p.json", "folner": [5], "bogus": 3, "out": "d.json"}},
            ],
        }
        (workspace / "cfg.json").write_text(json.dumps(cfg))
        assert run(workspace, "run", "--config", "cfg.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config error" in err[0] and "bogus" in err[0]
        assert not (workspace / "p.json").exists()
        assert not (workspace / "d.json").exists()

    @pytest.mark.parametrize(
        "name, content, argv, key",
        [
            ("p.json", {"dim": 1, "box": [[-1, 1]]}, ["density", "--patch", "p.json", "--folner", "1"], "points"),
            ("s.json", {"d": 1, "m": 0}, ["gen", "--scheme", "s.json", "--box", "-5", "5"], "basis"),
            ("k.json", {"kind": "gabor_gaussian"}, ["amalgam", "--kernel", "k.json", "--q", "1", "--trunc", "3", "--step", "0.5"], "n"),
        ],
        ids=["patch", "scheme", "kernel"],
    )
    def test_decoder_missing_key_is_config_error(self, workspace, capsys, name, content, argv, key):
        (workspace / name).write_text(json.dumps(content))
        assert run(workspace, *argv, "--out", "o.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config error" in err[0] and repr(key) in err[0]
        assert not (workspace / "o.json").exists()


class TestDeterminism:
    def test_same_config_twice_is_byte_identical(self, workspace):
        cfg = {
            "seed": 11,
            "steps": [
                {"command": "gen", "args": {"scheme": "fib.json", "box": [-150, 150], "out": "p.json"}},
                {"command": "density", "args": {"patch": "p.json", "folner": [10, 20], "ell": 1, "out": "d.json"}},
                {"command": "verdict", "args": {"kernel": "pw.json", "density": "d.json", "ell": 1, "out": "v.json"}},
            ],
        }
        (workspace / "cfg.json").write_text(json.dumps(cfg))
        assert run(workspace, "run", "--config", "cfg.json") == 0
        first = {name: (workspace / name).read_bytes() for name in ("p.json", "d.json", "v.json")}
        assert run(workspace, "run", "--config", "cfg.json") == 0
        second = {name: (workspace / name).read_bytes() for name in ("p.json", "d.json", "v.json")}
        assert first == second
