import contextlib
import copy
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperio import PointPatch, generate_model_set, io_json, model_set_covolume
from aperio.cli import HANDLERS, handle_run, main
from aperio.cutproject import lattice_scheme
from aperio.errors import ConfigError

from conftest import TAU, TAU_CONJ, make_lattice_patch, patch_to_jsonable


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
    (tmp_path / "gg.json").write_text(json.dumps({"kind": "gabor_gaussian", "n": 1}))
    return tmp_path


def run(workspace, *args):
    return main(["--workspace", str(workspace), *args])


_FIB_BASIS = {"d": 1, "m": 1, "basis": [[1.0, TAU], [1.0, TAU_CONJ]]}
_GEN_STEP = {"command": "gen", "args": {"scheme": "z.json", "box": [-50, 50], "out": "p.json"}}


_MAX = 1.7976931348623157e308
# signed zeros, subnormals, the extremes, and both sides of repr's switch to exponent notation
_HOSTILE = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, _MAX, -_MAX,
         1e16, 9999999999999998.0, -1e16, 1e-4, 9.999999999999999e-05, 1e-5, 1.0000000000000003e-05]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e15, 1e17),
    st.floats(1e-5, 1e-4),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
)


@st.composite
def _hostile_patch(draw, dim):
    """A patch in d = ``dim`` whose box ends and points are hostile floats: drawn rows clipped to a drawn box."""
    ends = st.lists(_HOSTILE, min_size=2, max_size=2, unique_by=float).map(sorted)
    box = [tuple(draw(ends)) for _ in range(dim)]
    rows = draw(st.lists(st.lists(_HOSTILE, min_size=dim, max_size=dim), max_size=12))
    lo, hi = np.array(box).T
    return PointPatch(dim=dim, box=box, points=np.unique(np.clip(np.reshape(rows, (-1, dim)), lo, hi), axis=0))


class TestJsonRoundTrip:
    def test_patch_exact_round_trip(self):
        patch = make_lattice_patch(1.0, 5.0)
        back = io_json.patch_from_jsonable(json.loads(io_json.patch_dumps(patch)))
        assert back == patch

    def test_irrational_coordinates_round_trip_exactly(self):
        pts = np.array([[math.sqrt(2)], [math.pi], [1.0 / 3.0]])
        patch = PointPatch(dim=1, box=[(0, 4)], points=pts)
        back = io_json.patch_from_jsonable(json.loads(io_json.patch_dumps(patch)))
        assert np.array_equal(back.points, patch.points)

    @given(st.integers(1, 3).flatmap(lambda dim: st.lists(_hostile_patch(dim), min_size=1, max_size=4)))
    @settings(max_examples=200, deadline=None)
    def test_patch_encoding_matches_fstr_per_cell(self, patches):
        # the oracle builds the object with fstr per cell and box end; canonical_dumps lays it out
        empty = PointPatch(dim=patches[0].dim, box=patches[0].box, points=[])
        for p in (*patches, empty):
            assert io_json.patch_dumps(p) == io_json.canonical_dumps(patch_to_jsonable(p))
        for group in (patches, [*patches, empty], []):
            assert io_json.patch_dumps(group) == io_json.canonical_dumps([patch_to_jsonable(p) for p in group])

    def test_patch_text_tells_signed_zero_boxes_apart(self):
        patches = [PointPatch(dim=1, box=[(lo, 1.0)], points=[[0.5]]) for lo in (0.0, -0.0, 0.0)]
        assert io_json.patch_dumps(patches) == io_json.canonical_dumps([patch_to_jsonable(p) for p in patches])
        assert io_json.patch_dumps(patches).count('"-0.0"') == 1

    @pytest.mark.parametrize(
        "patch",
        [
            generate_model_set(lattice_scheme([[0.5]]), [(-0.0, 3.3)]),
            generate_model_set(lattice_scheme([[0.7, 0.1], [0.0, 0.7]]), [(-2.1, 2.1), (-0.0, 1e-3 + 2)]),
            PointPatch(dim=2, box=[(-0.0, 1.0), (-1.0, -0.0)], points=[[-0.0, -0.0], [0.1, -0.3], [1.0, -1e-300]]),
        ],
        ids=["gen-1d", "gen-2d", "signed-zeros-2d"],
    )
    def test_patch_decodes_to_the_patch_written(self, patch):
        # a run's later steps take gen's patch as this decode of its text would give it
        back = io_json.patch_from_jsonable(json.loads(io_json.patch_dumps(patch)))
        assert back.points.tobytes() == patch.points.tobytes()
        assert repr(back.box) == repr(patch.box) and "-0.0" in repr(patch.box)

    def test_scheme_accepts_numbers_and_strings(self):
        obj = {"d": 1, "m": 0, "basis": [["2.0"]]}
        scheme = io_json.scheme_from_jsonable(obj)
        assert model_set_covolume(scheme) == 2.0

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
            "--ell", "1", "--out", "density.json",
        ) == 0
        assert run(workspace, "csv", "--report", "density.json", "--columns", "n,inf,sup", "--out", "density.csv") == 0
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

    @pytest.mark.parametrize("ell", ["1", "2"])
    @pytest.mark.parametrize("scheme", ["fib.json", "z.json"])
    def test_density_covolume_block_is_the_verdicts(self, workspace, scheme, ell):
        # density --ell writes the covolume bounds that verdict derives from the same report
        run(workspace, "gen", "--scheme", scheme, "--box", "-100", "100", "--out", "p.json")
        assert run(workspace, "density", "--patch", "p.json", "--folner", "10,20,40", "--ell", ell, "--out", "d.json") == 0
        assert run(workspace, "verdict", "--kernel", "pw.json", "--density", "d.json", "--ell", ell, "--out", "v.json") == 0
        block = json.loads((workspace / "d.json").read_text())["covolume_bounds"]
        v = json.loads((workspace / "v.json").read_text())
        assert block["covol_minus_lower"]["value"] == v["covol_minus_interval"][0]["value"]
        assert block["covol_plus_upper"]["value"] == v["covol_plus_upper"]["value"]

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
            "--truncations", "10,20,40", "--out", "frame.json",
        ) == 0
        assert run(workspace, "csv", "--report", "frame.json", "--columns", "truncation,A,B", "--out", "frame.csv") == 0
        obj = json.loads((workspace / "frame.json").read_text())
        assert obj["verdict"] == "frame_evidence"
        lines = (workspace / "frame.csv").read_bytes().decode().split("\r\n")
        assert lines[0] == "truncation,A_lo,A_hi,B_lo,B_hi"
        for line, row in zip(lines[1:], obj["rows"]):  # the unit-spaced lattice: an orthonormal basis
            t, a_lo, a_hi, b_lo, b_hi = map(float, line.split(","))
            assert [a_lo, a_hi, b_lo, b_hi] == [float(v) for c in ("A", "B") for v in row[c]["value"]]
            assert a_lo <= 1.0 <= a_hi and b_lo <= 1.0 <= b_hi

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
        assert lines[0] == "eigenvalue_lo,eigenvalue_hi"
        brackets = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert len(brackets) == 41  # one row per point of [-20, 20], each bracket holding 1
        assert all(lo <= 1.0 <= hi for lo, hi in brackets)
        assert brackets == sorted(brackets)

    def test_old_frame_report_shape_is_config_error(self, workspace, capsys):
        old = {
            "kind": "frame_report",
            "rows": [{"truncation": "10.0", "A": {"value": "0.5", "provenance": "trend"}}],
            "eigenvalues": ["0.5", "1.5"],
        }
        (workspace / "old.json").write_text(json.dumps(old))
        for columns in ("truncation,A", "eigenvalue"):
            assert run(workspace, "csv", "--report", "old.json", "--columns", columns, "--out", "o.csv") == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and "old shape" in err[0]
        assert not (workspace / "o.csv").exists()


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
                if "provenance" in node and "value" in node:
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
                    tag in ("exact", "trend", "below_rank_cut")
                    or re.fullmatch(r"solver_bound\(n=\d+\)(; near_rank_cut)?", tag)
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

    def test_empty_csv_column_list_lists_valid(self, workspace, capsys):
        run(workspace, "gen", "--scheme", "z.json", "--box", "-50", "50", "--out", "p.json")
        run(workspace, "density", "--patch", "p.json", "--folner", "5,10", "--out", "d.json")
        capsys.readouterr()
        assert run(workspace, "csv", "--report", "d.json", "--columns", " , ", "--out", "o.csv") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config error" in err[0] and "valid columns" in err[0]
        assert not (workspace / "o.csv").exists()

    @pytest.mark.parametrize(
        "report, columns",
        [
            ([1, 2], "n,inf,sup"),
            ({"kind": "density_report"}, "n,inf,sup"),
            ({"kind": "density_report", "rows": [{"n": "5.0", "sup": {"value": "1.1"}}]}, "n,inf,sup"),
            ({"kind": "density_report", "rows": "zz"}, "n,inf,sup"),
            ({"kind": "frame_report", "eigenvalues": {"above_rank_cut": {"value": [None]}}}, "eigenvalue"),
            (
                {
                    "kind": "frame_report",
                    "eigenvalues": {"below_rank_cut": {"count": 10**9, "value": ["0.0", "1e-09"]}},
                },
                "eigenvalue",
            ),
            ({"kind": "frame_report", "rows": [{"truncation": "1.0", "A": {"value": ["0.5"]}}]}, "truncation,A"),
        ],
        ids=["list", "no-rows", "row-without-inf", "rows-not-a-list", "null-eigenvalue", "huge-count", "half-bracket"],
    )
    def test_malformed_report_csv_is_config_error(self, workspace, capsys, report, columns):
        (workspace / "r.json").write_text(json.dumps(report))
        before = _snapshot(workspace)
        assert run(workspace, "csv", "--report", "r.json", "--columns", columns, "--out", "o.csv") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config error" in err[0]
        assert _snapshot(workspace) == before

    def test_operation_error_exit_one(self, workspace):
        run(workspace, "gen", "--scheme", "z.json", "--box", "-10", "10", "--out", "p.json")
        # Folner size beyond the patch: operation error, not a config error
        assert run(workspace, "density", "--patch", "p.json", "--folner", "5,50") == 1

    @pytest.mark.parametrize(
        "extra, said",
        [
            (make_lattice_patch(1.0, 3.0), "at size 5.0; max feasible n is 3.0"),
            (PointPatch(dim=1, box=[(-50, 50)], points=np.empty((0, 1))), "empty patch: no points in box [(-50.0, 50.0)]"),
        ],
        ids=["extra-smaller-than-largest-size", "extra-empty"],
    )
    def test_extra_patch_is_checked_as_the_base_is(self, workspace, capsys, extra, said):
        # the extra passes the base patch's checks: non-empty, and the largest Folner size fits
        run(workspace, "gen", "--scheme", "z.json", "--box", "-50", "50", "--out", "p.json")
        (workspace / "e.json").write_text(io_json.patch_dumps(extra))
        capsys.readouterr()
        assert run(workspace, "density", "--patch", "p.json", "--folner", "2,5", "--extras", "e.json", "--out", "d.json") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and said in err[0]
        assert not (workspace / "d.json").exists()

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

    def test_density_step_past_grid_cap_is_ignored(self, workspace):
        # density builds no translate grid in any dimension, so a step past the 10^8 grid cap changes nothing
        (workspace / "z3.json").write_text(json.dumps({"d": 3, "m": 0, "basis": np.eye(3).tolist()}))
        run(workspace, "gen", "--scheme", "z3.json", "--box", *["-10", "10"] * 3, "--out", "p.json")
        assert run(workspace, "density", "--patch", "p.json", "--folner", "2,4", "--step", "1e-9", "--out", "d.json") == 0
        rows = json.loads((workspace / "d.json").read_text())["rows"]
        assert [(r["inf"]["provenance"], r["sup"]["provenance"]) for r in rows] == [("exact", "exact")] * 2

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
        "cmd, args, flags",
        [
            ("density", {"patch": "p.json", "folner": [5]}, ["--patch", "p.json", "--folner", "5"]),
            (
                "frame",
                {"kernel": "pw.json", "patch": "p.json", "truncations": [10, 20, 40]},
                ["--kernel", "pw.json", "--patch", "p.json", "--truncations", "10,20,40"],
            ),
        ],
        ids=["density", "frame"],
    )
    def test_csv_is_no_report_argument(self, workspace, capsys, cmd, args, flags):
        # a CSV comes from the csv command only: the argument is refused as a run step and as a flag
        steps = [_GEN_STEP, {"command": cmd, "args": {**args, "out": "r.json", "csv": "r.csv"}}]
        (workspace / "cfg.json").write_text(json.dumps({"steps": steps}))
        before = _snapshot(workspace)
        assert run(workspace, "run", "--config", "cfg.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config error" in err[0] and "unexpected keyword argument 'csv'" in err[0]
        assert _snapshot(workspace) == before
        with pytest.raises(SystemExit) as exc:
            run(workspace, cmd, *flags, "--out", "r.json", "--csv", "r.csv")
        assert exc.value.code == 2
        assert "unrecognized arguments: --csv r.csv" in capsys.readouterr().err
        assert _snapshot(workspace) == before

    @pytest.mark.parametrize(
        "name, content, argv, key",
        [
            ("p.json", {"dim": 1, "box": [[-1, 1]]}, ["density", "--patch", "p.json", "--folner", "1"], "points"),
            ("s.json", {"d": 1, "m": 0}, ["gen", "--scheme", "s.json", "--box", "-5", "5"], "basis"),
            ("k.json", {"kind": "gabor_gaussian"}, ["amalgam", "--kernel", "k.json", "--q", "1", "--trunc", "3", "--step", "0.5"], "n"),
            (
                "d.json",
                {
                    "rows": [
                        {"n": "5.0", "inf": {"value": "0.9", "provenance": "exact"}, "sup": {"value": "1.1", "provenance": "exact"}}
                    ],
                    **{k: {"value": "0.9", "provenance": "trend"} for k in ("extrapolated_lower", "extrapolated_upper", "uncertainty")},
                    "certified_region_note": "",
                    "covolume_bounds": {"covol_minus_lower": {"value": "5", "provenance": "trend"}},
                },
                ["verdict", "--kernel", "pw.json", "--density", "d.json"],
                "covol_plus_upper",
            ),
        ],
        ids=["patch", "scheme", "kernel", "density-covolume-bounds"],
    )
    def test_decoder_missing_key_is_config_error(self, workspace, capsys, name, content, argv, key):
        (workspace / name).write_text(json.dumps(content))
        assert run(workspace, *argv, "--out", "o.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config error" in err[0] and repr(key) in err[0]
        assert not (workspace / "o.json").exists()

    @pytest.mark.parametrize(
        "path",
        [("rows", 0, "sup"), ("extrapolated_lower",), ("uncertainty",), ("covolume_bounds", "covol_plus_upper")],
        ids=["sup", "extrapolated_lower", "uncertainty", "covol_plus_upper"],
    )
    def test_density_field_without_provenance_is_config_error(self, workspace, capsys, path):
        # every tagged field needs its tag, not only a row's inf
        report = copy.deepcopy(_VALID["density"])
        (workspace / "d.json").write_text(json.dumps(report))
        assert run(workspace, "verdict", "--kernel", "pw.json", "--density", "d.json", "--out", "v.json") == 0
        field = report
        for key in path:
            field = field[key]
        del field["provenance"]
        (workspace / "d.json").write_text(json.dumps(report))
        capsys.readouterr()
        assert run(workspace, "verdict", "--kernel", "pw.json", "--density", "d.json", "--out", "o.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config error" in err[0] and "'provenance'" in err[0]
        assert not (workspace / "o.json").exists()

    @pytest.mark.parametrize(
        "key, value", [("uncertainty", "-0.5"), ("extrapolated_lower", "-1.0")], ids=["uncertainty", "lower-density"]
    )
    def test_negative_density_estimate_is_config_error(self, workspace, capsys, key, value):
        # Z against the unit band sits at the critical density: a negative uncertainty made the default tol
        # negative and ruled out both properties, and a negative lower density ruled out sampling
        run(workspace, "gen", "--scheme", "z.json", "--box", "-100", "100", "--out", "p.json")
        assert run(workspace, "density", "--patch", "p.json", "--folner", "10,20,40", "--out", "d.json") == 0
        report = json.loads((workspace / "d.json").read_text())
        report[key]["value"] = value
        (workspace / "d.json").write_text(json.dumps(report))
        capsys.readouterr()
        assert run(workspace, "verdict", "--kernel", "pw.json", "--density", "d.json", "--out", "v.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config error" in err[0] and "finite and at least 0" in err[0]
        assert not (workspace / "v.json").exists()

    def test_negative_hull_limit_is_config_error(self, workspace, capsys):
        run(workspace, "gen", "--scheme", "fib.json", "--box", "-50", "50", "--out", "p.json")
        capsys.readouterr()
        argv = ["hull-sample", "--patch", "p.json", "--k-box", "-5", "5", "--limit", "-5", "--out", "s.json"]
        assert run(workspace, *argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config error" in err[0] and "limit" in err[0]
        assert not (workspace / "s.json").exists()

    def test_gram_past_dense_limit_is_operation_error(self, workspace, capsys):
        run(workspace, "gen", "--scheme", "z.json", "--box", "-2000", "2000", "--out", "p.json")  # 4,001 points
        capsys.readouterr()
        argv = ["frame", "--kernel", "pw.json", "--patch", "p.json", "--truncations", "500,1000,2000", "--out", "f.json"]
        assert run(workspace, *argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "dense limit is 4000" in err[0]
        assert not (workspace / "f.json").exists()


def _snapshot(workspace) -> dict[str, bytes | None]:
    """Every file and directory under the workspace, with the bytes of each file."""
    return {str(p.relative_to(workspace)): p.read_bytes() if p.is_file() else None for p in workspace.rglob("*")}


class TestAllOrNothing:
    """``aperio run`` writes no file and no stdout unless every step succeeds."""

    @staticmethod
    def run_steps(workspace, capsys, steps):
        (workspace / "cfg.json").write_text(json.dumps({"steps": steps}))
        capsys.readouterr()
        before = _snapshot(workspace)
        code = run(workspace, "run", "--config", "cfg.json")
        out, err = capsys.readouterr()
        return code, out, err.strip().splitlines(), before

    def test_bad_box_in_later_step_writes_nothing(self, workspace, capsys):
        bad_gen = {"command": "gen", "args": {"scheme": "z.json", "box": [5, -5], "out": "q.json"}}
        code, out, err, before = self.run_steps(workspace, capsys, [_GEN_STEP, bad_gen])
        assert code == 1 and out == "" and len(err) == 1
        assert _snapshot(workspace) == before

    def test_operation_error_in_later_step_writes_nothing(self, workspace, capsys):
        steps = [
            {"command": "gen", "args": {"scheme": "z.json", "box": [-10, 10], "out": "p.json"}},
            {"command": "gen", "args": {"scheme": "z.json", "box": [-3, 3]}},  # to stdout
            # Folner size beyond the patch: operation error, as in test_operation_error_exit_one
            {"command": "density", "args": {"patch": "p.json", "folner": [5, 50], "out": "d.json"}},
        ]
        code, out, err, before = self.run_steps(workspace, capsys, steps)
        assert code == 1 and out == "" and len(err) == 1
        assert _snapshot(workspace) == before

    def test_extra_patch_of_another_dimension_writes_nothing(self, workspace, capsys):
        steps = [
            {"command": "gen", "args": {"scheme": "z.json", "box": [-20.5, 20.5], "out": "p1.json"}},
            {"command": "gen", "args": {"scheme": "z2.json", "box": [-10, 10, -10, 10], "out": "p2.json"}},
            {"command": "density", "args": {"patch": "p1.json", "folner": [2, 4, 8], "extras": ["p2.json"], "ell": 1, "out": "d.json"}},
        ]
        code, out, err, before = self.run_steps(workspace, capsys, steps)
        assert code == 2 and out == "" and len(err) == 1
        assert "config error" in err[0] and "dimension 2, the base patch 1" in err[0]
        assert _snapshot(workspace) == before

    def test_unknown_weil_function_is_config_error(self, workspace, capsys):
        weil = {"command": "weil-check", "args": {"scheme": "z.json", "function": "bogus", "out": "w.json"}}
        code, out, err, before = self.run_steps(workspace, capsys, [_GEN_STEP, weil])
        assert code == 2 and out == ""
        assert len(err) == 1 and "config error" in err[0] and "bogus" in err[0]
        assert _snapshot(workspace) == before

    @pytest.mark.parametrize(
        "command, args, key",
        [
            ("hull-sample", {"patch": "p.json", "k_box": [-5, 5], "translates": "bogus"}, "translates"),
            ("weil-check", {"scheme": "z.json", "function": "bogus"}, "function"),
        ],
        ids=["translates", "function"],
    )
    def test_value_outside_a_literal_is_refused_up_front(self, workspace, capsys, command, args, key):
        # the message comes from the argument check of step 1, not from the handler
        step = {"command": command, "args": {**args, "out": "o.json"}}
        code, out, err, before = self.run_steps(workspace, capsys, [_GEN_STEP, step])
        assert code == 2 and out == ""
        assert len(err) == 1 and "config error" in err[0] and f"step 1: {command}: {key!r}" in err[0]
        assert _snapshot(workspace) == before

    @pytest.mark.parametrize("blocker", ["outdir", "afile/b.json"], ids=["directory", "parent-is-file"])
    def test_unwritable_output_writes_nothing(self, workspace, capsys, blocker):
        # staged in step order: a.json comes first and must not reach the disk
        (workspace / "outdir").mkdir()
        (workspace / "afile").write_text("x")
        steps = [
            {"command": "gen", "args": {"scheme": "z.json", "box": [-5, 5], "out": "a.json"}},
            {"command": "gen", "args": {"scheme": "z.json", "box": [-3, 3], "out": blocker}},
        ]
        code, out, err, before = self.run_steps(workspace, capsys, steps)
        assert code == 2 and out == "" and len(err) == 1 and "cannot write" in err[0]
        assert _snapshot(workspace) == before  # no output and no temporary file

    def test_leftover_temporary_file_neither_blocks_nor_is_touched(self, workspace, capsys):
        # a run killed between opening its temporary sibling and renaming it leaves the file behind
        leftover = workspace / ".p.json.aperio-tmp"
        leftover.write_text("left by a killed run")
        code, out, err, _ = self.run_steps(workspace, capsys, [_GEN_STEP])
        assert code == 0 and out == "" and err == []
        assert json.loads((workspace / "p.json").read_bytes())["box"]
        assert leftover.read_text() == "left by a killed run"
        assert list(workspace.glob(".*")) == [leftover]

    def test_interrupted_commit_removes_its_temporary_files(self, workspace, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        before = _snapshot(workspace)
        with pytest.raises(KeyboardInterrupt):
            run(workspace, "gen", "--scheme", "z.json", "--box", "-5", "5", "--out", "p.json")
        assert _snapshot(workspace) == before

    def test_later_step_reads_staged_output_as_written(self, workspace, capsys):
        (workspace / "sub").mkdir()
        steps = [
            _GEN_STEP,
            {"command": "density", "args": {"patch": "sub/../p.json", "folner": [5, 10], "out": "d.json"}},
            {"command": "gen", "args": {"scheme": "z.json", "box": [-2, 2]}},
            {"command": "gen", "args": {"scheme": "z.json", "box": [-1, 1]}},
        ]
        code, out, err, _ = self.run_steps(workspace, capsys, steps)
        assert code == 0 and err == []
        density = json.loads((workspace / "d.json").read_bytes())
        patch_hash = io_json.sha256_bytes((workspace / "p.json").read_bytes())
        assert density["provenance"]["inputs"]["patch:sub/../p.json"] == patch_hash
        # both stdout outputs, in step order
        halves = out.split("}\n{")
        assert len(halves) == 2 and "-2.0" in halves[0] and "-1.0" in halves[1]


class TestArgumentValues:
    """Every command line and every ``run`` step passes one argument check; bad values exit 2 before any output."""

    @staticmethod
    def refused(workspace, capsys, argv, *needles):
        run(workspace, "gen", "--scheme", "fib.json", "--box", "-50", "50", "--out", "p.json")
        run(workspace, "density", "--patch", "p.json", "--folner", "5,10", "--out", "d.json")
        capsys.readouterr()
        before = _snapshot(workspace)
        assert run(workspace, *argv) == 2
        out, err = capsys.readouterr()
        err = err.strip().splitlines()
        assert out == "" and len(err) == 1 and "config error" in err[0]
        assert all(needle in err[0] for needle in needles)
        assert _snapshot(workspace) == before

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["amalgam", "--kernel", "pw.json", "--q", "nan", "--trunc", "20", "--step", "0.02"], "'q'"),
            (["frame", "--kernel", "pw.json", "--patch", "p.json", "--truncations", "10,20", "--margin-frac", "nan"], "'margin_frac'"),
        ],
        ids=["amalgam-q", "frame-margin-frac"],
    )
    def test_nan_argument_is_config_error(self, workspace, capsys, argv, key):
        self.refused(workspace, capsys, [*argv, "--out", "o.json"], key, "finite")
        step = {"command": argv[0], "args": {"kernel": "pw.json", "out": "o.json"}}
        if argv[0] == "amalgam":
            step["args"].update(q=math.nan, trunc=20, step=0.02)
        else:
            step["args"].update(patch="p.json", truncations=[10, 20], margin_frac=math.nan)
        (workspace / "cfg.json").write_text(json.dumps({"steps": [step]}))
        self.refused(workspace, capsys, ["run", "--config", "cfg.json"], "step 0", key, "finite")

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["gen", "--scheme", "z.json", "--box", "-inf", "20"], "'box' must be list[float] with finite numbers"),
            (["gen", "--scheme", "z.json", "--box", "-20", "-INFINITY"], "'box' must be list[float] with finite numbers"),
            (["verdict", "--kernel", "pw.json", "--density", "d.json", "--tol", "-nan"], "'tol' must be float | None with finite numbers"),
        ],
        ids=["box-minus-inf", "box-minus-infinity", "tol-minus-nan"],
    )
    def test_minus_inf_and_nan_are_values_not_flags(self, workspace, capsys, argv, key):
        # argparse's own pattern took them for flags: exit 2 with "expected one argument", before any check
        self.refused(workspace, capsys, [*argv, "--out", "o.json"], key)

    @pytest.mark.parametrize(
        "argv",
        [
            ["hull-sample", "--patch", "p.json", "--k-box", "-5", "5", "--translates", "grid", "--grid-step", "0"],
            ["hull-sample", "--patch", "p.json", "--k-box", "-5", "5", "--translates", "grid", "--grid-step", "-1"],
            ["amalgam", "--kernel", "pw.json", "--q", "0.5", "--trunc", "20", "--step", "0"],
        ],
        ids=["grid-step-zero", "grid-step-negative", "amalgam-step-zero"],
    )
    def test_step_not_positive_is_config_error(self, workspace, capsys, argv):
        self.refused(workspace, capsys, [*argv, "--out", "o.json"], "must be positive")

    @pytest.mark.parametrize(
        "command, args, key",
        [
            ("frame", {"kernel": "pw.json", "patch": "p.json", "truncations": [0, 10, 20]}, "truncations"),
            ("frame", {"kernel": "pw.json", "patch": "p.json", "truncations": [10, 20], "margin_frac": -1.0}, "margin_frac"),
            ("frame", {"kernel": "pw.json", "patch": "p.json", "truncations": [10, 20], "margin_frac": 3.0}, "margin_frac"),
            ("weil-check", {"scheme": "z.json", "quadrature_n": 0}, "quadrature_n"),
            ("weil-check", {"scheme": "z.json", "function": "gaussian", "trunc": -1.0}, "trunc"),
            ("amalgam", {"kernel": "pw.json", "q": -1.0, "trunc": 20.0, "step": 0.02}, "q_radius must be positive"),
            ("amalgam", {"kernel": "pw.json", "q": 0.5, "trunc": 20.0, "step": 1e-9}, "exceeds the limit"),
            # 9e10 translates, refused before any is built, whatever --limit says
            ("hull-sample", {"patch": "p.json", "k_box": [-5, 5], "translates": "grid", "grid_step": 1e-9, "limit": 1}, "exceeds the limit"),
            ("weil-check", {"scheme": "z.json", "quadrature_n": 10**12}, "exceeds the limit"),
            ("weil-check", {"scheme": "z.json", "quadrature_n": 10**400}, "grid of inf positions exceeds the limit"),
            ("density", {"patch": "p.json", "folner": [5, 10], "ell": 0}, "ell must be >= 1"),
            ("verdict", {"kernel": "pw.json", "density": "d.json", "ell": 0}, "ell must be >= 1"),
            ("verdict", {"kernel": "pw.json", "density": "d.json", "tol": -0.5}, "tol must be >= 0"),
            ("gen", {"scheme": "z.json", "box": [-1e9, 1e9]}, "integer candidates exceeds the limit"),
            ("weil-check", {"scheme": "z.json", "function": "gaussian", "trunc": 1e20}, "integer candidates exceeds the limit"),
            # sizes past every double: one refusal line, with no overflow warning before it
            ("amalgam", {"kernel": "gg.json", "q": 0.5, "trunc": 1e308, "step": 0.1}, "grid of inf positions exceeds the limit"),
            ("weil-check", {"scheme": "z.json", "function": "gaussian", "trunc": 1e308}, "enumeration of inf integer candidates"),
            ("amalgam", {"kernel": "pw.json", "q": 0.5, "trunc": 20.0, "step": 0.6}, "grid too coarse"),
            ("amalgam", {"kernel": "pw.json", "q": 0.5, "trunc": 0.4, "step": 0.02}, "trunc_radius must exceed q_radius"),
            # every truncation is valid, but margin_frac * t underflows to 0
            ("frame", {"kernel": "pw.json", "patch": "p.json", "truncations": [1e-300, 2e-300, 4e-300], "margin_frac": 1e-100}, "margin must be positive"),
        ],
        ids=[
            "truncation-zero", "margin-negative", "margin-past-one", "quadrature-zero", "trunc-negative",
            "amalgam-q-negative", "amalgam-grid-past-limit", "hull-grid-past-limit", "quadrature-past-limit",
            "quadrature-past-every-double", "density-ell-zero", "verdict-ell-zero", "verdict-tol-negative",
            "gen-enumeration-past-limit", "weil-enumeration-past-int64", "amalgam-grid-past-every-double",
            "weil-enumeration-past-every-double", "amalgam-step-past-q", "amalgam-trunc-below-q",
            "frame-margin-underflows",
        ],
    )
    def test_argument_out_of_range_is_config_error(self, workspace, capsys, command, args, key):
        argv = [command]
        for name, value in args.items():
            if name in ("folner", "truncations"):  # one comma-separated token
                value = ",".join(map(str, value))
            argv += ["--" + name.replace("_", "-"), *map(str, value if isinstance(value, list) else [value])]
        self.refused(workspace, capsys, [*argv, "--out", "o.json"], key)
        (workspace / "cfg.json").write_text(json.dumps({"steps": [{"command": command, "args": {**args, "out": "o.json"}}]}))
        self.refused(workspace, capsys, ["run", "--config", "cfg.json"], key)

    @pytest.mark.parametrize(
        "argv, said",
        [
            (["gen", "--scheme", "z.json", "--box", "-5", "5", "-5", "5"], "box has 2 interval(s), expected 1"),
            (["gen", "--scheme", "z.json", "--box", "-5", "5", "7"], "shape (3,) do not form rows of 2"),
            (["hull-sample", "--patch", "p.json", "--k-box", "-5", "5", "-5", "5"], "box has 2 interval(s), expected 1"),
            (["frame", "--kernel", "pw2.json", "--patch", "p.json", "--truncations", "10,20,40"], "do not form rows of 2"),
        ],
        ids=["gen-box", "gen-box-odd", "hull-k-box", "frame-kernel"],
    )
    def test_input_of_another_dimension_is_config_error(self, workspace, capsys, argv, said):
        # a degenerate interval stays an operation error (exit 1): test_bad_box_in_later_step_writes_nothing
        (workspace / "pw2.json").write_text(json.dumps({"kind": "paley_wiener", "band": [[-0.5, 0.5]] * 2}))
        self.refused(workspace, capsys, [*argv, "--out", "o.json"], said)

    @pytest.mark.parametrize(
        "scheme, said",
        [
            (_FIB_BASIS, "scheme JSON has no 'window' key"),
            ({**_FIB_BASIS, "window": []}, "scheme window must be a list of one box, got 0"),
            (
                {**_FIB_BASIS, "window": [{"lo": [-0.5], "hi": [0.0]}, {"lo": [0.0], "hi": [0.5]}]},
                "scheme window must be a list of one box, got 2",
            ),
            ({"d": 1, "m": 0, "basis": [[1.0]], "window": [{"lo": [-0.5], "hi": [0.5]}]}, "an m = 0 scheme takes no window"),
            ({"d": 1, "m": 0, "basis": [[1.0]], "window": [{"lo": [], "hi": []}]}, "an m = 0 scheme takes no window"),
            ({"d": 1, "m": 0, "basis": [[1.0]], "window": None}, "an m = 0 scheme takes no window"),
        ],
        ids=["missing", "no-box", "two-boxes", "m0-with-window", "m0-with-empty-box", "m0-with-null"],
    )
    def test_scheme_window_not_one_box_is_config_error(self, workspace, capsys, scheme, said):
        (workspace / "s.json").write_text(json.dumps(scheme))
        self.refused(workspace, capsys, ["gen", "--scheme", "s.json", "--box", "-3", "3", "--out", "o.json"], said)
        (workspace / "cfg.json").write_text(json.dumps({"steps": [{"command": "gen", "args": {"scheme": "s.json", "box": [-3, 3]}}]}))
        self.refused(workspace, capsys, ["run", "--config", "cfg.json"], said)

    def test_injectivity_search_past_the_limit_is_config_error(self, workspace, capsys):
        # the 7^10 vectors of [-3, 3]^10, built at once, would take about 50 GB
        scheme = {"d": 1, "m": 9, "basis": np.eye(10).tolist(), "window": [{"lo": [-0.5] * 9, "hi": [0.5] * 9}]}
        (workspace / "s.json").write_text(json.dumps(scheme))
        argv = ["gen", "--scheme", "s.json", "--box", "-3", "3", "--out", "o.json"]
        self.refused(workspace, capsys, argv, "injectivity search", "d + m = 10")

    @pytest.mark.parametrize(
        "band, argv",
        [
            ([[-1e-200, 1e-200]] * 2, ["frame", "--kernel", "k.json", "--patch", "z2p.json", "--truncations", "1,2,3"]),
            ([[-1e200, 1e200]] * 2, ["frame", "--kernel", "k.json", "--patch", "z2p.json", "--truncations", "1,2,3"]),
            ([[-1e300, 1e300]], ["amalgam", "--kernel", "k.json", "--q", "0.5", "--trunc", "1", "--step", "0.1"]),
            ([[-1e-200, 1e-200]] * 2, ["verdict", "--kernel", "k.json", "--density", "z2d.json"]),
        ],
        ids=["frame-zero", "frame-infinite", "amalgam-square-overflows", "verdict-zero"],
    )
    def test_degenerate_kernel_is_config_error(self, workspace, capsys, band, argv):
        # the kernel's critical density underflows to 0, overflows to inf, or its square does: once a
        # ZeroDivisionError, a NaN Hermitian defect, an infinite norm, and a verdict against a density of 0
        run(workspace, "gen", "--scheme", "z2.json", "--box", "-3", "3", "-3", "3", "--out", "z2p.json")
        run(workspace, "density", "--patch", "z2p.json", "--folner", "1,2", "--out", "z2d.json")
        (workspace / "k.json").write_text(json.dumps({"kind": "paley_wiener", "band": band}))
        self.refused(workspace, capsys, [*argv, "--out", "o.json"], "must be positive and its square finite")

    @pytest.mark.parametrize(
        "argv",
        [["csv", "--report", "bad.json", "--columns", "n,inf,sup"], ["verdict", "--kernel", "pw.json", "--density", "bad.json"]],
        ids=["csv", "verdict"],
    )
    def test_bad_per_size_density_estimate_is_config_error(self, workspace, capsys, argv):
        # a NaN inf at the first size and a negative sup at the second: once printed and judged with exit 0
        run(workspace, "gen", "--scheme", "z.json", "--box", "-20", "20", "--out", "zp.json")
        run(workspace, "density", "--patch", "zp.json", "--folner", "2,4", "--out", "zd.json")
        report = json.loads((workspace / "zd.json").read_text())
        report["rows"][0]["inf"]["value"] = "nan"
        report["rows"][1]["sup"]["value"] = "-5.0"
        (workspace / "bad.json").write_text(json.dumps(report))
        self.refused(workspace, capsys, [*argv, "--out", "o.out"], "density report estimates must be finite and at least 0")

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--patch", "p.json", "--folner", "5,abc"],
            ["frame", "--kernel", "pw.json", "--patch", "p.json", "--truncations", "1,x"],
        ],
        ids=["folner", "truncations"],
    )
    def test_non_number_in_a_list_is_a_usage_error(self, workspace, capsys, argv):
        run(workspace, "gen", "--scheme", "fib.json", "--box", "-50", "50", "--out", "p.json")
        capsys.readouterr()
        before = _snapshot(workspace)
        with pytest.raises(SystemExit) as exc:  # as argparse refuses --box abc
            run(workspace, *argv, "--out", "o.json")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: expected comma-separated numbers, got '{argv[-1]}'" in err
        assert "_csv_floats" not in err
        assert _snapshot(workspace) == before

    def test_frame_failure_from_the_patch_is_operation_error(self, workspace, capsys):
        # valid arguments, but a 7-point patch leaves no interior region at t = 10
        run(workspace, "gen", "--scheme", "z.json", "--box", "-3", "3", "--out", "small.json")
        capsys.readouterr()
        before = _snapshot(workspace)
        assert run(workspace, "frame", "--kernel", "pw.json", "--patch", "small.json", "--truncations", "10,20,40", "--out", "o.json") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "no interior region" in err[0]
        assert _snapshot(workspace) == before

    def test_empty_smallest_truncation_is_operation_error(self, workspace, capsys):
        # Z + 1/2 has no point in [-0.4, 0.4]: refused before the larger truncations are solved
        points = [[k + 0.5] for k in range(-10, 10)]
        (workspace / "half.json").write_text(json.dumps({"dim": 1, "box": [[-10, 10]], "points": points}))
        before = _snapshot(workspace)
        assert run(workspace, "frame", "--kernel", "pw.json", "--patch", "half.json", "--truncations", "0.4,5,10", "--out", "o.json") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "truncation 0.4 holds no point" in err[0]
        assert _snapshot(workspace) == before

    @pytest.mark.parametrize(
        "kernel, points, truncations",
        [
            ({"kind": "paley_wiener", "band": [[-0.5, 0.5]]}, [[-1.7e308], [0.0], [1.7e308]], "1,1e308,1.75e308"),
            ({"kind": "gabor_gaussian", "n": 1}, [[-1.7e308, 1.7e308], [0.0, 0.0], [1.7e308, -1.7e308]], "1,1e308,1.75e308"),
            ({"kind": "paley_wiener", "band": [[-1e100, 1e100]]}, [[-1e300], [0.0], [1e300]], "1,1e299,1.5e300"),
        ],
        ids=["pw-near-max", "gabor-near-max", "wide-band"],
    )
    def test_points_past_the_kernel_range_are_operation_error(self, workspace, capsys, kernel, points, truncations):
        # their kernel entries were NaN: once overflow warnings, then "Gram entries are not Hermitian (defect nan)"
        dim = len(points[0])
        (workspace / "k.json").write_text(json.dumps(kernel))
        (workspace / "far.json").write_text(json.dumps({"dim": dim, "box": [[-_MAX, _MAX]] * dim, "points": points}))
        before = _snapshot(workspace)
        assert run(workspace, "frame", "--kernel", "k.json", "--patch", "far.json", "--truncations", truncations, "--out", "o.json") == 1
        out, err = capsys.readouterr()
        err = err.strip().splitlines()
        assert out == "" and len(err) == 1 and "past the kernel's finite range" in err[0]
        assert _snapshot(workspace) == before

    def test_anchor_grid_past_the_kernel_range_names_the_interior_box(self, workspace, capsys):
        # three points within +-1 in a box of +-1e305: the top truncation's anchors reach 7.14e304, which
        # kernel_matrix refused as "coordinates reach 7.14e+304", numbers the command line never gave
        (workspace / "wide.json").write_text(json.dumps({"dim": 1, "box": [[-1e305, 1e305]], "points": [[-1.0], [0.0], [1.0]]}))
        before = _snapshot(workspace)
        assert run(workspace, "frame", "--kernel", "pw.json", "--patch", "wide.json", "--truncations", "1.5,2,1e305", "--out", "o.json") == 1
        out, err = capsys.readouterr()
        err = err.strip().splitlines()
        assert out == "" and len(err) == 1
        assert "anchor grid of the interior box [(-7.5e+304, 7.5e+304)] reaches 7.14e+304" in err[0]
        assert "past the kernel's finite range" in err[0]
        assert _snapshot(workspace) == before

    def test_interior_box_volume_past_the_double_range_gives_one_anchor(self, workspace, capsys):
        # the top truncation's interior box is 1.5e200 wide per axis, so its area overflows and the patch
        # density is 0: once a ZeroDivisionError traceback from the anchor grid's spacing
        points = [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        (workspace / "far.json").write_text(json.dumps({"dim": 2, "box": [[-1e200, 1e200]] * 2, "points": points}))
        argv = ["frame", "--kernel", "gg.json", "--patch", "far.json", "--truncations", "1.5,2,1e200", "--out", "o.json"]
        assert run(workspace, *argv) == 0
        assert capsys.readouterr().err == ""
        rows = json.loads((workspace / "o.json").read_text())["rows"]
        assert all(math.isfinite(float(v)) for row in rows for key in ("A_samp", "B_samp") for v in row[key]["value"])

    def test_gen_past_double_resolution_names_the_precision(self, workspace, capsys):
        # adjacent doubles near 1e17 are 16 apart, so the integers in the box round onto each other
        assert run(workspace, "gen", "--scheme", "z.json", "--box", "1e17", "1.000000000000001e17", "--out", "o.json") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "(magnitude 1e+17) adjacent doubles are 16 apart" in err[0]
        assert not (workspace / "o.json").exists()

    @pytest.mark.parametrize("mode", [[], ["--translates", "grid", "--grid-step", "1"]], ids=["own", "grid"])
    def test_degenerate_k_box_is_operation_error_in_either_mode(self, workspace, mode):
        # as_box refuses the degenerate box (a plain ValueError, exit 1) before grid_translates checks the step (exit 2)
        run(workspace, "gen", "--scheme", "fib.json", "--box", "-50", "50", "--out", "p.json")
        assert run(workspace, "hull-sample", "--patch", "p.json", "--k-box", "5", "-5", *mode, "--out", "s.json") == 1
        assert not (workspace / "s.json").exists()


class TestHelp:
    """``--help`` lists one flag per handler argument and requires exactly the arguments without a default."""

    COMMANDS = {**HANDLERS, "run": handle_run}

    @staticmethod
    def help_text(capsys, *argv) -> str:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_top_level_help_names_every_command(self, capsys):
        out = self.help_text(capsys)
        assert all(re.search(rf"^ +{cmd} ", out, re.M) for cmd in self.COMMANDS)

    @pytest.mark.parametrize("cmd", sorted(COMMANDS))
    def test_command_help_flags_are_the_handler_arguments(self, capsys, cmd):
        out = self.help_text(capsys, cmd)
        params = list(inspect.signature(self.COMMANDS[cmd]).parameters.values())[1:]
        flags = {p.name: "--" + p.name.replace("_", "-") for p in params}
        listed = re.findall(r"(?<![\w-])--[a-z][a-z-]*", out.split("\noptions:\n")[1])
        assert sorted(listed) == sorted([*flags.values(), "--help"])
        usage = out.split("\n\n")[0]
        while re.search(r"\[[^][]*\]", usage):  # drop optional groups, innermost first
            usage = re.sub(r"\[[^][]*\]", "", usage)
        required = [flags[p.name] for p in params if p.default is p.empty]
        assert sorted(re.findall(r"--[a-z][a-z-]*", usage)) == sorted(required)


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

    def test_density_step_changes_no_report(self, workspace):
        # the benchmark configs pass "step": 0.25 to density; it is accepted and ignored
        (workspace / "z3.json").write_text(json.dumps({"d": 3, "m": 0, "basis": np.eye(3).tolist()}))
        gens = [
            {"command": "gen", "args": {"scheme": "z2.json", "box": [-8, 8, -8, 8], "out": "p2.json"}},
            {"command": "gen", "args": {"scheme": "z3.json", "box": [-4, 4] * 3, "out": "p3.json"}},
        ]
        reports = []
        for extra in ({}, {"step": 0.25}):
            steps = gens + [
                {"command": "density", "args": {"patch": f"p{d}.json", "folner": [1, 2], "ell": 1, **extra, "out": f"d{d}.json"}}
                for d in (2, 3)
            ]
            (workspace / "cfg.json").write_text(json.dumps({"steps": steps}))
            assert run(workspace, "run", "--config", "cfg.json") == 0
            reports.append([json.loads((workspace / f"d{d}.json").read_bytes()) for d in (2, 3)])
        plain, stepped = reports
        for a, b in zip(plain, stepped):
            assert a.pop("provenance") != b.pop("provenance")  # it hashes the config
            assert {r["inf"]["provenance"] for r in a["rows"]} == {"exact"}
        assert plain == stepped


class TestDecodeOnce:
    """``run`` decodes each input once per content: a file rewritten between steps is decoded again."""

    @staticmethod
    def run_config(workspace, steps):
        (workspace / "cfg.json").write_text(json.dumps({"steps": steps}))
        assert run(workspace, "run", "--config", "cfg.json") == 0

    def test_rewritten_patch_is_decoded_again(self, workspace):
        density = {"patch": "p.json", "folner": [5, 10], "ell": 1}
        self.run_config(
            workspace,
            [
                {"command": "gen", "args": {"scheme": "fib.json", "box": [-50, 50], "out": "p.json"}},
                {"command": "density", "args": {**density, "out": "d1.json"}},
                {"command": "gen", "args": {"scheme": "fib.json", "box": [-30, 40], "out": "p.json"}},
                {"command": "density", "args": {**density, "out": "d2.json"}},
            ],
        )
        assert run(workspace, "gen", "--scheme", "fib.json", "--box", "-50", "50", "--out", "first.json") == 0
        reports = []
        for out, patch in (("d1.json", "first.json"), ("d2.json", "p.json")):
            report = json.loads((workspace / out).read_bytes())
            patch_hash = io_json.sha256_bytes((workspace / patch).read_bytes())
            assert report.pop("provenance")["inputs"]["patch:p.json"] == patch_hash
            assert run(workspace, "density", "--patch", patch, "--folner", "5,10", "--ell", "1", "--out", "alone.json") == 0
            alone = json.loads((workspace / "alone.json").read_bytes())
            del alone["provenance"]
            assert report == alone
            reports.append(report)
        assert reports[0] != reports[1]

    def test_one_patch_in_three_steps_matches_single_commands(self, workspace, monkeypatch):
        assert run(workspace, "gen", "--scheme", "fib.json", "--box", "-60", "60", "--out", "p.json") == 0
        steps = [
            {"command": "density", "args": {"patch": "p.json", "folner": [5, 10], "out": "d.json"}},
            {"command": "frame", "args": {"kernel": "pw.json", "patch": "p.json", "truncations": [10, 20], "out": "f.json"}},
            {"command": "hull-sample", "args": {"patch": "p.json", "k_box": [-5, 5], "limit": 20, "out": "s.json"}},
        ]
        decode, calls = io_json.patch_from_jsonable, []
        monkeypatch.setattr(io_json, "patch_from_jsonable", lambda obj: calls.append(obj) or decode(obj))
        self.run_config(workspace, steps)
        assert len(calls) == 1
        in_run = {}
        for name in ("d.json", "f.json", "s.json"):
            obj = json.loads((workspace / name).read_bytes())
            if isinstance(obj, dict):  # a run's reports also record the config they came from
                del obj["provenance"]["inputs"]["config:cfg.json"]
            in_run[name] = io_json.canonical_dumps(obj).encode()
        assert run(workspace, "density", "--patch", "p.json", "--folner", "5,10", "--out", "d.json") == 0
        assert run(workspace, "frame", "--kernel", "pw.json", "--patch", "p.json", "--truncations", "10,20", "--out", "f.json") == 0
        assert run(workspace, "hull-sample", "--patch", "p.json", "--k-box", "-5", "5", "--limit", "20", "--out", "s.json") == 0
        assert {name: (workspace / name).read_bytes() for name in in_run} == in_run


    def test_generated_patch_is_not_decoded_and_reports_match_single_commands(self, workspace, monkeypatch):
        steps = [
            {"command": "gen", "args": {"scheme": "fib.json", "box": [-60, 60], "out": "p.json"}},
            {"command": "density", "args": {"patch": "p.json", "folner": [5, 10], "ell": 1, "out": "d.json"}},
            {"command": "frame", "args": {"kernel": "pw.json", "patch": "p.json", "truncations": [10, 20], "out": "f.json"}},
        ]
        decode, calls = io_json.patch_from_jsonable, []
        monkeypatch.setattr(io_json, "patch_from_jsonable", lambda obj: calls.append(obj) or decode(obj))
        self.run_config(workspace, steps)
        assert calls == []
        in_run = {"p.json": (workspace / "p.json").read_bytes()}
        for name in ("d.json", "f.json"):
            obj = json.loads((workspace / name).read_bytes())
            inputs = obj["provenance"]["inputs"]  # a run's reports also record its config and the gen step's scheme
            del inputs["config:cfg.json"], inputs["scheme:fib.json"]
            in_run[name] = io_json.canonical_dumps(obj).encode()
        assert run(workspace, "gen", "--scheme", "fib.json", "--box", "-60", "60", "--out", "p.json") == 0
        assert run(workspace, "density", "--patch", "p.json", "--folner", "5,10", "--ell", "1", "--out", "d.json") == 0
        assert run(workspace, "frame", "--kernel", "pw.json", "--patch", "p.json", "--truncations", "10,20", "--out", "f.json") == 0
        assert {name: (workspace / name).read_bytes() for name in in_run} == in_run


class TestInputBoundary:
    def test_density_report_without_rows_is_config_error(self, workspace, capsys):
        (workspace / "d.json").write_text(json.dumps({"kind": "density_report"}))
        assert run(workspace, "verdict", "--kernel", "pw.json", "--density", "d.json", "--out", "v.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config error" in err[0] and "'rows'" in err[0]
        assert not (workspace / "v.json").exists()

    @pytest.mark.parametrize(
        "cfg, said",
        [
            ([{"steps": []}], "object"),
            ({"steps": [_GEN_STEP, 1]}, "step 1"),
            (
                {"steps": [_GEN_STEP, {"command": "density", "args": {"patch": "p.json", "folner": [5], "ell": "1"}}]},
                "'ell'",
            ),
        ],
        ids=["config-not-object", "step-not-object", "arg-wrong-type"],
    )
    def test_malformed_run_config_writes_nothing(self, workspace, capsys, cfg, said):
        (workspace / "cfg.json").write_text(json.dumps(cfg))
        before = set(workspace.iterdir())
        assert run(workspace, "run", "--config", "cfg.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config error" in err[0] and said in err[0]
        assert set(workspace.iterdir()) == before

    @pytest.mark.parametrize(
        "points, said",
        [([[0.0, 0.0], ["abc", 1.0]], "patch point row 1"), ([[0.0, 0.0], [1.0]], "patch point row 1")],
        ids=["not-a-number", "wrong-length"],
    )
    def test_malformed_patch_values_are_config_errors(self, workspace, capsys, points, said):
        patch = {"dim": 2, "box": [[-5, 5], [-5, 5]], "points": points}
        (workspace / "p.json").write_text(json.dumps(patch))
        assert run(workspace, "density", "--patch", "p.json", "--folner", "1", "--out", "d.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config error" in err[0] and said in err[0]
        assert not (workspace / "d.json").exists()


# library calls that used scipy before aperio ported them to numpy; run in the fresh process and in this one
_LIBRARY_CALLS = """
import numpy as np
from aperio import FolnerSpec, beurling_density, generate_model_set, rel_separation
from aperio.cutproject import lattice_scheme
from aperio.rkhs import paley_wiener, wiener_amalgam_norm
square = generate_model_set(lattice_scheme([[1.0, 0.0], [0.0, 1.0]]), [(-3, 3), (-3, 3)])
cube = generate_model_set(lattice_scheme(np.eye(3)), [(-3, 3)] * 3)
values = [
    repr(rel_separation(square, 1.5)),
    repr(beurling_density(cube, FolnerSpec(sizes=(1.0,)))),
    repr(wiener_amalgam_norm(paley_wiener([(-0.5, 0.5)]), 0.5, 6.0, 0.1)),
]
"""

_STARTUP_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # importing scipy, or any scipy submodule, now raises ImportError
import aperio.cli
runs = [aperio.cli.main(["--workspace", sys.argv[1], "run", "--config", c]) for c in ("fib1d.json", "gabor2d.json")]
exec(sys.argv[2])
print(json.dumps({"runs": runs, "values": values}))
"""


class TestInputDigest:
    def test_builtin_sha256_and_hashlib_fallback_agree(self, monkeypatch):
        # the built-in module spares the process OpenSSL's libcrypto; hashlib stands in where it is missing
        builtin = io_json._builtin_sha256()
        assert builtin is not hashlib.sha256

        import_module = io_json.importlib.import_module

        def without_builtin(name):
            if name.startswith("_sha"):
                raise ImportError(f"no module named {name!r}")
            return import_module(name)

        monkeypatch.setattr(io_json.importlib, "import_module", without_builtin)
        fallback = io_json._builtin_sha256()
        assert fallback is hashlib.sha256
        assert builtin(b"abc").hexdigest() == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        for data in (b"", b"abc", bytes(range(256)) * 4099, (Path(__file__).read_bytes())):
            assert builtin(data).hexdigest() == fallback(data).hexdigest()
        monkeypatch.setattr(io_json, "_sha256", fallback)
        assert io_json.sha256_bytes(b"abc") == "sha256:" + builtin(b"abc").hexdigest()


class TestStartup:
    def test_cli_runs_pipelines_without_scipy(self, workspace):
        """With scipy blocked, both pipelines and every former scipy call run and give the same values."""
        (workspace / "gabor.json").write_text(json.dumps({"kind": "gabor_gaussian", "n": 1}))
        fib1d = [
            {"command": "gen", "args": {"scheme": "fib.json", "box": [-200, 200], "out": "f.json"}},
            {"command": "density", "args": {"patch": "f.json", "folner": [10, 20, 40], "ell": 1, "out": "fd.json"}},
            {"command": "verdict", "args": {"kernel": "pw.json", "density": "fd.json", "out": "fv.json"}},
            {"command": "frame", "args": {"kernel": "pw.json", "patch": "f.json", "truncations": [20, 40, 80], "out": "ff.json"}},
            {"command": "hull-sample", "args": {"patch": "f.json", "k_box": [-5, 5], "limit": 20, "out": "fs.json"}},
        ]
        gabor2d = [
            {"command": "gen", "args": {"scheme": "z2.json", "box": [-8, 8, -8, 8], "out": "g.json"}},
            {"command": "density", "args": {"patch": "g.json", "folner": [2, 4], "step": 0.5, "out": "gd.json"}},
            {"command": "verdict", "args": {"kernel": "gabor.json", "density": "gd.json", "out": "gv.json"}},
            {"command": "frame", "args": {"kernel": "gabor.json", "patch": "g.json", "truncations": [4, 6, 8], "out": "gf.json"}},
        ]
        (workspace / "fib1d.json").write_text(json.dumps({"steps": fib1d}))
        (workspace / "gabor2d.json").write_text(json.dumps({"steps": gabor2d}))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_SCRIPT, str(workspace), _LIBRARY_CALLS],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["runs"] == [0, 0]
        expected = {}
        exec(_LIBRARY_CALLS, expected)
        assert got["values"] == expected["values"]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

_VALID = {
    "patch": {"dim": 2, "box": [[-1, 1], [-1, 1]], "points": [[0, 0], ["0.5", "-0.5"]]},
    "scheme": {
        "d": 1,
        "m": 1,
        "basis": [[1.0, TAU], [1.0, TAU_CONJ]],
        "window": [{"lo": [-0.5], "hi": [0.5]}],
    },
    "kernel": {"kind": "paley_wiener", "band": [[-0.5, 0.5]]},
    "density": {
        "kind": "density_report",
        "rows": [
            {"n": "5.0", "inf": {"value": "0.9", "provenance": "exact"}, "sup": {"value": "1.1", "provenance": "exact"}}
        ],
        "extrapolated_lower": {"value": "0.9", "provenance": "trend"},
        "extrapolated_upper": {"value": "1.1", "provenance": "trend"},
        "uncertainty": {"value": "0.2", "provenance": "trend"},
        "certified_region_note": "",
        "covolume_bounds": {
            "covol_minus_lower": {"value": "0.9", "provenance": "trend"},
            "covol_plus_upper": {"value": "1.1", "provenance": "trend"},
        },
    },
    "frame": {
        "kind": "frame_report",
        "rows": [
            {
                "truncation": "10.0",
                "A": {"value": ["0.5", "0.6"], "provenance": "solver_bound(n=2)"},
                "B": {"value": ["1.5", "1.6"]},
            }
        ],
        "eigenvalues": {
            "above_rank_cut": {"value": [["0.5", "0.6"], ["1.5", "1.6"]], "provenance": "solver_bound(n=3)"},
            "below_rank_cut": {"count": 1, "value": ["0.0", "1e-09"], "provenance": "below_rank_cut"},
        },
    },
}

_DECODERS = {
    "patch": io_json.patch_from_jsonable,
    "scheme": io_json.scheme_from_jsonable,
    "kernel": io_json.kernel_from_jsonable,
    "density": io_json.density_report_from_jsonable,
}

_DECODER_ARGV = {
    "patch": ["density", "--patch", "in.json", "--folner", "0.5"],
    "scheme": ["gen", "--scheme", "in.json", "--box", "-3", "3"],
    "kernel": ["amalgam", "--kernel", "in.json", "--q", "1", "--trunc", "2", "--step", "0.5"],
    "density": ["verdict", "--kernel", "pw.json", "--density", "in.json"],
}


_ARG_NAMES = sorted({name for h in HANDLERS.values() for name in inspect.signature(h).parameters})
_ARG_VALUES = (
    _JSON | st.floats(-10, 10) | st.lists(st.floats(-10, 10), max_size=4) | st.sampled_from(["in.json", "out.json"])
)


def _run_step(data):
    """A step shaped like a real one: a known command with all its required args, of any values."""
    if data.draw(st.integers(0, 3)) == 0:
        return data.draw(_JSON)
    cmd = data.draw(st.sampled_from(sorted(HANDLERS)))
    args = {}
    for name, param in inspect.signature(HANDLERS[cmd]).parameters.items():
        if name != "ctx" and (param.default is param.empty or data.draw(st.booleans())):
            args[name] = data.draw(_ARG_VALUES)
    if data.draw(st.integers(0, 4)) == 0:
        args[data.draw(st.sampled_from(_ARG_NAMES) | st.text(max_size=6))] = data.draw(_ARG_VALUES)
    return {"command": cmd, "args": args}


def _mutated(data, obj):
    """``obj`` with one nested value replaced by an arbitrary JSON value, or one key dropped."""
    obj = copy.deepcopy(obj)
    node = obj
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans()):
            node = node[key]
        elif isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
            return obj
        else:
            node[key] = data.draw(_JSON)
            return obj


def _malformed(data, kind):
    return data.draw(_JSON) if data.draw(st.booleans()) else _mutated(data, _VALID[kind])


def _main_quiet(*argv) -> tuple[int, list[str]]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue().strip().splitlines()


class TestBoundaryFuzz:
    """Arbitrary JSON at the input boundary: a config error (exit 2) or a decoded value, never a traceback."""

    @pytest.mark.parametrize("kind", sorted(_DECODERS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_decoders_raise_only_config_errors(self, kind, data):
        try:
            _DECODERS[kind](_malformed(data, kind))
        except ConfigError:
            pass

    @pytest.mark.parametrize("kind", sorted(_DECODERS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_cli_exits_two_on_undecodable_input(self, kind, data):
        obj = _malformed(data, kind)
        try:
            _DECODERS[kind](obj)
        except ConfigError:
            pass
        else:
            return  # decodable: the subcommand would run on it
        with tempfile.TemporaryDirectory() as tmp:
            ws = Path(tmp)
            (ws / "in.json").write_text(json.dumps(obj))
            (ws / "pw.json").write_text(json.dumps(_VALID["kernel"]))
            code, err = _main_quiet("--workspace", tmp, *_DECODER_ARGV[kind], "--out", "out.json")
            assert code == 2 and len(err) == 1
            assert not (ws / "out.json").exists()

    @pytest.mark.parametrize(
        "kind, columns", [("density", "n,inf,sup"), ("frame", "truncation,A,B"), ("frame", "eigenvalue")]
    )
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_csv_exits_zero_or_two(self, kind, columns, data):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "in.json").write_text(json.dumps(_malformed(data, kind)))
            code, err = _main_quiet("--workspace", tmp, "csv", "--report", "in.json", "--columns", columns, "--out", "out.csv")
            assert code == 0 or (code == 2 and len(err) == 1)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_run_config_exits_two_and_writes_nothing(self, data):
        if data.draw(st.booleans()):
            cfg = {"steps": [_run_step(data) for _ in range(data.draw(st.integers(1, 3)))]}
        else:
            cfg = data.draw(_JSON | st.fixed_dictionaries({}, optional={"seed": _JSON, "steps": _JSON}))
        with tempfile.TemporaryDirectory() as tmp:
            ws = Path(tmp)
            (ws / "cfg.json").write_text(json.dumps(cfg))
            code, err = _main_quiet("--workspace", tmp, "run", "--config", "cfg.json")
            assert code == 2 and len(err) == 1
            assert [p.name for p in ws.iterdir()] == ["cfg.json"]
