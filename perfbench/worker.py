"""One fresh benchmark process: set up a workload, then run timed passes.

Started by ``run.py`` from the root of a checkout; prints one JSON result
line last on standard output.  Modes:

* ``measure``: set up, one cold pass, then warm passes until ``--budget``
  seconds have passed since the cold pass ended (at least one);
* ``trace``: set up, one untraced reference pass, then traced and untraced
  passes in turn for ``--budget`` seconds, then the scaling probe;
* ``frame``: time the workload's ``frame_trend_report`` once on the inputs
  a previous worker left in the workspace (run with a one-thread BLAS).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

from workloads import CONFIG, DENSE_K, SEPARATION_U, WORKLOADS, check_outputs  # noqa: E402


class Pipeline:
    """The aperio modules one pass needs, imported once per process."""

    def __init__(self, wl, workspace: Path):
        import aperio
        import aperio.cli
        import aperio.io_json
        import aperio.pointset

        if not Path(aperio.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"aperio imported from {aperio.__file__}, not from {ROOT / 'src'}")
        self.cli = aperio.cli
        self.io_json = aperio.io_json
        self.pointset = aperio.pointset
        self.wl = wl
        self.ws = workspace
        self.argv = ["--workspace", str(workspace), "run", "--config", CONFIG]

    def run(self):
        """One pass: the ``aperio run`` pipeline, then the separation calls on its patch."""
        rc = self.cli.main(self.argv)
        if rc != 0:
            raise RuntimeError(f"aperio run exited with code {rc}")
        if not self.wl.separation:
            return None
        patch = self.io_json.patch_from_jsonable(json.loads((self.ws / "patch.json").read_bytes()))
        stats = self.pointset.rel_separation(patch, SEPARATION_U)
        dense = self.pointset.is_relatively_dense(patch, DENSE_K)
        return stats, dense

    def digest(self, separation) -> str:
        h = hashlib.sha256()
        for name in self.wl.outputs():
            h.update((self.ws / name).read_bytes())
        h.update(repr(separation).encode())
        return h.hexdigest()


class Passes:
    """Times passes and records failures; a pass fails if it raises or a check fails."""

    def __init__(self, pipe: Pipeline):
        self.pipe = pipe
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: str | None = None

    def timed(self) -> float:
        self.attempted += 1
        t0 = perf_counter()
        try:
            sep = self.pipe.run()
        except Exception:  # a failed pass is counted, and the run goes on
            elapsed = perf_counter() - t0
            self.failures.append(traceback.format_exc(limit=3))
            return elapsed
        elapsed = perf_counter() - t0
        bad = check_outputs(self.pipe.wl, self.pipe.ws, sep)
        digest = self.pipe.digest(sep)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            bad.append("reports differ from the first pass")
        if bad:
            self.failures.append("; ".join(bad))
        return elapsed

    def result(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:3],
            "digest": self.reference,
        }


def _scaling_probe(pipe: Pipeline) -> float:
    """Exponent e of gen time ~ width^e, from the workload box and half its width."""
    import aperio.cutproject as cutproject

    scheme = pipe.io_json.scheme_from_jsonable(json.loads((pipe.ws / "scheme.json").read_bytes()))
    box = [(float(lo), float(hi)) for lo, hi in json.loads((pipe.ws / "patch.json").read_bytes())["box"]]
    half = [((lo + hi) / 2 - (hi - lo) / 4, (lo + hi) / 2 + (hi - lo) / 4) for lo, hi in box]

    def gen_time(b) -> float:
        times = []
        while len(times) < 5 and sum(times) < 1.0:
            t0 = perf_counter()
            cutproject.generate_model_set(scheme, b)
            times.append(perf_counter() - t0)
        return statistics.median(times)

    return math.log2(gen_time(box) / gen_time(half))


def measure(pipe: Pipeline, budget: float) -> dict:
    passes = Passes(pipe)
    cold = passes.timed()
    t0 = perf_counter()
    warm = [passes.timed()]
    while perf_counter() - t0 < budget:
        warm.append(passes.timed())
    out = passes.result()
    out.update(cold_s=cold, warm_s=warm, maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return out


def trace(pipe: Pipeline, budget: float, spans_out: Path) -> dict:
    from tracer import Tracer, install_aperio, pass_metrics, write_spans

    tracer = Tracer()
    install_aperio(tracer)
    passes = Passes(pipe)
    passes.timed()  # cold, untraced: its reports are the reference for every later pass
    t0 = perf_counter()
    traced, untraced, recorded = [], [], []
    while not traced or not untraced or perf_counter() - t0 < budget:
        with tracer.installed(), tracer.root():
            traced.append(passes.timed())
        recorded.append(tracer.take())
        untraced.append(passes.timed())
    per_pass = [pass_metrics(spans) for spans in recorded]
    metrics = {
        k: (sum if k.endswith(".errors") else statistics.median)([m[k] for m in per_pass]) for k in per_pass[0]
    }
    metrics["cutproject.scaling_exp"] = _scaling_probe(pipe)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    write_spans(spans_out, recorded)
    out = passes.result()
    out.update(metrics=metrics, traced_s=traced, untraced_s=untraced)
    return out


def frame_single_thread(pipe: Pipeline) -> dict:
    import aperio.framekit as framekit

    frame = next(s["args"] for s in pipe.wl.steps(0) if s["command"] == "frame")
    kernel = pipe.io_json.kernel_from_jsonable(json.loads((pipe.ws / frame["kernel"]).read_bytes()))
    patch = pipe.io_json.patch_from_jsonable(json.loads((pipe.ws / frame["patch"]).read_bytes()))
    t0 = perf_counter()
    framekit.frame_trend_report(kernel, patch, frame["truncations"])
    return {"single_thread_s": perf_counter() - t0}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("measure", "trace", "frame"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workspace", type=Path, required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    if args.mode == "frame":
        result = frame_single_thread(Pipeline(wl, args.workspace))
    else:
        t0 = perf_counter()
        pipe = Pipeline(wl, args.workspace)
        wl.write_inputs(args.workspace, args.seed)
        result = {"setup_s": perf_counter() - t0}
        if args.mode == "measure":
            result.update(measure(pipe, args.budget))
        elif args.mode == "trace":
            result.update(trace(pipe, args.budget, args.spans_out))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
