"""aperio benchmark: three pinned pipelines, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {fib1d,gabor2d,fib2d} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json,
measured with the program unmodified; with ``--trace 1`` the per-layer
metrics, from a separate run that wraps aperio's public functions in spans.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every measurement runs in a fresh worker process, one after another; this
process only starts them, waits for each and aggregates.  The closed loop
runs passes back to back, each starting when the previous one has ended.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORK_DIR = ROOT / ".perfbench"
DEADLINE_S = 170.0

WORKERS = 6  # fresh processes, each with one set-up, one cold pass and warm passes, untraced

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


class WorkerError(RuntimeError):
    pass


def _spawn(args: list[str], deadline: float, env: dict | None = None) -> dict:
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args[0]} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def end_to_end(common: list[str], seconds: float, deadline: float) -> tuple[dict, list[dict]]:
    runs = [_spawn(["measure", *common, "--budget", str(seconds / WORKERS)], deadline) for _ in range(WORKERS)]
    warm = [t for r in runs for t in r["warm_s"]]
    metrics = {
        "pipeline_s": statistics.median(warm),
        "cold_pass_s": statistics.median(r["cold_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in runs),
    }
    print(
        f"# pipeline_s: median of {len(warm)} warm passes, range {min(warm):.4f}-{max(warm):.4f} s; "
        f"cold_pass_s and setup_s: medians of {len(runs)} processes"
    )
    return metrics, runs


def per_layer(wl, common: list[str], seconds: float, deadline: float, spans: Path) -> tuple[dict, list[dict]]:
    run = _spawn(["trace", *common, "--budget", str(seconds), "--spans-out", str(spans)], deadline)
    metrics = dict(run["metrics"])
    metrics["framekit.single_thread_s"] = 0.0
    if wl.frame_truncations:
        one_thread = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        metrics["framekit.single_thread_s"] = _spawn(["frame", *common], deadline, one_thread)["single_thread_s"]
    print(
        f"# {len(run['traced_s'])} traced and {len(run['untraced_s'])} untraced warm passes; "
        f"spans in {spans.relative_to(ROOT)}"
    )
    return metrics, [run]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "aperio" / "cli.py").is_file():
        print(f"perfbench: no aperio sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    units = _units("per_layer" if args.trace else "end_to_end")
    wl = WORKLOADS[args.workload]
    deadline = monotonic() + DEADLINE_S
    WORK_DIR.mkdir(exist_ok=True)
    workspace = WORK_DIR / f"{wl.name}-{args.seed}-{os.getpid()}"
    common = ["--workload", wl.name, "--seed", str(args.seed), "--workspace", str(workspace)]
    try:
        if args.trace:
            spans = WORK_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
            metrics, runs = per_layer(wl, common, args.seconds, deadline, spans)
        else:
            metrics, runs = end_to_end(common, args.seconds, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workspace, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    same_reports = len({r["digest"] for r in runs}) == 1
    for r in runs:
        for failure in r["failures"]:
            print(f"# failed pass: {failure}")
    if not same_reports:
        print("# reports differ between worker processes")
    print(
        json.dumps(
            {
                "correct": failed == 0 and same_reports,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
