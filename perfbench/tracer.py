"""Spans around aperio's public functions, recorded from outside the program.

A :class:`Tracer` replaces the public names the pipeline calls with timing
wrappers, in the namespaces where they are looked up, only while
:meth:`Tracer.installed` is active; outside it the program runs unmodified.
Spans (name, layer, start, end, parent, counters) stay in memory and are
written out once, after the last pass.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cutproject", "pointset", "density", "rkhs", "framekit", "hull", "io_json", "cli")

ENCODERS = (
    "patch_to_jsonable",
    "patch_list_to_jsonable",
    "density_report_to_jsonable",
    "frame_report_to_jsonable",
    "verdict_report_to_jsonable",
)
DECODERS = (
    "patch_from_jsonable",
    "scheme_from_jsonable",
    "kernel_from_jsonable",
    "density_report_from_jsonable",
)


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "counts", "error")

    def __init__(self, name: str, layer: str, parent: int):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.counts: dict = {}
        self.error = False

    @property
    def dur(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_size(ctx, rel) -> int:
    if rel is None:
        return 0
    path = ctx.resolve(rel)
    return path.stat().st_size if path.is_file() else 0


def _distinct_coords(points) -> int:
    pts = np.asarray(points)
    return sum(len(np.unique(pts[:, k])) for k in range(pts.shape[1]))


# counters run after a span closes, so their cost is not part of the span
COUNTERS = {
    "cutproject.generate_model_set": lambda a, k, r: {"points": r.n_points},
    "pointset.rel_separation": lambda a, k, r: {
        "points": _arg(a, k, 0, "patch").n_points,
        "distinct": _distinct_coords(_arg(a, k, 0, "patch").points),
    },
    "density.beurling_density": lambda a, k, r: {
        "points": _arg(a, k, 0, "patch").n_points,
        "sizes": len(_arg(a, k, 1, "spec").sizes),
    },
    "rkhs.kernel_matrix": lambda a, k, r: {"rows": len(_arg(a, k, 1, "xs")), "cols": len(_arg(a, k, 2, "ys"))},
    "framekit.gram_from_entries": lambda a, k, r: {"n": r.n, "bytes": int(np.asarray(r.entries).nbytes)},
    "hull.orbit_sample": lambda a, k, r: {"translates": len(r)},
    "io_json.patch_to_jsonable": lambda a, k, r: {"points": _arg(a, k, 0, "patch").n_points},
    "io_json.patch_from_jsonable": lambda a, k, r: {"points": r.n_points},
    "cli.read_json": lambda a, k, r: {"bytes": _file_size(a[0], _arg(a, k, 1, "rel"))},
    "cli.write_json": lambda a, k, r: {"bytes": _file_size(a[0], _arg(a, k, 1, "rel"))},
    "cli.write_text": lambda a, k, r: {"bytes": _file_size(a[0], _arg(a, k, 1, "rel"))},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._targets: list[tuple] = []

    def wrap(self, owner, attr: str, layer: str, name: str | None = None) -> None:
        """Register ``owner.attr`` (or ``owner[attr]`` for a dict) for wrapping, if it exists."""
        fn = owner.get(attr) if isinstance(owner, dict) else getattr(owner, attr, None)
        if fn is None:
            return
        name = f"{layer}.{name or attr}"
        self._targets.append((owner, attr, fn, self._wrapper(fn, name, layer)))

    def _wrapper(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    @staticmethod
    def _set(owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        for owner, attr, _, wrapper in self._targets:
            self._set(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, fn, _ in self._targets:
                self._set(owner, attr, fn)

    @contextlib.contextmanager
    def root(self):
        """Open the root span of one pass; its self time is the benchmark's own glue."""
        span = Span("pass", "trace", -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def take(self) -> list[Span]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def install_aperio(tracer: Tracer) -> None:
    """Wrap the names the three pipelines reach, where the pipeline looks them up."""
    import aperio.cli as cli
    import aperio.framekit as framekit
    import aperio.io_json as io_json
    import aperio.pointset as pointset

    tracer.wrap(cli, "main", "cli")
    tracer.wrap(cli, "handle_run", "cli")
    for key in list(cli.HANDLERS):
        tracer.wrap(cli.HANDLERS, key, "cli", "handle_" + key.replace("-", "_"))
    for method in ("read_json", "write_json", "write_text"):
        tracer.wrap(cli.Context, method, "cli")
    tracer.wrap(cli, "generate_model_set", "cutproject")
    for name in ("beurling_density", "hull_beurling_density"):
        tracer.wrap(cli, name, "density")
    for name in ("verdict", "frame_trend_report"):
        tracer.wrap(cli, name, "framekit")
    for name in ("orbit_sample", "transversal_translates", "grid_translates"):
        tracer.wrap(cli, name, "hull")
    for name in ("build_gram", "gram_from_entries", "sampling_bounds"):
        tracer.wrap(framekit, name, "framekit")
    tracer.wrap(framekit, "kernel_matrix", "rkhs")
    for name in (*ENCODERS, *DECODERS, "canonical_dumps"):
        tracer.wrap(io_json, name, "io_json")
    for name in ("rel_separation", "is_relatively_dense"):
        tracer.wrap(pointset, name, "pointset")


def _fit_exponent(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size); 0 with fewer than two stages."""
    pairs = [(math.log(n), math.log(t)) for n, t in zip(sizes, times) if n > 0 and t > 0]
    if len({x for x, _ in pairs}) < 2:
        return 0.0
    return statistics.linear_regression(*zip(*pairs)).slope


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``spans[0]`` is its root."""
    total = spans[0].dur
    child_time = defaultdict(float)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_time[s.parent] += s.dur
            children[s.parent].append(i)
    self_time = [s.dur - child_time[i] for i, s in enumerate(spans)]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def dur(name):
        return sum(spans[i].dur for i in by_name[name])

    def own(name):
        return sum(self_time[i] for i in by_name[name])

    def count(name, key):
        return sum(spans[i].counts.get(key, 0) for i in by_name[name])

    def outermost(names):
        # a coder called inside another coder is already inside its span
        return sum(
            spans[i].dur
            for n in names
            for i in by_name[n]
            if spans[i].parent < 0 or spans[spans[i].parent].layer != "io_json"
        )

    m: dict[str, float] = {}
    gen_s, emitted = dur("cutproject.generate_model_set"), count("cutproject.generate_model_set", "points")
    m["cutproject.gen_s"] = gen_s
    m["cutproject.points_emitted"] = emitted
    m["cutproject.ns_per_point"] = gen_s / emitted * 1e9 if emitted else 0.0

    m["pointset.rel_separation_s"] = dur("pointset.rel_separation")
    m["pointset.relatively_dense_s"] = dur("pointset.is_relatively_dense")
    m["pointset.points"] = count("pointset.rel_separation", "points")
    m["pointset.distinct_coords"] = count("pointset.rel_separation", "distinct")

    m["density.beurling_s"] = dur("density.beurling_density") + dur("density.hull_beurling_density")
    m["density.folner_sizes"] = count("density.beurling_density", "sizes")
    m["density.points"] = count("density.beurling_density", "points")

    km_s = dur("rkhs.kernel_matrix")
    shapes = [spans[i].counts for i in by_name["rkhs.kernel_matrix"] if spans[i].counts]
    entries = sum(c["rows"] * c["cols"] for c in shapes)
    m["rkhs.kernel_matrix_s"] = km_s
    m["rkhs.kernel_entries"] = entries
    m["rkhs.ns_per_entry"] = km_s / entries * 1e9 if entries else 0.0

    grams = [spans[i].counts for i in by_name["framekit.gram_from_entries"] if spans[i].counts]
    m["framekit.build_gram_s"] = own("framekit.build_gram")
    m["framekit.gram_eig_s"] = dur("framekit.gram_from_entries")
    m["framekit.sampling_bounds_s"] = own("framekit.sampling_bounds")
    m["framekit.frame_trend_s"] = dur("framekit.frame_trend_report")
    m["framekit.gram_n_max"] = max((g["n"] for g in grams), default=0)
    m["framekit.gram_n_sum"] = sum(g["n"] for g in grams)
    m["framekit.eig_ops"] = sum(g["n"] ** 3 for g in grams)
    m["framekit.gram_bytes_max"] = max((g["bytes"] for g in grams), default=0)
    # the first kernel matrix a sampling_bounds call builds is anchors x anchors
    m["framekit.anchors"] = sum(
        spans[children[i][0]].counts.get("rows", 0) for i in by_name["framekit.sampling_bounds"] if children[i]
    )
    stage_n, stage_t = [], []
    for g, s in zip(by_name["framekit.build_gram"], by_name["framekit.sampling_bounds"]):
        stage_n.append(max((spans[c].counts.get("n", 0) for c in children[g]), default=0))
        stage_t.append(spans[g].dur + spans[s].dur)
    m["framekit.scaling_exp"] = _fit_exponent(stage_n, stage_t)

    m["hull.orbit_sample_s"] = dur("hull.orbit_sample")
    m["hull.translates"] = count("hull.orbit_sample", "translates")

    m["io_json.encode_s"] = outermost([f"io_json.{n}" for n in ENCODERS])
    m["io_json.dumps_s"] = dur("io_json.canonical_dumps")
    m["io_json.decode_s"] = outermost([f"io_json.{n}" for n in DECODERS])
    m["io_json.points_coded"] = count("io_json.patch_to_jsonable", "points") + count(
        "io_json.patch_from_jsonable", "points"
    )

    m["cli.self_s"] = sum(self_time[i] for i, s in enumerate(spans) if s.layer == "cli")
    m["cli.bytes_in"] = count("cli.read_json", "bytes")
    m["cli.bytes_out"] = count("cli.write_json", "bytes") + count("cli.write_text", "bytes")

    for layer in LAYERS:
        idx = [i for i, s in enumerate(spans) if s.layer == layer]
        m[f"{layer}.self_frac"] = sum(self_time[i] for i in idx) / total
        m[f"{layer}.errors"] = sum(spans[i].error for i in idx)
    m["trace.unattributed_frac"] = self_time[0] / total
    return m


def write_spans(path: os.PathLike, passes: list[list[Span]]) -> None:
    with open(path, "w") as fh:
        for p, spans in enumerate(passes):
            for i, s in enumerate(spans):
                row = {
                    "pass": p,
                    "id": i,
                    "name": s.name,
                    "layer": s.layer,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "counts": s.counts,
                    "error": s.error,
                }
                fh.write(json.dumps(row) + "\n")
