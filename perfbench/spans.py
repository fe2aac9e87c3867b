"""Span tracing of wplab from outside, and the per-layer metrics it yields.

``install`` replaces the public functions that one wplab module calls in
another with wrappers, set on the module attributes the caller looks
them up through, so ``src/`` is not edited.  Each call records a span
(name, start, end, parent span) in memory, plus a few counters; the run
writes them out once it has finished.  A layer's self time is its spans'
duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Any, Callable, Optional

# per-layer self-time metric -> the spans whose self time it sums
SELF_TIMES: dict[str, tuple[str, ...]] = {
    "lab.self_s": ("lab.run_preset", "lab.simulate", "lab.analyze"),
    "fock.prepare_s": ("fock.choose_truncation", "fock.pacs_amplitudes"),
    "kerr.series_s": ("kerr.kerr_spectrum", "kerr.generate_series_x"),
    "bipartite.series_s": ("bipartite.occupancy_series",),
    "bipartite.decompose_initial_s": ("bipartite.decompose_initial",),
    "eigen.decompose_s": ("eigen.decompose",),
    "neighbors.build_s": ("neighbors.build",),
    "neighbors.nearest_s": ("neighbors.nearest", "neighbors.within"),
    "embed.delay_embed_s": ("embed.delay_embed",),
    "embed.mi_s": ("embed.mutual_information_delay",),
    "embed.fnn_s": ("embed.false_nearest_neighbors",),
    "embed.lyapunov_s": (
        "embed.lyapunov_rosenstein",
        "embed.lyapunov_kantz",
        "embed.classify",
    ),
    "recur.recurrence_matrix_s": ("recur.recurrence_matrix",),
    "recur.return_times_s": ("recur.first_return_times", "recur.second_return_times"),
    "recur.density_s": ("recur.invariant_density",),
    "recur.return_map_s": ("recur.return_map",),
    "seriesio.write_series_s": ("seriesio.write_series",),
    "seriesio.read_series_s": ("seriesio.read_series",),
    "seriesio.export_s": (
        "seriesio.write_histogram",
        "seriesio.write_density",
        "seriesio.write_recurrence",
        "seriesio.write_pairs",
        "seriesio.write_json",
    ),
}

# counters kept as the largest value seen; all others are summed
MAX_COUNTERS = (
    "kerr.terms",
    "bipartite.sectors",
    "bipartite.terms",
    "eigen.max_dim",
    "embed.dimension",
    "fock.n_max",
)


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` and named counters."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def count(self, key: str, value: float) -> None:
        if key in MAX_COUNTERS:
            self.counts[key] = max(self.counts[key], value)
        else:
            self.counts[key] += value

    def wrap(
        self,
        name: str,
        fn: Callable,
        record: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``record(args, result)`` counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if record is not None:
                record(args, result)
            return result

        return traced

    def dump(self) -> dict[str, Any]:
        return {"spans": self.spans, "counts": dict(self.counts)}


def install(tracer: Tracer) -> None:
    """Wrap the cross-module calls of wplab for the life of the process."""
    from wplab import bipartite, embed, lab, seriesio

    count = tracer.count

    def patch(owner, attr: str, span: str, record=None) -> None:
        setattr(owner, attr, tracer.wrap(span, getattr(owner, attr), record))

    def exported(args, path) -> None:
        count("seriesio.export_bytes", os.path.getsize(path))

    def kerr_series(args, ts) -> None:
        count("kerr.terms", args[1].n_max)
        count("kerr.samples", len(ts))

    def two_mode_series(args, occ) -> None:
        sectors = args[0]
        count("bipartite.sectors", len(sectors))
        count("bipartite.terms", sum(s.N + 1 for s in sectors))
        count("bipartite.samples", len(occ.norm))

    def eigen_call(args, eig) -> None:
        count("eigen.calls", 1)
        count("eigen.max_dim", eig.dim)

    def neighbour_query(args, result) -> None:
        found = result[0] >= 0 if isinstance(result, tuple) else result.size > 0
        count("neighbors.nearest_calls", 1)
        count("neighbors.found", int(found))

    def fnn_done(args, fnn) -> None:
        count("embed.fnn_relaxed", int(fnn.dimension is None))

    def lyapunov_done(args, result) -> None:
        count("embed.dimension", result.embedding.dimension)

    for attr in ("run_preset", "simulate", "analyze"):
        patch(lab, attr, f"lab.{attr}")
    patch(lab, "choose_truncation", "fock.choose_truncation")
    patch(
        lab,
        "pacs_amplitudes",
        "fock.pacs_amplitudes",
        lambda args, state: count("fock.n_max", state.n_max),
    )
    patch(lab, "kerr_spectrum", "kerr.kerr_spectrum")
    patch(lab, "generate_series_x", "kerr.generate_series_x", kerr_series)
    patch(lab, "decompose_initial", "bipartite.decompose_initial")
    patch(lab, "occupancy_series", "bipartite.occupancy_series", two_mode_series)
    patch(bipartite, "decompose", "eigen.decompose", eigen_call)
    patch(lab, "mutual_information_delay", "embed.mutual_information_delay")
    patch(lab, "false_nearest_neighbors", "embed.false_nearest_neighbors", fnn_done)
    patch(lab, "lyapunov_rosenstein", "embed.lyapunov_rosenstein", lyapunov_done)
    patch(lab, "lyapunov_kantz", "embed.lyapunov_kantz", lyapunov_done)
    patch(lab, "classify", "embed.classify")
    patch(embed, "delay_embed", "embed.delay_embed")
    patch(embed.BoxGrid, "__init__", "neighbors.build")
    patch(embed.BoxGrid, "nearest", "neighbors.nearest", neighbour_query)
    patch(embed.BoxGrid, "within", "neighbors.within", neighbour_query)
    patch(
        lab,
        "recurrence_matrix",
        "recur.recurrence_matrix",
        lambda args, rp: count("recur.rp_pairs", rp.pairs.shape[0]),
    )
    for attr in ("first_return_times", "second_return_times"):
        patch(
            lab,
            attr,
            f"recur.{attr}",
            lambda args, h: count("recur.events", h.total_events),
        )
    patch(lab, "invariant_density", "recur.invariant_density")
    patch(lab, "return_map", "recur.return_map")
    patch(seriesio, "write_series", "seriesio.write_series")
    patch(
        seriesio,
        "read_series",
        "seriesio.read_series",
        lambda args, ts: count("seriesio.read_calls", 1),
    )
    for attr in ("histogram", "density", "recurrence", "pairs", "json"):
        patch(seriesio, f"write_{attr}", f"seriesio.write_{attr}", exported)


def self_times(spans: list[list[Any]]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children[idx]):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def layer_metrics(trace: dict[str, Any]) -> dict[str, float]:
    """Per-layer self times, counts and ratios of one traced run."""
    spans = trace["spans"]
    counts = defaultdict(float, trace["counts"])
    by_name: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        by_name[span[0]] += own
    out = {
        metric: sum(by_name[n] for n in names) for metric, names in SELF_TIMES.items()
    }
    for layer in ("kerr", "bipartite"):
        busy = out[f"{layer}.series_s"]
        out[f"{layer}.samples_per_s"] = counts[f"{layer}.samples"] / busy if busy else 0.0
    calls = counts["neighbors.nearest_calls"]
    out["neighbors.found_frac"] = counts["neighbors.found"] / calls if calls else 0.0
    for key in (
        "kerr.terms",
        "bipartite.sectors",
        "bipartite.terms",
        "eigen.calls",
        "eigen.max_dim",
        "neighbors.nearest_calls",
        "embed.dimension",
        "embed.fnn_relaxed",
        "recur.rp_pairs",
        "recur.events",
        "seriesio.read_calls",
        "seriesio.export_bytes",
        "fock.n_max",
    ):
        out[key] = counts[key]
    return out
