"""Span tracing of routesim's layer boundaries, patched in from outside.

``patched(tracer)`` swaps the public functions and methods that
``Scenario.build``, ``RoutingContext.planar`` and ``evaluate_scenario`` call
for wrappers that record one span per call: layer name, start, end and the
index of the enclosing span.  Spans stay in memory; ``summary()`` turns them
into per-layer self times (span duration minus the part covered by traced
child spans) and work counts.  Nothing inside the program is modified; the
originals are put back when the context exits.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Layer whose span time is reported under "<metric>_s" (self time).
SELF_TIME_METRICS = {
    "topology.deploy": "topology.deploy_s",
    "topology.build_udg": "topology.build_udg_s",
    "coords.build_vcs": "coords.build_vcs_s",
    "coords.align": "coords.align_s",
    "harness.hop_matrix": "harness.hop_matrix_s",
    "harness.build": "harness.build_self_s",
    "planar.planarize": "planar.planarize_s",
    "routing.dfield": "routing.dfield_s",
    "harness.evaluate": "harness.evaluate_self_s",
    "routing.engine": "routing.engine_s",
}

COUNT_METRICS = (
    "topology.edges",
    "harness.hop_matrix_mb",
    "planar.edges",
    "routing.dfield_calls",
    "harness.pairs",
    "harness.destinations",
    "routing.engine_calls",
    "routing.engine_hops",
)

_MB = float(1 << 20)


class Tracer:
    """In-memory span recorder with per-layer call and work counts."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []      # [layer, start, end, parent index or -1]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._hop_arrays: set[int] = set()   # hop matrices already counted
        self._dsts: set[int] = set()         # destinations of the running evaluation

    def wrap(self, layer: str, fn, count=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self.calls[layer] += 1
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (layer, start, end, _), child in zip(self.spans, covered):
            out[layer] += end - start - child
        return out

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset."""
        times = self.self_times()
        out = {metric: times.get(layer, 0.0) for layer, metric in SELF_TIME_METRICS.items()}
        counts = dict(self.counts)
        counts["harness.hop_matrix_mb"] = counts.get("hop_matrix_bytes", 0) / _MB
        counts["routing.dfield_calls"] = self.calls["routing.dfield"]
        counts["routing.engine_calls"] = self.calls["routing.engine"]
        out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
        return out


def _count_edges(tr: Tracer, args, topology) -> None:
    tr.counts["topology.edges"] += topology.n_edges


def _count_hop_matrix(tr: Tracer, args, hops) -> None:
    # Scenario.hop_matrix caches; count the bytes of each matrix once.
    if id(hops) not in tr._hop_arrays:
        tr._hop_arrays.add(id(hops))
        tr.counts["hop_matrix_bytes"] += hops.nbytes


def _count_planar_edges(tr: Tracer, args, pg) -> None:
    tr.counts["planar.edges"] += sum(len(a) for a in pg.adjacency) // 2


def _note_dfield(tr: Tracer, args, field) -> None:
    tr._dsts.add(args[2])          # RoutingContext.dfield(self, protocol, dst)


def _count_route(tr: Tracer, args, rr) -> None:
    tr._dsts.add(args[1])          # *_route(src, dst, ...)
    tr.counts["routing.engine_hops"] += rr.hops


def _count_evaluation(tr: Tracer, args, row) -> None:
    tr.counts["harness.pairs"] += row.pairs
    tr.counts["harness.destinations"] += len(tr._dsts)
    tr._dsts.clear()


@contextmanager
def patched(tracer: Tracer):
    """Route the layer calls of routesim through ``tracer`` while inside."""
    from routesim import harness, routing
    from routesim.harness import Scenario
    from routesim.routing import RoutingContext

    targets = (
        (harness, "generate_grid", "topology.deploy", None),
        (harness, "generate_random", "topology.deploy", None),
        (harness, "carve_voids", "topology.deploy", None),
        (harness, "build_udg", "topology.build_udg", _count_edges),
        (harness, "build_vcs", "coords.build_vcs", None),
        (harness, "align", "coords.align", None),
        (Scenario, "hop_matrix", "harness.hop_matrix", _count_hop_matrix),
        (Scenario, "build", "harness.build", None),
        (routing, "planarize", "planar.planarize", _count_planar_edges),
        (RoutingContext, "dfield", "routing.dfield", _note_dfield),
        (harness, "gpsr_route", "routing.engine", _count_route),
        (harness, "lcr_route", "routing.engine", _count_route),
        (harness, "bvr_route", "routing.engine", _count_route),
        (harness, "evaluate_scenario", "harness.evaluate", _count_evaluation),
    )
    saved = []
    try:
        for owner, attr, layer, count in targets:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(tracer.wrap(layer, original.__func__, count))
            else:
                replacement = tracer.wrap(layer, original, count)
            setattr(owner, attr, replacement)
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
