"""lcr and sp as greedy_route plus at most one episode, against their former loops.

``_reference_lcr_route`` and ``_reference_sp_route`` are the stand-alone
loops the two engines used before they were built on ``greedy_route``, kept
verbatim as oracles.  Whole RouteResults must match: path, modes, outcome and
failure cause.
"""

from collections import Counter

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from routesim.coords import CoordsError, hop_counts
from routesim.harness import Scenario, ScenarioConfig
from routesim.routing import Failure, Mode, Outcome, RouteResult, finish, lcr_route, sp_route
from routesim.topology import Topology, topology_from_adjacency


def _reference_lcr_route(src: int, dst: int, dfield: np.ndarray, t: Topology, ttl: int) -> RouteResult:
    visited = {src}
    stack = [src]
    path = [src]
    modes: list[str] = []
    u = src
    while True:
        if u == dst:
            return finish(src, dst, path, modes)
        if dst in t.adjacency[u]:
            best, best_d = dst, dfield[dst]
        else:
            best = -1
            best_d = np.inf
            for v in t.adjacency[u]:  # ascending ids break distance ties
                if v not in visited and dfield[v] < best_d:
                    best = v
                    best_d = dfield[v]
        if len(modes) >= ttl:
            return finish(src, dst, path, modes, Failure.TTL_EXCEEDED)
        if best >= 0:
            mode = Mode.GREEDY if (best_d < dfield[u] or best == dst) else Mode.BACKTRACK
            visited.add(best)
            stack.append(best)
            path.append(best)
            modes.append(mode)
            u = best
        else:
            stack.pop()
            if not stack:
                return finish(src, dst, path, modes, Failure.BACKTRACK_EXHAUSTED)
            u = stack[-1]
            path.append(u)
            modes.append(Mode.BACKTRACK)


def _reference_sp_route(src: int, dst: int, t: Topology) -> RouteResult:
    dist = hop_counts(t, dst)
    if dist[src] < 0:
        return RouteResult(src, dst, (src,), (), "failed", None)  # cross-component
    path = [src]
    modes: list[str] = []
    u = src
    while u != dst:
        du = dist[u]
        for v in t.adjacency[u]:
            if dist[v] == du - 1:
                u = v
                break
        path.append(u)
        modes.append(Mode.GREEDY)
    return finish(src, dst, path, modes)


def _kind(rr: RouteResult) -> str:
    if rr.failure_cause == Failure.TTL_EXCEEDED and Mode.BACKTRACK in rr.modes:
        return "ttl-in-search"
    return rr.failure_cause or rr.outcome


def _compare(t: Topology, dfield: np.ndarray, ttl: int, pairs) -> Counter:
    """Assert both engines match their references on every pair; count lcr outcomes."""
    seen = Counter()
    for src, dst in pairs:
        rr = lcr_route(src, dst, dfield, t, ttl)
        assert rr == _reference_lcr_route(src, dst, dfield, t, ttl), (src, dst, ttl)
        assert sp_route(src, dst, t) == _reference_sp_route(src, dst, t), (src, dst)
        seen[_kind(rr)] += 1
    return seen


def _topology(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].append(v)
    return topology_from_adjacency(np.zeros((n, 2)), adj)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(n=st.integers(8, 40), radio_range=st.floats(1.2, 2.4), seed=st.integers(0, 10_000),
       loc_error=st.sampled_from((0.0, 0.4)), ttl_factor=st.sampled_from((0.3, 0.6, 4.0)),
       align_depth=st.integers(0, 2), distance=st.sampled_from(("euclid", "manhattan", "semi")),
       data=st.data())
def test_engines_match_reference_loops_on_random_deployments(n, radio_range, seed, loc_error,
                                                             ttl_factor, align_depth, distance, data):
    cfg = ScenarioConfig(deployment="random", n=n, width=6.0, height=6.0,
                         radio_range=radio_range, protocol="lcr", seed=seed,
                         loc_error=loc_error, ttl_factor=ttl_factor,
                         align_depth=align_depth, distance=distance, sample=1)
    try:
        sc = Scenario.build(cfg)
    except CoordsError:  # virtual coordinates need a connected graph
        assume(False)
    node = st.integers(0, sc.topology.n - 1)
    for src, dst in data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=30)):
        _compare(sc.topology, sc.ctx.dfield("lcr", dst), sc.ctx.ttl, [(src, dst)])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_engines_match_reference_loops_on_disconnected_graphs(data):
    """Hand-built graphs, often disconnected, with an explicit field full of ties."""
    n = data.draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    t = _topology(n, data.draw(st.lists(st.tuples(node, node), max_size=2 * n)))
    dfield = np.array(data.draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0)),
                                         min_size=n, max_size=n)))
    ttl = data.draw(st.integers(0, 3 * n))
    _compare(t, dfield, ttl, [(s, d) for s in range(n) for d in range(n)])


def test_reference_cases_reach_search_failures():
    # 0-1-2 dead end, 1-3-4 around it, and a separate component 5-6.
    t = _topology(7, [(0, 1), (1, 2), (1, 3), (3, 4), (5, 6)])
    dfield = np.array([3.0, 2.0, 1.0, 2.5, 0.0, 0.0, 0.0])
    seen = Counter()
    for ttl in range(12):
        seen += _compare(t, dfield, ttl, [(s, d) for s in range(7) for d in range(7)])
    for kind in (Outcome.DELIVERED_MIXED, Failure.BACKTRACK_EXHAUSTED, "ttl-in-search",
                 Failure.TTL_EXCEEDED):
        assert seen[kind] > 0, kind
    assert sp_route(0, 6, t).outcome == Outcome.FAILED
