"""Route engines against the per-hop loops they replaced, kept verbatim as oracles.

``_reference_lcr_route`` and ``_reference_sp_route`` are the stand-alone
loops lcr and sp used before they were built on ``greedy_route``.  The
``_reference_*`` perimeter and beacon episodes are gpsr's and bvr's episodes
before their per-scenario tables: the face walk computed every edge angle
with ``math.atan2`` on numpy rows at each hop, and the beacon climb searched
each node's neighbors for its tree parent.  Whole RouteResults must match:
path, modes, outcome and failure cause.

Bulk evaluation resumes gpsr and bvr at the node where greedy stalled, once
per (stall node, destination), and fans the outcome out to every pair that
stalled there; its outcomes must be those of one ``route`` call per pair.
"""

import contextlib
import math
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from routesim import harness
from routesim.coords import AnchorSet, CoordsError, VirtualCoords, build_vcs, hop_rows, pair_hops
from routesim.distance import euclidean_field
from routesim.harness import Scenario, ScenarioConfig, _episodes, _eval_run, fixture_abc
from routesim.routing import (
    METHOD_GG,
    METHOD_RNG,
    Failure,
    Mode,
    Outcome,
    RouteResult,
    beacon_trees,
    bvr_route,
    face_table,
    finish,
    gpsr_route,
    greedy_route,
    lcr_route,
    planarize,
    route,
    sp_route,
)
from routesim.routing.planar import crossing_point
from routesim.topology import Topology, VoidSpec, topology_from_adjacency


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
    dist = hop_rows(t, [dst])[0]
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


def _reference_ccw_order(u: int, nbrs: tuple[int, ...], ref_angle: float, pos: np.ndarray) -> list[int]:
    two_pi = 2.0 * math.pi
    keyed = []
    for v in nbrs:
        ang = math.atan2(pos[v, 1] - pos[u, 1], pos[v, 0] - pos[u, 0])
        delta = (ang - ref_angle) % two_pi
        if delta <= 0.0:
            delta = two_pi
        keyed.append((delta, v))
    keyed.sort()
    return [v for _, v in keyed]


def _reference_perimeter_episode(
    u: int,
    dst: int,
    pos: np.ndarray,
    pg: Topology,
    dfield: np.ndarray,
    path: list[int],
    modes: list[str],
    ttl: int,
) -> tuple[int, str | None]:
    entry_d = dfield[u]
    lp = (float(pos[u, 0]), float(pos[u, 1]))
    pd = (float(pos[dst, 0]), float(pos[dst, 1]))
    lf_d = math.hypot(lp[0] - pd[0], lp[1] - pd[1])  # distance of face-entry point to dst
    e0: tuple[int, int] | None = None
    prev: int | None = None
    while True:
        nbrs = pg.adjacency[u]
        if not nbrs:
            return u, Failure.LOCAL_MINIMUM  # isolated in the planar subgraph
        if prev is None:
            ref = math.atan2(pd[1] - pos[u, 1], pd[0] - pos[u, 0])
        else:
            ref = math.atan2(pos[prev, 1] - pos[u, 1], pos[prev, 0] - pos[u, 0])
        order = _reference_ccw_order(u, nbrs, ref, pos)
        chosen = None
        face_changed = False
        for w in order:
            ip = crossing_point(pos[u], pos[w], lp, pd)
            if ip is not None:
                ip_d = math.hypot(ip[0] - pd[0], ip[1] - pd[1])
                if ip_d < lf_d:
                    lf_d = ip_d
                    face_changed = True
                    continue
            chosen = w
            break
        if chosen is None:
            chosen = order[-1]  # every edge crossed; retreat along the last one
            face_changed = True
        edge = (u, chosen)
        if face_changed or e0 is None:
            e0 = edge
        elif edge == e0:
            return u, Failure.PERIMETER_LOOP
        if len(modes) >= ttl:
            return u, Failure.TTL_EXCEEDED
        path.append(chosen)
        modes.append(Mode.PERIMETER)
        prev = u
        u = chosen
        if u == dst or dfield[u] < entry_d:
            return u, None


def _reference_gpsr_route(src: int, dst: int, dfield: np.ndarray, pos: np.ndarray, pg: Topology,
                          t: Topology, ttl: int) -> RouteResult:
    return greedy_route(
        src, dst, dfield, t, ttl,
        lambda u, path, modes: _reference_perimeter_episode(u, dst, pos, pg, dfield, path, modes, ttl),
    )


def _reference_tree_parent(u: int, col: np.ndarray, t: Topology) -> int:
    target = col[u] - 1
    for v in t.adjacency[u]:
        if col[v] == target:
            return v
    raise RuntimeError("hop-count column is not a BFS layering")


def _reference_beacon_episode(u: int, dst: int, dfield: np.ndarray, col: np.ndarray, anchor: int,
                              t: Topology, path: list[int], modes: list[str],
                              ttl: int) -> tuple[int, str | None]:
    entry_d = dfield[u]
    while u != anchor:
        if len(modes) >= ttl:
            return u, Failure.TTL_EXCEEDED
        u = _reference_tree_parent(u, col, t)
        path.append(u)
        modes.append(Mode.FALLBACK)
        if u == dst or dfield[u] < entry_d:
            return u, None
    # Scoped flood: deliver along the anchor->dst tree path.
    chain = [dst]
    while chain[-1] != anchor:
        chain.append(_reference_tree_parent(chain[-1], col, t))
    for node in reversed(chain[:-1]):
        if len(modes) >= ttl:
            return path[-1], Failure.TTL_EXCEEDED
        path.append(node)
        modes.append(Mode.FLOOD)
    return dst, None


def _reference_bvr_route(src: int, dst: int, dfield: np.ndarray, vc: VirtualCoords, t: Topology,
                         ttl: int) -> RouteResult:
    k = int(np.argmin(vc.matrix[dst]))  # ties to the lowest anchor index
    anchor = vc.anchors.ids[k]
    col = vc.matrix[:, k]
    return greedy_route(
        src, dst, dfield, t, ttl,
        lambda u, path, modes: _reference_beacon_episode(u, dst, dfield, col, anchor, t, path, modes, ttl),
    )


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


def _topology(n, edges, pos=None):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].append(v)
    return topology_from_adjacency(np.zeros((n, 2)) if pos is None else pos, adj)


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


def _compare_gpsr(t: Topology, pos: np.ndarray, pg: Topology, ttl: int, pairs) -> Counter:
    """Assert gpsr on its face table matches the reference walk; count outcomes."""
    faces = face_table(pos, pg)
    seen = Counter()
    for src, dst in pairs:
        dfield = euclidean_field(pos, pos[dst])
        rr = gpsr_route(src, dst, dfield, faces, t, ttl)
        assert rr == _reference_gpsr_route(src, dst, dfield, pos, pg, t, ttl), (src, dst, ttl)
        seen[rr.failure_cause or rr.outcome] += 1
    return seen


def _compare_bvr(t: Topology, vc: VirtualCoords, dfield_of, ttl: int, pairs) -> Counter:
    """Assert bvr on its parent tables matches the reference climb; count outcomes."""
    trees = beacon_trees(vc, t)
    seen = Counter()
    for src, dst in pairs:
        dfield = dfield_of(dst)
        rr = bvr_route(src, dst, dfield, trees, t, ttl)
        assert rr == _reference_bvr_route(src, dst, dfield, vc, t, ttl), (src, dst, ttl)
        seen[rr.failure_cause or rr.outcome] += 1
    return seen


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(protocol=st.sampled_from(("gpsr-gg", "gpsr-rng", "bvr")), n=st.integers(8, 40),
       radio_range=st.floats(1.2, 2.4), seed=st.integers(0, 10_000),
       loc_error=st.sampled_from((0.0, 0.4)), align_depth=st.integers(0, 2), data=st.data())
def test_recovery_engines_match_reference_episodes_on_random_deployments(protocol, n, radio_range, seed,
                                                                         loc_error, align_depth, data):
    # Perceived positions (loc_error > 0) give planar subgraphs that cross and
    # loop; gpsr deployments may be disconnected, bvr's must be connected.
    cfg = ScenarioConfig(deployment="random", n=n, width=6.0, height=6.0,
                         radio_range=radio_range, protocol=protocol, seed=seed,
                         loc_error=loc_error, align_depth=align_depth)
    try:
        sc = Scenario.routing(cfg)
    except CoordsError:  # virtual coordinates need a connected graph
        assume(False)
    ctx = sc.ctx
    node = st.integers(0, sc.topology.n - 1)
    pairs = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=30))
    ttl = data.draw(st.sampled_from((0, 1, 2, 5, ctx.ttl, 50 * ctx.ttl)))
    if protocol == "bvr":
        _compare_bvr(sc.topology, sc.vc, lambda dst: ctx.dfield(protocol, dst), ttl, pairs)
    else:
        _compare_gpsr(sc.topology, ctx.geo_positions, ctx.planar(cfg.spec.planar), ttl, pairs)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gpsr_matches_reference_walk_on_hand_built_graphs(data):
    """Often disconnected graphs on a 4 x 4 lattice: equal angles, neighbors on
    the reference ray and crossing, non-planar 'planar' subgraphs abound."""
    n = data.draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    pos = np.array(data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                      min_size=n, max_size=n)), dtype=float)
    t = _topology(n, data.draw(st.lists(st.tuples(node, node), max_size=2 * n)), pos)
    planar = data.draw(st.sampled_from(("self", METHOD_GG, METHOD_RNG, "hand-built")))
    if planar == "self":
        pg = t
    elif planar == "hand-built":
        pg = _topology(n, data.draw(st.lists(st.tuples(node, node), max_size=2 * n)), pos)
    else:
        pg = planarize(t, pos, planar)
    ttl = data.draw(st.integers(0, 3 * n))
    _compare_gpsr(t, pos, pg, ttl, [(s, d) for s in range(n) for d in range(n)])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bvr_matches_reference_climb_on_hand_built_graphs(data):
    """Connected hand-built graphs (a random tree plus chords) under a field full of ties."""
    n = data.draw(st.integers(3, 12))
    edges = [(v, data.draw(st.integers(0, v - 1))) for v in range(1, n)]
    node = st.integers(0, n - 1)
    edges += data.draw(st.lists(st.tuples(node, node), max_size=n))
    t = _topology(n, edges)
    anchors = data.draw(st.lists(node, min_size=3, max_size=4, unique=True))
    vc = build_vcs(t, AnchorSet(tuple(anchors)))
    dfield = np.array(data.draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0)),
                                         min_size=n, max_size=n)))
    ttl = data.draw(st.integers(0, 3 * n))
    _compare_bvr(t, vc, lambda dst: dfield, ttl, [(s, d) for s in range(n) for d in range(n)])


def test_reference_cases_reach_recovery_failures():
    # A void grid planarized on perceived positions: the walk loops, meets
    # nodes the planar subgraph isolated, runs out of TTL inside episodes and
    # delivers; the climb and flood are cut by the TTL too.
    cfg = ScenarioConfig(deployment="grid", rows=10, cols=10, radio_range=1.8,
                         voids=(VoidSpec("disc", (4.5, 4.5), radius=2.5),),
                         protocol="gpsr-rng", loc_error=0.6, seed=7)
    sc = Scenario.routing(cfg)
    ctx = sc.ctx
    n = sc.topology.n
    pairs = [(s, d) for s in range(n) for d in range(n)]
    seen = Counter()
    for ttl in (0, 8, ctx.ttl):
        seen += _compare_gpsr(sc.topology, ctx.geo_positions, ctx.planar(METHOD_RNG), ttl, pairs)
    for kind in (Outcome.DELIVERED_MIXED, Failure.PERIMETER_LOOP, Failure.LOCAL_MINIMUM,
                 Failure.TTL_EXCEEDED):
        assert seen[kind] > 0, (kind, seen)

    bvr = Scenario.routing(replace(cfg, protocol="bvr"))
    seen = Counter()
    for ttl in (0, 8, bvr.ctx.ttl):
        seen += _compare_bvr(bvr.topology, bvr.vc, lambda dst: bvr.ctx.dfield("bvr", dst), ttl, pairs)
    for kind in (Outcome.DELIVERED_MIXED, Failure.TTL_EXCEEDED):
        assert seen[kind] > 0, (kind, seen)


def _assert_parent_tables(t: Topology, vc: VirtualCoords) -> None:
    trees = beacon_trees(vc, t)
    assert trees.anchors == vc.anchors.ids
    assert trees.nearest == tuple(int(np.argmin(row)) for row in vc.matrix)
    for k, anchor in enumerate(vc.anchors.ids):
        col = vc.matrix[:, k]
        assert trees.parents[k][anchor] == anchor
        for u in range(t.n):
            if u != anchor:
                assert trees.parents[k][u] == _reference_tree_parent(u, col, t), (k, u)


def test_parent_tables_match_reference_tree_parents():
    _assert_parent_tables(*fixture_abc())
    sc = Scenario.routing(ScenarioConfig(deployment="grid", rows=14, cols=14, radio_range=1.5,
                                         voids=(VoidSpec("disc", (6.5, 6.5), radius=3.0),),
                                         protocol="bvr", loc_error=0.4, seed=2))
    _assert_parent_tables(sc.topology, sc.vc)


def test_parent_table_rejects_a_column_that_is_not_a_bfs_layering():
    t = _topology(4, [(0, 1), (1, 2), (2, 3)])  # the path 0-1-2-3
    good = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0], [3, 2, 1]])
    assert beacon_trees(VirtualCoords(good, AnchorSet((0, 1, 2))), t).parents[0] == (0, 0, 1, 2)
    bad = good.copy()
    bad[2, 0] = 3  # node 2 has no neighbor at 2 hops from anchor 0
    with pytest.raises(RuntimeError, match="not a BFS layering"):
        beacon_trees(VirtualCoords(bad, AnchorSet((0, 1, 2))), t)


def _assert_eval_run_matches_routes(sc: Scenario) -> None:
    """``_eval_run`` over every pair equals one ``route`` call per pair: greedy
    flags, hops, failure counts, and the episodes in (dst, src) order.

    Every engine call it makes is ``route`` from the call's start node: it
    passes the scenario's TTL and returns the same RouteResult.
    """
    srcs, dsts, sp = sc.pairs
    greedy, hops, failures, episodes = [], [], Counter(), []
    for src, dst, reachable in zip(srcs.tolist(), dsts.tolist(), (sp >= 0).tolist()):
        rr = route(sc.config.protocol, src, dst, sc.ctx) if reachable else None
        greedy.append(rr is not None and rr.outcome == Outcome.DELIVERED_GREEDY)
        hops.append(rr.hops if rr is not None and rr.delivered else 0)
        if rr is None:
            continue
        if rr.delivered:
            episodes.extend((dst, *ep) for ep in _episodes(rr))
        else:
            failures[rr.failure_cause] += 1
    calls = []

    def spy(engine):
        def call(src, dst, *args):
            rr = engine(src, dst, *args)
            calls.append((args[-1], rr))
            return rr
        return call

    with contextlib.ExitStack() as stack:
        for name in ("gpsr_route", "bvr_route", "lcr_route"):
            stack.enter_context(mock.patch.object(harness, name, spy(getattr(harness, name))))
        run = _eval_run(sc, 0, len(dsts))
    ttl = sc.ctx.ttl
    for used, rr in calls:
        assert used == ttl
        assert rr == route(sc.config.protocol, rr.src, rr.dst, sc.ctx)
    assert run.greedy.tolist() == greedy
    assert run.hops.tolist() == hops
    assert +run.failures == failures
    assert run.episodes.tolist() == [list(ep) for ep in episodes]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(protocol=st.sampled_from(("gpsr-gg", "gpsr-rng", "bvr", "lcr")), n=st.integers(8, 30),
       radio_range=st.floats(1.2, 2.4), seed=st.integers(0, 10_000),
       loc_error=st.sampled_from((0.0, 0.4)), ttl_factor=st.sampled_from((0.1, 0.25, 0.5, 1.0, 4.0)),
       sample_per_node=st.sampled_from((0, 1, 3)))
def test_resumed_evaluation_matches_per_pair_routes(protocol, n, radio_range, seed, loc_error,
                                                    ttl_factor, sample_per_node):
    """TTLs from 1 to a few hops cut continuations short of some of the pairs
    that share them; all pairs route through greedy forests, sampled ones
    mostly through greedy_lockstep.  Perceived positions give gpsr-rng
    perimeter loops."""
    cfg = ScenarioConfig(deployment="random", n=n, width=6.0, height=6.0,
                         radio_range=radio_range, protocol=protocol, seed=seed,
                         loc_error=loc_error, ttl_factor=ttl_factor, align_depth=1,
                         sample=sample_per_node * n)
    try:
        sc = Scenario.build(cfg)
    except CoordsError:  # virtual coordinates need a connected graph
        assume(False)
    _assert_eval_run_matches_routes(sc)


def test_shared_continuation_fits_one_source_and_not_the_other():
    """Sources 45 and 43 stall at node 37 toward 33 after 1 and 2 greedy hops.
    The continuation from 37 takes 4 hops: exactly what 45 has left under the
    TTL of 5, one more than 43 has left."""
    cfg = ScenarioConfig(deployment="grid", rows=8, cols=8, radio_range=1.5,
                         voids=(VoidSpec("disc", (3.5, 3.5), radius=2.0),),
                         protocol="gpsr-rng", loc_error=0.4, seed=7, ttl_factor=0.5)
    sc = Scenario.build(cfg)
    assert sc.ctx.ttl == 5
    fits, cut = (route("gpsr-rng", src, 33, sc.ctx) for src in (45, 43))
    assert fits.path[1] == 37 and fits.modes[:2] == (Mode.GREEDY, Mode.PERIMETER)
    assert cut.path[2] == 37 and cut.modes[:3] == (Mode.GREEDY, Mode.GREEDY, Mode.PERIMETER)
    assert fits.delivered and fits.hops == 5
    assert cut.failure_cause == Failure.TTL_EXCEEDED
    # All pairs go through greedy forests; the two pairs alone through lockstep.
    _assert_eval_run_matches_routes(sc)
    srcs, dsts = np.array([43, 45]), np.array([33, 33])
    sc.pairs = (srcs, dsts, pair_hops(sc.topology, srcs, dsts))
    _assert_eval_run_matches_routes(sc)
