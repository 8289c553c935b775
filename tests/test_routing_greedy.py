from collections import Counter

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from routesim import distance as dm
from routesim.coords import CoordsError
from routesim.harness import ABC_A, ABC_B, ABC_C, Scenario, ScenarioConfig, fixture_abc
from routesim.routing import (
    Failure,
    Outcome,
    greedy_next_hop,
    greedy_route,
    sp_route,
)
from routesim.routing.greedy import LOCKSTEP_BATCH, greedy_forest, greedy_lockstep
from routesim.topology import (
    VoidSpec,
    build_udg,
    generate_grid,
    generate_random,
    topology_from_adjacency,
)


def test_trivial_self_route():
    t, vc = fixture_abc()
    dfield = dm.euclidean_field(vc.matrix.astype(float), vc.matrix[ABC_A].astype(float))
    rr = greedy_route(ABC_A, ABC_A, dfield, t, 100)
    assert rr.outcome == Outcome.DELIVERED_GREEDY
    assert rr.path == (ABC_A,) and rr.hops == 0


def test_forwarding_set_empty_at_counterexample_node():
    t, vc = fixture_abc()
    m = vc.matrix.astype(float)
    for field_fn in (dm.euclidean_field, dm.manhattan_field):
        dfield = field_fn(m, m[ABC_A])
        # no dst argument: the one-hop hand-off must not mask an empty set
        assert greedy_next_hop(ABC_C, dfield, t) is None
        # B is one hop from A, so its set toward A is nonempty
        assert greedy_next_hop(ABC_B, dfield, t) == ABC_A


def test_greedy_fails_at_counterexample_under_both_metrics():
    t, vc = fixture_abc()
    m = vc.matrix.astype(float)
    for field_fn in (dm.euclidean_field, dm.manhattan_field):
        dfield = field_fn(m, m[ABC_A])
        rr = greedy_route(ABC_C, ABC_A, dfield, t, 500)
        assert rr.outcome == Outcome.FAILED
        assert rr.failure_cause == Failure.LOCAL_MINIMUM
        assert rr.path == (ABC_C,)


def test_greedy_tie_breaks_to_lowest_id():
    # two equally closer neighbors: 1 and 2 both at distance 1 from dst 3
    pos = np.array([[0.0, 1.0], [1.0, 0.4], [1.0, 1.6], [2.0, 1.0]])
    t = topology_from_adjacency(pos, [[1, 2], [3], [3], []])
    dfield = np.array([2.0, 1.0, 1.0, 0.0])
    rr = greedy_route(0, 3, dfield, t, 10)
    assert rr.path == (0, 1, 3)


def test_greedy_destination_neighbor_handoff():
    # chain 0-1-2 with a flat field: 1 hands the packet to its neighbor 2
    t = topology_from_adjacency(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), [[1], [2], []])
    flat = np.zeros(3)
    rr = greedy_route(1, 2, flat, t, 10)
    assert rr.delivered and rr.path == (1, 2)
    # but a node two hops out has no strictly closer neighbor: local minimum
    rr0 = greedy_route(0, 2, flat, t, 10)
    assert rr0.failure_cause == Failure.LOCAL_MINIMUM


def test_greedy_ttl():
    t = build_udg(generate_grid(1, 30, 1.0), 1.0)
    pos = t.positions
    dfield = dm.euclidean_field(pos, pos[29])
    rr = greedy_route(0, 29, dfield, t, ttl=5)
    assert rr.outcome == Outcome.FAILED and rr.failure_cause == Failure.TTL_EXCEEDED
    assert rr.hops == 5


def test_greedy_monotone_and_no_revisit():
    rng = np.random.default_rng(6)
    t = build_udg(generate_random(150, 12, 12, seed=6), 1.8)
    pos = t.positions
    for _ in range(60):
        src, dst = rng.integers(0, t.n, 2)
        dfield = dm.euclidean_field(pos, pos[dst])
        rr = greedy_route(int(src), int(dst), dfield, t, 1000)
        if not rr.delivered:
            continue
        assert rr.path[-1] == dst
        assert len(set(rr.path)) == len(rr.path)
        for a, b in zip(rr.path, rr.path[1:]):
            assert b in t.adjacency[a]
            if b != dst:
                assert dfield[b] < dfield[a]
            else:
                assert dfield[b] <= dfield[a]


def _stop(rr) -> int:
    """The bulk kernels' ``stop`` for greedy_route's result: dst when
    delivered, the local minimum where the path ends, -1 when ttl-exceeded."""
    return -1 if rr.failure_cause == Failure.TTL_EXCEEDED else rr.path[-1]


def test_engine_matches_vectorized_successors():
    short = ScenarioConfig(deployment="random", n=120, width=10, height=10,
                           radio_range=1.6, protocol="gf-vcs", seed=9)
    # A long thin strip with two voids: walks of over a hundred hops, local
    # minima at the voids, and a TTL below the diameter that cuts walks off.
    long = ScenarioConfig(deployment="grid", rows=4, cols=200, radio_range=1.5,
                          voids=(VoidSpec("disc", (60.0, 2.5), radius=1.6),
                                 VoidSpec("disc", (140.0, 0.5), radius=1.6)),
                          protocol="gf-geo", ttl_factor=0.6)
    seen = Counter()
    for cfg in (short, long):
        sc = Scenario.build(cfg)
        t = sc.topology
        ttl = sc.ctx.ttl
        rng = np.random.default_rng(1)
        for dst in rng.integers(0, t.n, 15):
            dst = int(dst)
            dfield = sc.ctx.dfield(cfg.protocol, dst)
            hops, stop = greedy_forest(dfield, t, dst, ttl)
            srcs = rng.integers(0, t.n, 40)
            stepped = zip(*greedy_lockstep(srcs, np.full(len(srcs), dst),
                                           *sc.ctx.field_inputs(cfg.protocol), t, ttl))
            for src, (step_hops, step_stop) in zip(srcs.tolist(), stepped):
                if src == dst:
                    continue
                rr = greedy_route(src, dst, dfield, t, ttl)
                # dst, the local minimum where recovery resumes, or -1 when cut
                assert stop[src] == step_stop == _stop(rr)
                # hops to dst or to the local minimum, cut off at the TTL
                assert rr.hops == hops[src] == step_hops <= ttl
                if not rr.delivered:
                    seen["ttl" if rr.failure_cause == Failure.TTL_EXCEEDED else "minimum"] += 1
                seen["long"] += int(hops[src] > 64)
    assert min(seen["ttl"], seen["minimum"], seen["long"]) > 0


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(grid=st.booleans(), side=st.integers(3, 8), radio_range=st.floats(1.0, 2.4),
       seed=st.integers(0, 10_000), protocol=st.sampled_from(("gf-vcs", "gf-avcs", "gf-geo")),
       loc_error=st.sampled_from((0.0, 0.4)), distance=st.sampled_from(("euclid", "manhattan", "semi")),
       ttl_factor=st.sampled_from((0.6, 1.0, 4.0)),
       pairs=st.sampled_from((1, 7, LOCKSTEP_BATCH - 1, LOCKSTEP_BATCH, 2 * LOCKSTEP_BATCH + 3)))
def test_lockstep_matches_greedy_forest(grid, side, radio_range, seed, protocol, loc_error,
                                        distance, ttl_factor, pairs):
    """Grids give integer coordinate ties; batch-sized pair counts cross a batch boundary.

    Both kernels give every pair greedy_route's hops and end: dst, the last
    node of its path (where recovery resumes), or -1 when the TTL cut it.
    """
    layout = (dict(deployment="grid", rows=side, cols=side + 2) if grid else
              dict(deployment="random", n=side * (side + 2), width=6.0, height=6.0))
    cfg = ScenarioConfig(radio_range=radio_range, protocol=protocol, seed=seed,
                         loc_error=loc_error, distance=distance, ttl_factor=ttl_factor,
                         align_depth=1, **layout)
    try:
        sc = Scenario.build(cfg)
    except CoordsError:  # virtual coordinates need a connected graph
        assume(False)
    t = sc.topology
    rng = np.random.default_rng(seed)
    srcs = rng.integers(0, t.n, pairs)
    dsts = rng.integers(0, t.n, pairs)
    ttl = sc.ctx.ttl
    hops, stop = greedy_lockstep(srcs, dsts, *sc.ctx.field_inputs(protocol), t, ttl)
    for dst in np.unique(dsts).tolist():
        dfield = sc.ctx.dfield(protocol, dst)
        forest_hops, forest_stop = greedy_forest(dfield, t, dst, ttl)
        at = np.flatnonzero(dsts == dst)
        src = srcs[at]
        assert np.array_equal(hops[at], forest_hops[src])
        assert np.array_equal(stop[at], forest_stop[src])
        for u in np.unique(src).tolist():
            rr = greedy_route(u, dst, dfield, t, ttl)
            assert forest_stop[u] == _stop(rr) and forest_hops[u] == rr.hops


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernels_match_greedy_route_on_disconnected_graphs(data):
    """Hand-built, often disconnected graphs with tie-heavy one-column coordinates.

    Every ordered pair, src == dst included, under a TTL from 0 to 3n: both
    kernels give greedy_route's hops, and a stop of dst exactly when it
    delivers, -1 exactly when it ends ttl-exceeded, and otherwise the local
    minimum where its path ends.
    """
    n = data.draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    adj = [[] for _ in range(n)]
    for u, v in data.draw(st.lists(st.tuples(node, node), max_size=2 * n)):
        if u != v:
            adj[u].append(v)
    t = topology_from_adjacency(np.zeros((n, 2)), adj)
    coords = np.array(data.draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0)),
                                         min_size=n, max_size=n)))[:, None]
    field = data.draw(st.sampled_from((dm.euclidean_field, dm.manhattan_field,
                                       dm.semi_manhattan_field)))
    ttl = data.draw(st.integers(0, 3 * n))
    srcs = np.repeat(np.arange(n), n)
    dsts = np.tile(np.arange(n), n)
    step_hops, step_stop = (a.reshape(n, n) for a in
                            greedy_lockstep(srcs, dsts, coords, coords, field, t, ttl))
    for dst in range(n):
        dfield = field(coords, coords[dst])
        routes = [greedy_route(src, dst, dfield, t, ttl) for src in range(n)]
        hops = np.array([rr.hops for rr in routes])
        end = np.array([_stop(rr) for rr in routes])
        for kernel_hops, kernel_stop in ((step_hops[:, dst], step_stop[:, dst]),
                                         greedy_forest(dfield, t, dst, ttl)):
            assert np.array_equal(kernel_hops, hops)
            assert np.array_equal(kernel_stop, end)


def test_sp_route_basics():
    t = build_udg(generate_grid(20, 20, 1.0), 1.2)
    assert sp_route(7, 7, t).hops == 0
    assert sp_route(0, 1, t).hops == 1
    rr = sp_route(0, 399, t)  # corner to corner
    assert rr.delivered and rr.hops == 38
    for a, b in zip(rr.path, rr.path[1:]):
        assert b in t.adjacency[a]


def test_sp_route_cross_component_fails():
    t = topology_from_adjacency(
        np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]]), [[1], [], []]
    )
    rr = sp_route(0, 2, t)
    assert rr.outcome == Outcome.FAILED and rr.failure_cause is None


def test_sp_is_stretch_denominator_floor():
    # any delivered route is at least as long as the shortest path
    t = build_udg(generate_random(150, 12, 12, seed=8), 1.8)
    pos = t.positions
    rng = np.random.default_rng(3)
    for _ in range(40):
        src, dst = (int(x) for x in rng.integers(0, t.n, 2))
        rg = greedy_route(src, dst, dm.euclidean_field(pos, pos[dst]), t, 2000)
        rs = sp_route(src, dst, t)
        if rg.delivered and rs.delivered:
            assert rg.hops >= rs.hops
