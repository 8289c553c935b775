from collections import Counter

import numpy as np

from routesim import distance as dm
from routesim.harness import ABC_A, ABC_B, ABC_C, Scenario, ScenarioConfig, fixture_abc
from routesim.routing import (
    Failure,
    Outcome,
    greedy_next_hop,
    greedy_route,
    sp_route,
)
from routesim.routing.greedy import greedy_successors, greedy_walks
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
            ok, hops, timed_out = greedy_walks(greedy_successors(dfield, t, dst), dst, ttl)
            for src in rng.integers(0, t.n, 40):
                src = int(src)
                if src == dst:
                    continue
                rr = greedy_route(src, dst, dfield, t, ttl)
                assert rr.delivered == ok[src]
                # hops to dst or to the local minimum, cut off at the TTL
                assert rr.hops == min(hops[src], ttl)
                if not ok[src]:
                    assert rr.failure_cause == (
                        Failure.TTL_EXCEEDED if timed_out[src] else Failure.LOCAL_MINIMUM)
                    seen["ttl" if timed_out[src] else "minimum"] += 1
                seen["long"] += int(hops[src] > 64)
    assert min(seen["ttl"], seen["minimum"], seen["long"]) > 0


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
