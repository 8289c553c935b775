import numpy as np

from routesim import distance as dm
from routesim.harness import ABC_A, ABC_C, Scenario, ScenarioConfig, fixture_abc
from routesim.routing import (
    Failure,
    Mode,
    beacon_trees,
    bvr_route,
    lcr_route,
    sp_route,
)
from routesim.topology import build_udg, generate_random, topology_from_adjacency


def abc_field(vc, dst):
    m = vc.matrix.astype(float)
    return dm.whole_field(dm.euclidean_field, m, m[dst])


def test_lcr_self_route():
    t, vc = fixture_abc()
    rr = lcr_route(ABC_A, ABC_A, abc_field(vc, ABC_A), t, 100)
    assert rr.greedy and rr.hops == 0


def test_lcr_delivers_counterexample_pair():
    t, vc = fixture_abc()
    rr = lcr_route(ABC_C, ABC_A, abc_field(vc, ABC_A), t, 2 * t.n)
    assert rr.delivered and not rr.greedy
    assert rr.path[-1] == ABC_A
    assert Mode.BACKTRACK in rr.modes


def test_lcr_complete_on_connected_instances():
    # depth-first search with a visited set reaches every connected node
    for seed in (3, 4, 6, 7):
        t = build_udg(generate_random(50, 7, 7, seed=seed), 1.6)
        if t.component_labels().any():
            continue
        vcfg = ScenarioConfig(deployment="random", n=50, width=7, height=7,
                              radio_range=1.6, protocol="lcr", seed=seed)
        sc = Scenario.build(vcfg)
        rng = np.random.default_rng(seed)
        for _ in range(60):
            src, dst = (int(x) for x in rng.integers(0, t.n, 2))
            dfield = sc.ctx.dfield("lcr", dst)
            rr = lcr_route(src, dst, dfield, t, 2 * t.n)
            assert rr.delivered, (seed, src, dst)


def test_lcr_backtrack_exhausted_on_unreachable():
    t = topology_from_adjacency(
        np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]]), [[1], [], []]
    )
    rr = lcr_route(0, 2, np.array([2.0, 1.0, 0.0]), t, 100)
    assert not rr.delivered
    assert rr.failure_cause == Failure.BACKTRACK_EXHAUSTED


def test_lcr_path_hops_are_edges():
    t, vc = fixture_abc()
    rr = lcr_route(ABC_C, ABC_A, abc_field(vc, ABC_A), t, 2 * t.n)
    for a, b in zip(rr.path, rr.path[1:]):
        assert b in t.adjacency[a]


def test_bvr_self_route():
    t, vc = fixture_abc()
    rr = bvr_route(ABC_A, ABC_A, abc_field(vc, ABC_A), beacon_trees(vc, t), t, 100)
    assert rr.greedy and rr.hops == 0


def test_bvr_mixed_delivery_uses_fallback_or_flood():
    cfg = ScenarioConfig(deployment="random", n=200, width=14, height=14,
                         radio_range=1.9, protocol="bvr", seed=1)
    sc = Scenario.build(cfg)
    t = sc.topology
    rng = np.random.default_rng(0)
    mixed = 0
    for _ in range(300):
        src, dst = (int(x) for x in rng.integers(0, t.n, 2))
        if src == dst:
            continue
        rr = bvr_route(src, dst, sc.ctx.dfield("bvr", dst), sc.ctx.beacons, t, sc.ctx.ttl)
        if rr.delivered and not rr.greedy:
            mixed += 1
            assert Mode.FALLBACK in rr.modes or Mode.FLOOD in rr.modes
        if rr.delivered:
            assert rr.path[-1] == dst
            for a, b in zip(rr.path, rr.path[1:]):
                assert b in t.adjacency[a]
    assert mixed > 0


def test_bvr_counterexample_pair_delivered():
    t, vc = fixture_abc()
    dfield = dm.whole_field(dm.field_function("semi", 10.0), vc.matrix.astype(float),
                            vc.matrix[ABC_A].astype(float))
    rr = bvr_route(ABC_C, ABC_A, dfield, beacon_trees(vc, t), t, 10 * t.n)
    assert rr.delivered


def test_bvr_flood_charges_anchor_to_dst_shortest_path():
    # force a flood by trapping greedy immediately: flat distance field
    t, vc = fixture_abc()
    dst = ABC_A
    k = int(np.argmin(vc.matrix[dst]))
    anchor = vc.anchors.ids[k]
    dfield = np.ones(t.n)
    dfield[dst] = 0.0
    src = ABC_C
    rr = bvr_route(src, dst, dfield, beacon_trees(vc, t), t, 10 * t.n)
    assert rr.delivered
    flood_hops = sum(m == Mode.FLOOD for m in rr.modes)
    assert flood_hops == sp_route(anchor, dst, t).hops == vc.matrix[dst][k]


def test_bvr_greedy_resumption_prefix():
    # greedy-only deliveries stay pure greedy under bvr
    cfg = ScenarioConfig(deployment="grid", rows=10, cols=10, radio_range=1.2,
                         protocol="bvr", seed=1)
    sc = Scenario.build(cfg)
    t = sc.topology
    delivered_greedy = 0
    for dst in (0, 37, 99):
        dfield = sc.ctx.dfield("bvr", dst)
        for src in range(0, t.n, 7):
            if src == dst:
                continue
            rr = bvr_route(src, dst, dfield, sc.ctx.beacons, t, sc.ctx.ttl)
            if rr.greedy:
                delivered_greedy += 1
                assert all(m == Mode.GREEDY for m in rr.modes)
    assert delivered_greedy > 0
