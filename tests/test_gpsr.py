from collections import Counter

import numpy as np

from routesim.distance import euclidean_field
from routesim.harness import Scenario, ScenarioConfig, evaluate
from routesim.routing import (
    METHOD_GG,
    Failure,
    Mode,
    face_table,
    gpsr_route,
    planarize,
    sp_route,
)
from routesim.topology import (
    Deployment,
    VoidSpec,
    build_udg,
    generate_random,
    topology_from_adjacency,
)


def u_shape_topology():
    """A cul-de-sac: greedy from the pocket stalls against the wall and the
    packet has to walk around the right arm to reach the destination below."""
    pts = [
        (0.0, 1.0),    # 0: src, inside the pocket
        (-2.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0),  # 1-5 wall
        (-2.0, 1.0), (2.0, 1.0),   # 6-7 pocket arms
        (2.6, -0.8), (2.2, -1.8), (1.1, -2.2),  # 8-10 route around the wall
        (0.0, -2.0),   # 11: dst
    ]
    pos = np.array(pts) + 3.0  # shift into positive bounds
    d = Deployment(pos, width=7.0, height=6.0)
    return build_udg(d, 1.2), 0, 11


def _gpsr(src, dst, t, pg, ttl):
    """gpsr_route on the topology's own positions, walking faces of ``pg``."""
    pos = t.positions
    return gpsr_route(src, dst, euclidean_field(pos, pos[dst]), face_table(pos, pg), t, ttl)


def test_gpsr_self_route():
    t, src, dst = u_shape_topology()
    pg = planarize(t, t.positions, METHOD_GG)
    rr = _gpsr(src, src, t, pg, 100)
    assert rr.greedy and rr.hops == 0


def test_gpsr_local_minimum_without_planar_neighbor_outranks_spent_ttl():
    # 0 forwards greedily to 1, whose only neighbor is 0: a local minimum.
    # The planar subgraph dropped edge 0-1 (as planarizing perceived
    # positions can), so 1 has no face to walk.  That is reported as a local
    # minimum even when the one hop taken has already spent the TTL.
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [1.0, 1.5]])
    t = topology_from_adjacency(pos, [[1, 3], [], [3], []])
    pg = topology_from_adjacency(pos, [[3], [], [3], []])
    for ttl in (1, 100):
        rr = _gpsr(0, 2, t, pg, ttl)
        assert rr.path == (0, 1)
        assert rr.failure_cause == Failure.LOCAL_MINIMUM


def test_gpsr_source_without_planar_neighbor_is_a_local_minimum():
    # The source's one topology neighbor is farther from dst and the planar
    # subgraph has no edge at the source: there is no face to walk, whatever
    # the TTL, including none at all.
    pos = np.array([[1.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
    t = topology_from_adjacency(pos, [[1], [], []])
    pg = topology_from_adjacency(pos, [[], [], []])
    for ttl in (0, 1, 100):
        rr = _gpsr(0, 2, t, pg, ttl)
        assert rr.path == (0,)
        assert rr.failure_cause == Failure.LOCAL_MINIMUM


def test_gpsr_neighbor_on_the_reference_ray_sorts_last():
    # 0 is a local minimum toward dst 3.  Counterclockwise from the line to
    # dst, the walk first meets the dead end 1, whose only edge lies exactly
    # on its reference ray (the arrival edge), so it turns back.  Back at 0,
    # edge 0-1 lies exactly on the reference ray and sorts after 0-2; sorting
    # it first would repeat the face's first edge and drop the packet.
    pos = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 0.0], [3.0, 1.0], [2.0, 0.0]])
    t = topology_from_adjacency(pos, [[1, 2], [0], [0, 4], [4], [2, 3]])
    rr = _gpsr(0, 3, t, t, 100)
    assert rr.path == (0, 1, 0, 2, 4, 3)
    assert rr.modes == (Mode.PERIMETER,) * 4 + (Mode.GREEDY,)


def test_gpsr_neighbors_at_equal_angles_go_to_the_lower_id():
    # 1 and 2 lie in the same direction from the local minimum 0; the walk
    # takes the lower id, 1, though 2 is nearer to both 0 and dst 4.  Back
    # at 0, both lie on the reference ray and sort after 0-3.
    pos = np.array([[0.0, 1.0], [0.0, 3.0], [0.0, 2.0], [0.0, 0.0], [3.0, 1.0], [2.0, 0.0]])
    t = topology_from_adjacency(pos, [[1, 2, 3], [0], [0], [0, 5], [5], [3, 4]])
    rr = _gpsr(0, 4, t, t, 100)
    assert rr.path == (0, 1, 0, 3, 5, 4)
    assert rr.modes == (Mode.PERIMETER,) * 4 + (Mode.GREEDY,)


def test_gpsr_recovers_from_cul_de_sac():
    t, src, dst = u_shape_topology()
    assert t.n == 12
    pg = planarize(t, t.positions, METHOD_GG)
    rr = _gpsr(src, dst, t, pg, 100)
    assert rr.delivered and not rr.greedy
    assert rr.path[-1] == dst
    assert sum(m == Mode.PERIMETER for m in rr.modes) >= 1
    for a, b in zip(rr.path, rr.path[1:]):
        assert b in t.adjacency[a]
    # greedy alone would have died at the wall, so the walk cost something
    assert rr.hops >= sp_route(src, dst, t).hops


def test_gpsr_grid_with_hole_delivers_sampled_pairs():
    cfg = ScenarioConfig(
        deployment="grid", rows=20, cols=20, radio_range=1.2,
        voids=(VoidSpec("disc", (9.5, 9.5), radius=3.0),),
        protocol="gpsr-gg", sample=3000, seed=2,
    )
    row = evaluate(cfg)
    assert row.delivery_ratio == 1.0
    assert row.greedy_ratio < 1.0  # the hole forces perimeter episodes
    assert row.stretch_all >= 1.0


def test_gpsr_random_instances_deliver_when_connected():
    # exact positions + planar subgraph: perimeter recovery must deliver;
    # walks around pockets can run long, so give the TTL plenty of room
    from routesim.harness import evaluate_scenario

    found = 0
    for seed in range(3, 9):
        t = build_udg(generate_random(150, 12, 12, seed=seed), 1.7)
        if t.component_labels().any():
            continue
        found += 1
        sc = Scenario.build(
            ScenarioConfig(deployment="random", n=150, width=12, height=12,
                           radio_range=1.7, protocol="gpsr-rng", seed=seed,
                           sample=400, ttl_factor=50.0)
        )
        row = evaluate_scenario(sc)
        assert row.delivery_ratio == 1.0
    assert found >= 3


def test_gpsr_mode_attribution():
    t, src, dst = u_shape_topology()
    pg = planarize(t, t.positions, METHOD_GG)
    rr = _gpsr(src, dst, t, pg, 100)
    counts = Counter(rr.modes)
    assert set(counts) <= {Mode.GREEDY, Mode.PERIMETER}
    assert rr.greedy == (counts.get(Mode.PERIMETER, 0) == 0)
