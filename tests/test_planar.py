import numpy as np
import pytest

from routesim.routing import (
    METHOD_GG,
    METHOD_RNG,
    count_crossings,
    planarize,
    segments_properly_cross,
)
from routesim.routing.planar import crossing_point
from routesim.topology import Deployment, build_udg, generate_random


def test_two_nodes_keep_single_edge():
    d = Deployment(np.array([[0.0, 0.0], [1.0, 0.0]]), width=2.0, height=1.0)
    t = build_udg(d, 1.0)
    for method in (METHOD_GG, METHOD_RNG):
        pg = planarize(t, t.positions, method)
        assert pg.edges().tolist() == [[0, 1]]


def test_unit_square_diagonals_removed():
    # all four sides plus both diagonals are in range; the corner witnesses
    # make both planarizations drop the diagonals
    d = Deployment(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        width=1.0, height=1.0,
    )
    t = build_udg(d, 1.5)
    assert len(t.adjacency[0]) == 3  # diagonals exist in the topology
    for method in (METHOD_GG, METHOD_RNG):
        pg = planarize(t, t.positions, method)
        assert pg.edges().tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]


def test_rng_subset_of_gg():
    for seed in (1, 2, 3):
        t = build_udg(generate_random(200, 14, 14, seed=seed), 1.4)
        gg = planarize(t, t.positions, METHOD_GG)
        rng_ = planarize(t, t.positions, METHOD_RNG)
        gg_edges = set(map(tuple, gg.edges().tolist()))
        for e in rng_.edges().tolist():
            assert tuple(e) in gg_edges


def test_no_proper_crossings_on_random_instances():
    for seed in (4, 5):
        t = build_udg(generate_random(200, 14, 14, seed=seed), 1.4)
        for method in (METHOD_GG, METHOD_RNG):
            pg = planarize(t, t.positions, method)
            assert count_crossings(pg, t.positions) == 0


def test_planar_edge_subset_of_topology():
    t = build_udg(generate_random(150, 12, 12, seed=6), 1.5)
    for method in (METHOD_GG, METHOD_RNG):
        pg = planarize(t, t.positions, method)
        assert pg.deployment is t.deployment and pg.radio_range == t.radio_range
        for u, nbrs in enumerate(pg.adjacency):
            for v in nbrs:
                assert v in t.adjacency[u]


def test_segments_properly_cross():
    assert segments_properly_cross((-1, 0), (1, 0), (0, -1), (0, 1))
    # touching at an endpoint is not a crossing
    assert not segments_properly_cross((-1, 0), (1, 0), (1, 0), (1, 1))
    assert not segments_properly_cross((-1, 0), (1, 0), (0, 0), (0, 1))
    # collinear overlap is not a crossing
    assert not segments_properly_cross((-1, 0), (1, 0), (0, 0), (2, 0))
    # disjoint
    assert not segments_properly_cross((-1, 0), (1, 0), (2, 1), (3, -1))


def test_crossing_point_value():
    p = crossing_point((-1, 0), (1, 0), (0, -2), (0, 2))
    assert p == pytest.approx((0.0, 0.0))
    assert crossing_point((-1, 0), (1, 0), (0, 1), (0, 2)) is None
