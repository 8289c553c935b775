import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from routesim.routing import (
    METHOD_GG,
    METHOD_RNG,
    count_crossings,
    planarize,
)
from routesim.routing import planar
from routesim.routing.planar import crossing_point
from routesim.topology import (
    Deployment,
    build_udg,
    generate_random,
    perturb_positions,
    topology_from_adjacency,
)


def loop_planarize(t, positions, method):
    """Reference: the per-edge witness loop that ``planarize`` replaced."""
    pos = np.asarray(positions, dtype=float)
    keep = []
    adj = t.adjacency
    for u, v in t.edges().tolist():
        pu, pv = pos[u], pos[v]
        witnesses = set(adj[u]) | set(adj[v])
        witnesses.discard(u)
        witnesses.discard(v)
        if method == METHOD_GG:
            mid = (pu + pv) / 2.0
            r2 = ((pu - pv) ** 2).sum() / 4.0
            ok = all(((pos[w] - mid) ** 2).sum() > r2 for w in witnesses)
        else:
            d2 = ((pu - pv) ** 2).sum()
            ok = all(
                max(((pos[w] - pu) ** 2).sum(), ((pos[w] - pv) ** 2).sum()) >= d2
                for w in witnesses
            )
        if ok:
            keep.append((u, v))
    adjacency = [[] for _ in range(t.n)]
    for u, v in keep:
        adjacency[u].append(v)
    return topology_from_adjacency(t.positions, adjacency, t.radio_range)


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
    assert count_crossings(t, t.positions) == 1
    # the diagonals alone: the crossing pair is the only (and last) pair
    x = topology_from_adjacency(d.positions, [[3], [2], [], []], 1.5)
    assert count_crossings(x, x.positions) == 1
    for method in (METHOD_GG, METHOD_RNG):
        pg = planarize(t, t.positions, method)
        assert pg.edges().tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]
        assert count_crossings(pg, t.positions) == 0


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


def test_crossing_point_needs_a_proper_crossing():
    assert crossing_point((-1, 0), (1, 0), (0, -1), (0, 1)) is not None
    # touching at an endpoint is not a crossing
    assert crossing_point((-1, 0), (1, 0), (1, 0), (1, 1)) is None
    assert crossing_point((-1, 0), (1, 0), (0, 0), (0, 1)) is None
    # collinear overlap is not a crossing
    assert crossing_point((-1, 0), (1, 0), (0, 0), (2, 0)) is None
    # disjoint
    assert crossing_point((-1, 0), (1, 0), (2, 1), (3, -1)) is None


def test_crossing_point_value():
    p = crossing_point((-1, 0), (1, 0), (0, -2), (0, 2))
    assert p == pytest.approx((0.0, 0.0))
    assert crossing_point((-1, 0), (1, 0), (0, 1), (0, 2)) is None


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segments_properly_cross(p1, p2, q1, q2):
    """Reference: the proper-crossing test crossing_point used to call."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0


def reference_crossing_point(p1, p2, q1, q2):
    """Reference: crossing_point as it was, with its own parameter numerator."""
    if not segments_properly_cross(p1, p2, q1, q2):
        return None
    x1, y1 = p1
    x2, y2 = p2
    x3, y3 = q1
    x4, y4 = q2
    denom = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    tnum = (x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)
    s = tnum / denom
    return (x1 + s * (x2 - x1), y1 + s * (y2 - y1))


_coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_grid = st.integers(-3, 3)


@st.composite
def segment_pairs(draw):
    """Two segments: random floats, integer-grid points (collinear, touching
    and shared endpoints), or a segment and a nearly parallel shifted copy."""
    kind = draw(st.sampled_from(("float", "grid", "near-parallel")))
    if kind == "float":
        points = draw(st.lists(st.tuples(_coord, _coord), min_size=4, max_size=4))
    elif kind == "grid":
        points = draw(st.lists(st.tuples(_grid, _grid), min_size=4, max_size=4))
    else:
        (x1, y1), (x2, y2), (dx, dy) = draw(st.lists(st.tuples(_coord, _coord), min_size=3, max_size=3))
        tilt = draw(st.floats(-1e-9, 1e-9))
        points = [(x1, y1), (x2, y2), (x1 + dx * 1e-6, y1 + dy * 1e-6),
                  (x2 + dx * 1e-6 + tilt, y2 + dy * 1e-6 - tilt)]
    if draw(st.booleans()):  # rows of a positions array, as the face walk passes them
        points = list(np.array(points, dtype=float))
    return points


# Nearly parallel segments whose orientations cross but whose denominator
# rounds to 0: the reference divides by zero, crossing_point finds no point.
_PARALLEL_BY_ROUNDING = [(0.0, 0.0), (625.0, 19.0), (0.000625, 1.8999999999999998e-05), (625.000625, 19.000019)]


@settings(max_examples=1000, deadline=None)
@given(segment_pairs())
@example(_PARALLEL_BY_ROUNDING)
@example(list(np.array(_PARALLEL_BY_ROUNDING)))
def test_crossing_point_matches_reference_bits(points):
    got = crossing_point(*points)
    try:
        with np.errstate(divide="raise", invalid="raise"):
            want = reference_crossing_point(*points)
    except (ZeroDivisionError, FloatingPointError):
        want = None
    if want is None:
        assert got is None
    else:
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


def test_tie_rules():
    # GG: a witness exactly on the circle with diameter uv removes uv
    t = build_udg(Deployment(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]]), 2.0, 1.0), 2.0)
    assert [0, 1] not in planarize(t, t.positions, METHOD_GG).edges().tolist()
    # RNG: a 3-4-5 triangle; w is exactly as far from u as v is, and closer
    # to v, so max(d(w, u), d(w, v)) == d(u, v) and every edge stays
    t = build_udg(Deployment(np.array([[0.0, 0.0], [3.0, 4.0], [5.0, 0.0]]), 5.0, 4.0), 5.0)
    for method in (METHOD_GG, METHOD_RNG):
        assert planarize(t, t.positions, method).n_edges == 3


@st.composite
def planar_cases(draw):
    """(topology, believed positions) for random and integer-lattice layouts.

    Lattice positions put witnesses exactly on GG circles and at exactly
    equal RNG distances; cut nodes lose every edge (isolated nodes); a
    positive localization error moves positions off the topology's own.
    """
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        d = generate_random(n, 6.0, 6.0, seed=seed)
        r = draw(st.sampled_from([0.8, 1.5, 2.5]))
    else:
        xy = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                           min_size=n, max_size=n))
        d = Deployment(np.array(xy, dtype=float), width=5.0, height=5.0)
        r = draw(st.sampled_from([1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 3.0]))
    t = build_udg(d, r)
    cut = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    if cut:
        adjacency = [[v for v in nbrs if u not in cut and v not in cut]
                     for u, nbrs in enumerate(t.adjacency)]
        t = topology_from_adjacency(t.positions, adjacency, r, d.width, d.height)
    loc_error = draw(st.sampled_from([0.0, 0.0, 0.4, 1.0]))
    return t, perturb_positions(t, loc_error, seed)


@settings(max_examples=300, deadline=None)
@given(planar_cases(), st.sampled_from([1, 3, 64, planar._EDGE_BLOCK]))
def test_planarize_matches_per_edge_loop(case, block):
    t, pos = case
    with mock.patch.object(planar, "_EDGE_BLOCK", block):
        for method in (METHOD_GG, METHOD_RNG):
            got = planarize(t, pos, method)
            want = loop_planarize(t, pos, method)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)


@pytest.mark.parametrize("xy", [[[0.5, 0.5]], [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]])
def test_planarize_edgeless_topology(xy):
    d = Deployment(np.array(xy), width=3.0, height=3.0)
    t = build_udg(d, 1.0)
    ids = t.neighbor_matrix()
    assert t.edges().shape == (0, 2)
    assert ids.tolist() == [[u] for u in range(t.n)]  # every row is all its own id
    for method in (METHOD_GG, METHOD_RNG):
        pg = planarize(t, t.positions, method)
        assert pg.n_edges == 0 and pg.edges().shape == (0, 2)
        assert pg.deployment is t.deployment and pg.radio_range == t.radio_range


@pytest.mark.parametrize("pair_block", [1, 7, 100, planar._PAIR_BLOCK])
def test_count_crossings_matches_pairwise_loop(pair_block):
    t = build_udg(generate_random(25, 4.0, 4.0, seed=3), 1.5)
    pos = perturb_positions(t, 0.4, 3)
    edges = t.edges().tolist()
    want = sum(
        crossing_point(pos[a], pos[b], pos[c], pos[e]) is not None
        for i, (a, b) in enumerate(edges)
        for c, e in edges[i + 1:]
    )
    assert want > 0
    with mock.patch.object(planar, "_PAIR_BLOCK", pair_block):
        assert count_crossings(t, pos) == want
