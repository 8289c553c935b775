import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix

from routesim.coords import (
    ALIGN_RULES,
    AnchorSet,
    CoordsError,
    RULE_SELF_WEIGHTED,
    RULE_UNIFORM_AVERAGE,
    VirtualCoords,
    align,
    build_vcs,
    check_edge_lipschitz,
    corner_anchors,
    format_coords,
    geo_view,
    hop_counts,
)
from routesim.topology import (
    build_udg,
    generate_grid,
    generate_random,
    perturb_positions,
    topology_from_adjacency,
)


def grid_topology(rows=20, cols=20):
    return build_udg(generate_grid(rows, cols, 1.0), 1.2)


def test_hop_counts_self_and_neighbor():
    t = grid_topology(5, 5)
    h = hop_counts(t, 0)
    assert h[0] == 0
    for v in t.adjacency[0]:
        assert h[v] == 1


def test_hop_counts_grid_equals_manhattan():
    t = grid_topology()
    h = hop_counts(t, 0)  # corner cell (0, 0)
    for node in range(t.n):
        i, j = node % 20, node // 20
        assert h[node] == i + j


def test_hop_counts_unreachable_flagged():
    t = topology_from_adjacency(
        np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0]]),
        [[1], [], [3], []],
    )
    h = hop_counts(t, 0)
    assert h[1] == 1 and h[2] == -1 and h[3] == -1


def test_build_vcs_anchor_zero_and_lipschitz():
    t = grid_topology()
    vc = build_vcs(t, corner_anchors(t, 4))
    for k, a in enumerate(vc.anchors.ids):
        assert vc.matrix[a][k] == 0
    assert check_edge_lipschitz(vc, t)


def test_build_vcs_rejects_disconnected():
    t = topology_from_adjacency(
        np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0], [7.0, 0.0]]),
        [[1], [], [3], [4], []],
    )
    with pytest.raises(CoordsError):
        build_vcs(t, AnchorSet((0, 2, 3)))


def test_corner_anchors_on_grid():
    t = grid_topology()
    assert corner_anchors(t, 4).ids == (0, 19, 380, 399)
    assert corner_anchors(t, 3).ids == (0, 19, 380)


def test_anchorset_validation():
    with pytest.raises(CoordsError):
        AnchorSet((1, 2))
    with pytest.raises(CoordsError):
        AnchorSet((1, 2, 2))


def test_align_depth_zero_identity():
    t = grid_topology(6, 6)
    vc = build_vcs(t, corner_anchors(t, 4))
    ac = align(vc, t, 0)
    assert np.array_equal(ac.matrix, vc.matrix.astype(float))


def test_align_two_node_hand_values():
    from routesim.coords import VirtualCoords

    t = topology_from_adjacency(np.array([[0.0, 0.0], [1.0, 0.0]]), [[1], []])
    vc = VirtualCoords(np.array([[0], [1]]))
    a1 = align(vc, t, 1, RULE_SELF_WEIGHTED)
    assert a1.matrix[0, 0] == pytest.approx(0.5)
    assert a1.matrix[1, 0] == pytest.approx(0.5)
    a2 = align(vc, t, 1, RULE_UNIFORM_AVERAGE)
    assert a2.matrix[0, 0] == pytest.approx(0.5)
    assert a2.matrix[1, 0] == pytest.approx(0.5)


def test_align_isolated_node_keeps_value():
    from routesim.coords import VirtualCoords

    t = topology_from_adjacency(
        np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 0.0]]), [[1], [], []]
    )
    vc = VirtualCoords(np.array([[0], [1], [7]]))
    for rule in (RULE_SELF_WEIGHTED, RULE_UNIFORM_AVERAGE):
        ac = align(vc, t, 3, rule)
        assert ac.matrix[2, 0] == 7.0


def test_align_max_principle_and_contraction():
    t = build_udg(generate_random(150, 12, 12, seed=2), 1.8)
    vc = build_vcs(t, corner_anchors(t, 4))
    prev = vc.matrix.astype(float)
    for depth in range(1, 4):
        cur = align(vc, t, depth, RULE_SELF_WEIGHTED).matrix
        for u in range(t.n):
            hood = list(t.adjacency[u]) + [u]
            lo = prev[hood].min(axis=0)
            hi = prev[hood].max(axis=0)
            assert (cur[u] >= lo - 1e-12).all() and (cur[u] <= hi + 1e-12).all()
        # contraction toward consensus
        assert (cur.max(axis=0) <= prev.max(axis=0) + 1e-12).all()
        assert (cur.min(axis=0) >= prev.min(axis=0) - 1e-12).all()
        prev = cur


def test_align_rules_coincide_on_degree_one_nodes():
    from routesim.coords import VirtualCoords

    # star: every leaf has exactly one neighbor
    n = 6
    t = topology_from_adjacency(
        np.array([[2.0, 2.0]] + [[2 + np.cos(k), 2 + np.sin(k)] for k in range(n - 1)]),
        [[k] for k in range(1, n)],
    )
    vc = VirtualCoords(np.arange(n).reshape(-1, 1))
    a1 = align(vc, t, 1, RULE_SELF_WEIGHTED).matrix
    a2 = align(vc, t, 1, RULE_UNIFORM_AVERAGE).matrix
    for leaf in range(1, n):
        assert a1[leaf, 0] == pytest.approx(a2[leaf, 0])


def test_align_depth_d_locality():
    from routesim.coords import VirtualCoords

    # chain: changing a coordinate more than d hops away leaves AV^d unchanged
    n = 12
    adj = [[i + 1] if i + 1 < n else [] for i in range(n)]
    t = topology_from_adjacency(np.array([[float(i), 0.0] for i in range(n)]), adj)
    base = np.arange(n).reshape(-1, 1)
    changed = base.copy()
    changed[n - 1, 0] = 40  # far end
    for d in (1, 2, 3):
        aa = align(VirtualCoords(base), t, d).matrix
        ab = align(VirtualCoords(changed), t, d).matrix
        near = slice(0, n - 1 - d)  # strictly more than d hops from the change
        assert np.array_equal(aa[near], ab[near])
        assert not np.array_equal(aa[n - 1 - d :], ab[n - 1 - d :])


def _csr_align(vc, t, depth, rule):
    """The alignment rounds as a scipy CSR product, the reference float order."""
    s = csr_matrix((np.ones(len(t.indices)), t.indices, t.indptr), shape=(t.n, t.n))
    deg = np.asarray(s.sum(axis=1)).ravel()
    isolated = deg == 0
    a = vc.matrix.astype(float)
    for _ in range(depth):
        nbr_sum = s @ a
        if rule == RULE_SELF_WEIGHTED:
            new = (nbr_sum / np.where(isolated, 1.0, deg)[:, None] + a) / 2.0
        else:
            new = (nbr_sum + a) / (deg[:, None] + 1.0)
        new[isolated] = a[isolated]
        a = new
    return a


@st.composite
def coordinate_graphs(draw):
    """Random graphs with isolated nodes, and integer coordinates up to 40."""
    n = draw(st.integers(1, 40))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=150))
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        if u != v:
            adjacency[u].append(v)
    dims = draw(st.integers(3, 4))
    values = draw(st.lists(st.integers(0, 40), min_size=n * dims, max_size=n * dims))
    t = topology_from_adjacency(np.zeros((n, 2)), adjacency)
    return t, VirtualCoords(np.array(values).reshape(n, dims))


def _assert_align_bit_equal_to_csr(t, vc):
    for rule in ALIGN_RULES:
        for depth in (1, 3):
            got = align(vc, t, depth, rule).matrix
            assert got.tobytes() == _csr_align(vc, t, depth, rule).tobytes()


@settings(max_examples=200, deadline=None)
@given(coordinate_graphs())
def test_align_bit_equal_to_csr_product(case):
    _assert_align_bit_equal_to_csr(*case)


def test_align_bit_equal_to_csr_product_on_udg():
    t = build_udg(generate_random(2000, 60, 60, seed=4), 1.6)  # mean degree 4.5
    assert (np.diff(t.indptr) == 0).any() and np.diff(t.indptr).max() > 10
    vc = VirtualCoords(np.random.default_rng(4).integers(0, 60, size=(t.n, 4)))
    _assert_align_bit_equal_to_csr(t, vc)


def test_geo_view_true_and_perceived():
    t = grid_topology(6, 6)
    assert geo_view(t, None) is t.positions
    p0 = perturb_positions(t, 0.0, seed=1)
    assert np.array_equal(geo_view(t, p0), t.positions)
    p = perturb_positions(t, 0.2, seed=1)
    off = np.hypot(*(geo_view(t, p) - t.positions).T)
    assert off.max() <= 0.2 * t.radio_range + 1e-12


def test_format_coords_header():
    t = grid_topology(4, 4)
    vc = build_vcs(t, corner_anchors(t, 4))
    ac = align(vc, t, 1)
    text = format_coords(ac)
    lines = text.splitlines()
    assert lines[0].startswith("coords dims 4 depth 1 rule self-weighted anchors ")
    assert len(lines) == 1 + t.n
    assert len(lines[1].split()) == 5
