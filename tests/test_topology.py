import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from routesim.topology import (
    Deployment,
    TopologyError,
    VoidSpec,
    build_udg,
    carve_voids,
    format_topology,
    generate_grid,
    generate_random,
    parse_topology,
    perturb_positions,
    topology_from_adjacency,
)


def test_grid_single_cell_center():
    d = generate_grid(1, 1, 1.0)
    assert d.n == 1
    assert tuple(d.positions[0]) == (0.5, 0.5)


def test_grid_20x20_counts_and_bounds():
    d = generate_grid(20, 20, 1.0)
    assert d.n == 400
    assert (d.width, d.height) == (20.0, 20.0)
    assert d.positions[:, 0].min() == 0.5 and d.positions[:, 0].max() == 19.5


def test_grid_row_major_ids():
    d = generate_grid(3, 4, 2.0)
    # node id r*cols + c sits at ((c+0.5)*s, (r+0.5)*s)
    assert tuple(d.positions[0]) == (1.0, 1.0)
    assert tuple(d.positions[5]) == (3.0, 3.0)  # r=1, c=1
    assert tuple(d.positions[11]) == (7.0, 5.0)  # r=2, c=3


def test_grid_50x50_interior_spacing_exact():
    d = generate_grid(50, 50, 1.0)
    assert d.n == 2500
    pos = d.positions
    # exhaustive pairwise check: the minimum nonzero distance is exactly 1.0
    diff = pos[:, None, :] - pos[None, :, :]
    dist2 = (diff ** 2).sum(axis=2)
    np.fill_diagonal(dist2, np.inf)
    assert dist2.min() == 1.0


def test_carve_29_of_400():
    d = generate_grid(20, 20, 1.0)
    carved = carve_voids(d, [VoidSpec("disc", (9.5, 9.5), radius=3.0)])
    assert carved.n == 371


def test_carve_empty_noop():
    d = generate_grid(5, 5, 1.0)
    assert carve_voids(d, []) is d


def test_carve_matches_point_in_region_oracle():
    d = generate_grid(40, 40, 1.0)
    voids = [
        VoidSpec("disc", (fx * 40, fy * 40), radius=3.0)
        for fx, fy in ((0.5, 0.5), (0.25, 0.25), (0.75, 0.75), (0.25, 0.75), (0.75, 0.25))
    ]
    carved = carve_voids(d, voids)
    removed = 0
    for x, y in d.positions:
        inside = any((x - cx) ** 2 + (y - cy) ** 2 <= 3.0 ** 2 for (cx, cy) in [v.center for v in voids])
        removed += inside
    assert carved.n == 1600 - removed
    # survivors keep their relative order
    kept = [tuple(p) for p in d.positions if not any(v.contains(np.array([p]))[0] for v in voids)]
    assert kept == [tuple(p) for p in carved.positions]


def test_carve_rect_region():
    d = generate_grid(10, 10, 1.0)
    carved = carve_voids(d, [VoidSpec("rect", (5.0, 5.0), half_w=1.0, half_h=1.0)])
    removed = sum(1 for x, y in d.positions if abs(x - 5) <= 1 and abs(y - 5) <= 1)
    assert removed > 0 and carved.n == 100 - removed


def test_random_containment_and_determinism():
    d1 = generate_random(1, 1.0, 1.0, seed=42)
    assert 0 <= d1.positions[0, 0] <= 1 and 0 <= d1.positions[0, 1] <= 1
    a = generate_random(1600, 30, 30, seed=7)
    b = generate_random(1600, 30, 30, seed=7)
    assert np.array_equal(a.positions, b.positions)
    c = generate_random(1600, 30, 30, seed=8)
    assert not np.array_equal(a.positions, c.positions)


def test_random_law_of_large_numbers():
    d = generate_random(10000, 30, 30, seed=11)
    assert abs(d.positions[:, 0].mean() - 15.0) < 0.15
    assert abs(d.positions[:, 1].mean() - 15.0) < 0.15


def test_udg_boundary_inclusive_exclusive():
    d = Deployment(np.array([[0.0, 0.0], [1.0, 0.0]]), width=2.0, height=1.0)
    t = build_udg(d, 1.0)
    assert t.adjacency == ((1,), (0,))
    assert t.mean_degree == 1.0
    t2 = build_udg(d, 0.99)
    assert t2.adjacency == ((), ())


def test_udg_does_not_link_coincident_nodes():
    # 0 and 1 share a position; both are in range of 2, not of each other
    d = Deployment(np.array([[0.5, 0.5], [0.5, 0.5], [1.3, 0.5]]), width=2.0, height=1.0)
    t = build_udg(d, 1.0)
    assert t.adjacency == ((2,), (2,), (0, 1))


def test_udg_mean_degree_50x50_four_connected():
    t = build_udg(generate_grid(50, 50, 1.0), 1.2)
    assert t.mean_degree == pytest.approx(3.92)


def test_udg_matches_bruteforce_oracle():
    d = generate_random(120, 10, 10, seed=3)
    t = build_udg(d, 1.7)
    pos = d.positions
    for u in range(d.n):
        expect = sorted(
            v
            for v in range(d.n)
            if v != u and 0 < np.hypot(*(pos[u] - pos[v])) <= 1.7
        )
        assert list(t.adjacency[u]) == expect


@pytest.mark.parametrize("radio_range", [math.nan, 0.0, -1.0])
def test_udg_rejects_nan_zero_and_negative_range(radio_range):
    with pytest.raises(TopologyError):
        build_udg(generate_grid(3, 3, 1.0), radio_range)


def test_udg_infinite_range_links_every_distinct_pair():
    pos = np.array([[0.0, 0.0], [5.0, 1.0], [5.0, 1.0], [9.0, 9.0]])
    d = Deployment(pos, width=9.0, height=9.0)
    t = build_udg(d, math.inf)
    assert t.adjacency == ((1, 2, 3), (0, 3), (0, 3), (0, 1, 2))
    assert build_udg(generate_grid(3, 3, 1.0), math.inf).n_edges == 36


def _query_pairs_edges(d, radio_range):
    """The unit-disk rule from a k-d tree: every pair within range, minus coincident ones."""
    pairs = cKDTree(d.positions).query_pairs(radio_range, output_type="ndarray")
    pos = d.positions
    pairs = pairs[(pos[pairs[:, 0]] != pos[pairs[:, 1]]).any(axis=1)]
    return sorted(pairs.tolist())


@st.composite
def lattices(draw):
    """Integer lattice points times a spacing, with repeats (coincident nodes),
    and a range that is a multiple of the spacing: many pairs sit exactly at
    distance r, and many at distance r only up to rounding."""
    spacing = draw(st.sampled_from((1.0, 0.5, 0.3, 0.1)))
    cols, rows = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cell = st.tuples(st.integers(0, cols), st.integers(0, rows))
    cells = draw(st.lists(cell, min_size=1, max_size=80))
    pos = np.array(cells, dtype=float) * spacing
    factor = draw(st.sampled_from((0.3, 0.5, 1.0, math.sqrt(2.0), 1.5, 2.0, 2.5)))
    return Deployment(pos, width=cols * spacing, height=rows * spacing), factor * spacing


@settings(max_examples=400, deadline=None)
@given(lattices())
def test_udg_cell_grid_matches_kd_tree_query_pairs(case):
    d, radio_range = case
    assert build_udg(d, radio_range).edges().tolist() == _query_pairs_edges(d, radio_range)


@pytest.mark.parametrize("seed", [1, 2])
def test_udg_cell_grid_matches_kd_tree_on_random_deployments(seed):
    d = generate_random(3000, 40, 40, seed=seed)
    for radio_range in (0.7, 1.5, 2.3):
        assert build_udg(d, radio_range).edges().tolist() == _query_pairs_edges(d, radio_range)


def test_udg_symmetry_and_no_self_loops():
    t = build_udg(generate_random(200, 15, 15, seed=5), 1.5)
    for u, nbrs in enumerate(t.adjacency):
        assert u not in nbrs
        for v in nbrs:
            assert u in t.adjacency[v]


def test_grid_four_connectivity_interior_degree():
    t = build_udg(generate_grid(10, 10, 1.0), 1.2)
    for r in range(1, 9):
        for c in range(1, 9):
            assert len(t.adjacency[r * 10 + c]) == 4


def test_perturb_zero_error_identity():
    t = build_udg(generate_grid(5, 5, 1.0), 1.2)
    p = perturb_positions(t, 0.0, seed=9)
    assert np.array_equal(p, t.positions)


def test_perturb_bound_and_determinism():
    t = build_udg(generate_grid(10, 10, 1.0), 1.2)
    p1 = perturb_positions(t, 0.4, seed=9)
    p2 = perturb_positions(t, 0.4, seed=9)
    assert np.array_equal(p1, p2)
    offsets = np.hypot(*(p1 - t.positions).T)
    assert offsets.max() <= 0.4 * 1.2 + 1e-12
    assert offsets.max() > 0


def test_perturb_validates_fraction():
    t = build_udg(generate_grid(3, 3, 1.0), 1.2)
    with pytest.raises(TopologyError):
        perturb_positions(t, 1.5, seed=0)


def test_serialization_roundtrip_and_format():
    t = build_udg(generate_grid(4, 5, 1.0), 1.2)
    text = format_topology(t)
    head = text.splitlines()[0]
    assert head == "nodes 20 width 5.000000 height 4.000000 range 1.200000"
    # node lines then edge lines with u < v
    t2 = parse_topology(text)
    assert t2.adjacency == t.adjacency
    assert np.allclose(t2.positions, t.positions)
    assert format_topology(t2) == text


def test_carve_all_removed_errors():
    d = generate_grid(2, 2, 1.0)
    with pytest.raises(TopologyError):
        carve_voids(d, [VoidSpec("disc", (1.0, 1.0), radius=10.0)])


def test_deployment_rejects_out_of_bounds():
    with pytest.raises(TopologyError):
        Deployment(np.array([[5.0, 0.5]]), width=1.0, height=1.0)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_deployment_rejects_non_finite_positions(x):
    # a NaN passes every bounds comparison
    with pytest.raises(TopologyError, match="^positions must be finite$"):
        Deployment(np.array([[x, 0.5], [0.5, 0.5]]), width=1.0, height=1.0)


@pytest.mark.parametrize("width, height", [
    (0.0, 1.0), (-5.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, 0.0), (1.0, -math.inf),
])
def test_deployment_rejects_bad_extents(width, height):
    # Unchecked, a zero-width random deployment put every node on x = 0, and
    # a negative width blamed the positions.
    with pytest.raises(TopologyError, match="^deployment width and height must be finite and positive$"):
        Deployment(np.array([[0.0, 0.0]]), width=width, height=height)
    with pytest.raises(TopologyError, match="^deployment width and height"):
        generate_random(5, width, height, 1)


@pytest.mark.parametrize("header, reason", [
    ("nodes 3 width nan height 1.000000 range 1.200000", "deployment width and height"),
    ("nodes 3 width 3.000000 height 0.000000 range 1.200000", "deployment width and height"),
    ("nodes 3 width 3.000000 height 1.000000 range -1.000000", "radio range must be positive"),
    ("nodes 3 width 3.000000 height 1.000000 range nan", "radio range must be positive"),
])
def test_parse_rejects_bad_extents_and_range(header, reason):
    text = format_topology(build_udg(generate_grid(1, 3, 1.0), 1.2))
    with pytest.raises(TopologyError, match=f"^{reason}"):
        parse_topology(header + text[text.index("\n"):])


@pytest.mark.parametrize("radio_range", [math.nan, 0.0, -1.0])
def test_explicit_adjacency_rejects_nan_and_non_positive_range(radio_range):
    with pytest.raises(TopologyError, match="^radio range must be positive$"):
        topology_from_adjacency(np.zeros((2, 2)), [[1], []], radio_range=radio_range)


@st.composite
def edge_lists(draw):
    """(n, adjacency lists) with repeats, both orientations and isolated nodes."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
        max_size=120,
    ))
    adjacency = [[] for _ in range(n)]
    for u, v in pairs:
        adjacency[u].append(v)
    return n, adjacency


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_edge_array_views_match_set_reference(case):
    n, adjacency = case
    t = topology_from_adjacency(np.zeros((n, 2)), adjacency)
    ref = [set() for _ in range(n)]
    for u, nbrs in enumerate(adjacency):
        for v in nbrs:
            ref[u].add(v)
            ref[v].add(u)
    expect = tuple(tuple(sorted(s)) for s in ref)
    assert t.adjacency == expect
    assert all(type(v) is int for nbrs in t.adjacency for v in nbrs)
    assert t.n_edges == sum(len(s) for s in ref) // 2
    assert t.edges().tolist() == [[u, v] for u in range(n) for v in expect[u] if u < v]
    ids = t.neighbor_matrix()
    width = max(1, max(len(a) for a in expect))
    assert ids.shape == (n, width) and ids.dtype == np.int64
    for u, nbrs in enumerate(expect):
        # the ascending neighbors, then only the row's own id
        assert ids[u].tolist() == list(nbrs) + [u] * (width - len(nbrs))
    assert not (t.indptr.flags.writeable or t.indices.flags.writeable)
    assert not ids.flags.writeable
    assert t.neighbor_matrix() is ids


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_degree_order_view(case):
    n, adjacency = case
    t = topology_from_adjacency(np.zeros((n, 2)), adjacency)
    view = t.degree_order
    assert view is t.degree_order  # built once per topology
    degree = np.diff(t.indptr)
    # rank is a permutation; new ids run by descending degree, ties by id
    assert sorted(view.rank.tolist()) == list(range(n))
    order = np.argsort(view.rank)
    assert sorted(range(n), key=lambda v: (-degree[v], v)) == order.tolist()
    # column k holds, in new ids, the k-th neighbor of exactly the nodes of
    # degree > k, and those nodes are the first len(column) new ids
    assert len(view.columns) == degree.max()
    for k, column in enumerate(view.columns):
        assert np.array_equal(np.flatnonzero(degree[order] > k), np.arange(len(column)))
        nbrs = [t.indices[t.indptr[v]:t.indptr[v + 1]] for v in order[:len(column)]]
        assert column.tolist() == [view.rank[row[k]] for row in nbrs]
    arrays = (view.rank, *view.columns)
    assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("adjacency", [
    [[1], [1]],          # self loop
    [[1], [2]],          # neighbor id past the last node
    [[-1], []],          # negative neighbor id
    [[1], [0], [0]],     # adjacency lists for more nodes than positions
])
def test_explicit_adjacency_rejects_bad_edges(adjacency):
    with pytest.raises(TopologyError):
        topology_from_adjacency(np.zeros((2, 2)), adjacency)


def test_explicit_adjacency_rejects_no_nodes():
    # The default bounds once failed first, on a max over no positions.
    with pytest.raises(TopologyError, match="deployment must contain at least one node"):
        topology_from_adjacency(np.zeros((0, 2)), [])


@pytest.mark.parametrize("edge_lines", ["2 2\n", "0 7\n", "0 1\n-1 0\n"])
def test_parse_rejects_bad_edges(edge_lines):
    text = format_topology(build_udg(generate_grid(1, 3, 1.0), 1.2))
    with pytest.raises(TopologyError):
        parse_topology(text + edge_lines)


def _bad_node_lines():
    text = format_topology(build_udg(generate_grid(1, 3, 1.0), 1.2))
    head, n0, n1, _, *edges = text.splitlines(keepends=True)
    return {
        "id out of range": head + n0 + n1 + "5 2.000000 0.000000\n" + "".join(edges),
        "negative id": head + n0 + n1 + "-1 2.000000 0.000000\n" + "".join(edges),
        "missing node line": head + n0 + n1 + "".join(edges),
        "duplicate id": head + n0 + n1 + n1 + "".join(edges),
        "3-token edge line": text + "0 1 2\n",
        "bad coordinate": head + n0 + n1 + "2 x 0.000000\n" + "".join(edges),
        "empty text": "",
        "short header": "nodes 3\n",
    }


@pytest.mark.parametrize("case", sorted(_bad_node_lines()))
def test_parse_rejects_bad_node_lines(case):
    with pytest.raises(TopologyError):
        parse_topology(_bad_node_lines()[case])


def test_parse_normalises_duplicate_and_reversed_edges():
    t = build_udg(generate_grid(1, 3, 1.0), 1.2)
    text = format_topology(t)
    t2 = parse_topology(text + "1 0\n0 1\n2 1\n")
    assert t2.n_edges == 2
    assert t2.adjacency == t.adjacency
    assert format_topology(t2) == text


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_component_labels_match_networkx(case):
    n, adjacency = case
    t = topology_from_adjacency(np.zeros((n, 2)), adjacency)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(t.edges().tolist())
    expect = np.empty(n, dtype=np.int64)
    for component in nx.connected_components(g):
        expect[list(component)] = min(component)
    assert np.array_equal(t.component_labels(), expect)
    assert (not t.component_labels().any()) == (nx.number_connected_components(g) == 1)


def test_component_labels_long_path_and_isolated_nodes():
    # a path numbered from its middle outwards, plus two isolated nodes
    n = 301
    order = [150 + (k + 1) // 2 * (1 if k % 2 else -1) for k in range(n - 2)]
    adjacency = [[] for _ in range(n)]
    for u, v in zip(order, order[1:]):
        adjacency[u].append(v)
    t = topology_from_adjacency(np.zeros((n, 2)), adjacency)
    labels = t.component_labels()
    path = sorted(order)
    assert (labels[path] == path[0]).all()
    isolated = sorted(set(range(n)) - set(order))
    assert labels[isolated].tolist() == isolated
    assert t.component_labels().any()
    assert not topology_from_adjacency(np.zeros((1, 2)), [[]]).component_labels().any()
