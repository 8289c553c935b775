"""The bit-parallel hop oracle, its row reader and the exact diameter, against networkx
(and scipy's breadth-first search where a graph is too large for networkx)."""

import math
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from routesim import coords, harness
from routesim.coords import (
    AnchorSet, CoordsError, build_vcs, corner_anchors, hop_diameter, hop_rows, pair_hops, seed_rows,
)
from routesim.topology import Topology, build_udg, generate_grid, generate_random, topology_from_adjacency

LONG_PATH = 300  # hops: more than eight bit planes of level counts


def _topology(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].append(v)
    return topology_from_adjacency(np.zeros((n, 2)), adj)


def _graph(t):
    g = nx.Graph()
    g.add_nodes_from(range(t.n))
    g.add_edges_from((u, v) for u, nbrs in enumerate(t.adjacency) for v in nbrs if u < v)
    return g


def _expected(g, srcs, dsts):
    rows = {d: nx.single_source_shortest_path_length(g, d) for d in set(dsts)}
    return np.array([rows[d].get(s, -1) for s, d in zip(srcs, dsts)], dtype=np.int32)


def _expected_rows(g, roots):
    out = np.full((len(roots), len(g)), -1, dtype=np.int32)
    for i, r in enumerate(roots):
        hops = nx.single_source_shortest_path_length(g, r)
        out[i, list(hops)] = list(hops.values())
    return out


def _scipy_rows(t, roots):
    """_expected_rows from scipy's breadth-first search, for graphs too large for networkx."""
    adjacency = csr_matrix((np.ones(len(t.indices)), t.indices, t.indptr), shape=(t.n, t.n))
    hops = shortest_path(adjacency, unweighted=True, indices=list(roots))
    return np.where(np.isfinite(hops), hops, -1).astype(np.int32)


def _diameter(g):
    return max(nx.diameter(g.subgraph(c), usebounds=True) for c in nx.connected_components(g))


@st.composite
def topologies(draw):
    """Sparse random graphs, often disconnected and with isolated nodes; some
    carry a hub of degree >= 100 joined to some of them, and some a path
    component longer than 255 hops, hung off node 0 or not."""
    n = draw(st.integers(1, 160))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    if draw(st.booleans()):
        joined = draw(st.sets(node))
        fresh = max(0, 100 - len(joined)) + draw(st.integers(0, 40))
        edges += [(n, v) for v in joined] + [(n, n + 1 + i) for i in range(fresh)]
        n += 1 + fresh
    if draw(st.booleans()):
        edges += [(n + i, n + i + 1) for i in range(LONG_PATH)]
        if draw(st.booleans()):
            edges.append((0, n))
        n += LONG_PATH + 1
    return _topology(n, edges)


@settings(max_examples=120, deadline=None)
@given(t=topologies(), data=st.data())
def test_pair_hops_matches_networkx(t, data):
    node = st.integers(0, t.n - 1)
    # Up to 130 roots (more than two 64-bit words), duplicates allowed; every
    # node is a source, so src == dst occurs once per root.  hop_rows reads
    # the same roots' whole rows.
    roots = data.draw(st.lists(node, min_size=1, max_size=130))
    rows = hop_rows(t, roots)
    assert rows.dtype == np.int32 and np.array_equal(rows, _expected_rows(_graph(t), roots))
    srcs = np.tile(np.arange(t.n), len(roots))
    dsts = np.repeat(roots, t.n)
    extra = data.draw(st.lists(st.tuples(node, node), max_size=50))
    if extra:
        srcs = np.concatenate([srcs, [s for s, _ in extra]])
        dsts = np.concatenate([dsts, [d for _, d in extra]])
    order = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(len(srcs))
    srcs, dsts = srcs[order], dsts[order]
    hops = pair_hops(t, srcs, dsts)
    assert hops.dtype == np.int32 and np.array_equal(hops, _expected(_graph(t), srcs.tolist(), dsts.tolist()))


@settings(max_examples=120, deadline=None)
@given(t=topologies(), data=st.data())
def test_pair_hops_roots_cover_the_pairs(t, data):
    # Self pairs, repeated and reversed pairs, and pairs across components:
    # every pair has an endpoint among the searched roots, which are never
    # more than the distinct destinations.
    node = st.integers(0, t.n - 1)
    pairs = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=200))
    pairs += [(v, v) for v in data.draw(st.lists(node, max_size=10))]
    pairs += [(d, s) for s, d in data.draw(st.lists(st.sampled_from(pairs), max_size=40))]
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=40))
    srcs, dsts = (np.array(e) for e in zip(*pairs))
    with pytest.MonkeyPatch.context() as mp:
        passes = _record_passes(mp)
        hops = pair_hops(t, srcs, dsts)
    roots = np.concatenate(passes)
    assert len(np.unique(roots)) == len(roots) <= len(np.unique(dsts))
    assert (np.isin(srcs, roots) | np.isin(dsts, roots)).all()
    assert np.array_equal(hops, _expected(_graph(t), srcs.tolist(), dsts.tolist()))


@settings(max_examples=120, deadline=None)
@given(t=topologies(), data=st.data())
def test_hop_diameter_matches_networkx_per_component(t, data):
    # Without seed rows, and with seed rows from any roots: repeated or none,
    # more than one word of them, or all from one component of a graph that
    # often has several.
    g = _graph(t)
    pool = list(range(t.n))
    if data.draw(st.booleans()):
        pool = sorted(nx.node_connected_component(g, data.draw(st.sampled_from(pool))))
    roots = data.draw(st.lists(st.sampled_from(pool), max_size=70))
    assert hop_diameter(t) == hop_diameter(t, _expected_rows(g, roots)) == _diameter(g)


def test_pair_hops_over_several_root_passes(monkeypatch):
    # Every ordered pair of two nodes of one group, over disjoint groups of
    # five: a vertex cover keeps at least four nodes of each group (and
    # _pair_cover exactly four), so the roots take two full passes of
    # pair_hops and a partial third, which hop_rows reads in one pass.  The
    # deployment (mean degree about 5.5) leaves isolated nodes and several
    # components.
    groups = (2 * coords._ROOT_CHUNK + coords._ROOT_CHUNK // 3) // 4
    n = 5 * groups + groups // 4
    side = 20.0 * (n / 700) ** 0.5
    t = build_udg(generate_random(n, side, side, 4), 1.0)
    assert nx.number_connected_components(_graph(t)) > 1 and any(len(a) == 0 for a in t.adjacency)
    rng = np.random.default_rng(0)
    member = np.arange(5 * groups).reshape(groups, 5)
    srcs, dsts = np.repeat(member, 5, axis=1).ravel(), np.tile(member, 5).ravel()
    order = rng.permutation(np.flatnonzero(srcs != dsts))
    srcs, dsts = srcs[order], dsts[order]
    want = _scipy_rows(t, range(n))
    passes = _record_passes(monkeypatch)
    assert np.array_equal(pair_hops(t, srcs, dsts), want[dsts, srcs])
    assert [len(p) for p in passes] == [coords._ROOT_CHUNK] * 2 + [4 * groups - 2 * coords._ROOT_CHUNK]
    passes.clear()
    shuffled = rng.permutation(4 * groups)
    assert np.array_equal(hop_rows(t, shuffled), want[shuffled]) and len(passes) == 1
    assert hop_diameter(t) == want.max()


def test_hop_rows_reads_every_root_in_one_pass(monkeypatch):
    # No roots give an empty block; more than 1024 roots, some repeated,
    # share one pass over a deployment with isolated nodes and several
    # components.
    t = build_udg(generate_random(1100, 25.0, 25.0, 2), 1.0)
    g = _graph(t)
    assert nx.number_connected_components(g) > 1 and any(len(a) == 0 for a in t.adjacency)
    passes = _record_passes(monkeypatch)
    assert hop_rows(t, []).shape == (0, t.n)
    roots = np.concatenate([np.arange(t.n)[::-1], [7, 7, 0]])
    assert np.array_equal(hop_rows(t, roots), _expected_rows(g, roots.tolist()))
    assert [len(p) for p in passes] == [0, t.n + 3]


def _record_passes(monkeypatch):
    """Record the roots of each _bit_bfs pass; a runaway search fails instead of hanging."""
    passes = []
    search = coords._bit_bfs

    def recorded(t, roots):
        passes.append(np.array(roots))
        assert len(passes) <= 10, "hop_diameter keeps searching"
        return search(t, roots)

    monkeypatch.setattr(coords, "_bit_bfs", recorded)
    return passes


def test_hop_diameter_passes(monkeypatch):
    # With no seed rows, 64 evenly spaced first roots; with the corner
    # anchors, the anchors and 60 evenly spaced ids.  Either first pass
    # settles the dense grid at once.
    passes = _record_passes(monkeypatch)
    t = build_udg(generate_grid(50, 50, 1.0), 2.5)
    assert hop_diameter(t) == 33
    assert len(passes) == 1 and np.array_equal(passes[0], np.arange(64) * 2500 // 64)
    passes.clear()
    anchors = corner_anchors(t, 4).ids
    assert anchors == (0, 49, 2450, 2499)
    assert hop_diameter(t, seed_rows(t, anchors)) == 33
    assert len(passes) == 1 and passes[0].tolist() == [*anchors, *(np.arange(60) * 2500 // 60)]
    # Sparse-large's seed-1 deployment takes a second pass: the 32 candidates
    # of smallest lower bound and the 32 of largest upper bound, rebuilt here
    # from the first pass's rows (ties to higher degree, then lower id).
    passes.clear()
    t = build_udg(generate_random(5000, 70.0, 70.0, 1), 1.85)
    assert hop_diameter(t, seed_rows(t, corner_anchors(t, 4).ids)) == 70
    assert [len(p) for p in passes] == [64, 1]
    rows = hop_rows(t, passes[0])
    assert (rows >= 0).all()
    ecc = rows.max(axis=1)
    lower = np.maximum(rows, ecc[:, None] - rows).max(axis=0)
    upper = (ecc[:, None] + rows).min(axis=0)
    degree = np.diff(t.indptr)
    candidates = np.flatnonzero(upper > ecc.max()).tolist()
    central = sorted(candidates, key=lambda v: (lower[v], -degree[v], v))[:32]
    peripheral = sorted(candidates, key=lambda v: (-upper[v], -degree[v], v))[:32]
    assert passes[1].tolist() == sorted(set(central) | set(peripheral))


@pytest.mark.parametrize("protocol", ["gf-geo", "gf-avcs"])
def test_scenario_searches_anchors_and_diameter_in_one_pass(monkeypatch, protocol):
    # Scenario.routing's only search on a dense grid is the shared first
    # pass: build_vcs reads the anchors' rows from it, hop_diameter all of it.
    passes = _record_passes(monkeypatch)
    cfg = harness.ScenarioConfig(deployment="grid", rows=50, cols=50, radio_range=2.5,
                                 protocol=protocol, align_depth=1)
    sc = harness.Scenario.routing(cfg)
    assert sc.ctx.ttl == math.ceil(cfg.ttl_factor * 33) and len(passes) == 1
    if sc.vc is not None:
        assert passes[0][:4].tolist() == list(sc.vc.anchors.ids)
        assert np.array_equal(sc.vc.matrix, build_vcs(sc.topology, sc.vc.anchors).matrix)


def test_pair_hops_hub_path_and_isolated_nodes():
    # A hub of degree 150 whose leaves are sparsely linked, a path of 300
    # hops hung off its last leaf, and isolated nodes: the dense levels OR
    # column prefixes of lengths from 1 to most of the graph, and the path
    # reaches the hub only through the hub's own last column.
    rng = np.random.default_rng(5)
    hub, leaves, isolated = 0, 150, 20
    edges = [(hub, v) for v in range(1, leaves + 1)]
    edges += [tuple(e) for e in rng.integers(1, leaves + 1, (200, 2))]
    first = leaves + 1
    edges += [(leaves, first)] + [(first + i, first + i + 1) for i in range(LONG_PATH - 1)]
    n = first + LONG_PATH + isolated
    t = _topology(n, edges)
    assert max(len(a) for a in t.adjacency) >= 100 and t.adjacency[-1] == ()
    g = _graph(t)
    roots = np.concatenate([[hub, n - 1, first + LONG_PATH - 1], rng.choice(n, 97, replace=False)])
    srcs = np.tile(np.arange(n), len(roots))
    dsts = np.repeat(roots, n)
    assert np.array_equal(pair_hops(t, srcs, dsts), _expected(g, srcs.tolist(), dsts.tolist()))
    assert hop_diameter(t) == _diameter(g)


def test_long_path_counts_past_255_hops():
    n = 600
    t = _topology(n, [(i, i + 1) for i in range(n - 1)])
    assert np.array_equal(hop_rows(t, [0]), [np.arange(n)])
    assert pair_hops(t, [0, n - 1, 17], [n - 1, 0, 17]).tolist() == [n - 1, n - 1, 0]
    assert hop_diameter(t) == n - 1
    # Seed rows from node 300 (eccentricity 300) and node 1 (598) leave only
    # the two ends as candidates, at an upper bound of n - 1 each; had the
    # first row read one hop short at node 0, no candidate would be left.
    assert hop_diameter(t, hop_rows(t, [300, 1])) == n - 1


def test_pair_hops_empty_and_isolated():
    t = _topology(3, [])
    assert pair_hops(t, [], []).shape == (0,) and pair_hops(t, [], []).dtype == np.int32
    assert pair_hops(t, [0, 1, 2], [0, 2, 1]).tolist() == [0, -1, -1]
    assert hop_diameter(t) == 0
    # Deployments refuse zero nodes; a bare Topology over none still has
    # diameter 0, with no search from a node 0 that is not there.
    empty = Topology(SimpleNamespace(n=0), 1.0, np.zeros(1, np.int64), np.zeros(0, np.int64))
    assert hop_diameter(empty) == 0


def test_hop_rows_one_root_int32_minus_one():
    # A bad root alone is the hop_rows_one_root case below.
    h = hop_rows(_topology(4, [(0, 1), (2, 3)]), [1])
    assert h.dtype == np.int32 and h.tolist() == [[1, 0, -1, -1]]


@pytest.mark.parametrize("bad", [-1, 4])
@pytest.mark.parametrize("entry", [
    lambda t, bad: hop_rows(t, [bad]),
    lambda t, bad: hop_rows(t, [0, bad]),
    lambda t, bad: pair_hops(t, [0, bad], [1, 1]),
    lambda t, bad: pair_hops(t, [1, 1], [0, bad]),
    lambda t, bad: build_vcs(t, AnchorSet((0, 1, bad))),
], ids=["hop_rows_one_root", "hop_rows", "pair_hops_srcs", "pair_hops_dsts", "build_vcs"])
def test_oracle_rejects_ids_outside_the_graph(entry, bad):
    # Unchecked, -1 read node n-1's row and n raised numpy's IndexError.
    t = _topology(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(CoordsError, match=f"^node {bad} does not exist$"):
        entry(t, bad)
