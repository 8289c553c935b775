"""Coordinate assignments: hop-count virtual coordinates and their
real-valued aligned refinement.

A virtual coordinate system tracks, per node, the hop distance to each member
of an ordered anchor set.  Alignment replaces those integers with repeated
neighborhood averages: one synchronous round per depth step, so the value at
depth d depends only on depth-0 values within d hops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from routesim.topology import Topology, _freeze

RULE_SELF_WEIGHTED = "self-weighted"      # new = (neighbor mean + own) / 2
RULE_UNIFORM_AVERAGE = "uniform-average"  # new = (neighbor sum + own) / (n + 1)
ALIGN_RULES = (RULE_SELF_WEIGHTED, RULE_UNIFORM_AVERAGE)


class CoordsError(ValueError):
    """Raised for invalid anchor sets or unreachable nodes."""


@dataclass(frozen=True)
class AnchorSet:
    """Ordered anchor node ids; the list length is the VCS dimensionality."""

    ids: tuple[int, ...]

    def __post_init__(self):
        ids = tuple(int(i) for i in self.ids)
        if len(ids) < 3:
            raise CoordsError("an anchor set needs at least 3 anchors")
        if len(set(ids)) != len(ids):
            raise CoordsError("anchor ids must be distinct")
        object.__setattr__(self, "ids", ids)

    @property
    def dims(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class VirtualCoords:
    """Per-node integer hop-count vectors, one dimension per anchor.

    ``anchors`` is None only for hand-built matrices in tests and examples;
    build_vcs always records the anchor set it used.
    """

    matrix: np.ndarray  # (n, dims) int64, read-only
    anchors: AnchorSet | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(np.asarray(self.matrix, dtype=np.int64)))

    @property
    def dims(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class AlignedCoords:
    """Real-valued coordinates after ``depth`` alignment rounds.

    Depth 0 is exactly the integer virtual coordinates.  Destination vectors
    in packets stay integer; aligned values are only compared locally.
    """

    matrix: np.ndarray  # (n, dims) float64, read-only
    depth: int
    rule: str
    anchors: AnchorSet

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(np.asarray(self.matrix, dtype=float)))

    @property
    def dims(self) -> int:
        return self.matrix.shape[1]


# Roots per pass of pair_hops: sixteen uint64 words per node.
_ROOT_CHUNK = 1024


def pair_hops(t: Topology, srcs, dsts) -> np.ndarray:
    """Hop distance of every (srcs[i], dsts[i]) pair; int32, -1 across components.

    Bit-parallel breadth-first search, one bit per root (the bit-parallel
    labels of Akiba, Iwata & Yoshida, SIGMOD 2013).  Hop distance is
    symmetric, so the roots need only cover the pairs: ``_pair_cover``'s
    vertex cover of the pair graph, or the distinct ``dsts`` when those are
    no more.  Each pair is read from an endpoint that is a root, its
    destination when that is one.  The roots are searched ``_ROOT_CHUNK``
    per pass; frontier and visited sets are (n, words) uint64 bitsets over
    the degree-ordered node ids of ``t.degree_order``, and every level ORs
    the frontier rows in through that view's neighbor columns.  Distances
    are kept bit-sliced: plane b holds bit b of the level at which a root's
    search first reached a node.  Only the requested (node, root) bits are
    read back, through the other endpoint's rank.
    """
    srcs = _node_ids(t, srcs)
    dsts = _node_ids(t, dsts)
    out = np.full(len(srcs), -1, dtype=np.int32)
    if len(srcs) == 0:
        return out
    rank = t.degree_order.rank
    is_root = _pair_cover(t.n, srcs, dsts)
    is_dst = np.zeros(t.n, dtype=bool)
    is_dst[dsts] = True
    if np.count_nonzero(is_root) >= np.count_nonzero(is_dst):
        is_root = is_dst
    roots = np.flatnonzero(is_root)
    root = np.where(is_root[dsts], dsts, srcs)
    node = srcs + dsts - root
    slot = np.zeros(t.n, dtype=np.int64)
    slot[roots] = np.arange(len(roots))
    for lo in range(0, len(roots), _ROOT_CHUNK):
        chunk = roots[lo:lo + _ROOT_CHUNK]
        mine = np.flatnonzero((root >= chunk[0]) & (root <= chunk[-1]))
        col = slot[root[mine]] - lo
        visited, planes = _bit_bfs(t, chunk)
        # Flat position of each pair's word in the (n, words) bitsets.
        at = rank[node[mine]] * visited.shape[1] + (col >> 6)
        bit = (col & 63).astype(np.uint64)
        hops = np.zeros(len(mine), dtype=np.uint64)
        for b, plane in enumerate(planes):
            hops |= ((plane.take(at) >> bit) & 1) << np.uint64(b)
        reached = ((visited.take(at) >> bit) & 1).astype(bool)
        out[mine] = np.where(reached, hops.astype(np.int32), -1)
    return out


def _pair_cover(n: int, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
    """(n,) bool mask of a vertex cover of the pairs: every pair has an
    endpoint in it, so a self pair's node is in it.

    The cover is every pair endpoint outside an independent set of the pair
    graph, built in rounds.  An undecided endpoint joins the set when its
    key, (pairs left at it, id), is below the key of every undecided
    endpoint it shares a pair with; those join the cover.  Each round counts
    only the pairs whose endpoints are both undecided, repeats included.
    """
    u, v = srcs, dsts
    cover = np.zeros(n, dtype=bool)
    cover[u[u == v]] = True
    undecided = np.zeros(n, dtype=bool)
    undecided[u] = undecided[v] = True
    undecided &= ~cover
    ids = np.arange(n)
    while undecided.any():
        left = undecided[u] & undecided[v]
        u, v = u[left], v[left]
        key = (np.bincount(u, minlength=n) + np.bincount(v, minlength=n)) * n + ids
        # Of each pair left, the endpoint of larger key does not join.
        joins = undecided.copy()
        joins[np.where(key[u] > key[v], u, v)] = False
        cover[u[joins[v]]] = cover[v[joins[u]]] = True
        undecided &= ~(joins | cover)
    return cover


def _bit_bfs(t: Topology, roots: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """(visited bitset, bit planes of each node's level) of one pass of roots.

    Rows are the degree-ordered ids of ``t.degree_order``: node v is row
    ``rank[v]``.  A level ORs, for each node, its neighbors' frontier rows,
    one column at a time: column k, the k-th neighbors of the rows of
    degree > k, is a row prefix, and its frontier rows are ORed into that
    prefix in place.
    """
    view = t.degree_order
    j = np.arange(len(roots))
    frontier = np.zeros((t.n, (len(roots) + 63) // 64), dtype=np.uint64)
    # OR, not assign: a root listed twice starts both of its bits.
    np.bitwise_or.at(frontier, (view.rank[roots], j >> 6), np.uint64(1) << (j & 63).astype(np.uint64))
    visited = frontier.copy()
    reached = np.empty_like(frontier)
    rows = np.empty_like(frontier)
    # Each column with the row prefixes it takes into and ORs into, sliced
    # once per pass: per level, a column costs one take and one OR.
    columns = [(column, rows[:len(column)], reached[:len(column)]) for column in view.columns]
    planes: list[np.ndarray] = []
    level = 0
    while True:
        reached.fill(0)
        for column, taken, prefix in columns:
            # mode="clip" lets take write straight into ``out``; the
            # default mode would copy through a temporary.
            frontier.take(column, axis=0, out=taken, mode="clip")
            prefix |= taken
        np.bitwise_and(reached, ~visited, out=frontier)
        if not frontier.any():
            break
        visited |= frontier
        level += 1
        if level >> len(planes):
            planes.append(np.zeros_like(frontier))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane |= frontier
    return visited, planes


def hop_rows(t: Topology, roots) -> np.ndarray:
    """(len(roots), n) int32 hop counts from each root, -1 where unreached.

    One ``_bit_bfs`` pass over all the roots, 64 or fewer from every caller
    but ``Scenario.hop_matrix``.  Every root's whole row is read straight
    from the visited bitset and the bit planes: node v's words sit in row
    ``rank[v]``, and unpacking their bytes little-end first puts root j's
    bit in column j.
    """
    roots = _node_ids(t, roots)
    k = len(roots)
    rank = t.degree_order.rank
    visited, planes = _bit_bfs(t, roots)
    hops = np.zeros((t.n, k), dtype=np.int32)
    for b, plane in enumerate(planes):
        hops |= np.left_shift(_bits(plane[rank], k), b, dtype=np.int32)
    hops[_bits(visited[rank], k) == 0] = -1
    return hops.T


def _bits(words: np.ndarray, k: int) -> np.ndarray:
    """The first k bits of each row of a (rows, words) uint64 array, as uint8."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=k, bitorder="little")


def _node_ids(t: Topology, ids) -> np.ndarray:
    """``ids`` as int64 node ids; CoordsError for any id outside [0, n)."""
    ids = np.asarray(ids, dtype=np.int64)
    bad = ids[(ids < 0) | (ids >= t.n)]
    if len(bad):
        raise CoordsError(f"node {bad[0]} does not exist")
    return ids


# Roots per pass of hop_diameter and seed_rows: one uint64 word per node.
_WIDE = 64


def seed_rows(t: Topology, anchors=()) -> np.ndarray:
    """``hop_rows`` of the ``anchors``, in order, then of evenly spaced ids
    filling the rest of one 64-root word: one pass whose rows give both the
    anchors' coordinates (``build_vcs``) and the first bounds of
    ``hop_diameter``.  With no anchors that is 64 evenly spaced ids.
    """
    fill = max(_WIDE - len(anchors), 0)
    spread = np.unique(np.arange(fill) * t.n // max(fill, 1))[:t.n]  # none when n = 0
    return hop_rows(t, np.concatenate([np.asarray(anchors, dtype=np.int64), spread]))


def hop_diameter(t: Topology, rows=None) -> int:
    """Largest finite hop distance, i.e. the largest component diameter, exactly.

    Bounding diameters (Takes & Kosters, CIKM 2011).  A search from v gives
    its eccentricity e and bounds every node w it reaches:
    max(d, e - d) <= ecc(w) <= e + d with d = d(v, w).  A node stays a
    candidate while its upper bound exceeds the largest eccentricity found.
    Component sizes give the first upper bounds.  ``rows`` are hop rows
    already searched from any roots, as ``hop_rows`` returns them (-1 where
    unreached); they are the first pass, ``seed_rows(t)`` when not given.
    Each later pass searches from up to 64 roots at once, one uint64 word
    per node: the 32 candidates with the smallest lower bound and the 32
    with the largest upper bound (ties to higher degree, then lower id).
    """
    n = t.n
    label = t.component_labels()
    # int32, as hop_rows' rows are.
    upper = (np.bincount(label) - 1).astype(np.int32)[label]
    lower = np.zeros(n, dtype=np.int32)
    bound = np.empty(n, dtype=np.int32)
    reached = np.empty(n, dtype=bool)
    degree = np.diff(t.indptr)
    best = 0
    if rows is None:
        rows = seed_rows(t)
    while True:
        # Whole rows, in place; an unreached entry (-1) bounds nothing.
        for row in np.ascontiguousarray(rows, dtype=np.int32):
            np.greater_equal(row, 0, out=reached)
            ecc = int(row.max())
            best = max(best, ecc)
            np.subtract(ecc, row, out=bound)
            np.maximum(bound, row, out=bound)
            np.maximum(lower, bound, out=lower, where=reached)
            np.add(row, ecc, out=bound)
            np.minimum(upper, bound, out=upper, where=reached)
        candidate = np.flatnonzero(upper > best)
        if not len(candidate):
            return best
        # lexsort's last key is the primary one; ids break the last ties.
        central = np.lexsort((candidate, -degree[candidate], lower[candidate]))
        peripheral = np.lexsort((candidate, -degree[candidate], -upper[candidate]))
        rows = hop_rows(t, np.union1d(candidate[central[:_WIDE // 2]], candidate[peripheral[:_WIDE // 2]]))


def build_vcs(t: Topology, anchors: AnchorSet, rows=None) -> VirtualCoords:
    """Per-node hop counts to every anchor.

    ``rows`` starts with the anchors' hop rows, in order, as ``seed_rows``
    returns them; without it the anchors are searched here, in one pass.
    """
    h = (hop_rows(t, anchors.ids) if rows is None else rows)[:anchors.dims]
    for a, row in zip(anchors.ids, h):
        if (row < 0).any():
            bad = int(np.argmax(row < 0))
            raise CoordsError(f"node {bad} unreachable from anchor {a}; scenario invalid for VCS")
    return VirtualCoords(np.ascontiguousarray(h.T), anchors)


def corner_anchors(t: Topology, dims: int = 4) -> AnchorSet:
    """Anchors nearest the bounding-rectangle corners (ties to lowest id).

    Corner order: (0,0), (W,0), (0,H), (W,H); the first ``dims`` corners are
    used, so 3-dimensional systems take three corners.
    """
    if not 3 <= dims <= 4:
        raise CoordsError("corner anchor sets support 3 or 4 dimensions")
    d = t.deployment
    corners = [(0.0, 0.0), (d.width, 0.0), (0.0, d.height), (d.width, d.height)]
    ids = []
    for cx, cy in corners[:dims]:
        delta = t.positions - (cx, cy)
        dist2 = np.einsum("ij,ij->i", delta, delta)
        ids.append(int(np.argmin(dist2)))  # argmin takes the lowest id on ties
    if len(set(ids)) != len(ids):
        raise CoordsError("deployment too small: corner anchors collide")
    return AnchorSet(tuple(ids))


def align(vc: VirtualCoords, t: Topology, depth: int, rule: str = RULE_SELF_WEIGHTED) -> AlignedCoords:
    """Run ``depth`` synchronous alignment rounds over the coordinate matrix.

    self-weighted:    new = (mean over neighbors + own) / 2
    uniform-average:  new = (sum over neighbors + own) / (deg + 1)

    A node with no neighbors keeps its previous value under both rules.
    Neighbor sums add the padded neighbor columns one at a time, in
    ascending id order from 0.0, so every sum is rounded in a fixed order.
    """
    if depth < 0:
        raise CoordsError("alignment depth must be non-negative")
    if rule not in ALIGN_RULES:
        raise CoordsError(f"unknown alignment rule {rule!r}")
    a = vc.matrix.astype(float)
    if depth > 0:
        ids = t.neighbor_matrix()
        mask = ids != np.arange(t.n)[:, None]
        deg = np.diff(t.indptr).astype(float)
        isolated = deg == 0
        safe_deg = np.where(isolated, 1.0, deg)
        for _ in range(depth):
            nbr_sum = np.zeros_like(a)
            for col, valid in zip(ids.T, mask.T):
                nbr_sum += np.where(valid[:, None], a[col], 0.0)
            if rule == RULE_SELF_WEIGHTED:
                new = (nbr_sum / safe_deg[:, None] + a) / 2.0
            else:
                new = (nbr_sum + a) / (deg[:, None] + 1.0)
            if isolated.any():
                new[isolated] = a[isolated]
            a = new
    return AlignedCoords(a, depth=depth, rule=rule, anchors=vc.anchors)


def format_coords(ac: AlignedCoords) -> str:
    """Coordinate dump: header with depth/rule/anchors, then one node per line."""
    lines = [
        "coords dims {} depth {} rule {} anchors {}".format(
            ac.dims, ac.depth, ac.rule, " ".join(str(i) for i in ac.anchors.ids)
        )
    ]
    for i, row in enumerate(ac.matrix):
        lines.append(f"{i} " + " ".join(f"{x:.6f}" for x in row))
    return "\n".join(lines) + "\n"
