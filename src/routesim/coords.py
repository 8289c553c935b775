"""Coordinate assignments: geographic views, hop-count virtual coordinates,
and their real-valued aligned refinement.

A virtual coordinate system tracks, per node, the hop distance to each member
of an ordered anchor set.  Alignment replaces those integers with repeated
neighborhood averages: one synchronous round per depth step, so the value at
depth d depends only on depth-0 values within d hops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from routesim.topology import PerceivedPositions, Topology, _freeze

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


# Roots per bit-parallel pass: eight uint64 words per node.
_ROOT_CHUNK = 512


def pair_hops(t: Topology, srcs, dsts) -> np.ndarray:
    """Hop distance of every (srcs[i], dsts[i]) pair; inf across components.

    Bit-parallel breadth-first search, one bit per root (the bit-parallel
    labels of Akiba, Iwata & Yoshida, SIGMOD 2013).  The distinct ``dsts`` are
    the roots, ``_ROOT_CHUNK`` per pass; frontier and visited sets are
    (n, words) uint64 bitsets.  Distances are kept bit-sliced: plane b holds
    bit b of the level at which a root's search first reached a node.  Only
    the requested (src, root) bits are read back.
    """
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    out = np.full(len(srcs), np.inf)
    if len(srcs) == 0:
        return out
    roots = np.flatnonzero(np.bincount(dsts, minlength=t.n))
    slot = np.zeros(t.n, dtype=np.int64)
    slot[roots] = np.arange(len(roots))
    for lo in range(0, len(roots), _ROOT_CHUNK):
        chunk = roots[lo:lo + _ROOT_CHUNK]
        mine = np.flatnonzero((dsts >= chunk[0]) & (dsts <= chunk[-1]))
        col = slot[dsts[mine]] - lo
        word, bit = col >> 6, (col & 63).astype(np.uint64)
        s = srcs[mine]
        visited, planes = _bit_bfs(t, chunk)
        hops = np.zeros(len(mine), dtype=np.uint64)
        for b, plane in enumerate(planes):
            hops |= ((plane[s, word] >> bit) & 1) << np.uint64(b)
        reached = ((visited[s, word] >> bit) & 1).astype(bool)
        out[mine] = np.where(reached, hops, np.inf)
    return out


def _bit_bfs(t: Topology, roots: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """(visited bitset, bit planes of each node's level) of one pass of roots.

    One level ORs, for each node, its neighbors' frontier rows over the CSR
    adjacency.  While the frontier's edges are a small share of all edges,
    only the rows next to the frontier are reduced (the top-down half of
    direction-optimizing search, Beamer et al., SC 2012).
    """
    indptr, indices = t.indptr, t.indices
    degree = np.diff(indptr)
    # reduceat returns the start element, not zero, for an empty segment, so
    # only rows with at least one neighbor are reduced.
    rows = np.flatnonzero(degree)
    starts = indptr[rows]
    j = np.arange(len(roots))
    frontier = np.zeros((t.n, (len(roots) + 63) // 64), dtype=np.uint64)
    frontier[roots, j >> 6] = np.uint64(1) << (j & 63).astype(np.uint64)
    visited = frontier.copy()
    planes: list[np.ndarray] = []
    level = 0
    while len(rows):
        active = np.flatnonzero(frontier.any(axis=1))
        if 4 * degree[active].sum() < len(indices):
            near = np.zeros(t.n, dtype=bool)
            near[indices[_edge_ids(indptr, active)]] = True
            sub = np.flatnonzero(near)
            gathered = frontier[indices[_edge_ids(indptr, sub)]]
            sub_starts = np.cumsum(degree[sub]) - degree[sub]
        else:
            sub, gathered, sub_starts = rows, frontier[indices], starts
        reached = np.zeros_like(frontier)
        reached[sub] = np.bitwise_or.reduceat(gathered, sub_starts, axis=0)
        frontier = reached & ~visited
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


def _edge_ids(indptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Positions in the CSR index array of every edge of ``nodes``, node by node."""
    counts = indptr[nodes + 1] - indptr[nodes]
    return np.repeat(indptr[nodes] - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def hop_counts(t: Topology, anchor: int) -> np.ndarray:
    """Breadth-first hop distance from ``anchor`` to every node.

    Unreachable nodes are marked -1; scenarios that rely on virtual
    coordinates must treat any -1 as a configuration error.
    """
    return _hop_rows(t, (anchor,))[0]


def _hop_rows(t: Topology, anchors: tuple[int, ...]) -> np.ndarray:
    """(len(anchors), n) int64 hop counts from each anchor, -1 where unreachable."""
    for a in anchors:
        if not 0 <= a < t.n:
            raise CoordsError(f"anchor {a} does not exist")
    nodes = np.arange(t.n)
    h = pair_hops(t, np.tile(nodes, len(anchors)), np.repeat(anchors, t.n))
    return np.where(np.isfinite(h), h, -1).astype(np.int64).reshape(len(anchors), t.n)


def hop_diameter(t: Topology) -> int:
    """Largest finite hop distance, i.e. the largest component diameter, exactly.

    Bounding diameters (Takes & Kosters, CIKM 2011).  A search from v gives
    its eccentricity e and bounds every node w it reaches:
    max(d, e - d) <= ecc(w) <= e + d with d = d(v, w).  A node stays a
    candidate while its upper bound exceeds the largest eccentricity found.
    Each pass searches from two candidates at once: the one with the
    smallest lower bound and the one with the largest upper bound (ties to
    higher degree, then lower id).  Component sizes give the first upper
    bounds.
    """
    n = t.n
    label = t.component_labels()
    upper = np.bincount(label)[label] - 1
    lower = np.zeros(n, dtype=np.int64)
    degree = np.diff(t.indptr)
    best = 0
    candidate = upper > best
    while candidate.any():
        central = np.argmin(np.where(candidate, lower * (n + 1) - degree, n * (n + 1)))
        peripheral = np.argmax(np.where(candidate, upper * (n + 1) + degree, -1))
        for row in _hop_rows(t, tuple({int(central), int(peripheral)})):
            reach = np.flatnonzero(row >= 0)
            d = row[reach]
            ecc = int(d.max())
            best = max(best, ecc)
            lower[reach] = np.maximum(lower[reach], np.maximum(d, ecc - d))
            upper[reach] = np.minimum(upper[reach], ecc + d)
        candidate = upper > best
    return best


def build_vcs(t: Topology, anchors: AnchorSet) -> VirtualCoords:
    """Per-node hop counts to every anchor, from one breadth-first pass."""
    h = _hop_rows(t, anchors.ids)
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
        ids, mask = t.neighbor_matrix()
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


def geo_view(t: Topology, perceived: PerceivedPositions | None = None) -> np.ndarray:
    """Positions the routing layer believes: perceived when given, else true."""
    if perceived is None:
        return t.positions
    if len(perceived.positions) != t.n:
        raise CoordsError("perceived positions do not match the topology")
    return perceived.positions


def check_edge_lipschitz(vc: VirtualCoords, t: Topology) -> bool:
    """Every edge differs by at most one hop in every dimension (BFS property)."""
    u, v = t.edges().T
    return bool((np.abs(vc.matrix[u] - vc.matrix[v]) <= 1).all())


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
