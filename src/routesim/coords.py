"""Coordinate assignments: geographic views, hop-count virtual coordinates,
and their real-valued aligned refinement.

A virtual coordinate system tracks, per node, the hop distance to each member
of an ordered anchor set.  Alignment replaces those integers with repeated
neighborhood averages: one synchronous round per depth step, so the value at
depth d depends only on depth-0 values within d hops.
"""

from __future__ import annotations

from collections import deque
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


def hop_counts(t: Topology, anchor: int) -> np.ndarray:
    """Breadth-first hop distance from ``anchor`` to every node.

    Unreachable nodes are marked -1; scenarios that rely on virtual
    coordinates must treat any -1 as a configuration error.
    """
    if not 0 <= anchor < t.n:
        raise CoordsError(f"anchor {anchor} does not exist")
    dist = np.full(t.n, -1, dtype=np.int64)
    dist[anchor] = 0
    q = deque([anchor])
    adj = t.adjacency
    while q:
        u = q.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                q.append(v)
    return dist


def build_vcs(t: Topology, anchors: AnchorSet) -> VirtualCoords:
    """Stack per-anchor BFS hop counts into the per-node coordinate matrix."""
    cols = []
    for a in anchors.ids:
        h = hop_counts(t, a)
        if (h < 0).any():
            bad = int(np.argmax(h < 0))
            raise CoordsError(f"node {bad} unreachable from anchor {a}; scenario invalid for VCS")
        cols.append(h)
    return VirtualCoords(np.column_stack(cols), anchors)


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
    """
    if depth < 0:
        raise CoordsError("alignment depth must be non-negative")
    if rule not in ALIGN_RULES:
        raise CoordsError(f"unknown alignment rule {rule!r}")
    a = vc.matrix.astype(float)
    if depth > 0:
        s = t.sparse().astype(float)
        deg = np.asarray(s.sum(axis=1)).ravel()
        isolated = deg == 0
        safe_deg = np.where(isolated, 1.0, deg)
        for _ in range(depth):
            nbr_sum = s @ a
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
    m = vc.matrix
    for u, nbrs in enumerate(t.adjacency):
        for v in nbrs:
            if u < v and (np.abs(m[u] - m[v]) > 1).any():
                return False
    return True


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
