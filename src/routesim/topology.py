"""Deployment generators and unit-disk topology construction.

All artifacts here are immutable after construction (arrays are marked
read-only) so scenario evaluation can share them freely across workers.
Randomness comes exclusively from numpy's PCG64 generator seeded per call,
which makes every deployment reproducible byte-for-byte.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class TopologyError(ValueError):
    """Raised when a deployment or topology violates its construction rules."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Deployment:
    """A set of nodes with planar positions inside a bounding rectangle.

    Node ids are implicit: node i is row i of ``positions``, so ids are
    always unique and dense in [0, n).
    """

    positions: np.ndarray  # (n, 2) float64, read-only
    width: float
    height: float

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise TopologyError("positions must be an (n, 2) array")
        if len(pos) == 0:
            raise TopologyError("deployment must contain at least one node")
        if not np.isfinite(pos).all():
            raise TopologyError("positions must be finite")
        eps = 1e-9
        if (pos[:, 0] < -eps).any() or (pos[:, 0] > self.width + eps).any() \
                or (pos[:, 1] < -eps).any() or (pos[:, 1] > self.height + eps).any():
            raise TopologyError("positions must lie within the deployment bounds")
        object.__setattr__(self, "positions", _freeze(pos))

    @property
    def n(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class VoidSpec:
    """A removal region: a disc (radius) or an axis-aligned rectangle (half extents)."""

    kind: str  # "disc" | "rect"
    center: tuple[float, float]
    radius: float = 0.0
    half_w: float = 0.0
    half_h: float = 0.0

    def __post_init__(self):
        if self.kind not in ("disc", "rect"):
            raise TopologyError(f"unknown void kind {self.kind!r}")
        if not all(map(math.isfinite, (*self.center, self.radius, self.half_w, self.half_h))):
            raise TopologyError("void parameters must be finite")
        if self.kind == "disc" and self.radius <= 0:
            raise TopologyError("disc void needs a positive radius")
        if self.kind == "rect" and (self.half_w <= 0 or self.half_h <= 0):
            raise TopologyError("rect void needs positive half extents")

    def contains(self, pos: np.ndarray) -> np.ndarray:
        """Boolean mask of positions inside the region (boundary inclusive)."""
        cx, cy = self.center
        dx = pos[:, 0] - cx
        dy = pos[:, 1] - cy
        if self.kind == "disc":
            return dx * dx + dy * dy <= self.radius * self.radius
        return (np.abs(dx) <= self.half_w) & (np.abs(dy) <= self.half_h)


@dataclass(frozen=True)
class Topology:
    """Undirected connectivity over a deployment, stored as CSR arrays.

    ``indices[indptr[u]:indptr[u + 1]]`` are u's neighbor ids in ascending
    order; the graph is symmetric with no duplicates or self loops.
    ``build_udg``, ``topology_from_adjacency``, ``parse_topology`` and
    planarization all build one through ``_from_edges``.  Every other form of
    the adjacency is derived from these two arrays.
    """

    deployment: Deployment
    radio_range: float
    indptr: np.ndarray   # (n + 1,) int64, read-only
    indices: np.ndarray  # (2 * n_edges,) int64, read-only

    @property
    def n(self) -> int:
        return self.deployment.n

    @property
    def positions(self) -> np.ndarray:
        return self.deployment.positions

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2

    @property
    def mean_degree(self) -> float:
        # Includes boundary nodes; this is the density statistic reported
        # alongside every metrics row.
        return 2.0 * self.n_edges / self.n

    @property
    def connected(self) -> bool:
        return not self.component_labels().any()

    def component_labels(self) -> np.ndarray:
        """Per-node component label: the smallest node id in its component.

        Min-label hooking with pointer jumping (Shiloach & Vishkin, 1982):
        every root hooks to the smallest root across its edges, then every
        node jumps to its root, until no edge joins two trees.  Each pass at
        least halves the trees of a component.
        """
        u = np.repeat(np.arange(self.n), np.diff(self.indptr))
        v = self.indices
        parent = np.arange(self.n)
        while True:
            np.minimum.at(parent, parent[u], parent[v])
            jumped = parent[parent]
            while not np.array_equal(jumped, parent):
                parent, jumped = jumped, jumped[jumped]
            if np.array_equal(parent[u], parent[v]):
                return parent

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """``adjacency[u]``: the ascending tuple of u's neighbor ids (Python ints)."""
        ids = self.indices.tolist()
        bounds = self.indptr.tolist()
        return tuple(tuple(ids[a:b]) for a, b in zip(bounds, bounds[1:]))

    def edges(self) -> np.ndarray:
        """(n_edges, 2) array of every edge once as (u, v) with u < v, sorted."""
        u = np.repeat(np.arange(self.n), np.diff(self.indptr))
        upper = u < self.indices
        return np.column_stack([u[upper], self.indices[upper]])

    def neighbor_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Padded (n, max_deg) neighbor-id matrix plus validity mask.

        Rows are padded with 0 and masked out; neighbor ids appear in
        ascending order so first-occurrence argmin resolves distance ties
        toward the lowest node id.  Built once; greedy forwarding reads it
        for every destination.
        """
        return self._padded

    @cached_property
    def _padded(self) -> tuple[np.ndarray, np.ndarray]:
        degree = np.diff(self.indptr)
        mask = np.arange(max(int(degree.max()), 1)) < degree[:, None]
        ids = np.zeros(mask.shape, dtype=np.int64)
        ids[mask] = self.indices
        return _freeze(ids), _freeze(mask)


def _from_edges(d: Deployment, radio_range: float, edges) -> Topology:
    """The one constructor of a Topology from an (m, 2) int edge array.

    Edges may come in either orientation and repeat; both orientations are
    stored once, sorted by (u, v).  Self loops and ids outside [0, n) raise.
    """
    n = d.n
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if ((e < 0) | (e >= n)).any():
        raise TopologyError(f"edge endpoint outside the node ids [0, {n})")
    if (e[:, 0] == e[:, 1]).any():
        raise TopologyError("self loop in the edge list")
    keys = np.unique(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return Topology(d, radio_range, _freeze(indptr), _freeze(keys % n))


def generate_grid(rows: int, cols: int, spacing: float) -> Deployment:
    """Place rows x cols nodes at grid-cell centers, ids row-major from 0."""
    if rows < 1 or cols < 1:
        raise TopologyError("grid needs at least one row and one column")
    if spacing <= 0:
        raise TopologyError("spacing must be positive")
    r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    xs = (c.ravel() + 0.5) * spacing
    ys = (r.ravel() + 0.5) * spacing
    pos = np.column_stack([xs, ys]).astype(float)
    return Deployment(pos, width=cols * spacing, height=rows * spacing)


def generate_random(n: int, width: float, height: float, seed: int) -> Deployment:
    """n i.i.d. uniform positions over [0,w]x[0,h] from a seeded PCG64 stream."""
    if n < 1:
        raise TopologyError("need at least one node")
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 2))
    pos[:, 0] *= width
    pos[:, 1] *= height
    return Deployment(pos, width=width, height=height)


def carve_voids(d: Deployment, voids: list[VoidSpec]) -> Deployment:
    """Remove every node inside the union of the void regions.

    Remaining ids are re-densified to [0, n') preserving the original order.
    Connectivity of the survivor graph is checked downstream by build_udg;
    this operation only applies the removal.
    """
    if not voids:
        return d
    inside = np.zeros(d.n, dtype=bool)
    for v in voids:
        inside |= v.contains(d.positions)
    keep = d.positions[~inside]
    if len(keep) == 0:
        raise TopologyError("voids removed every node")
    return Deployment(keep.copy(), width=d.width, height=d.height)


# Cell side over radio range: the slack keeps every pair within range in
# neighbouring cells despite the rounding of the cell division.
_CELL_SLACK = 1.0 + 2.0 ** -20


def build_udg(d: Deployment, radio_range: float) -> Topology:
    """Unit-disk adjacency: u ~ v iff 0 < dist(u, v) <= radio_range.

    A uniform grid of cells a little wider than the range (the cell lists of
    Hockney & Eastwood, 1981): nodes are sorted by cell, and each cell is
    paired with itself and the 4 cells after it in key order (the half
    neighbourhood), looked up with searchsorted.  A candidate pair is kept
    when ``dx*dx + dy*dy <= r*r`` and the two positions differ (a difference
    of two floats is 0 only when they are equal).
    """
    if not radio_range > 0:
        raise TopologyError("radio range must be positive")
    pos = d.positions
    cell = np.floor(pos / (radio_range * _CELL_SLACK)).astype(np.int64)
    cell -= cell.min(axis=0)
    # No node has a key of residue stride - 1, so the offsets below never
    # wrap a cell on one edge of the grid onto the other.
    stride = int(cell[:, 1].max()) + 2
    key = cell[:, 0] * stride + cell[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    offsets = np.array([0, 1, stride - 1, stride, stride + 1])
    target = key[:, None] + offsets
    lo = np.searchsorted(key, target, side="left")
    hi = np.searchsorted(key, target, side="right")
    lo[:, 0] = np.arange(1, d.n + 1)  # within a cell, only the later nodes
    counts = (hi - lo).ravel()
    a = np.repeat(np.repeat(np.arange(d.n), len(offsets)), counts)
    b = np.repeat(lo.ravel() - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    x, y = pos[order].T
    dx, dy = x[a] - x[b], y[a] - y[b]
    keep = (dx * dx + dy * dy <= radio_range * radio_range) & ((dx != 0) | (dy != 0))
    return _from_edges(d, radio_range, np.column_stack([order[a[keep]], order[b[keep]]]))


def topology_from_adjacency(
    positions: np.ndarray,
    adjacency: list[list[int]],
    radio_range: float = 1.0,
    width: float | None = None,
    height: float | None = None,
) -> Topology:
    """Build a topology from an explicit edge structure.

    Used by regression fixtures whose connectivity is specified combinatorially;
    the stored positions are for bookkeeping/plotting only and make no
    unit-disk claim.
    """
    pos = np.asarray(positions, dtype=float)
    w = float(pos[:, 0].max()) + 1.0 if width is None else width
    h = float(pos[:, 1].max()) + 1.0 if height is None else height
    edges = [(u, v) for u, nbrs in enumerate(adjacency) for v in nbrs]
    return _from_edges(Deployment(pos, width=w, height=h), radio_range, edges)


@dataclass(frozen=True)
class PerceivedPositions:
    """Per-node believed positions: true position plus a bounded random offset.

    The offset is drawn uniformly from the disc of radius
    ``error_fraction * radio_range``, fixed per node for the whole run.
    Connectivity always comes from true positions; perception only affects
    what nodes report to the routing layer.
    """

    positions: np.ndarray  # (n, 2) float64, read-only
    error_fraction: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "positions", _freeze(np.asarray(self.positions, dtype=float)))


def perturb_positions(t: Topology, error_fraction: float, seed: int) -> PerceivedPositions:
    """Sample each node's perceived position inside its error disc."""
    if not 0.0 <= error_fraction <= 1.0:
        raise TopologyError("error fraction must lie in [0, 1]")
    n = t.n
    if error_fraction == 0.0:
        return PerceivedPositions(t.positions.copy(), 0.0, seed)
    rng = np.random.default_rng(seed)
    radius = error_fraction * t.radio_range * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2.0 * math.pi
    offsets = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    return PerceivedPositions(t.positions + offsets, error_fraction, seed)


def format_topology(t: Topology) -> str:
    """Line-oriented text serialization.

    Header ``nodes <n> width <w> height <h> range <r>``, one ``<id> <x> <y>``
    line per node, then one ``<u> <v>`` line per edge with u < v.  All reals
    carry exactly six fractional digits.
    """
    out = io.StringIO()
    d = t.deployment
    out.write(f"nodes {t.n} width {d.width:.6f} height {d.height:.6f} range {t.radio_range:.6f}\n")
    for i, (x, y) in enumerate(t.positions):
        out.write(f"{i} {x:.6f} {y:.6f}\n")
    for u, v in t.edges().tolist():
        out.write(f"{u} {v}\n")
    return out.getvalue()


def parse_topology(text: str) -> Topology:
    """Inverse of format_topology (used by tests and tooling)."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    try:
        tag, count, _, width, _, height, _, rng = rows[0]
        n = int(count)
        pos = np.zeros((n, 2))
        ids = []
        for i, x, y in rows[1:1 + n]:  # a short or long line fails to unpack
            ids.append(int(i))
            pos[ids[-1]] = (float(x), float(y))
        edges = [(int(u), int(v)) for u, v in rows[1 + n:]]
        width, height, rng = float(width), float(height), float(rng)
    except (IndexError, ValueError) as e:
        raise TopologyError(f"malformed topology text: {e}") from None
    if tag != "nodes":
        raise TopologyError("bad topology header")
    if sorted(ids) != list(range(n)):
        raise TopologyError(f"node ids must be 0..{n - 1}, each once")
    return _from_edges(Deployment(pos, width=width, height=height), rng, edges)
