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
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree


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
        return connected_components(self.sparse(), directed=False, return_labels=False) == 1

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

    def sparse(self) -> csr_matrix:
        """Adjacency as a scipy CSR matrix of int8 ones over the stored arrays."""
        data = np.ones(len(self.indices), dtype=np.int8)
        return csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

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


def build_udg(d: Deployment, radio_range: float) -> Topology:
    """Unit-disk adjacency: u ~ v iff 0 < dist(u, v) <= radio_range."""
    if radio_range <= 0:
        raise TopologyError("radio range must be positive")
    tree = cKDTree(d.positions)
    pairs = tree.query_pairs(radio_range, output_type="ndarray")
    # query_pairs returns every pair with dist <= r, coincident nodes included;
    # the unit-disk rule links only nodes at positive distance.
    pos = d.positions
    pairs = pairs[(pos[pairs[:, 0]] != pos[pairs[:, 1]]).any(axis=1)]
    return _from_edges(d, radio_range, pairs)


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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "nodes":
        raise TopologyError("bad topology header")
    n = int(head[1])
    width, height, rng = float(head[3]), float(head[5]), float(head[7])
    pos = np.zeros((n, 2))
    for ln in lines[1 : 1 + n]:
        parts = ln.split()
        pos[int(parts[0])] = (float(parts[1]), float(parts[2]))
    edges = []
    for ln in lines[1 + n :]:
        u, v = ln.split()
        edges.append((int(u), int(v)))
    return _from_edges(Deployment(pos, width=width, height=height), rng, edges)
