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
    """Unit-disk connectivity over a deployment.

    ``adjacency[u]`` is the sorted tuple of u's neighbor ids.
    """

    deployment: Deployment
    radio_range: float
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.deployment.n

    @property
    def positions(self) -> np.ndarray:
        return self.deployment.positions

    @property
    def n_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    @property
    def mean_degree(self) -> float:
        # Includes boundary nodes; this is the density statistic reported
        # alongside every metrics row.
        return 2.0 * self.n_edges / self.n

    @property
    def connected(self) -> bool:
        return connected_components(self.sparse(), directed=False, return_labels=False) == 1

    def sparse(self) -> csr_matrix:
        """Adjacency as a scipy CSR matrix (cached)."""
        cached = getattr(self, "_sparse", None)
        if cached is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            for u, nbrs in enumerate(self.adjacency):
                indptr[u + 1] = indptr[u] + len(nbrs)
            indices = np.fromiter(
                (v for nbrs in self.adjacency for v in nbrs),
                dtype=np.int64,
                count=indptr[-1],
            )
            data = np.ones(len(indices), dtype=np.int8)
            cached = csr_matrix((data, indices, indptr), shape=(self.n, self.n))
            object.__setattr__(self, "_sparse", cached)
        return cached

    def neighbor_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Padded (n, max_deg) neighbor-id matrix plus validity mask (cached).

        Rows are padded with 0 and masked out; neighbor ids appear in
        ascending order so first-occurrence argmin resolves distance ties
        toward the lowest node id.
        """
        cached = getattr(self, "_nbr_matrix", None)
        if cached is None:
            maxdeg = max((len(a) for a in self.adjacency), default=0)
            maxdeg = max(maxdeg, 1)
            ids = np.zeros((self.n, maxdeg), dtype=np.int64)
            mask = np.zeros((self.n, maxdeg), dtype=bool)
            for u, nbrs in enumerate(self.adjacency):
                ids[u, : len(nbrs)] = nbrs
                mask[u, : len(nbrs)] = True
            cached = (_freeze(ids), _freeze(mask))
            object.__setattr__(self, "_nbr_matrix", cached)
        return cached


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
    adj: list[list[int]] = [[] for _ in range(d.n)]
    for u, v in pairs.tolist():
        adj[u].append(v)
        adj[v].append(u)
    adjacency = tuple(tuple(sorted(a)) for a in adj)
    return Topology(deployment=d, radio_range=radio_range, adjacency=adjacency)


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
    dep = Deployment(pos, width=w, height=h)
    n = dep.n
    sym: list[set[int]] = [set() for _ in range(n)]
    for u, nbrs in enumerate(adjacency):
        for v in nbrs:
            if u == v:
                raise TopologyError("self loop in explicit adjacency")
            sym[u].add(v)
            sym[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in sym)
    return Topology(deployment=dep, radio_range=radio_range, adjacency=adj)


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
    for u, nbrs in enumerate(t.adjacency):
        for v in nbrs:
            if u < v:
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
    adj: list[list[int]] = [[] for _ in range(n)]
    for ln in lines[1 + n :]:
        u, v = (int(p) for p in ln.split())
        adj[u].append(v)
        adj[v].append(u)
    dep = Deployment(pos, width=width, height=height)
    return Topology(dep, rng, tuple(tuple(sorted(a)) for a in adj))
