"""Gabriel-graph and relative-neighborhood-graph planarization.

Both filters follow the distributed convention: witnesses for an edge (u, v)
are restricted to the topology neighbors of u and v, which is all a real node
could ever consult.  The Gabriel test removes an edge when a witness lies in
the closed disc having uv as diameter (endpoints excluded); the RNG test
removes it when a witness is strictly closer than d(u, v) to both ends.  With
these conventions every RNG edge is also a Gabriel edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from routesim.topology import Topology

METHOD_GG = "gg"
METHOD_RNG = "rng"


@dataclass(frozen=True)
class PlanarGraph:
    """Subgraph of a topology intended to be crossing-free for face routing."""

    adjacency: tuple[tuple[int, ...], ...]
    method: str

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v]


def planarize(t: Topology, positions: np.ndarray, method: str) -> PlanarGraph:
    """Filter the topology's edges down to the GG or RNG subgraph."""
    if method not in (METHOD_GG, METHOD_RNG):
        raise ValueError(f"unknown planarization method {method!r}")
    pos = np.asarray(positions, dtype=float)
    keep: list[list[int]] = [[] for _ in range(t.n)]
    for u, nbrs in enumerate(t.adjacency):
        pu = pos[u]
        for v in nbrs:
            if v < u:
                continue
            pv = pos[v]
            witnesses = set(t.adjacency[u]) | set(t.adjacency[v])
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
                keep[u].append(v)
                keep[v].append(u)
    return PlanarGraph(tuple(tuple(sorted(k)) for k in keep), method)


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segments_properly_cross(p1, p2, q1, q2) -> bool:
    """True when the open segments cross at a single interior point.

    Touching endpoints and collinear overlap do not count; face routing only
    changes faces on genuine crossings.
    """
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0


def crossing_point(p1, p2, q1, q2) -> tuple[float, float] | None:
    """Intersection point of two properly crossing segments, else None."""
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


def count_crossings(pg: PlanarGraph, positions: np.ndarray) -> int:
    """Number of properly crossing edge pairs (planarity check for tests).

    Vectorized over all edge pairs; pairs sharing an endpoint never count.
    """
    edges = np.array(pg.edges(), dtype=np.int64)
    if len(edges) < 2:
        return 0
    pos = np.asarray(positions, dtype=float)
    a = pos[edges[:, 0]]
    b = pos[edges[:, 1]]

    def cross(o, p, q):  # orientation of q relative to segment o->p, broadcast
        return (p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1]) - \
               (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0])

    ai, bi = a[:, None, :], b[:, None, :]
    aj, bj = a[None, :, :], b[None, :, :]
    d1 = cross(aj, bj, ai)
    d2 = cross(aj, bj, bi)
    d3 = cross(ai, bi, aj)
    d4 = cross(ai, bi, bj)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    proper &= (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
    shared = (
        (edges[:, 0, None] == edges[None, :, 0])
        | (edges[:, 0, None] == edges[None, :, 1])
        | (edges[:, 1, None] == edges[None, :, 0])
        | (edges[:, 1, None] == edges[None, :, 1])
    )
    proper &= ~shared
    return int(np.triu(proper, k=1).sum())
