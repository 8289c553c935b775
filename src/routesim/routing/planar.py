"""Gabriel-graph and relative-neighborhood-graph planarization.

Both filters follow the distributed convention: witnesses for an edge (u, v)
are restricted to the topology neighbors of u and v, which is all a real node
could ever consult.  The Gabriel test removes an edge when a witness lies in
the closed disc having uv as diameter (endpoints excluded), so a witness
exactly on the circle removes it; the RNG test removes it when a witness is
strictly closer than d(u, v) to both ends, so a witness at exactly equal
distance keeps it.  With these conventions every RNG edge is also a Gabriel
edge.

The witness test runs in NumPy over blocks of ``_EDGE_BLOCK`` edges: each
edge's candidates are the padded neighbor rows of both ends, with padding and
the ends themselves masked out (a node adjacent to both ends appears twice,
which does not change an "any witness" test).
"""

from __future__ import annotations

import numpy as np

from routesim.topology import Topology, _from_edges

METHOD_GG = "gg"
METHOD_RNG = "rng"

# Edges per witness-test step: temporaries hold _EDGE_BLOCK x 2 x max degree
# positions (a few MB at the degrees of unit-disk grids).
_EDGE_BLOCK = 4096
# Edge pairs per step of count_crossings: about ten temporaries of this many
# entries (2 MB each as float64), whatever the number of edges.
_PAIR_BLOCK = 1 << 18


def planarize(t: Topology, positions: np.ndarray, method: str) -> Topology:
    """The GG or RNG subgraph of the topology, over the same deployment.

    ``positions`` are the coordinates the nodes believe in (true or
    perceived); witnesses are the topology neighbors of either end of each
    edge.  GG drops (u, v) when a witness w has |w - mid|^2 <= |u - v|^2 / 4
    with mid = (u + v) / 2; RNG drops it when max(|w - u|^2, |w - v|^2) <
    |u - v|^2.
    """
    if method not in (METHOD_GG, METHOD_RNG):
        raise ValueError(f"unknown planarization method {method!r}")
    pos = np.asarray(positions, dtype=float)
    ids = t.neighbor_matrix()
    edges = t.edges()
    keep = np.ones(len(edges), dtype=bool)
    for lo in range(0, len(edges), _EDGE_BLOCK):
        u, v = edges[lo:lo + _EDGE_BLOCK].T
        w = np.concatenate([ids[u], ids[v]], axis=1)
        is_witness = (w != u[:, None]) & (w != v[:, None])  # also drops the pads
        pu, pv, pw = pos[u][:, None], pos[v][:, None], pos[w]
        if method == METHOD_GG:
            mid = (pu + pv) / 2.0
            r2 = ((pu - pv) ** 2).sum(axis=-1) / 4.0
            inside = ((pw - mid) ** 2).sum(axis=-1) <= r2
        else:
            d2 = ((pu - pv) ** 2).sum(axis=-1)
            inside = np.maximum(((pw - pu) ** 2).sum(axis=-1),
                                ((pw - pv) ** 2).sum(axis=-1)) < d2
        keep[lo:lo + _EDGE_BLOCK] = ~(inside & is_witness).any(axis=1)
    return _from_edges(t.deployment, t.radio_range, edges[keep])


def crossing_point(p1, p2, q1, q2) -> tuple[float, float] | None:
    """Where the open segments p1p2 and q1q2 cross at one interior point, else None.

    Touching endpoints and collinear overlap do not count; face routing only
    changes faces on genuine crossings.  Each d orients an end of one segment
    against the other; d1 is also the numerator of the crossing's parameter.
    """
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = p1, p2, q1, q2
    d1 = (x4 - x3) * (y1 - y3) - (y4 - y3) * (x1 - x3)
    d2 = (x4 - x3) * (y2 - y3) - (y4 - y3) * (x2 - x3)
    d3 = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
    d4 = (x2 - x1) * (y4 - y1) - (y2 - y1) * (x4 - x1)
    # The denominator can round to 0 on nearly parallel segments whose
    # rounded orientations cross; no point is found there either.
    denom = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    if 0 in (d1, d2, d3, d4, denom) or (d1 > 0) == (d2 > 0) or (d3 > 0) == (d4 > 0):
        return None
    s = d1 / denom
    return (x1 + s * (x2 - x1), y1 + s * (y2 - y1))


def count_crossings(pg: Topology, positions: np.ndarray) -> int:
    """Number of properly crossing edge pairs (planarity check for tests).

    Vectorized over edge pairs, one block of rows against the later edges at
    a time, so memory stays near ``_PAIR_BLOCK`` pairs however many edges
    there are.  Pairs sharing an endpoint never count: the shared point's
    orientation against the other segment is exactly 0.
    """
    edges = pg.edges()
    m = len(edges)
    pos = np.asarray(positions, dtype=float)
    a = pos[edges[:, 0]]
    b = pos[edges[:, 1]]

    def cross(o, p, q):  # orientation of q relative to segment o->p, broadcast
        return (p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1]) - \
               (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0])

    rows = max(1, _PAIR_BLOCK // max(m, 1))
    count = 0
    for lo in range(0, m - 1, rows):
        hi = min(lo + rows, m - 1)
        ai, bi = a[lo:hi, None, :], b[lo:hi, None, :]
        aj, bj = a[None, lo + 1:, :], b[None, lo + 1:, :]
        d1 = cross(aj, bj, ai)
        d2 = cross(aj, bj, bi)
        d3 = cross(ai, bi, aj)
        d4 = cross(ai, bi, bj)
        proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
        proper &= (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
        # row i of the block pairs with column k = edge lo + 1 + k; keep j > i
        proper &= np.arange(lo + 1, m)[None, :] > np.arange(lo, hi)[:, None]
        count += int(np.count_nonzero(proper))
    return count
