"""Greedy-plus-perimeter routing over a planarized graph.

Greedy progress is measured on planar Euclidean distance over the full
topology, by ``greedy_route``.  At each local minimum it hands the packet to
one perimeter episode, which walks faces of the planar subgraph by the
right-hand rule: arriving at a node, the next edge is the first one
counterclockwise from the edge it arrived on (from the direct line to the
destination on entry).  The walk changes faces when the edge about to be
traversed properly crosses the segment from the entry point to the
destination at a point closer to the destination than the current face's
entry crossing.  Perimeter mode ends at the first node strictly closer to the
destination than the entry point; repeating the first edge of the current
face means the walk has gone all the way around, and the packet is dropped.

The walk's geometry is a ``FaceTable``, built once per planar subgraph and
set of believed positions: positions as Python floats and every planar
edge's angle, computed with the same ``math.atan2`` arguments a per-hop
computation would use.  An arriving edge's reference angle is read from the
table; only the entry hop's reference, the direction to the destination, is
computed per episode.  Each hop still sorts its few neighbors by angle after
the reference, so the walk is the same float for float.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from routesim.routing.greedy import greedy_route
from routesim.routing.planar import crossing_point
from routesim.routing.result import Failure, Mode, RouteResult
from routesim.topology import Topology


class FaceTable(NamedTuple):
    """The face walk's geometry for one planar subgraph under one set of positions.

    ``angles[u][i]`` is ``math.atan2`` of the edge from u to
    ``adjacency[u][i]``, with the coordinate differences of that edge, so the
    reference angle of an arriving edge is an entry of the table.
    """

    pos: tuple[tuple[float, float], ...]        # believed positions as floats
    adjacency: tuple[tuple[int, ...], ...]      # planar neighbors, ascending
    angles: tuple[tuple[float, ...], ...]       # edge angles, aligned with adjacency


def face_table(positions: np.ndarray, pg: Topology) -> FaceTable:
    """The face walk's table of the planar subgraph ``pg`` over ``positions``."""
    pos = tuple(map(tuple, np.asarray(positions, dtype=float).tolist()))
    angles = tuple(
        tuple(math.atan2(pos[v][1] - pos[u][1], pos[v][0] - pos[u][0]) for v in nbrs)
        for u, nbrs in enumerate(pg.adjacency)
    )
    return FaceTable(pos, pg.adjacency, angles)


def _perimeter_episode(
    u: int,
    dst: int,
    faces: FaceTable,
    dfield: np.ndarray,
    path: list[int],
    modes: list[str],
    ttl: int,
) -> tuple[int, str | None]:
    """Face walk from a local minimum; returns (resume node, failure or None)."""
    pos, adjacency, angles = faces
    two_pi = 2.0 * math.pi
    entry_d = dfield[u]
    lp = pos[u]
    pd = pos[dst]
    lf_d = math.hypot(lp[0] - pd[0], lp[1] - pd[1])  # distance of face-entry point to dst
    ref = math.atan2(pd[1] - lp[1], pd[0] - lp[0])
    e0: tuple[int, int] | None = None
    while True:
        nbrs = adjacency[u]
        if not nbrs:
            return u, Failure.LOCAL_MINIMUM  # isolated in the planar subgraph
        # Counterclockwise order strictly after ref: a neighbor exactly along
        # the reference direction sorts last (full sweep), which sends a
        # dead-end walk back where it came from.  Ties go to the lower id.
        order = []
        for ang, v in zip(angles[u], nbrs):
            delta = (ang - ref) % two_pi
            if delta <= 0.0:
                delta = two_pi
            order.append((delta, v))
        order.sort()
        pu = pos[u]
        chosen = None
        face_changed = False
        for _, w in order:
            ip = crossing_point(pu, pos[w], lp, pd)
            if ip is not None:
                ip_d = math.hypot(ip[0] - pd[0], ip[1] - pd[1])
                if ip_d < lf_d:
                    # Crossing edge: the face beyond it is closer to dst, so
                    # switch faces and keep sweeping instead of traversing it.
                    lf_d = ip_d
                    face_changed = True
                    continue
            chosen = w
            break
        if chosen is None:
            chosen = order[-1][1]  # every edge crossed; retreat along the last one
            face_changed = True
        edge = (u, chosen)
        if face_changed or e0 is None:
            e0 = edge
        elif edge == e0:
            return u, Failure.PERIMETER_LOOP
        if len(modes) >= ttl:
            return u, Failure.TTL_EXCEEDED
        path.append(chosen)
        modes.append(Mode.PERIMETER)
        ref = angles[chosen][adjacency[chosen].index(u)]  # the arriving edge, seen from chosen
        u = chosen
        if u == dst or dfield[u] < entry_d:
            return u, None


def gpsr_route(
    src: int,
    dst: int,
    dfield: np.ndarray,
    faces: FaceTable,
    t: Topology,
    ttl: int,
) -> RouteResult:
    """Greedy forwarding with perimeter-mode recovery on the planar subgraph.

    ``faces`` is the face table of the planar subgraph and ``dfield`` the
    planar distance field toward dst, both over the same believed positions.
    """
    return greedy_route(
        src, dst, dfield, t, ttl,
        lambda u, path, modes: _perimeter_episode(u, dst, faces, dfield, path, modes, ttl),
    )
