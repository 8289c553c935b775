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
"""

from __future__ import annotations

import math

import numpy as np

from routesim.routing.greedy import greedy_route
from routesim.routing.planar import crossing_point
from routesim.routing.result import Failure, Mode, RouteResult
from routesim.topology import Topology


def _ccw_order(u: int, nbrs: tuple[int, ...], ref_angle: float, pos: np.ndarray) -> list[int]:
    """Planar neighbors sorted by counterclockwise angle strictly after ref.

    A neighbor exactly along the reference direction sorts last (full sweep),
    which sends a dead-end walk back where it came from.  Ties break toward
    the lower node id.
    """
    two_pi = 2.0 * math.pi
    keyed = []
    for v in nbrs:
        ang = math.atan2(pos[v, 1] - pos[u, 1], pos[v, 0] - pos[u, 0])
        delta = (ang - ref_angle) % two_pi
        if delta <= 0.0:
            delta = two_pi
        keyed.append((delta, v))
    keyed.sort()
    return [v for _, v in keyed]


def _perimeter_episode(
    u: int,
    dst: int,
    pos: np.ndarray,
    pg: Topology,
    dfield: np.ndarray,
    path: list[int],
    modes: list[str],
    ttl: int,
) -> tuple[int, str | None]:
    """Face walk from a local minimum; returns (resume node, failure or None)."""
    entry_d = dfield[u]
    lp = (float(pos[u, 0]), float(pos[u, 1]))
    pd = (float(pos[dst, 0]), float(pos[dst, 1]))
    lf_d = math.hypot(lp[0] - pd[0], lp[1] - pd[1])  # distance of face-entry point to dst
    e0: tuple[int, int] | None = None
    prev: int | None = None
    while True:
        nbrs = pg.adjacency[u]
        if not nbrs:
            return u, Failure.LOCAL_MINIMUM  # isolated in the planar subgraph
        if prev is None:
            ref = math.atan2(pd[1] - pos[u, 1], pd[0] - pos[u, 0])
        else:
            ref = math.atan2(pos[prev, 1] - pos[u, 1], pos[prev, 0] - pos[u, 0])
        order = _ccw_order(u, nbrs, ref, pos)
        chosen = None
        face_changed = False
        for w in order:
            ip = crossing_point(pos[u], pos[w], lp, pd)
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
            chosen = order[-1]  # every edge crossed; retreat along the last one
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
        prev = u
        u = chosen
        if u == dst or dfield[u] < entry_d:
            return u, None


def gpsr_route(
    src: int,
    dst: int,
    dfield: np.ndarray,
    pos: np.ndarray,
    pg: Topology,
    t: Topology,
    ttl: int,
) -> RouteResult:
    """Greedy forwarding with perimeter-mode recovery on the planar subgraph.

    ``dfield`` is the planar distance field of the believed positions ``pos``
    toward dst.
    """
    return greedy_route(
        src, dst, dfield, t, ttl,
        lambda u, path, modes: _perimeter_episode(u, dst, pos, pg, dfield, path, modes, ttl),
    )
