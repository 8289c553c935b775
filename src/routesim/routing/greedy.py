"""Greedy forwarding and the shortest-path baseline.

Engines operate on a precomputed distance field: ``dfield[u]`` is the
distance from u's coordinates to the destination's coordinate vector.  Using
one shared field keeps tie-breaking and float behavior identical between
single-route calls and the harness's bulk evaluation.
"""

from __future__ import annotations

import numpy as np

from routesim.coords import hop_counts
from routesim.routing.result import Failure, Mode, RouteResult, finish
from routesim.topology import Topology


def greedy_next_hop(u: int, dfield: np.ndarray, t: Topology, dst: int = -1) -> int | None:
    """Closest-to-destination neighbor strictly closer than u; ties to lowest id.

    A destination that is already a direct neighbor receives the packet
    outright: nodes know their neighbors' identities from the coordinate
    exchange, so coordinate ties (or collisions) never divert a packet that
    is one hop from home.
    """
    nbrs = t.adjacency[u]
    if dst >= 0 and dst in nbrs:
        return dst
    best = -1
    best_d = dfield[u]
    for v in nbrs:  # ascending id order resolves ties
        dv = dfield[v]
        if dv < best_d:
            best = v
            best_d = dv
    return best if best >= 0 else None


def greedy_route(src: int, dst: int, dfield: np.ndarray, t: Topology, ttl: int) -> RouteResult:
    """Pure greedy forwarding; fails on an empty forwarding set or TTL expiry."""
    path = [src]
    modes: list[str] = []
    u = src
    while u != dst:
        if len(modes) >= ttl:
            return finish(src, dst, path, modes, Failure.TTL_EXCEEDED)
        nxt = greedy_next_hop(u, dfield, t, dst)
        if nxt is None:
            return finish(src, dst, path, modes, Failure.LOCAL_MINIMUM)
        path.append(nxt)
        modes.append(Mode.GREEDY)
        u = nxt
    return finish(src, dst, path, modes)


def sp_route(src: int, dst: int, t: Topology) -> RouteResult:
    """Breadth-first shortest path; the stretch denominator oracle.

    Path reconstruction walks from src toward dst picking, at each step, the
    lowest-id neighbor one hop closer to dst, so the result is deterministic.
    """
    if src == dst:
        return finish(src, dst, [src], [])
    dist = hop_counts(t, dst)
    if dist[src] < 0:
        return RouteResult(src, dst, (src,), (), "failed", None)  # cross-component
    path = [src]
    modes: list[str] = []
    u = src
    while u != dst:
        du = dist[u]
        for v in t.adjacency[u]:
            if dist[v] == du - 1:
                u = v
                break
        path.append(u)
        modes.append(Mode.GREEDY)
    return finish(src, dst, path, modes)
