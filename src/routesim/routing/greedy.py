"""Greedy forwarding, per pair and in bulk, and the shortest-path baseline.

Engines operate on a precomputed distance field: ``dfield[u]`` is the
distance from u's coordinates to the destination's coordinate vector.  Using
one shared field keeps tie-breaking and float behavior identical between
single-route calls and the harness's bulk evaluation.

The greedy rule has two forms here.  ``greedy_route`` forwards one packet and
hands every local minimum to an optional recovery episode; every protocol is
this loop plus at most one episode.  ``greedy_successors`` and
``greedy_walks`` apply the same rule, outcome included, to every node at once
for bulk evaluation of the protocols without recovery.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from routesim.coords import hop_counts
from routesim.routing.result import Failure, Mode, Outcome, RouteResult, finish
from routesim.topology import Topology

# recover(local minimum, path, modes) -> (resume node, failure or None); it
# appends its own hops to path and modes and enforces the TTL on them.
Recover = Callable[[int, list[int], list[str]], tuple[int, str | None]]


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


def greedy_route(src: int, dst: int, dfield: np.ndarray, t: Topology, ttl: int,
                 recover: Recover | None = None) -> RouteResult:
    """Greedy forwarding with one recovery episode per local minimum.

    The next hop is asked for first; the TTL is checked before each greedy
    hop, and the episode checks it before each of its own.  Without
    ``recover`` a local minimum ends the route: as ttl-exceeded when the TTL
    is already spent, else as local-minimum.
    """
    path = [src]
    modes: list[str] = []
    u = src
    while u != dst:
        nxt = greedy_next_hop(u, dfield, t, dst)
        if nxt is None:
            if recover is not None:
                u, failure = recover(u, path, modes)
            elif len(modes) >= ttl:
                failure = Failure.TTL_EXCEEDED
            else:
                failure = Failure.LOCAL_MINIMUM
            if failure is not None:
                return finish(src, dst, path, modes, failure)
            continue
        if len(modes) >= ttl:
            return finish(src, dst, path, modes, Failure.TTL_EXCEEDED)
        path.append(nxt)
        modes.append(Mode.GREEDY)
        u = nxt
    return finish(src, dst, path, modes)


def greedy_successors(dfield: np.ndarray, t: Topology, dst: int) -> np.ndarray:
    """Every node's greedy next hop toward dst; local minima and dst point to themselves.

    Neighbor ids ascend within each row, so argmin's first-occurrence rule
    matches greedy_next_hop's lowest-id tie-break exactly.  Nodes adjacent to
    the destination hand the packet over directly, as greedy_next_hop does.
    """
    ids, mask = t.neighbor_matrix()
    vals = np.where(mask, dfield[ids], np.inf)
    am = np.argmin(vals, axis=1)
    rows = np.arange(t.n)
    succ = np.where(vals[rows, am] < dfield, ids[rows, am], rows)
    succ[list(t.adjacency[dst])] = dst
    succ[dst] = dst
    return succ


def greedy_walks(succ: np.ndarray, dst: int, ttl: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node (delivered?, hops to where the walk stops, timed out?), by pointer jumping.

    Each round doubles how far every pointer reaches (Wyllie 1979).  Greedy
    successors strictly descend the distance field or hand over to dst, so
    the forest has no cycles and the loop ends within ceil(log2 n) rounds.
    Outcomes follow greedy_route: delivered within the TTL, else timed out
    when the walk stops after >= TTL hops, else stuck at a local minimum.
    """
    nxt = succ
    hops = (succ != np.arange(len(succ))).astype(np.int64)
    while True:
        jumped = nxt[nxt]
        if np.array_equal(jumped, nxt):
            delivered = (nxt == dst) & (hops <= ttl)
            return delivered, hops, ~delivered & (hops >= ttl)
        hops += hops[nxt]
        nxt = jumped


def sp_route(src: int, dst: int, t: Topology) -> RouteResult:
    """Breadth-first shortest path; the stretch denominator oracle.

    Greedy descent of the hop-count field with ties to the lowest id, so the
    route is deterministic; it is at most n - 1 hops, under the TTL of n.
    """
    dist = hop_counts(t, dst)
    if dist[src] < 0:
        return RouteResult(src, dst, (src,), (), Outcome.FAILED, None)  # cross-component
    return greedy_route(src, dst, dist, t, t.n)
