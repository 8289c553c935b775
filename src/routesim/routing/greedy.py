"""Greedy forwarding, per pair and in bulk, and the shortest-path baseline.

Engines operate on a precomputed distance field: ``dfield[u]`` is the
distance from u's coordinates to the destination's coordinate vector.  Using
one shared field keeps tie-breaking and float behavior identical between
single-route calls and the harness's bulk evaluation.

The greedy rule has three forms here.  ``greedy_route`` forwards one packet
and hands every local minimum to an optional recovery episode; every protocol
is this loop plus at most one episode.  For bulk evaluation the same rule,
outcome included, runs vectorized: ``greedy_forest`` resolves every node's
walk toward one destination at once, and ``greedy_lockstep`` advances a set
of (src, dst) pairs one hop per step.  Both bulk kernels return two arrays,
(hops, stop), with hops capped at the TTL, and ``stop`` alone says how each
walk ended, as greedy_route would: it is the destination of a delivered
walk, the local minimum (the last node of greedy_route's path) of a walk
that stalled short of the TTL, and -1 for a walk that ended ttl-exceeded,
a local minimum reached with the TTL spent included.  A recovery engine
resumed at a local minimum with the hops left is the rest of the route, so
the harness runs recovery from ``stop`` instead of from the source.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from routesim.coords import hop_rows
from routesim.distance import FieldFn, whole_field
from routesim.routing.result import Failure, Mode, RouteResult
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
    is already spent, else as local-minimum.  The route ends delivered at
    dst or at its first failure.
    """
    path = [src]
    modes: list[str] = []
    u = src
    failure = None
    while u != dst and failure is None:
        nxt = greedy_next_hop(u, dfield, t, dst)
        if nxt is None and recover is not None:
            u, failure = recover(u, path, modes)
        elif len(modes) >= ttl:
            failure = Failure.TTL_EXCEEDED
        elif nxt is None:
            failure = Failure.LOCAL_MINIMUM
        else:
            path.append(nxt)
            modes.append(Mode.GREEDY)
            u = nxt
    return RouteResult(src, dst, tuple(path), tuple(modes), failure)


def greedy_forest(dfield: np.ndarray, t: Topology, dst: int, ttl: int) -> tuple[np.ndarray, np.ndarray]:
    """Every node's greedy walk toward dst as (hops, stop), by pointer jumping.

    Each node points at its greedy next hop, local minima and dst at
    themselves.  Neighbor ids ascend within each row, so argmin's
    first-occurrence rule matches greedy_next_hop's lowest-id tie-break
    exactly, and nodes adjacent to the destination hand the packet over
    directly.  Each round doubles how far every pointer reaches (Wyllie
    1979).  Successors strictly descend the distance field or hand over to
    dst, so the forest has no cycles and the loop ends within ceil(log2 n)
    rounds, at each node's root: dst or a local minimum.  ``stop`` is that
    root where greedy_route ends there, as it does at dst within at most
    ttl hops and at a local minimum within fewer; else it is -1.
    """
    ids = t.neighbor_matrix()
    vals = dfield[ids]            # a pad is the node itself, never strictly closer
    am = np.argmin(vals, axis=1)
    rows = np.arange(t.n)
    nxt = np.where(vals[rows, am] < dfield, ids[rows, am], rows)
    nxt[t.indices[t.indptr[dst]:t.indptr[dst + 1]]] = dst
    nxt[dst] = dst
    hops = (nxt != rows).astype(np.int64)
    while True:
        jumped = nxt[nxt]
        if np.array_equal(jumped, nxt):
            return np.minimum(hops, ttl), np.where(hops < ttl + (nxt == dst), nxt, -1)
        hops += hops[nxt]
        nxt = jumped


# Pairs greedy_lockstep advances together: its step buffers hold
# LOCKSTEP_BATCH * max degree coordinate rows.
LOCKSTEP_BATCH = 1024


def greedy_lockstep(srcs: np.ndarray, dsts: np.ndarray, coords: np.ndarray, targets: np.ndarray,
                    field: FieldFn, t: Topology, ttl: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair (hops, stop) of greedy forwarding, one hop per step for all pairs.

    Node u compares ``coords[u]`` with ``targets[dst]`` under ``field``, the
    protocol's distance field function.  Each step evaluates the field on
    the gathered rows of the current nodes' neighbor-table rows, one row per
    (pair, candidate), so every distance is the float its full-field entry
    would be.  The candidate ids, their coordinate rows, the target rows
    and their distances live in step buffers allocated once per call,
    ``LOCKSTEP_BATCH * width`` rows each.  A step gathers into their first
    rows with ``np.take(..., out=, mode="clip")`` (the default mode copies
    through a temporary), subtracts the target rows in place and has
    ``field`` reduce the differences into the distances.  The clipped takes
    read only neighbor-table ids, pairs that the checked gather of the
    start distances accepted and each candidate row's pair, so an
    out-of-range src or dst still raises.
    Each pair carries its current node's distance from step to step: the
    source's to start, then the winning candidate's.  A pad of the table is
    the current node itself, which evaluates to exactly that distance and
    so never wins.  Ties go to the lowest id and a neighboring destination
    takes the packet directly, as in greedy_route.  There are at most
    ``ttl`` steps, so the TTL is checked before each hop and hops never
    exceed it; outcomes are those of greedy_forest.  ``stop`` starts as the
    destination; a pair records its node as it leaves the live set without
    moving, and the pairs of a batch still live after its last step get -1.
    """
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    hops = np.zeros(len(srcs), dtype=np.int64)
    stop = dsts.copy()
    ids = t.neighbor_matrix()
    width = ids.shape[1]
    batch = min(len(srcs), LOCKSTEP_BATCH)
    owner = np.repeat(np.arange(batch), width)   # the pair of each candidate row
    cand = np.empty(batch * width, dtype=np.int64)
    diff = np.empty((batch * width, coords.shape[1]))
    goal = np.empty_like(diff)
    dist = np.empty(batch * width)
    for lo in range(0, len(srcs), LOCKSTEP_BATCH):
        live = lo + np.flatnonzero(srcs[lo:lo + LOCKSTEP_BATCH] != dsts[lo:lo + LOCKSTEP_BATCH])
        cur = srcs[live]
        dst = dsts[live]
        here = whole_field(field, coords[cur], targets[dst])
        for step in range(ttl):
            m = len(live)
            if m == 0:
                break
            k = m * width
            rows = cand[:k]
            np.take(ids, cur, axis=0, out=rows.reshape(m, width), mode="clip")
            d = np.take(coords, rows, axis=0, out=diff[:k], mode="clip")
            g = np.take(np.take(targets, dst, axis=0), owner[:k], axis=0, out=goal[:k], mode="clip")
            d -= g
            vals = field(d, dist[:k])
            # flat index of each pair's first closest candidate
            win = np.argmin(vals.reshape(m, width), axis=1) + np.arange(0, k, width)
            best = vals[win]
            nxt = np.where(best < here, rows[win], -1)
            near = np.flatnonzero(rows.reshape(m, width) == dst[:, None]) // width
            nxt[near] = dst[near]
            moved = nxt >= 0      # else a local minimum: the walk stops here
            hops[live] = step + moved
            stuck = ~moved
            stop[live[stuck]] = cur[stuck]
            go = moved & (nxt != dst)
            live, cur, dst, here = live[go], nxt[go], dst[go], best[go]
        stop[live] = -1           # still walking with the TTL spent
    return hops, stop


def sp_route(src: int, dst: int, t: Topology) -> RouteResult:
    """Breadth-first shortest path; the stretch denominator oracle.

    Greedy descent of the hop-count field with ties to the lowest id, so the
    route is deterministic; it is at most n - 1 hops, under the TTL of n.  A
    dst in another component ends the route at src as unreachable.
    """
    dist = hop_rows(t, [dst])[0]
    if dist[src] < 0:
        return RouteResult(src, dst, (src,), (), Failure.UNREACHABLE)
    return greedy_route(src, dst, dist, t, t.n)
