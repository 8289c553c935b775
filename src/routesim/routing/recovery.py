"""Backtracking and beacon-fallback recovery engines.

Both protocols are ``greedy_route`` plus one episode at a local minimum: the
backtracking episode turns the rest of the route into an ordered depth-first
search with a per-packet visited set; the beacon episode walks up the
hop-count tree of the anchor the destination is closest to and, failing
greedy resumption, delivers through a scoped flood from that anchor.  The
hop-count trees are a ``BeaconTrees`` table built once per scenario, so the
climb and the flood's delivery path are index chases on it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from routesim.coords import VirtualCoords
from routesim.routing.greedy import greedy_route
from routesim.routing.result import Failure, Mode, RouteResult
from routesim.topology import Topology


def _backtrack_episode(u: int, dst: int, dfield: np.ndarray, t: Topology,
                       path: list[int], modes: list[str], ttl: int) -> tuple[int, str | None]:
    """Depth-first search to the end of the route; returns (last node, failure or None)."""
    visited = set(path)
    stack = list(path)
    while u != dst:
        if dst in t.adjacency[u]:
            best, best_d = dst, dfield[dst]
        else:
            best = -1
            best_d = np.inf
            for v in t.adjacency[u]:  # ascending ids break distance ties
                if v not in visited and dfield[v] < best_d:
                    best = v
                    best_d = dfield[v]
        if len(modes) >= ttl:
            return u, Failure.TTL_EXCEEDED
        if best >= 0:
            mode = Mode.GREEDY if (best_d < dfield[u] or best == dst) else Mode.BACKTRACK
            visited.add(best)
            stack.append(best)
            path.append(best)
            modes.append(mode)
            u = best
        else:
            stack.pop()
            if not stack:
                return u, Failure.BACKTRACK_EXHAUSTED
            u = stack[-1]
            path.append(u)
            modes.append(Mode.BACKTRACK)
    return dst, None


def lcr_route(src: int, dst: int, dfield: np.ndarray, t: Topology, ttl: int) -> RouteResult:
    """Greedy forwarding, then depth-first search with physical backtracking.

    From the first local minimum the packet moves to the unvisited neighbor
    closest to the destination (even a farther one when no closer exists;
    such exploratory hops count as backtrack mode), and with every neighbor
    visited it pops back to the previous hop.  Exhausting the stack means the
    destination is unreachable from the explored region.  The greedy prefix
    strictly descends the field, so a visited set would never have bound on
    it: the search starts with the prefix as its visited set and stack.
    """
    return greedy_route(
        src, dst, dfield, t, ttl,
        lambda u, path, modes: _backtrack_episode(u, dst, dfield, t, path, modes, ttl),
    )


class BeaconTrees(NamedTuple):
    """Every anchor's hop-count tree and every node's nearest anchor."""

    anchors: tuple[int, ...]                # anchor node ids, one per VCS dimension
    parents: tuple[tuple[int, ...], ...]    # parents[k][u]: u's parent in anchor k's tree
    nearest: tuple[int, ...]                # nearest[u]: the k minimizing V(u)_k, lowest on ties


def beacon_trees(vc: VirtualCoords, t: Topology) -> BeaconTrees:
    """The parent tables of every anchor's tree, read off the VCS columns.

    A node's parent is its lowest-id neighbor one hop closer to the anchor;
    the anchor is its own parent.  Any other node without such a neighbor
    means the column is not a breadth-first layering of the topology.
    """
    ids = t.neighbor_matrix()     # ascending neighbors, padded with the row's own id
    rows = np.arange(t.n)
    parents = []
    for k, anchor in enumerate(vc.anchors.ids):
        col = vc.matrix[:, k]
        closer = col[ids] == (col - 1)[:, None]   # a pad is never one hop closer
        parent = ids[rows, np.argmax(closer, axis=1)]
        orphan = ~closer.any(axis=1)
        orphan[anchor] = False
        if orphan.any():
            raise RuntimeError("hop-count column is not a BFS layering")
        parent[anchor] = anchor
        parents.append(tuple(parent.tolist()))
    nearest = np.argmin(vc.matrix, axis=1)  # ties to the lowest anchor index
    return BeaconTrees(vc.anchors.ids, tuple(parents), tuple(nearest.tolist()))


def _beacon_episode(u: int, dst: int, dfield: np.ndarray, parent: tuple[int, ...], anchor: int,
                    path: list[int], modes: list[str], ttl: int) -> tuple[int, str | None]:
    """Climb toward the anchor, then flood; returns (resume node, failure or None)."""
    entry_d = dfield[u]
    while u != anchor:
        if len(modes) >= ttl:
            return u, Failure.TTL_EXCEEDED
        u = parent[u]
        path.append(u)
        modes.append(Mode.FALLBACK)
        if u == dst or dfield[u] < entry_d:
            return u, None
    # Scoped flood: deliver along the anchor->dst tree path.
    chain = [dst]
    while chain[-1] != anchor:
        chain.append(parent[chain[-1]])
    for node in reversed(chain[:-1]):
        if len(modes) >= ttl:
            return path[-1], Failure.TTL_EXCEEDED
        path.append(node)
        modes.append(Mode.FLOOD)
    return dst, None


def bvr_route(
    src: int,
    dst: int,
    dfield: np.ndarray,
    trees: BeaconTrees,
    t: Topology,
    ttl: int,
) -> RouteResult:
    """Greedy forwarding with fallback toward the destination's best anchor.

    On a local minimum the packet climbs the hop-count tree of the anchor k
    minimizing V(dst)_k.  If some node on the way is closer to the
    destination than where the fallback began, greedy resumes.  Reaching the
    anchor triggers a scoped flood of radius V(dst)_k, which always covers
    the destination; its cost is charged as the anchor-to-destination
    shortest path, the path the delivered copy takes.  ``trees`` is the
    scenario's ``beacon_trees``.
    """
    k = trees.nearest[dst]
    anchor = trees.anchors[k]
    parent = trees.parents[k]
    return greedy_route(
        src, dst, dfield, t, ttl,
        lambda u, path, modes: _beacon_episode(u, dst, dfield, parent, anchor, path, modes, ttl),
    )
