"""Output checks of the benchmark.

Each function returns a list of problems (empty when the check passes).
The independent checks recompute what they compare against: unit-disk
edges by brute force over positions, the diameter and shortest paths with
networkx, and the per-hop conditions of routed paths.  The property checks
state what every metrics row must satisfy whatever the numbers are.
"""

from __future__ import annotations

import hashlib
import math

import networkx as nx
import numpy as np

from routesim.routing import Mode, route

ROUTE_CHECK_PAIRS = 40
_ROUTE_CHECK_SALT = 7919
_STRETCH_FIELDS = ("stretch_greedy", "stretch_all", "stretch_complementary")


def row_sha256(row) -> str:
    return hashlib.sha256(row.csv_row().encode()).hexdigest()


# --- properties of one metrics row ------------------------------------------


def row_problems(row, config) -> list[str]:
    problems = []
    if not 0.0 <= row.greedy_ratio <= row.delivery_ratio <= 1.0:
        problems.append(f"ratios out of order: greedy {row.greedy_ratio} delivery {row.delivery_ratio}")
    for name in _STRETCH_FIELDS:
        value = getattr(row, name)
        if not (math.isnan(value) or value >= 1.0):
            problems.append(f"{name} = {value} < 1")
    if row.pairs + row.excluded_pairs != config.sample:
        problems.append(f"pairs {row.pairs} + excluded {row.excluded_pairs} != budget {config.sample}")
    if config.protocol in ("lcr", "bvr") and row.delivery_ratio != 1.0:
        problems.append(f"{config.protocol} delivered {row.delivery_ratio} of connected pairs, not all")
    return problems


# --- properties across the rows of one round --------------------------------


def avcs_beats_vcs(rows: dict) -> list[str]:
    vcs, avcs = rows["gf-vcs"], rows["gf-avcs"]
    problems = []
    if not avcs.stretch_greedy < vcs.stretch_greedy:
        problems.append(f"gf-avcs stretch {avcs.stretch_greedy} not below gf-vcs {vcs.stretch_greedy}")
    if not avcs.greedy_ratio > vcs.greedy_ratio:
        problems.append(f"gf-avcs greedy ratio {avcs.greedy_ratio} not above gf-vcs {vcs.greedy_ratio}")
    return problems


def complementary_order(rows: dict) -> list[str]:
    """Perimeter episodes cost more than beacon fallback and backtracking.

    bvr > lcr is not checked: on this fixture the two differ by less than
    the sampling noise and their order flips with the seed (see README).
    """
    g, b, l = (rows[p].stretch_complementary for p in ("gpsr-rng", "bvr", "lcr"))
    if g > b and g > l:
        return []
    return [f"complementary stretch of gpsr-rng {g} not above bvr {b} and lcr {l}"]


def no_round_check(rows: dict) -> list[str]:
    return []


# --- independent recomputation for one built scenario -----------------------


def unit_disk_edges(positions: np.ndarray, radio_range: float, chunk: int = 256) -> np.ndarray:
    """(m, 2) pairs u < v with 0 < |p_u - p_v| <= r, lexicographically sorted."""
    x, y = positions[:, 0], positions[:, 1]
    r2 = radio_range * radio_range
    parts = []
    for lo in range(0, len(positions), chunk):
        dx = x[lo:lo + chunk, None] - x[None, :]
        dy = y[lo:lo + chunk, None] - y[None, :]
        d2 = dx * dx + dy * dy
        u, v = np.nonzero((d2 <= r2) & (d2 > 0.0))
        u = u + lo
        keep = u < v
        parts.append(np.column_stack([u[keep], v[keep]]))
    return np.concatenate(parts)


def scenario_problems(sc, row, seed: int) -> list[str]:
    """Edges, mean degree, TTL and a seeded sample of routed paths."""
    t = sc.topology
    cfg = sc.config
    problems = []
    edges = unit_disk_edges(t.positions, t.radio_range)
    have = np.array(
        [(u, v) for u, nbrs in enumerate(t.adjacency) for v in nbrs if u < v], dtype=np.int64
    ).reshape(-1, 2)
    if not np.array_equal(edges, have):
        problems.append(f"adjacency has {len(have)} edges, brute force finds {len(edges)} (or others)")
    if 2.0 * len(edges) / t.n != row.mean_degree:
        problems.append(f"mean degree {row.mean_degree} != {2.0 * len(edges) / t.n}")

    g = nx.Graph()
    g.add_nodes_from(range(t.n))
    g.add_edges_from(edges.tolist())
    ttl = math.ceil(cfg.ttl_factor * nx.diameter(g, usebounds=True))
    if sc.ctx.ttl != ttl:
        problems.append(f"ttl {sc.ctx.ttl} != ceil(ttl_factor * diameter) = {ttl}")

    rng = np.random.default_rng([seed, _ROUTE_CHECK_SALT])
    pairs = rng.integers(0, t.n, size=(ROUTE_CHECK_PAIRS, 2))
    for src, dst in pairs.tolist():
        if src != dst:
            problems += _path_problems(sc, g, src, dst)
    return problems


def _path_problems(sc, g, src: int, dst: int) -> list[str]:
    protocol = sc.config.protocol
    rr = route(protocol, src, dst, sc.ctx)
    tag = f"{protocol} {src}->{dst}"
    if rr.path[0] != src or len(rr.modes) != len(rr.path) - 1:
        return [f"{tag}: malformed path"]
    for a, b in zip(rr.path, rr.path[1:]):
        if not g.has_edge(a, b):
            return [f"{tag}: hop {a}->{b} is not an edge"]
    problems = []
    if rr.delivered:
        if rr.path[-1] != dst:
            problems.append(f"{tag}: delivered path ends at {rr.path[-1]}")
        shortest = nx.shortest_path_length(g, src, dst)
        if rr.hops < shortest:
            problems.append(f"{tag}: {rr.hops} hops, shorter than shortest path {shortest}")
    dfield = sc.ctx.dfield(protocol, dst)
    for a, b, mode in zip(rr.path, rr.path[1:], rr.modes):
        if mode == Mode.GREEDY and not (b == dst or dfield[b] < dfield[a]):
            problems.append(f"{tag}: greedy hop {a}->{b} does not get closer")
            break
    return problems
