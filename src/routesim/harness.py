"""Scenario execution: build topology and coordinates, route node pairs,
aggregate greedy ratio and path stretch, sweep parameters, export maps.

Everything is deterministic: a ScenarioConfig (including its seed) fully
determines every output byte.  Pair evaluation is grouped by destination and
aggregated in ascending destination order, so worker count never changes the
result.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from itertools import groupby
from typing import Iterable, NamedTuple

import numpy as np

from routesim import distance as dist_mod
from routesim.coords import (
    AlignedCoords,
    AnchorSet,
    CoordsError,
    RULE_SELF_WEIGHTED,
    ALIGN_RULES,
    VirtualCoords,
    align,
    build_vcs,
    corner_anchors,
    hop_diameter,
    hop_rows,
    pair_hops,
    seed_rows,
)
from routesim.routing import (
    PROTOCOL_SPECS,
    CoordSource,
    Failure,
    Mode,
    ProtocolSpec,
    Recovery,
    RoutingContext,
    bvr_route,
    gpsr_route,
    lcr_route,
)
from routesim.routing.greedy import greedy_forest, greedy_lockstep
from routesim.topology import (
    Topology,
    TopologyError,
    VoidSpec,
    build_udg,
    carve_voids,
    generate_grid,
    generate_random,
    perturb_positions,
    topology_from_adjacency,
)

_PERTURB_SALT = 104729    # keeps the perception stream independent of deployment draws
_SAMPLE_SALT = 15485863   # pair-sampling stream

# Sweep axis -> the type of its values, and the config field each plain axis
# sets; void_size and hole_count set the voids.
SWEEP_AXES = {
    "radio_range": float, "void_size": float, "hole_count": int,
    "align_depth": int, "error_fraction": float, "seed": int,
}
_AXIS_FIELDS = {
    "radio_range": "radio_range", "align_depth": "align_depth", "error_fraction": "loc_error", "seed": "seed",
}

CSV_HEADER = (
    "scenario_id,protocol,coord_system,distance,align_depth,mean_degree,"
    "pairs,greedy_ratio,delivery_ratio,stretch_greedy,stretch_all,stretch_complementary"
)

# Canonical hole centers (fractions of the deployment bounds) for the
# hole-count sweep; the first five form a quincunx.
_HOLE_CENTERS = (
    (0.50, 0.50), (0.25, 0.25), (0.75, 0.75), (0.25, 0.75), (0.75, 0.25),
    (0.50, 0.25), (0.50, 0.75), (0.25, 0.50), (0.75, 0.50),
    (0.125, 0.50), (0.875, 0.50), (0.50, 0.125), (0.50, 0.875),
    (0.125, 0.125), (0.875, 0.875), (0.125, 0.875),
)


class ScenarioError(ValueError):
    """Invalid or inconsistent scenario description."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative experiment description; see README for the config-file keys."""

    deployment: str = "grid"              # grid | random | abc-fixture
    rows: int = 20
    cols: int = 20
    spacing: float = 1.0
    n: int = 400
    width: float = 20.0
    height: float = 20.0
    radio_range: float = 1.2
    voids: tuple[VoidSpec, ...] = ()
    anchors: str | tuple[int, ...] = "corners"
    dims: int = 4
    align_rule: str = RULE_SELF_WEIGHTED
    align_depth: int = 0
    distance: str = "euclid"              # euclid | manhattan | semi | geo
    semi_weight: float = dist_mod.DEFAULT_SEMI_WEIGHT
    protocol: str = "gf-geo"
    loc_error: float = 0.0
    seed: int = 1
    ttl_factor: float = 4.0
    sample: int = 0                       # ordered-pair budget; 0 evaluates all pairs

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ScenarioError(f"{f.name} must be finite, got {value}")
        if self.deployment not in ("grid", "random", "abc-fixture"):
            raise ScenarioError(f"unknown deployment kind {self.deployment!r}")
        if self.protocol not in PROTOCOL_SPECS:
            raise ScenarioError(f"unknown protocol {self.protocol!r}")
        if self.distance not in dist_mod.KINDS:
            raise ScenarioError(f"unknown distance kind {self.distance!r}")
        if self.semi_weight <= 0:
            raise ScenarioError("semi_weight must be positive")
        if self.align_rule not in ALIGN_RULES:
            raise ScenarioError(f"unknown alignment rule {self.align_rule!r}")
        if self.align_depth < 0:
            raise ScenarioError("align_depth must be >= 0")
        if not 0.0 <= self.loc_error <= 1.0:
            raise ScenarioError("loc_error must lie in [0, 1]")
        if self.ttl_factor <= 0:
            raise ScenarioError("ttl_factor must be positive")
        if self.seed < 0:
            raise ScenarioError("seed must be >= 0")
        if self.sample < 0:
            raise ScenarioError("sample budget must be >= 0")
        if isinstance(self.anchors, str):
            if self.anchors != "corners":
                raise ScenarioError("anchors must be 'corners' or an id tuple")
            if not 3 <= self.dims <= 4:
                raise ScenarioError("corner anchors support 3 or 4 dims")
        else:
            try:
                AnchorSet(self.anchors)
            except CoordsError as e:
                raise ScenarioError(str(e)) from None
            if min(self.anchors) < 0:
                raise ScenarioError("anchor ids must be >= 0")

    def scenario_id(self) -> str:
        tag = hashlib.md5(repr(self).encode()).hexdigest()[:8]
        radio_range = self.radio_range
        if self.deployment == "grid":
            base = f"grid{self.rows}x{self.cols}"
        elif self.deployment == "random":
            base = f"rand{self.n}"
        else:
            base, radio_range = "abc", ABC_RADIO_RANGE  # the fixture ignores radio_range
        return f"{base}-r{radio_range:g}-{self.protocol}-{tag}"

    @property
    def spec(self) -> ProtocolSpec:
        return PROTOCOL_SPECS[self.protocol]


@dataclass
class Scenario:
    """A built scenario: topology, coordinate systems, routing context, pairs.

    ``vc`` and ``av`` are None for geographic protocols; otherwise ``av`` is
    the configured alignment of ``vc``, a float copy of it at depth 0.
    """

    config: ScenarioConfig
    topology: Topology
    vc: VirtualCoords | None
    av: AlignedCoords | None
    ctx: RoutingContext
    removed_nodes: int = 0
    # (srcs, dsts, hops) of the pairs evaluation routes; None from ``routing``.
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @classmethod
    def routing(cls, config: ScenarioConfig) -> "Scenario":
        """Topology, coordinates, TTL and routing context, without the pairs."""
        removed, anchors = 0, None
        if config.deployment == "abc-fixture":
            t, vc = fixture_abc()
        else:
            if config.deployment == "grid":
                dep = generate_grid(config.rows, config.cols, config.spacing)
            else:
                dep = generate_random(config.n, config.width, config.height, config.seed)
            before = dep.n
            dep = carve_voids(dep, list(config.voids))
            removed = before - dep.n
            t = build_udg(dep, config.radio_range)
            vc = None
            if config.spec.coords != CoordSource.GEO:
                if isinstance(config.anchors, tuple):
                    anchors = AnchorSet(config.anchors)
                else:
                    anchors = corner_anchors(t, config.dims)
        # One search gives the anchors' coordinates and the diameter's first bounds.
        rows = seed_rows(t, () if anchors is None else anchors.ids)
        if anchors is not None:
            vc = build_vcs(t, anchors, rows)
        av = None if vc is None else align(vc, t, config.align_depth, config.align_rule)
        ctx = RoutingContext(
            topology=t,
            geo_positions=perturb_positions(t, config.loc_error, config.seed + _PERTURB_SALT),
            ttl=max(1, math.ceil(config.ttl_factor * hop_diameter(t, rows))),
            vc=vc,
            av=av,
            distance_kind=config.distance if config.distance != "geo" else "euclid",
            semi_weight=config.semi_weight,
        )
        return cls(config=config, topology=t, vc=vc, av=av, ctx=ctx, removed_nodes=removed)

    @classmethod
    def build(cls, config: ScenarioConfig) -> "Scenario":
        """The routing scenario and its pairs: what evaluation reads."""
        sc = cls.routing(config)
        sc.pairs = _pairs(sc)
        return sc

    def hop_matrix(self) -> np.ndarray:
        """All-pairs hop distances (int32, -1 across components).

        Nothing in routesim calls this O(n^2) matrix: building and
        evaluating a scenario use ``pair_hops`` on the pairs they need.  It
        stays only because the benchmark tracer (``perfbench/tracer.py``)
        wraps it by name; it can go once the tracer reads spans recorded
        inside routesim instead.  Row i is node i's ``hop_rows`` row, which
        is column i too, since the graph is symmetric.
        """
        return hop_rows(self.topology, np.arange(self.topology.n))

    @property
    def effective_depth(self) -> int:
        if self.config.spec.coords == CoordSource.ALIGNED:
            return self.av.depth
        return 0

    @property
    def coord_system(self) -> str:
        return self.config.spec.coord_system or ("avcs" if self.effective_depth > 0 else "vcs")

    @property
    def distance_label(self) -> str:
        spec = self.config.spec
        return spec.distance_label or spec.distance or self.ctx.distance_kind


# MetricsRow's real-valued fields; NaN marks an undefined metric.
_REAL_FIELDS = (
    "mean_degree", "greedy_ratio", "delivery_ratio",
    "stretch_greedy", "stretch_all", "stretch_complementary",
)


@dataclass(frozen=True, eq=False)
class MetricsRow:
    """Aggregated outcome of one scenario evaluation.

    Real-valued fields hold Python floats.  Rows compare equal when every
    field does, with undefined (NaN) metrics equal to each other.
    """

    scenario_id: str
    protocol: str
    coord_system: str
    distance: str
    align_depth: int
    mean_degree: float
    pairs: int
    greedy_ratio: float
    delivery_ratio: float
    stretch_greedy: float
    stretch_all: float
    stretch_complementary: float
    excluded_pairs: int = 0
    failures: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        for name in _REAL_FIELDS:
            object.__setattr__(self, name, float(getattr(self, name)))

    def _key(self) -> tuple:
        return tuple(
            None if isinstance(v, float) and math.isnan(v) else v
            for v in (getattr(self, f.name) for f in fields(self))
        )

    def __eq__(self, other):
        return isinstance(other, MetricsRow) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def csv_row(self) -> str:
        return (
            f"{self.scenario_id},{self.protocol},{self.coord_system},{self.distance},"
            f"{self.align_depth},{self.mean_degree:.6f},{self.pairs},"
            f"{self.greedy_ratio:.6f},{self.delivery_ratio:.6f},"
            f"{self.stretch_greedy:.6f},{self.stretch_all:.6f},{self.stretch_complementary:.6f}"
        )


class _Outcomes(NamedTuple):
    """Outcomes of a run of destination groups, per pair in (dst, src) order.

    No pair has src == dst, so a pair was delivered exactly when its hops
    are above 0.
    """

    greedy: np.ndarray       # delivered by greedy alone
    hops: np.ndarray         # int32 length of the delivered route, else 0
    failures: Counter        # cause -> reachable pairs that were not delivered
    episodes: np.ndarray     # complementary episodes as rows (dst, entry, end, hops)


# A destination group with k reachable sources among n nodes is routed by
# greedy_lockstep when k * k < LOCKSTEP_CROSSOVER * n, else by one greedy
# forest over all n nodes.  Lockstep work grows with k times the route
# length, which grows like sqrt(n) on a planar deployment of fixed density;
# the forest's grows with n.  The constant is the measured crossover of the
# two on a 50x50 grid; a random 5000-node deployment crosses a little lower
# (CHANGES.md).  It never changes the outcomes.
LOCKSTEP_CROSSOVER = 0.5


def _eval_run(sc: Scenario, lo: int, hi: int) -> _Outcomes:
    """Route the pairs [lo, hi) of ``sc.pairs``, whole destination groups.

    A destination's group is its run of pairs in the slice.  Greedy
    outcomes of every pair come from the bulk kernels: the sparse groups of
    the run share greedy_lockstep batches, each dense group gets its own
    greedy_forest.  Their ``stop`` alone tells the outcome: dst when greedy
    delivered, the stall node u, or -1 when the TTL ended the walk (-1 too
    for an unreachable pair, which no kernel routes).  A recovery protocol
    then resumes each pair that greedy did not deliver where its greedy
    walk stopped, as ``_engine``'s continuation: every engine is
    greedy_route plus an episode at a local minimum and checks the TTL
    before each hop, so from u, with the ttl - p hops a greedy prefix of p
    hops left, it routes the rest of the pair's route.

    A gpsr or bvr continuation is ``route`` from u, under the whole TTL, so
    it depends only on u and dst and runs once per (u, dst).  Its c hops
    then hold for each pair that stalled at u with c <= ttl - p: the pair's
    hops are p + c, with the continuation's outcome and episodes.  Any
    other pair is ttl-exceeded, as its TTL check at ttl - p hops fires
    before the continuation ends.  lcr, whose search starts with the prefix
    as its visited set, and a pair whose prefix used the whole TTL (stop
    -1) keep the route from the source: the key is (src, dst) with p = 0.
    Episodes come out per pair in (dst, src) order.  A destination's field
    is built once, only for a dense group or a stalled pair, and is
    released when the next group's replaces it.
    """
    spec = sc.config.spec
    t = sc.topology
    ttl = sc.ctx.ttl
    srcs, dsts, sp = (a[lo:hi] for a in sc.pairs)
    reach = sp >= 0
    if spec.recovery == Recovery.SHORTEST_PATH:
        return _Outcomes(reach, np.where(reach, sp, 0), Counter(),
                         np.empty((0, 4), dtype=np.int64))
    first = np.diff(dsts, prepend=-1) != 0
    group_of = np.cumsum(first) - 1
    bounds = np.flatnonzero(first).tolist() + [len(dsts)]
    sources = np.bincount(group_of[reach], minlength=len(bounds) - 1)
    lock = sources * sources < LOCKSTEP_CROSSOVER * t.n
    hops = np.zeros(len(sp), dtype=np.int32)
    stop = np.full(len(sp), -1, dtype=np.int64)
    pick = reach & lock[group_of]
    hops[pick], stop[pick] = greedy_lockstep(
        srcs[pick], dsts[pick], *sc.ctx.field_inputs(sc.config.protocol), t, ttl)
    recover = spec.recovery != Recovery.NONE
    resume = spec.recovery != Recovery.BACKTRACK

    def keyed(pairs):
        """Each stalled pair's key, group * n + the node its continuation
        starts at, and the greedy prefix before that node."""
        at = (stop[pairs] >= 0) & resume
        return (group_of[pairs] * t.n + np.where(at, stop[pairs], srcs[pairs]),
                np.where(at, hops[pairs], 0))

    active = ~lock
    if recover:
        lock_keys = np.unique(keyed(np.flatnonzero(pick & (stop != dsts)))[0])
        key_bounds = np.searchsorted(lock_keys, np.arange(len(bounds)) * t.n)
        active[lock_keys // t.n] = True
    # One row per continuation, keys ascending: key, hops, failure code (-1
    # when delivered) and the number of its episodes in ``found``.
    ran = []
    causes = {Failure.TTL_EXCEEDED: 0}
    found = []
    for g in np.flatnonzero(active).tolist():
        start, end = bounds[g], bounds[g + 1]
        dst = int(dsts[start])
        dfield = sc.ctx.dfield(sc.config.protocol, dst)
        if lock[g]:
            keys = lock_keys[key_bounds[g]:key_bounds[g + 1]]
        else:
            pairs = np.flatnonzero(reach[start:end]) + start
            hops[pairs], stop[pairs] = (a[srcs[pairs]] for a in greedy_forest(dfield, t, dst, ttl))
            if not recover:
                continue
            keys = np.unique(keyed(pairs[stop[pairs] != dst])[0])
        engine = _engine(sc, dst, dfield)
        base = g * t.n
        for key in keys.tolist():
            rr = engine(key - base)
            if rr.delivered:
                episodes = list(_episodes(rr))
                found.extend(episodes)
                ran.append((key, rr.hops, -1, len(episodes)))
            else:
                ran.append((key, rr.hops, causes.setdefault(rr.failure_cause, len(causes)), 0))
    greedy = stop == dsts
    if not recover:
        timed = stop[reach & ~greedy] < 0
        failures = Counter()
        failures[Failure.TTL_EXCEEDED] = int(np.count_nonzero(timed))
        failures[Failure.LOCAL_MINIMUM] = len(timed) - failures[Failure.TTL_EXCEEDED]
        hops[~greedy] = 0
        return _Outcomes(greedy, hops, failures, np.empty((0, 4), dtype=np.int64))
    # Fan each continuation's outcome out to the pairs that share its key.
    stalled = np.flatnonzero(reach & ~greedy)
    key, prefix = keyed(stalled)
    ran_keys, ran_hops, ran_cause, ran_count = np.array(ran, dtype=np.int64).reshape(-1, 4).T
    of = np.searchsorted(ran_keys, key)
    c, cause = ran_hops[of], ran_cause[of]
    fits = c <= ttl - prefix
    done = fits & (cause < 0)
    hops[stalled] = np.where(done, prefix + c, 0)
    failed = np.bincount(np.where(fits, cause, 0)[~done], minlength=len(causes))
    # Each delivered pair's rows of ``found``, pair after pair.
    count = ran_count[of[done]]
    first_row = (np.cumsum(ran_count) - ran_count)[of[done]]
    rows = np.repeat(first_row - (np.cumsum(count) - count), count) + np.arange(count.sum())
    episodes = np.column_stack((np.repeat(dsts[stalled[done]], count),
                                np.array(found, dtype=np.int64).reshape(-1, 3)[rows]))
    return _Outcomes(greedy, hops, Counter(dict(zip(causes, failed.tolist()))), episodes)


def _engine(sc: Scenario, dst: int, dfield: np.ndarray):
    """The recovery protocol's engine toward dst, as a function of the start node.

    It routes under the scenario's TTL, as ``route`` does.  Called at the
    node where a greedy walk stalled, it is the continuation of every route
    that stalled there; called at a source, it is that source's route.
    Engines are called by this module's names, with (src, dst) first, so
    they can be traced.
    """
    spec = sc.config.spec
    t = sc.topology
    ttl = sc.ctx.ttl
    if spec.recovery == Recovery.PERIMETER:
        faces = sc.ctx.faces(spec.planar)
        return lambda src: gpsr_route(src, dst, dfield, faces, t, ttl)
    if spec.recovery == Recovery.BACKTRACK:
        return lambda src: lcr_route(src, dst, dfield, t, ttl)
    trees = sc.ctx.beacons
    return lambda src: bvr_route(src, dst, dfield, trees, t, ttl)


def _episodes(rr):
    """Complementary episodes of a delivered route, as (entry, end, hops).

    An episode is a maximal run of non-greedy hops; its stretch compares the
    hops it spent against the shortest path between the nodes where it began
    and ended.  Episodes that end where they started carry no defined stretch
    and are skipped.
    """
    at = 0
    for greedy, run in groupby(rr.modes, key=lambda mode: mode == Mode.GREEDY):
        length = len(list(run))
        if not greedy and rr.path[at] != rr.path[at + length]:
            yield rr.path[at], rr.path[at + length], length
        at += length


def _ordered_sum(x: np.ndarray, keys: np.ndarray) -> float:
    """Sum of x as a per-group loop adds it, groups being runs of equal keys.

    Values are added left to right within each group, then the group sums
    left to right, so the float result is that of a serial per-destination
    accumulation, however the pairs were spread over workers.  Column j adds
    the j-th value of every group at once.  np.sum and np.add.reduceat add
    pairwise and math.fsum (like builtin sum from Python 3.12) compensates,
    so none of them gives these bits.
    """
    starts = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1))
    sizes = np.diff(starts, append=len(keys))
    part = np.zeros(len(starts))
    for j in range(int(sizes.max(initial=0))):
        has = sizes > j
        part[has] += x[starts[has] + j]
    total = 0.0
    for p in part.tolist():
        total += p
    return total


def _complementary_stretch(t: Topology, episodes: np.ndarray) -> float:
    """Mean stretch of (dst, entry, end, hops) episodes (NaN without episodes).

    One oracle call over every episode gives the denominators.
    """
    if not len(episodes):
        return float("nan")
    dst, entry, end, hops = episodes.T
    return _ordered_sum(hops / pair_hops(t, end, entry), dst) / len(episodes)


# Destinations per block of the all-pairs oracle: one uint64 word per node,
# which keeps a block's rows small beside the n(n-1) result.
_ORACLE_BLOCK = 64


def _pairs(sc: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(srcs, dsts, shortest-path hops, -1 across components) of every ordered
    pair, or of the config's sample of them, sorted by (dst, src)."""
    n = sc.topology.n
    total = n * (n - 1)
    if 0 < sc.config.sample < total:
        rng = np.random.default_rng([sc.config.seed, _SAMPLE_SALT])
        # Pair id k = dst * (n - 1) + (rank of src among the other nodes), so
        # ascending k is ascending (dst, src).
        ks = np.sort(rng.choice(total, size=sc.config.sample, replace=False))
        dsts, srcs = np.divmod(ks, n - 1)
        srcs += srcs >= dsts
        return srcs, dsts, pair_hops(sc.topology, srcs, dsts)
    # All pairs, a block of destinations at a time: a destination's hop_rows
    # row, less its own entry, holds its pairs in source order (the graph is
    # symmetric).  Only one block's rows are held at once.
    nodes = np.arange(n)
    other = nodes != nodes[:, None]
    dsts, srcs = np.nonzero(other)
    hops = np.empty(total, dtype=np.int32)
    for lo in range(0, n, _ORACLE_BLOCK):
        hi = min(lo + _ORACLE_BLOCK, n)
        hops[lo * (n - 1):hi * (n - 1)] = hop_rows(sc.topology, nodes[lo:hi])[other[lo:hi]]
    return srcs, dsts, hops


def evaluate(config: ScenarioConfig, workers: int = 1) -> MetricsRow:
    """Build the scenario and route every (or each sampled) ordered pair."""
    sc = Scenario.build(config)
    return evaluate_scenario(sc, workers=workers)


def evaluate_scenario(sc: Scenario, workers: int = 1) -> MetricsRow:
    """Route the pairs of a built scenario; the scenario is only read."""
    if sc.pairs is None:
        raise ScenarioError("scenario has no pairs to evaluate: build it with Scenario.build")
    _, dsts, sp = sc.pairs
    if workers <= 1 or not len(dsts):
        runs = [_eval_run(sc, 0, len(dsts))]
    else:
        runs = _parallel_eval(sc, workers)
    greedy = np.concatenate([run.greedy for run in runs])
    hops = np.concatenate([run.hops for run in runs])
    failures: Counter = Counter()
    for run in runs:
        failures += run.failures      # keeps positive counts only

    pairs = int(np.count_nonzero(sp >= 0))
    n_greedy = int(np.count_nonzero(greedy))
    n_delivered = int(np.count_nonzero(hops))
    # 0.0 where not delivered (hops 0); -0.0 where excluded (sp -1), and x + -0.0 is x
    stretch = hops / sp
    ratio = lambda a, b: a / b if b else float("nan")
    cfg = sc.config
    return MetricsRow(
        scenario_id=cfg.scenario_id(),
        protocol=cfg.protocol,
        coord_system=sc.coord_system,
        distance=sc.distance_label,
        align_depth=sc.effective_depth,
        mean_degree=sc.topology.mean_degree,
        pairs=pairs,
        greedy_ratio=ratio(n_greedy, pairs),
        delivery_ratio=ratio(n_delivered, pairs),
        stretch_greedy=ratio(_ordered_sum(np.where(greedy, stretch, 0.0), dsts), n_greedy),
        stretch_all=ratio(_ordered_sum(stretch, dsts), n_delivered),
        stretch_complementary=_complementary_stretch(
            sc.topology, np.concatenate([run.episodes for run in runs])),
        excluded_pairs=len(sp) - pairs,
        failures=tuple(sorted(failures.items())),
    )


# Inherited by forked workers: the scenario whose pairs they route.
_FORK_SCENARIO: Scenario | None = None


def _fork_worker(run: tuple[int, int]) -> _Outcomes:
    return _eval_run(_FORK_SCENARIO, *run)


def _parallel_eval(sc: Scenario, workers: int) -> list[_Outcomes]:
    """Fork-based pool over pair ranges cut at destination starts, each
    evaluated as a serial run is; runs come back in ascending dst order, so
    the reduced result is byte-identical to a serial run."""
    import multiprocessing as mp

    global _FORK_SCENARIO
    _, dsts, _ = sc.pairs
    starts = np.flatnonzero(np.diff(dsts, prepend=-1))
    cuts = starts[::max(1, -(-len(starts) // (workers * 4)))].tolist() + [len(dsts)]
    runs = list(zip(cuts, cuts[1:]))
    _FORK_SCENARIO = sc
    try:
        with mp.get_context("fork").Pool(processes=min(workers, len(runs))) as pool:
            return pool.map(_fork_worker, runs, chunksize=1)
    finally:
        _FORK_SCENARIO = None


# --- sweeps ---------------------------------------------------------------


def _central_disc(config: ScenarioConfig, radius: float) -> VoidSpec:
    """Disc at the canonical deployment center (a grid-cell center for grids)."""
    if config.deployment == "grid":
        cx = (config.cols / 2 - 0.5) * config.spacing
        cy = (config.rows / 2 - 0.5) * config.spacing
    else:
        cx, cy = config.width / 2, config.height / 2
    return VoidSpec("disc", (cx, cy), radius=radius)


def _bounds(config: ScenarioConfig) -> tuple[float, float]:
    if config.deployment == "grid":
        return config.cols * config.spacing, config.rows * config.spacing
    return config.width, config.height


def _apply_axis(base: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    value = SWEEP_AXES[axis](value)
    if axis in _AXIS_FIELDS:
        return replace(base, **{_AXIS_FIELDS[axis]: value})
    if axis == "void_size":
        if not value >= 0:
            raise ScenarioError("void_size must be >= 0")
        return replace(base, voids=(_central_disc(base, value),) if value > 0 else ())
    # hole_count
    if not 0 <= value <= len(_HOLE_CENTERS):
        raise ScenarioError(f"hole_count must be in [0, {len(_HOLE_CENTERS)}]")
    radius = next((v.radius for v in base.voids if v.kind == "disc"), 2.0)
    w, h = _bounds(base)
    voids = tuple(
        VoidSpec("disc", (fx * w, fy * h), radius=radius) for fx, fy in _HOLE_CENTERS[:value]
    )
    return replace(base, voids=voids)


def sweep(
    base: ScenarioConfig, axis: str, values: Iterable, workers: int = 1
) -> tuple[list[MetricsRow], list[tuple[object, str]]]:
    """One evaluation per axis value; seed sweeps append mean and stddev rows.

    Per-point failures are collected and returned; the sweep keeps going.
    """
    if axis not in SWEEP_AXES:
        raise ScenarioError(f"unknown sweep axis {axis!r}")
    rows: list[MetricsRow] = []
    errors: list[tuple[object, str]] = []
    for v in values:
        try:
            rows.append(evaluate(_apply_axis(base, axis, v), workers=workers))
        except (ScenarioError, CoordsError, TopologyError) as e:
            errors.append((v, str(e)))
    if axis == "seed" and rows:
        rows.extend(_seed_summary(rows))
    return rows, errors


def _nanmean(a: np.ndarray) -> float:
    a = a[~np.isnan(a)]
    return float(a.mean()) if len(a) else float("nan")


def _seed_summary(rows: list[MetricsRow]) -> list[MetricsRow]:
    first = rows[0]
    return [
        replace(first, scenario_id=f"{first.scenario_id}-{tag}", pairs=sum(r.pairs for r in rows),
                excluded_pairs=0, failures=(),
                **{f: fn(np.array([getattr(r, f) for r in rows], dtype=float)) for f in _REAL_FIELDS})
        for tag, fn in (("mean", _nanmean), ("std", _nanstd))
    ]


def _nanstd(a: np.ndarray) -> float:
    a = a[~np.isnan(a)]
    if len(a) < 2:
        return float("nan")
    return float(np.std(a, ddof=1))


# --- distance maps ---------------------------------------------------------


@dataclass(frozen=True)
class DistanceMap:
    """Per-node coordinate distance to one destination, on true positions."""

    dst: int
    positions: np.ndarray       # true positions, for plotting
    dist: np.ndarray            # coordinate distance to V(dst); dst entry is 0
    local_minima: tuple[int, ...]  # nodes (except dst) with an empty forwarding set

    def csv(self) -> str:
        lines = ["x,y,dist,is_local_min"]
        minima = set(self.local_minima)
        for i, (x, y) in enumerate(self.positions):
            lines.append(f"{x:.6f},{y:.6f},{self.dist[i]:.6f},{1 if i in minima else 0}")
        return "\n".join(lines) + "\n"


def distance_map(config: ScenarioConfig, dst: int) -> DistanceMap:
    """Field of coordinate distances toward ``dst`` plus its local minima.

    The destination's own entry is zero by definition (arrival is by node
    identity, not by coordinate equality).
    """
    sc = Scenario.routing(config)
    if not 0 <= dst < sc.topology.n:
        raise ScenarioError(f"destination {dst} does not exist")
    dfield = sc.ctx.dfield(config.protocol, dst)
    # A TTL of n cuts no walk, so every node whose walk stops at itself is
    # dst or a local minimum.
    stop = greedy_forest(dfield, sc.topology, dst, sc.topology.n)[1]
    minima = tuple(int(u) for u in np.flatnonzero(stop == np.arange(len(stop))) if u != dst)
    shown = dfield.copy()
    shown[dst] = 0.0
    return DistanceMap(
        dst=dst,
        positions=sc.topology.positions,
        dist=shown,
        local_minima=minima,
    )


# --- the three-node counterexample fixture ---------------------------------

# Virtual coordinate vectors the fixture realizes (A, B, C are neighbors in a
# chain, yet C's forwarding set toward A is empty under both the Euclidean and
# the Manhattan coordinate distance).
ABC_A, ABC_B, ABC_C = 0, 1, 2
ABC_RADIO_RANGE = 1.0
ABC_VECTORS = {
    ABC_A: (3, 9, 7, 11),
    ABC_B: (2, 9, 8, 11),
    ABC_C: (3, 8, 8, 11),
}


def fixture_abc() -> tuple[Topology, VirtualCoords]:
    """Chain A-B-C plus filler paths realizing the counterexample vectors.

    The graph is specified combinatorially (anchor arms of exact lengths) and
    carries synthetic layered positions: no placement of these hop counts on
    a plain unit-disk deployment exists, so the topology is explicitly
    non-geometric.  Construction is self-verified against build_vcs.
    """
    edges: list[tuple[int, int]] = []
    n_nodes = 5  # A, B, C, relay above B, first anchor
    relay = 3
    anchor1 = 4
    edges += [(ABC_A, ABC_B), (ABC_B, ABC_C), (ABC_B, relay), (relay, anchor1)]

    def new_node() -> int:
        nonlocal n_nodes
        n_nodes += 1
        return n_nodes - 1

    def arm(frm: int, to: int, length: int) -> None:
        """Simple path of ``length`` edges from ``frm`` to ``to`` via fresh nodes."""
        prev = frm
        for _ in range(length - 1):
            nxt = new_node()
            edges.append((prev, nxt))
            prev = nxt
        edges.append((prev, to))

    anchor2 = new_node()
    arm(anchor2, ABC_A, 9)
    arm(anchor2, ABC_C, 8)
    anchor3 = new_node()
    arm(anchor3, ABC_A, 7)
    arm(anchor3, ABC_C, 8)
    anchor4 = new_node()
    arm(anchor4, anchor1, 9)   # B is two hops past anchor1's relay chain
    arm(anchor4, ABC_A, 11)
    arm(anchor4, ABC_C, 11)

    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for u, v in edges:
        adj[u].append(v)

    scaffold = topology_from_adjacency(np.zeros((n_nodes, 2)), adj)
    positions = _layered_positions(hop_rows(scaffold, [ABC_A])[0])
    t = topology_from_adjacency(positions, adj, radio_range=ABC_RADIO_RANGE)
    vc = build_vcs(t, AnchorSet((anchor1, anchor2, anchor3, anchor4)))
    for node, expected in ABC_VECTORS.items():
        got = tuple(int(x) for x in vc.matrix[node])
        if got != expected:
            raise AssertionError(f"fixture node {node}: got {got}, expected {expected}")
    return t, vc


def _layered_positions(depth: np.ndarray) -> np.ndarray:
    """Deterministic plotting layout: x = hops from node A, y = rank in layer."""
    counts: Counter = Counter()
    pos = np.zeros((len(depth), 2))
    for u, d in enumerate(np.maximum(depth, 0).tolist()):
        pos[u] = (2.0 * d, 2.0 * counts[d])
        counts[d] += 1
    return pos
