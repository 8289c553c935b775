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
    geo_view,
    hop_counts,
    hop_diameter,
    pair_hops,
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
from routesim.routing.greedy import greedy_lockstep, greedy_successors, greedy_walks
from routesim.topology import (
    PerceivedPositions,
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

SWEEP_AXES = ("radio_range", "void_size", "hole_count", "align_depth", "error_fraction", "seed")

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

    def scenario_id(self) -> str:
        tag = hashlib.md5(repr(self).encode()).hexdigest()[:8]
        if self.deployment == "grid":
            base = f"grid{self.rows}x{self.cols}"
        elif self.deployment == "random":
            base = f"rand{self.n}"
        else:
            base = "abc"
        return f"{base}-r{self.radio_range:g}-{self.protocol}-{tag}"

    @property
    def spec(self) -> ProtocolSpec:
        return PROTOCOL_SPECS[self.protocol]


@dataclass
class Scenario:
    """A fully built scenario: topology, coordinate systems, routing context."""

    config: ScenarioConfig
    topology: Topology
    perceived: PerceivedPositions | None
    anchors: AnchorSet | None
    vc: VirtualCoords | None
    av: AlignedCoords | None
    ctx: RoutingContext
    removed_nodes: int = 0
    # Shortest-path hops of the pairs _sampled_pairs yields, in that order.
    sampled_hops: np.ndarray | None = field(default=None, repr=False)
    _hops: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def build(cls, config: ScenarioConfig) -> "Scenario":
        removed = 0
        if config.deployment == "abc-fixture":
            t, vc = fixture_abc()
            anchors: AnchorSet | None = vc.anchors
            perceived = None
        else:
            if config.deployment == "grid":
                dep = generate_grid(config.rows, config.cols, config.spacing)
            else:
                dep = generate_random(config.n, config.width, config.height, config.seed)
            before = dep.n
            dep = carve_voids(dep, list(config.voids))
            removed = before - dep.n
            t = build_udg(dep, config.radio_range)
            perceived = None
            if config.loc_error > 0:
                perceived = perturb_positions(t, config.loc_error, config.seed + _PERTURB_SALT)
            anchors = None
            vc = None
            if config.spec.coords != CoordSource.GEO:
                if isinstance(config.anchors, tuple):
                    anchors = AnchorSet(config.anchors)
                else:
                    anchors = corner_anchors(t, config.dims)
                vc = build_vcs(t, anchors)
        av = None
        if vc is not None and config.align_depth > 0:
            av = align(vc, t, config.align_depth, config.align_rule)

        sc = cls(
            config=config,
            topology=t,
            perceived=perceived,
            anchors=anchors,
            vc=vc,
            av=av,
            ctx=None,  # type: ignore[arg-type]
            removed_nodes=removed,
        )
        ttl = max(1, math.ceil(config.ttl_factor * sc.diameter()))
        sc.ctx = RoutingContext(
            topology=t,
            geo_positions=geo_view(t, perceived),
            ttl=ttl,
            vc=vc,
            av=av,
            distance_kind=config.distance if config.distance != "geo" else "euclid",
            semi_weight=config.semi_weight,
        )
        sc.sampled_hops = _sampled_hops(sc)
        return sc

    def hop_matrix(self) -> np.ndarray:
        """All-pairs hop distances (float, inf across components); cached.

        Nothing in routesim calls this O(n^2) matrix: building and
        evaluating a scenario use ``pair_hops`` on the pairs they need.  It
        stays only because the benchmark tracer (``perfbench/tracer.py``)
        wraps it by name; it can go once the tracer reads spans recorded
        inside routesim instead.
        """
        if self._hops is None:
            n = self.topology.n
            nodes = np.arange(n)
            self._hops = pair_hops(self.topology, np.repeat(nodes, n), np.tile(nodes, n)).reshape(n, n)
        return self._hops

    def diameter(self) -> int:
        """Largest finite hop distance over all components."""
        return hop_diameter(self.topology)

    @property
    def effective_depth(self) -> int:
        if self.config.spec.coords == CoordSource.ALIGNED and self.av is not None:
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
    """Outcomes of a run of destination groups, per pair in (dst, src) order."""

    greedy: np.ndarray       # delivered by greedy alone
    delivered: np.ndarray
    hops: np.ndarray         # length of the delivered route, else 0
    failures: Counter        # cause -> reachable pairs that were not delivered
    episodes: np.ndarray     # complementary episodes as rows (dst, entry, end, hops)


# A destination group with k reachable sources among n nodes is routed by
# greedy_lockstep when k * k < LOCKSTEP_CROSSOVER * n, else by one greedy
# forest over all n nodes.  Lockstep work grows with k times the route
# length, which grows like sqrt(n) on a planar deployment of fixed density;
# the forest's grows with n.  The constant is the measured crossover of the
# two (CHANGES.md).
LOCKSTEP_CROSSOVER = 0.25


def _eval_run(sc: Scenario, srcs: np.ndarray, groups: list[tuple[int, int, int]]) -> _Outcomes:
    """Route a contiguous run of destination groups.

    A group ``(dst, lo, hi)`` holds the pairs ``(srcs[i], dst)`` for i in
    [lo, hi), with shortest-path hops ``sc.sampled_hops[i]``.  Greedy
    outcomes of every pair come from the bulk kernels: the sparse groups of
    the run share greedy_lockstep batches, each dense group gets its own
    greedy forest.  Recovery protocols then run their per-pair engine on the
    pairs greedy did not deliver, which is exact: every engine is
    greedy_route plus an episode at a local minimum.  A destination's field
    is built once, only for a dense group or a stalled pair, and is released
    when the next group's replaces it.
    """
    spec = sc.config.spec
    t = sc.topology
    ttl = sc.ctx.ttl
    base, end = (groups[0][1], groups[-1][2]) if groups else (0, 0)
    sp = sc.sampled_hops[base:end]
    reach = np.isfinite(sp)
    if spec.recovery == Recovery.SHORTEST_PATH:
        return _Outcomes(reach, reach, np.where(reach, sp, 0).astype(np.int64), Counter(),
                         np.empty((0, 4), dtype=np.int64))
    run_srcs = srcs[base:end]
    sizes = np.array([hi - lo for _, lo, hi in groups], dtype=np.int64)
    group_of = np.repeat(np.arange(len(groups)), sizes)
    sources = np.bincount(group_of[reach], minlength=len(groups))
    lock = sources * sources < LOCKSTEP_CROSSOVER * t.n
    greedy = np.zeros(len(sp), dtype=bool)
    hops = np.zeros(len(sp), dtype=np.int64)
    timed_out = np.zeros(len(sp), dtype=bool)
    pick = reach & lock[group_of]
    if pick.any():
        dsts = np.repeat([dst for dst, _, _ in groups], sizes)
        greedy[pick], hops[pick], timed_out[pick] = greedy_lockstep(
            run_srcs[pick], dsts[pick], *sc.ctx.field_inputs(sc.config.protocol), t, ttl)
    recover = spec.recovery != Recovery.NONE
    active = ~lock
    if recover:
        active |= np.bincount(group_of[reach & ~greedy], minlength=len(groups)) > 0
    rescued = np.zeros(len(sp), dtype=bool)
    failures: Counter = Counter()
    episodes = []
    for g in np.flatnonzero(active).tolist():
        dst, lo, hi = groups[g]
        pairs = np.flatnonzero(reach[lo - base:hi - base]) + (lo - base)
        dfield = sc.ctx.dfield(sc.config.protocol, dst)
        if not lock[g]:
            walks = greedy_walks(greedy_successors(dfield, t, dst), dst, ttl)
            greedy[pairs], hops[pairs], timed_out[pairs] = (a[run_srcs[pairs]] for a in walks)
        stalled = pairs[~greedy[pairs]].tolist()
        if not recover or not stalled:
            continue
        engine = _engine(sc, dst, dfield)
        for i in stalled:
            rr = engine(int(run_srcs[i]))
            if rr.delivered:
                rescued[i] = True
                hops[i] = rr.hops
                episodes.extend((dst, *ep) for ep in _episodes(rr))
            else:
                failures[rr.failure_cause] += 1
    if not recover:
        timed = timed_out[reach & ~greedy]
        failures[Failure.TTL_EXCEEDED] = int(np.count_nonzero(timed))
        failures[Failure.LOCAL_MINIMUM] = len(timed) - failures[Failure.TTL_EXCEEDED]
    delivered = greedy | rescued
    return _Outcomes(greedy, delivered, np.where(delivered, hops, 0), failures,
                     np.array(episodes, dtype=np.int64).reshape(-1, 4))


def _engine(sc: Scenario, dst: int, dfield: np.ndarray):
    """The recovery protocol's per-pair engine toward dst, as a function of src.

    Engines are called by this module's names so they can be traced.
    """
    spec = sc.config.spec
    t = sc.topology
    ttl = sc.ctx.ttl
    if spec.recovery == Recovery.PERIMETER:
        pg = sc.ctx.planar(spec.planar)
        pos = sc.ctx.geo_positions
        return lambda src: gpsr_route(src, dst, pos, pg, t, ttl, dfield=dfield)
    if spec.recovery == Recovery.BACKTRACK:
        return lambda src: lcr_route(src, dst, dfield, t, ttl)
    return lambda src: bvr_route(src, dst, dfield, sc.vc, t, ttl)


def _episodes(rr):
    """Complementary episodes of a delivered route, as (entry, end, hops).

    An episode is a maximal run of non-greedy hops; its stretch compares the
    hops it spent against the shortest path between the nodes where it began
    and ended.  Episodes that end where they started carry no defined stretch
    and are skipped.
    """
    modes = rr.modes
    i = 0
    while i < len(modes):
        if modes[i] == Mode.GREEDY:
            i += 1
            continue
        j = i
        while j < len(modes) and modes[j] != Mode.GREEDY:
            j += 1
        entry, end = rr.path[i], rr.path[j]
        if entry != end:
            yield entry, end, j - i
        i = j


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


def _sampled_pairs(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Ordered (src, dst) pairs to evaluate, sorted by (dst, src)."""
    n = sc.topology.n
    budget = sc.config.sample
    total = n * (n - 1)
    if budget == 0 or budget >= total:
        ks = np.arange(total, dtype=np.int64)
    else:
        rng = np.random.default_rng([sc.config.seed, _SAMPLE_SALT])
        ks = np.sort(rng.choice(total, size=budget, replace=False))
    # Pair index k = dst * (n - 1) + (rank of src among the other nodes), so
    # ascending k is ascending (dst, src).
    dsts, srcs = np.divmod(ks, n - 1)
    srcs += srcs >= dsts
    return srcs, dsts


# Destinations per block of the all-pairs oracle: one uint64 word per node,
# which keeps a block's pair arrays small beside the n(n-1) result.
_ORACLE_BLOCK = 64


def _sampled_hops(sc: Scenario) -> np.ndarray:
    """Shortest-path hops of the pairs _sampled_pairs yields, in that order.

    All pairs are taken a block of destinations at a time, so besides the
    result only one block's pairs are held at once.
    """
    t = sc.topology
    n = t.n
    if 0 < sc.config.sample < n * (n - 1):
        return pair_hops(t, *_sampled_pairs(sc))
    out = np.empty(n * (n - 1))
    nodes = np.arange(n)
    for lo in range(0, n, _ORACLE_BLOCK):
        block = nodes[lo:lo + _ORACLE_BLOCK]
        h = pair_hops(t, np.tile(nodes, len(block)), np.repeat(block, n))
        out[lo * (n - 1):(lo + len(block)) * (n - 1)] = h[(nodes != block[:, None]).ravel()]
    return out


def evaluate(config: ScenarioConfig, workers: int = 1) -> MetricsRow:
    """Build the scenario and route every (or each sampled) ordered pair."""
    sc = Scenario.build(config)
    return evaluate_scenario(sc, workers=workers)


def evaluate_scenario(sc: Scenario, workers: int = 1) -> MetricsRow:
    srcs, dsts = _sampled_pairs(sc)
    bounds = np.flatnonzero(np.diff(dsts, prepend=-1)).tolist() + [len(dsts)]
    groups = [(int(dsts[lo]), lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if workers <= 1 or not groups:
        runs = [_eval_run(sc, srcs, groups)]
    else:
        runs = _parallel_eval(sc, srcs, groups, workers)
    greedy = np.concatenate([run.greedy for run in runs])
    delivered = np.concatenate([run.delivered for run in runs])
    hops = np.concatenate([run.hops for run in runs])
    failures: Counter = Counter()
    for run in runs:
        failures += run.failures      # keeps positive counts only

    sp = sc.sampled_hops
    pairs = int(np.count_nonzero(np.isfinite(sp)))
    n_greedy = int(np.count_nonzero(greedy))
    n_delivered = int(np.count_nonzero(delivered))
    # 0.0 for pairs that were not delivered: their hops are 0 (sp is inf for excluded ones)
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


# Inherited by forked workers: the scenario and the sources of its pairs.
_FORK_SCENARIO: Scenario | None = None
_FORK_SRCS: np.ndarray | None = None


def _fork_worker(run: list[tuple[int, int, int]]) -> _Outcomes:
    return _eval_run(_FORK_SCENARIO, _FORK_SRCS, run)


def _parallel_eval(sc: Scenario, srcs: np.ndarray, groups, workers: int) -> list[_Outcomes]:
    """Fork-based pool over contiguous runs of groups, each evaluated as a
    serial run is; runs come back in ascending dst order, so the reduced
    result is byte-identical to a serial run."""
    import multiprocessing as mp

    global _FORK_SCENARIO, _FORK_SRCS
    size = max(1, -(-len(groups) // (workers * 4)))
    runs = [groups[i:i + size] for i in range(0, len(groups), size)]
    _FORK_SCENARIO = sc
    _FORK_SRCS = srcs
    try:
        with mp.get_context("fork").Pool(processes=workers) as pool:
            return pool.map(_fork_worker, runs, chunksize=1)
    finally:
        _FORK_SCENARIO = None
        _FORK_SRCS = None


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
    if axis == "radio_range":
        return replace(base, radio_range=float(value))
    if axis == "void_size":
        if float(value) <= 0:
            return replace(base, voids=())
        return replace(base, voids=(_central_disc(base, float(value)),))
    if axis == "hole_count":
        k = int(value)
        if not 0 <= k <= len(_HOLE_CENTERS):
            raise ScenarioError(f"hole_count must be in [0, {len(_HOLE_CENTERS)}]")
        radius = base.voids[0].radius if base.voids else 2.0
        w, h = _bounds(base)
        voids = tuple(
            VoidSpec("disc", (fx * w, fy * h), radius=radius) for fx, fy in _HOLE_CENTERS[:k]
        )
        return replace(base, voids=voids)
    if axis == "align_depth":
        return replace(base, align_depth=int(value))
    if axis == "error_fraction":
        return replace(base, loc_error=float(value))
    if axis == "seed":
        return replace(base, seed=int(value))
    raise ScenarioError(f"unknown sweep axis {axis!r}")


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
    out = []
    for tag, fn in (("mean", _nanmean), ("std", _nanstd)):
        vals = {f: fn(np.array([getattr(r, f) for r in rows], dtype=float)) for f in _REAL_FIELDS}
        first = rows[0]
        out.append(
            MetricsRow(
                scenario_id=f"{first.scenario_id}-{tag}",
                protocol=first.protocol,
                coord_system=first.coord_system,
                distance=first.distance,
                align_depth=first.align_depth,
                pairs=sum(r.pairs for r in rows),
                **vals,
            )
        )
    return out


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
    sc = Scenario.build(config)
    if not 0 <= dst < sc.topology.n:
        raise ScenarioError(f"destination {dst} does not exist")
    dfield = sc.ctx.dfield(config.protocol, dst)
    succ = greedy_successors(dfield, sc.topology, dst)
    minima = tuple(int(u) for u in np.flatnonzero(succ == np.arange(len(succ))) if u != dst)
    shown = dfield.copy()
    shown[dst] = 0.0
    return DistanceMap(
        dst=dst,
        positions=sc.topology.positions,
        dist=shown,
        local_minima=minima,
    )


# Reference distance-map fixture: a 20x20 four-connected grid whose raw 4D
# coordinate field toward cell (2, 8) contains forwarding voids that one
# alignment round removes.  The anchor cells were found by seeded search
# (corner anchors provably admit no such void on a void-free grid: their
# hop counts embed the grid affinely, so every node keeps a strictly closer
# neighbor).  Node 84 = cell (4, 4) is one of the raw local minima.
FIG_MAP_ANCHORS = (114, 143, 326, 348)
FIG_MAP_DST = 162          # cell (x=2, y=8)
FIG_MAP_MINIMUM = 84       # cell (x=4, y=4)


def fig_map_config(protocol: str = "gf-vcs", align_depth: int = 0) -> ScenarioConfig:
    """Scenario for the forwarding-void distance maps (20x20 grid, 4D VCS)."""
    return ScenarioConfig(
        deployment="grid",
        rows=20,
        cols=20,
        spacing=1.0,
        radio_range=1.2,
        anchors=FIG_MAP_ANCHORS,
        protocol=protocol,
        align_depth=align_depth,
        distance="euclid",
    )


# --- the three-node counterexample fixture ---------------------------------

# Virtual coordinate vectors the fixture realizes (A, B, C are neighbors in a
# chain, yet C's forwarding set toward A is empty under both the Euclidean and
# the Manhattan coordinate distance).
ABC_A, ABC_B, ABC_C = 0, 1, 2
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
    positions = _layered_positions(hop_counts(scaffold, ABC_A))
    t = topology_from_adjacency(positions, adj, radio_range=1.0)
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
