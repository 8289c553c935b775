import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from routesim.config import load_config
from routesim.coords import CoordsError, hop_diameter
from routesim.harness import (
    ABC_A,
    ABC_B,
    ABC_C,
    ABC_VECTORS,
    CSV_HEADER,
    LOCKSTEP_CROSSOVER,
    Scenario,
    ScenarioConfig,
    ScenarioError,
    distance_map,
    _eval_run,
    _ordered_sum,
    evaluate,
    evaluate_scenario,
    fixture_abc,
    sweep,
)
from routesim.routing import (PROTOCOL_SPECS, PROTOCOLS, CoordSource, Mode,
                              RoutingContext, greedy_next_hop, route)
from routesim.topology import TopologyError, VoidSpec

from coords_checks import check_edge_lipschitz


def small_grid(protocol="gf-geo", **kw):
    return ScenarioConfig(deployment="grid", rows=8, cols=8, radio_range=1.2,
                          protocol=protocol, **kw)


def test_evaluate_deterministic_bytes():
    cfg = small_grid("gf-vcs", sample=300, seed=5)
    r1 = evaluate(cfg)
    r2 = evaluate(cfg)
    assert r1.csv_row() == r2.csv_row()
    assert r1.failures == r2.failures and r1.excluded_pairs == r2.excluded_pairs
    # rows of one config are equal, NaN stretches included, and hash alike
    assert math.isnan(r1.stretch_complementary)
    assert r1 == r2 and hash(r1) == hash(r2)
    assert r1 != evaluate(small_grid("gf-vcs", sample=300, seed=6))
    for row in (r1, evaluate(small_grid("lcr"))):
        for name in ("mean_degree", "greedy_ratio", "delivery_ratio",
                     "stretch_greedy", "stretch_all", "stretch_complementary"):
            assert type(getattr(row, name)) is float, name


def test_sample_budget_equal_to_total_matches_full():
    full = evaluate(small_grid("gf-vcs"))
    n = 64
    sampled = evaluate(small_grid("gf-vcs", sample=n * (n - 1)))
    # identical metrics; only the scenario id reflects the differing config
    strip = lambda row: row.csv_row().split(",")[1:]
    assert strip(sampled) == strip(full)


def test_workers_do_not_change_output():
    void = (VoidSpec("disc", (3.5, 3.5), radius=1.2),)
    split = dict(deployment="random", n=70, width=9.0, height=9.0, radio_range=1.3,
                 seed=3, loc_error=0.4)
    for cfg in (small_grid("lcr", sample=500, seed=3, voids=void),
                small_grid("bvr", sample=500, seed=3, voids=void),
                ScenarioConfig(protocol="gpsr-rng", **split),
                ScenarioConfig(protocol="gf-geo", **split),
                # about three sources per destination: greedy_lockstep for most groups
                small_grid("gf-avcs", sample=180, seed=3, voids=void, align_depth=1),
                # the same, with perimeter episodes from stalled lockstep pairs; two
                # runs of its parallel split meet at groups with equal run-local
                # indices, so only per-destination episode groups keep its bits
                small_grid("gpsr-rng", sample=192, seed=2, voids=void, loc_error=0.4)):
        serial = evaluate(cfg, workers=1)
        parallel = evaluate(cfg, workers=2)
        assert serial == parallel, cfg.protocol
        assert serial.csv_row() == parallel.csv_row()
        assert serial.failures == parallel.failures
        assert serial.excluded_pairs == parallel.excluded_pairs
        if cfg.deployment == "random":
            assert serial.excluded_pairs > 0 and serial.failures, cfg.protocol
        if not cfg.protocol.startswith("gf-"):
            # delivered routes had complementary episodes to defer
            assert not math.isnan(serial.stretch_complementary), cfg.protocol


def test_parallel_eval_opens_no_more_workers_than_runs(monkeypatch):
    cfg = ScenarioConfig(deployment="grid", rows=1, cols=2, radio_range=1.2, protocol="gf-geo")
    serial = evaluate(cfg, workers=1)
    opened = []

    class SerialPool:
        def __init__(self, processes):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, runs, chunksize=1):
            return [fn(run) for run in runs]

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    assert evaluate(cfg, workers=64) == serial
    assert opened == [2]  # one per run: two destinations, two runs


def _per_group_loop(groups):
    total = 0.0
    for g in groups:
        part = 0.0
        for x in g:
            part += x
        total += part
    return total


def _ordered_sum_of(groups):
    x = np.array([v for g in groups for v in g], dtype=float)
    keys = np.repeat(np.arange(len(groups)) * 7, [len(g) for g in groups])
    return _ordered_sum(x, keys)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.floats(-1e16, 1e16), min_size=1, max_size=40), max_size=12))
def test_ordered_sum_adds_as_a_per_group_loop(groups):
    assert _ordered_sum_of(groups).hex() == _per_group_loop(groups).hex()


def test_ordered_sum_is_neither_flat_nor_pairwise_nor_compensated():
    # A flat running sum gives 1.0 here and math.fsum 2.0.
    assert _ordered_sum_of([[1e16, 1.0], [-1e16, 1.0]]).hex() == (0.0).hex()
    # np.sum, np.add.reduceat and math.fsum give 1.000000000000003 here.
    assert _ordered_sum_of([[1.0] + [1e-16] * 31]).hex() == (1.0).hex()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_evaluations_without_pairs(protocol):
    # n=1 has no pairs; the two nodes of n=2 in a 50x50 field are out of range
    for n, excluded in ((1, 0), (2, 2)):
        cfg = ScenarioConfig(deployment="random", n=n, width=50.0, height=50.0, protocol=protocol)
        if PROTOCOL_SPECS[protocol].coords != CoordSource.GEO:
            with pytest.raises(CoordsError):
                evaluate(cfg)
            continue
        label = "none" if protocol == "sp" else "geo"
        for workers in (1, 2):
            row = evaluate(cfg, workers=workers)
            assert row.csv_row() == (f"{cfg.scenario_id()},{protocol},{label},{label},0,0.000000,"
                                     "0,nan,nan,nan,nan,nan")
            assert row.excluded_pairs == excluded and row.failures == ()


@pytest.mark.parametrize("protocol", ["lcr", "bvr", "gpsr-rng"])
def test_fields_are_built_once_and_only_where_needed(monkeypatch, protocol):
    cfg = ScenarioConfig(deployment="grid", rows=12, cols=12, radio_range=1.5,
                         voids=(VoidSpec("disc", (5.5, 5.5), radius=2.5),),
                         protocol=protocol, loc_error=0.4, align_depth=1, sample=800, seed=2)
    sc = Scenario.build(cfg)
    built = []
    dfield = RoutingContext.dfield

    def recording(self, protocol, dst):
        built.append(dst)
        return dfield(self, protocol, dst)

    monkeypatch.setattr(RoutingContext, "dfield", recording)
    evaluate_scenario(sc)
    monkeypatch.undo()
    srcs, dsts = (a[sc.pairs[2] >= 0].tolist() for a in sc.pairs[:2])
    dense = {dst for dst, k in Counter(dsts).items() if k * k >= LOCKSTEP_CROSSOVER * sc.topology.n}
    stalled = {dst for src, dst in zip(srcs, dsts)
               if not route(protocol, src, dst, sc.ctx).greedy}
    assert dense - stalled and stalled - dense
    assert sorted(built) == sorted(dense | stalled)


def _refuse_hop_matrix(self):
    raise AssertionError("the all-pairs hop matrix was requested")


@pytest.mark.parametrize("protocol", ["gf-avcs", "lcr", "bvr", "gpsr-rng"])
def test_build_and_evaluate_never_call_hop_matrix(monkeypatch, protocol):
    monkeypatch.setattr(Scenario, "hop_matrix", _refuse_hop_matrix)
    cfg = ScenarioConfig(deployment="grid", rows=12, cols=12, radio_range=1.5,
                         voids=(VoidSpec("disc", (5.5, 5.5), radius=2.5),),
                         protocol=protocol, loc_error=0.4, align_depth=1, sample=800, seed=2)
    sc = Scenario.build(cfg)
    row = evaluate_scenario(sc)
    assert row.pairs == 800
    assert sc.ctx.ttl == math.ceil(cfg.ttl_factor * hop_diameter(sc.topology))
    if protocol != "gf-avcs":
        assert not math.isnan(row.stretch_complementary)


@pytest.mark.parametrize("cfg", [
    small_grid("gf-avcs", align_depth=1, loc_error=0.3, sample=300, seed=4),
    small_grid("bvr", align_depth=1, loc_error=0.3, seed=4),
], ids=["sampled", "all-pairs"])
def test_evaluation_only_reads_the_built_scenario(cfg):
    sc = Scenario.build(cfg)
    before = {f.name: getattr(sc, f.name) for f in fields(sc)}
    copies = [a.copy() for a in sc.pairs]
    rows = [evaluate_scenario(sc) for _ in range(2)]
    assert rows[0] == rows[1]
    for name, value in before.items():
        assert getattr(sc, name) is value, name
    for a, copy in zip(sc.pairs, copies):
        assert np.array_equal(a, copy)
    # the routing scenario is the same scenario without its pairs
    rs = Scenario.routing(cfg)
    assert rs.pairs is None
    assert rs.removed_nodes == sc.removed_nodes and rs.ctx.ttl == sc.ctx.ttl
    for name in ("indptr", "indices", "positions"):
        assert np.array_equal(getattr(rs.topology, name), getattr(sc.topology, name)), name
    assert np.array_equal(rs.av.matrix, sc.av.matrix)
    assert np.array_equal(rs.ctx.geo_positions, sc.ctx.geo_positions)


def test_routing_scenario_cannot_be_evaluated():
    # A routing-only scenario has no pairs; unchecked, unpacking them raised TypeError.
    sc = Scenario.routing(ScenarioConfig(deployment="grid", rows=6, cols=6, protocol="gf-geo"))
    with pytest.raises(ScenarioError, match=r"Scenario\.build"):
        evaluate_scenario(sc)


def test_large_sampled_scenario_memory_is_bounded(monkeypatch):
    # The all-pairs matrix of this deployment would take 3.2 GB.
    monkeypatch.setattr(Scenario, "hop_matrix", _refuse_hop_matrix)
    cfg = ScenarioConfig(deployment="random", n=20_000, width=95.0, height=95.0,
                         radio_range=1.2, protocol="gf-geo", sample=200, seed=1)
    tracemalloc.start()
    try:
        row = evaluate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row.pairs + row.excluded_pairs == 200 and row.pairs > 0
    assert peak < 200 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_networkx_stays_a_test_only_dependency():
    code = (
        "import sys\n"
        "from routesim.harness import ScenarioConfig, evaluate\n"
        "evaluate(ScenarioConfig(deployment='random', n=60, width=8, height=8,"
        " radio_range=1.5, protocol='gpsr-rng', sample=300))\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_metrics_invariants_mixed_protocol():
    cfg = ScenarioConfig(deployment="grid", rows=20, cols=20, radio_range=1.2,
                         voids=(VoidSpec("disc", (9.5, 9.5), radius=3.0),),
                         protocol="lcr", sample=2000, seed=2)
    row = evaluate(cfg)
    assert row.greedy_ratio <= row.delivery_ratio
    assert row.stretch_greedy >= 1.0
    assert row.stretch_all >= 1.0
    assert row.stretch_complementary >= 1.0
    assert row.stretch_greedy <= row.stretch_all  # complementary hops only add length


def test_csv_formatting():
    row = evaluate(small_grid())
    text = row.csv_row()
    fields = text.split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[7] == "1.000000"  # greedy ratio on the void-free grid
    assert fields[5] == f"{row.mean_degree:.6f}"


def test_sp_protocol_row():
    row = evaluate(small_grid("sp"))
    assert row.greedy_ratio == 1.0
    assert row.stretch_greedy == 1.0
    assert row.coord_system == "none"


def test_sweep_single_value_matches_evaluate():
    base = small_grid("gf-vcs")
    rows, errors = sweep(base, "radio_range", [1.2])
    assert not errors
    assert rows[0].csv_row() == evaluate(base).csv_row()


def test_sweep_align_depth_rows():
    base = small_grid("gf-avcs")
    rows, errors = sweep(base, "align_depth", [0, 1, 2, 3])
    assert not errors and len(rows) == 4
    assert [r.align_depth for r in rows] == [0, 1, 2, 3]


def test_sweep_seed_axis_appends_summary():
    base = ScenarioConfig(deployment="random", n=60, width=8, height=8,
                          radio_range=1.8, protocol="gf-geo")
    rows, errors = sweep(base, "seed", [1, 2, 3])
    assert len(rows) == 5
    assert rows[3].scenario_id.endswith("-mean")
    assert rows[4].scenario_id.endswith("-std")
    grs = np.array([r.greedy_ratio for r in rows[:3]])
    assert rows[3].greedy_ratio == pytest.approx(grs.mean())
    assert rows[4].greedy_ratio == pytest.approx(grs.std(ddof=1))


def test_sweep_records_errors_and_continues():
    # a huge void empties the deployment at one sweep point
    base = small_grid("gf-vcs")
    rows, errors = sweep(base, "void_size", [0.0, 50.0, 1.5])
    assert len(rows) == 2
    assert len(errors) == 1 and errors[0][0] == 50.0


def test_sweep_hole_count_quincunx():
    base = ScenarioConfig(deployment="grid", rows=40, cols=40, radio_range=1.2,
                          protocol="gf-geo", voids=(VoidSpec("disc", (20, 20), radius=3.0),),
                          sample=500)
    rows, errors = sweep(base, "hole_count", [0, 1, 5])
    assert not errors
    n0, n1, n5 = (r.pairs for r in rows)
    assert n0 >= n1 >= n5  # more holes, fewer nodes, fewer sampled reachable pairs


# A 20x20 four-connected grid whose raw 4D coordinate field toward cell
# (2, 8) has forwarding voids that one alignment round removes.  Its anchor
# cells were found by seeded search: corner anchors admit no such void on a
# void-free grid, since their hop counts embed the grid affinely.
FIG_MAP = Path(__file__).resolve().parents[1] / "configs" / "forwarding_void_map.cfg"
FIG_MAP_DST = 162          # cell (x=2, y=8)
FIG_MAP_MINIMUM = 84       # cell (x=4, y=4), one of the raw local minima


def test_distance_map_fixture():
    raw = load_config(FIG_MAP)
    m0 = distance_map(raw, FIG_MAP_DST)
    assert m0.dist[FIG_MAP_DST] == 0.0
    assert FIG_MAP_MINIMUM in m0.local_minima
    m1 = distance_map(replace(raw, protocol="gf-avcs", align_depth=1), FIG_MAP_DST)
    assert m1.local_minima == ()
    csv = m0.csv().splitlines()
    assert csv[0] == "x,y,dist,is_local_min"
    assert len(csv) == 1 + 400
    assert sum(1 for ln in csv[1:] if ln.split(",")[2] == "0.000000") == 1


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(grid=st.booleans(), side=st.integers(3, 8), radio_range=st.floats(1.0, 2.4),
       seed=st.integers(0, 10_000), protocol=st.sampled_from(("gf-vcs", "gf-avcs", "gf-geo")),
       loc_error=st.sampled_from((0.0, 0.4)), data=st.data())
def test_distance_map_minima_are_nodes_without_a_greedy_next_hop(grid, side, radio_range, seed,
                                                                 protocol, loc_error, data):
    layout = (dict(deployment="grid", rows=side, cols=side + 2) if grid else
              dict(deployment="random", n=side * (side + 2), width=6.0, height=6.0))
    cfg = ScenarioConfig(radio_range=radio_range, protocol=protocol, seed=seed,
                         loc_error=loc_error, align_depth=1, **layout)
    try:
        sc = Scenario.routing(cfg)
    except CoordsError:  # virtual coordinates need a connected graph
        assume(False)
    t = sc.topology
    dst = data.draw(st.integers(0, t.n - 1))
    dfield = sc.ctx.dfield(protocol, dst)
    want = tuple(u for u in range(t.n) if u != dst and greedy_next_hop(u, dfield, t, dst) is None)
    assert distance_map(cfg, dst).local_minima == want


def test_distance_map_bad_destination():
    with pytest.raises(ScenarioError):
        distance_map(load_config(FIG_MAP), 10_000)


def test_abc_fixture_takes_loc_error():
    base = ScenarioConfig(deployment="abc-fixture", protocol="gpsr-rng")
    exact, noisy = (Scenario.build(replace(base, loc_error=e)) for e in (0.0, 0.5))
    assert np.array_equal(exact.ctx.geo_positions, exact.topology.positions)
    assert not np.array_equal(noisy.ctx.geo_positions, noisy.topology.positions)
    rows = [replace(evaluate_scenario(sc), scenario_id="") for sc in (exact, noisy)]
    assert rows[0] != rows[1]


def test_abc_fixture_id_prints_the_fixture_range():
    # The fixture ignores the configured range; its id prints the range of
    # the topology it builds.
    for radio_range in (1.2, 2.5):
        cfg = ScenarioConfig(deployment="abc-fixture", protocol="gpsr-rng", radio_range=radio_range)
        t = Scenario.build(cfg).topology
        assert cfg.scenario_id().startswith(f"abc-r{t.radio_range:g}-gpsr-rng-")


def test_fixture_abc_invariants():
    t, vc = fixture_abc()
    assert check_edge_lipschitz(vc, t)
    for node, expected in ABC_VECTORS.items():
        assert tuple(vc.matrix[node]) == expected
    assert ABC_B in t.adjacency[ABC_A] and ABC_B in t.adjacency[ABC_C]
    assert ABC_C not in t.adjacency[ABC_A]


def test_scenario_config_validation():
    with pytest.raises(ScenarioError):
        ScenarioConfig(protocol="nope")
    with pytest.raises(ScenarioError):
        ScenarioConfig(distance="nope")
    with pytest.raises(ScenarioError):
        ScenarioConfig(align_depth=-1)
    with pytest.raises(ScenarioError):
        ScenarioConfig(loc_error=2.0)
    with pytest.raises(ScenarioError):
        ScenarioConfig(anchors="somewhere")
    for weight in (0.0, -1.0):
        with pytest.raises(ScenarioError):
            ScenarioConfig(protocol="bvr", semi_weight=weight)


def test_vcs_scenario_requires_connectivity():
    # a wall that splits the grid makes hop counts undefined
    cfg = ScenarioConfig(deployment="grid", rows=8, cols=8, radio_range=1.0,
                         voids=(VoidSpec("rect", (4.0, 4.0), half_w=0.6, half_h=10.0),),
                         protocol="gf-vcs")
    with pytest.raises(CoordsError):
        evaluate(cfg)


def test_geo_scenario_excludes_cross_component_pairs():
    cfg = ScenarioConfig(deployment="grid", rows=8, cols=8, radio_range=1.0,
                         voids=(VoidSpec("rect", (4.0, 4.0), half_w=0.6, half_h=10.0),),
                         protocol="gf-geo")
    row = evaluate(cfg)
    assert row.excluded_pairs > 0
    assert row.delivery_ratio == 1.0  # within components greedy always works here


def test_effective_depth_and_labels():
    sc = Scenario.build(small_grid("gf-avcs", align_depth=2))
    assert sc.effective_depth == 2 and sc.coord_system == "avcs"
    sc0 = Scenario.build(small_grid("gf-vcs", align_depth=2))
    assert sc0.effective_depth == 0 and sc0.coord_system == "vcs"
    sb = Scenario.build(small_grid("bvr"))
    assert sb.distance_label == "semi"


def test_perceived_positions_only_affect_geo_side():
    # localization error leaves virtual-coordinate routing untouched
    a = evaluate(small_grid("gf-vcs", seed=3))
    b = evaluate(small_grid("gf-vcs", seed=3, loc_error=0.4))
    assert a.greedy_ratio == b.greedy_ratio and a.stretch_greedy == b.stretch_greedy
    g1 = evaluate(small_grid("gf-geo", seed=3, sample=800))
    g2 = evaluate(small_grid("gf-geo", seed=3, loc_error=0.4, sample=800))
    assert g1.csv_row() != g2.csv_row()


def _networkx_hops(t):
    """All-pairs hop distances from networkx, int32, -1 across components."""
    g = nx.Graph()
    g.add_nodes_from(range(t.n))
    g.add_edges_from(t.edges().tolist())
    hops = np.full((t.n, t.n), -1, dtype=np.int32)
    for src, row in nx.all_pairs_shortest_path_length(g):
        hops[src, list(row)] = list(row.values())
    return hops


def test_hop_matrix_matches_networkx_across_components():
    cfg = ScenarioConfig(deployment="grid", rows=8, cols=8, radio_range=1.0,
                         voids=(VoidSpec("rect", (4.0, 4.0), half_w=0.6, half_h=10.0),),
                         protocol="gf-geo")
    sc = Scenario.build(cfg)
    hops = sc.hop_matrix()
    assert hops.dtype == np.int32 and (hops == -1).any()
    assert np.array_equal(hops, _networkx_hops(sc.topology))


def _per_pair_metrics(sc):
    """Aggregate one routing.route call per evaluated pair, as the CSV defines it."""
    hops = _networkx_hops(sc.topology)
    pairs = excluded = greedy = delivered = episodes = 0
    sum_greedy = sum_all = sum_comp = 0.0
    failures = Counter()
    for src, dst in zip(*(a.tolist() for a in sc.pairs[:2])):
        sp = hops[src, dst]
        if sp < 0:
            excluded += 1
            continue
        pairs += 1
        rr = route(sc.config.protocol, src, dst, sc.ctx)
        if not rr.delivered:
            failures[rr.failure_cause or "unreachable"] += 1
            continue
        delivered += 1
        sum_all += rr.hops / sp
        if rr.greedy:
            greedy += 1
            sum_greedy += rr.hops / sp
        at = 0
        for is_greedy, run in itertools.groupby(rr.modes, key=lambda m: m == Mode.GREEDY):
            length = len(list(run))
            if not is_greedy and hops[rr.path[at], rr.path[at + length]] > 0:
                episodes += 1
                sum_comp += length / hops[rr.path[at], rr.path[at + length]]
            at += length
    ratio = lambda a, b: a / b if b else math.nan
    return dict(pairs=pairs, excluded_pairs=excluded, failures=dict(failures),
                greedy_ratio=ratio(greedy, pairs), delivery_ratio=ratio(delivered, pairs),
                stretch_greedy=ratio(sum_greedy, greedy), stretch_all=ratio(sum_all, delivered),
                stretch_complementary=ratio(sum_comp, episodes))


# Sampled recovery scenarios whose pairs stall in both kernels: lockstep
# pairs cut off by the TTL in the greedy prefix or stalled at a local
# minimum, and stalled pairs of forest groups.
STALLING_EXAMPLES = (
    dict(protocol="lcr", n=34, radio_range=1.6, seed=4, ttl_factor=0.6, loc_error=0.4,
         align_depth=1, distance="euclid", sample_per_node=3),
    dict(protocol="bvr", n=34, radio_range=1.6, seed=4, ttl_factor=0.6, loc_error=0.4,
         align_depth=1, distance="euclid", sample_per_node=3),
    dict(protocol="gpsr-rng", n=34, radio_range=1.4, seed=3, ttl_factor=0.6, loc_error=0.4,
         align_depth=1, distance="euclid", sample_per_node=3),
)


def _random_config(protocol, n, radio_range, seed, ttl_factor, loc_error, align_depth, distance,
                   sample_per_node):
    return ScenarioConfig(deployment="random", n=n, width=6.0, height=6.0,
                          radio_range=radio_range, protocol=protocol, seed=seed,
                          ttl_factor=ttl_factor, loc_error=loc_error,
                          align_depth=align_depth, distance=distance, sample=sample_per_node * n)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(protocol=st.sampled_from(PROTOCOLS), n=st.integers(6, 34),
       radio_range=st.floats(1.2, 2.6), seed=st.integers(1, 10_000),
       ttl_factor=st.sampled_from((0.6, 1.0, 4.0)), loc_error=st.sampled_from((0.0, 0.4)),
       align_depth=st.integers(0, 2), distance=st.sampled_from(("euclid", "manhattan", "semi")),
       sample_per_node=st.sampled_from((0, 1, 3)))
@example(protocol="gf-geo", n=34, radio_range=1.375, seed=1, ttl_factor=0.6, loc_error=0.0,
         align_depth=0, distance="euclid", sample_per_node=0)
@example(**STALLING_EXAMPLES[0])
@example(**STALLING_EXAMPLES[1])
@example(**STALLING_EXAMPLES[2])
def test_bulk_evaluation_matches_per_pair_routes(**case):
    """All pairs route through greedy forests; sampled pairs mostly through
    greedy_lockstep, with a forest for each destination that drew many sources."""
    try:
        sc = Scenario.build(_random_config(**case))
    except CoordsError:  # virtual coordinates need a connected graph
        assume(False)
    row = evaluate_scenario(sc)
    expected = _per_pair_metrics(sc)
    got = {k: getattr(row, k) for k in expected}
    got["failures"] = dict(row.failures)
    for key in ("pairs", "excluded_pairs", "failures"):
        assert got[key] == expected[key], key
    for key in ("greedy_ratio", "delivery_ratio", "stretch_greedy", "stretch_all",
                "stretch_complementary"):
        assert got[key] == pytest.approx(expected[key], rel=1e-9, nan_ok=True), key


@pytest.mark.parametrize("case", STALLING_EXAMPLES, ids=lambda case: case["protocol"])
def test_stalling_examples_stall_pairs_in_both_kernels(case):
    # The gate of bulk recovery: the examples above must keep stalled pairs
    # in lockstep groups and in forest groups, by per-pair route.
    sc = Scenario.build(_random_config(**case))
    srcs, dsts = (a[sc.pairs[2] >= 0].tolist() for a in sc.pairs[:2])
    sources = Counter(dsts)
    stalled = Counter(sources[dst] ** 2 < LOCKSTEP_CROSSOVER * sc.topology.n
                      for src, dst in zip(srcs, dsts)
                      if not route(case["protocol"], src, dst, sc.ctx).greedy)
    assert stalled[True] > 0 and stalled[False] > 0, stalled


# Sampled and all-pairs random scenarios of every protocol, small enough to
# route every pair one by one.
SMALL_SCENARIOS = dict(
    protocol=st.sampled_from(PROTOCOLS), n=st.integers(6, 24), radio_range=st.floats(1.2, 2.6),
    seed=st.integers(1, 10_000), ttl_factor=st.sampled_from((0.6, 4.0)),
    loc_error=st.sampled_from((0.0, 0.4)), align_depth=st.integers(0, 2),
    distance=st.sampled_from(("euclid", "semi")), sample_per_node=st.sampled_from((0, 1, 3)))


def _built(case):
    try:
        return Scenario.build(_random_config(**case))
    except CoordsError:  # virtual coordinates need a connected graph
        assume(False)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data(), **SMALL_SCENARIOS)
@example(data=None, **STALLING_EXAMPLES[2])
def test_eval_runs_over_destination_cuts_concatenate_to_one_run(data, **case):
    sc = _built(case)
    _, dsts, _ = sc.pairs
    starts = np.flatnonzero(np.diff(dsts, prepend=-1)).tolist()
    chosen = set(starts[::3]) if data is None else data.draw(st.sets(st.sampled_from(starts)))
    cuts = sorted(chosen | {0, len(dsts)})
    whole = _eval_run(sc, 0, len(dsts))
    parts = [_eval_run(sc, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    for name in ("greedy", "hops", "episodes"):
        assert np.array_equal(np.concatenate([getattr(p, name) for p in parts]), getattr(whole, name))
    assert sum((p.failures for p in parts), Counter()) == +whole.failures


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(**SMALL_SCENARIOS)
# Five components: most of the sampled pairs cross.
@example(protocol="gpsr-rng", n=24, radio_range=1.2, seed=1, ttl_factor=4.0, loc_error=0.4,
         align_depth=0, distance="euclid", sample_per_node=3)
def test_pairs_are_sorted_and_delivered_exactly_when_hops_are_positive(**case):
    sc = _built(case)
    srcs, dsts, sp = sc.pairs
    assert np.all(srcs != dsts)
    assert np.all(np.diff(dsts * sc.topology.n + srcs) > 0)   # ascending (dst, src), no repeats
    # Shortest-path hops are int32: -1 exactly for the pairs across components.
    label = sc.topology.component_labels()
    cross = label[srcs] != label[dsts]
    assert sp.dtype == np.int32 and np.all(sp[cross] == -1) and np.all(sp[~cross] > 0)
    run = _eval_run(sc, 0, len(dsts))
    assert run.hops.dtype == np.int32
    for i, (src, dst) in enumerate(zip(srcs.tolist(), dsts.tolist())):
        rr = route(sc.config.protocol, src, dst, sc.ctx)
        assert (run.hops[i] > 0) == rr.delivered
        assert run.hops[i] == (rr.hops if rr.delivered else 0)
        assert run.greedy[i] == rr.greedy


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_route_rejects_ids_outside_the_graph(protocol):
    # Unchecked, gf-geo "delivered" a path that started at node -1.
    sc = Scenario.build(ScenarioConfig(deployment="grid", rows=4, cols=4, protocol=protocol))
    for src, dst in ((-1, 5), (5, -1), (16, 5), (5, 16)):
        with pytest.raises(TopologyError, match=r"^src/dst must be node ids in \[0, 16\)$"):
            route(protocol, src, dst, sc.ctx)
