import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from routesim.coords import CoordsError
from routesim.harness import (
    ABC_A,
    ABC_B,
    ABC_C,
    ABC_VECTORS,
    CSV_HEADER,
    FIG_MAP_DST,
    FIG_MAP_MINIMUM,
    LOCKSTEP_CROSSOVER,
    Scenario,
    ScenarioConfig,
    ScenarioError,
    distance_map,
    _ordered_sum,
    _sampled_pairs,
    evaluate,
    evaluate_scenario,
    fig_map_config,
    fixture_abc,
    sweep,
)
from routesim.routing import (PROTOCOL_SPECS, PROTOCOLS, CoordSource, Mode, Outcome,
                              RoutingContext, route)
from routesim.coords import check_edge_lipschitz
from routesim.topology import VoidSpec


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
    srcs, dsts = (a[np.isfinite(sc.sampled_hops)].tolist() for a in _sampled_pairs(sc))
    dense = {dst for dst, k in Counter(dsts).items() if k * k >= LOCKSTEP_CROSSOVER * sc.topology.n}
    stalled = {dst for src, dst in zip(srcs, dsts)
               if route(protocol, src, dst, sc.ctx).outcome != Outcome.DELIVERED_GREEDY}
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
    assert sc.ctx.ttl == math.ceil(cfg.ttl_factor * sc.diameter())
    if protocol != "gf-avcs":
        assert not math.isnan(row.stretch_complementary)


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


def test_distance_map_fixture():
    m0 = distance_map(fig_map_config("gf-vcs", 0), FIG_MAP_DST)
    assert m0.dist[FIG_MAP_DST] == 0.0
    assert FIG_MAP_MINIMUM in m0.local_minima
    m1 = distance_map(fig_map_config("gf-avcs", 1), FIG_MAP_DST)
    assert m1.local_minima == ()
    csv = m0.csv().splitlines()
    assert csv[0] == "x,y,dist,is_local_min"
    assert len(csv) == 1 + 400
    assert sum(1 for ln in csv[1:] if ln.split(",")[2] == "0.000000") == 1


def test_distance_map_bad_destination():
    with pytest.raises(ScenarioError):
        distance_map(fig_map_config(), 10_000)


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
    """All-pairs hop distances from networkx, inf across components."""
    g = nx.Graph()
    g.add_nodes_from(range(t.n))
    g.add_edges_from(t.edges().tolist())
    hops = np.full((t.n, t.n), np.inf)
    for src, row in nx.all_pairs_shortest_path_length(g):
        hops[src, list(row)] = list(row.values())
    return hops


def test_hop_matrix_matches_networkx_across_components():
    cfg = ScenarioConfig(deployment="grid", rows=8, cols=8, radio_range=1.0,
                         voids=(VoidSpec("rect", (4.0, 4.0), half_w=0.6, half_h=10.0),),
                         protocol="gf-geo")
    sc = Scenario.build(cfg)
    hops = sc.hop_matrix()
    assert np.isinf(hops).any()
    assert np.array_equal(hops, _networkx_hops(sc.topology))
    assert sc.hop_matrix() is hops


def _per_pair_metrics(sc):
    """Aggregate one routing.route call per evaluated pair, as the CSV defines it."""
    hops = _networkx_hops(sc.topology)
    pairs = excluded = greedy = delivered = episodes = 0
    sum_greedy = sum_all = sum_comp = 0.0
    failures = Counter()
    for src, dst in zip(*(a.tolist() for a in _sampled_pairs(sc))):
        sp = hops[src, dst]
        if not np.isfinite(sp):
            excluded += 1
            continue
        pairs += 1
        rr = route(sc.config.protocol, src, dst, sc.ctx)
        if not rr.delivered:
            failures[rr.failure_cause or "unreachable"] += 1
            continue
        delivered += 1
        sum_all += rr.hops / sp
        if rr.outcome == Outcome.DELIVERED_GREEDY:
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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(protocol=st.sampled_from(PROTOCOLS), n=st.integers(6, 34),
       radio_range=st.floats(1.2, 2.6), seed=st.integers(1, 10_000),
       ttl_factor=st.sampled_from((0.6, 1.0, 4.0)), loc_error=st.sampled_from((0.0, 0.4)),
       align_depth=st.integers(0, 2), distance=st.sampled_from(("euclid", "manhattan", "semi")),
       sample_per_node=st.sampled_from((0, 1, 3)))
@example(protocol="gf-geo", n=34, radio_range=1.375, seed=1, ttl_factor=0.6, loc_error=0.0,
         align_depth=0, distance="euclid", sample_per_node=0)
# Sampled, with lockstep pairs cut off by the TTL in the greedy prefix,
# lockstep pairs stalled at a local minimum, and forest groups.
@example(protocol="lcr", n=34, radio_range=1.6, seed=4, ttl_factor=0.6, loc_error=0.4,
         align_depth=1, distance="euclid", sample_per_node=3)
@example(protocol="bvr", n=34, radio_range=1.6, seed=4, ttl_factor=0.6, loc_error=0.4,
         align_depth=1, distance="euclid", sample_per_node=3)
@example(protocol="gpsr-rng", n=34, radio_range=1.4, seed=3, ttl_factor=0.6, loc_error=0.4,
         align_depth=1, distance="euclid", sample_per_node=3)
def test_bulk_evaluation_matches_per_pair_routes(protocol, n, radio_range, seed, ttl_factor,
                                                 loc_error, align_depth, distance, sample_per_node):
    """All pairs route through greedy forests; sampled pairs mostly through
    greedy_lockstep, with a forest for each destination that drew many sources."""
    cfg = ScenarioConfig(deployment="random", n=n, width=6.0, height=6.0,
                         radio_range=radio_range, protocol=protocol, seed=seed,
                         ttl_factor=ttl_factor, loc_error=loc_error,
                         align_depth=align_depth, distance=distance, sample=sample_per_node * n)
    try:
        sc = Scenario.build(cfg)
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
