"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line.  Tolerances are pinned here, not configurable.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from routesim import distance as dm
from routesim.config import load_config
from routesim.coords import align, build_vcs, corner_anchors
from routesim.harness import (
    ABC_A,
    ABC_B,
    ABC_C,
    ScenarioConfig,
    distance_map,
    evaluate,
    fixture_abc,
    sweep,
)
from routesim.routing import (
    METHOD_GG,
    METHOD_RNG,
    count_crossings,
    greedy_route,
    lcr_route,
    planarize,
)
from routesim.topology import VoidSpec, build_udg, generate_random

from coords_checks import check_edge_lipschitz

# 20 connected seeds for the 400-node random deployments at radio range 1.85
# (mean degree ~= 10); frozen so the suite never depends on connectivity luck.
DEGREE10_SEEDS = (1, 2, 3, 4, 6, 8, 9, 10, 11, 12, 14, 15, 16, 17, 18, 20, 21, 22, 23, 24)

HOLE_29 = VoidSpec("disc", (9.5, 9.5), radius=3.0)       # removes 29 of 400
HOLE_50x50 = VoidSpec("disc", (24.5, 24.5), radius=10.0)  # central void for the big grid


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def test_criterion_1_void_free_grid_exact_geo():
    """gf-geo on the void-free grid is perfect at every density."""
    t0 = time.time()
    rows = []
    for r in (1.2, 1.45, 2.0):  # mean degrees ~4, ~8, ~12
        cfg = ScenarioConfig(deployment="grid", rows=20, cols=20, radio_range=r,
                             protocol="gf-geo")
        rows.append(evaluate(cfg))
    elapsed = time.time() - t0
    ok = all(row.greedy_ratio == 1.0 and row.stretch_greedy == 1.0 for row in rows)
    ok = ok and elapsed < 30.0
    report(
        "criterion 1 (void-free grid, exact GeoCS)",
        ok,
        f"greedy_ratio/stretch = "
        + ", ".join(f"{row.mean_degree:.2f}:{row.greedy_ratio:.6f}/{row.stretch_greedy:.6f}" for row in rows)
        + f"; {elapsed:.1f}s all-pairs",
    )
    for row in rows:
        assert row.greedy_ratio == 1.0
        assert row.stretch_greedy == 1.0
    assert elapsed < 30.0


def test_criterion_2_vcs_vs_avcs_stretch():
    """Raw integer coordinates cost measurable stretch at high density;
    one alignment round removes most of it."""
    t0 = time.time()
    results = {}
    for r in (2.5, 3.0):  # mean degrees 19.13, 26.57
        for proto, depth in (("gf-vcs", 0), ("gf-avcs", 1)):
            cfg = ScenarioConfig(deployment="grid", rows=50, cols=50, radio_range=r,
                                 protocol=proto, align_depth=depth, distance="euclid",
                                 sample=100_000)
            results[(r, proto)] = evaluate(cfg)
    elapsed = time.time() - t0
    vcs_25 = results[(2.5, "gf-vcs")].stretch_greedy
    avcs_25 = results[(2.5, "gf-avcs")].stretch_greedy
    checks = [
        1.01 <= vcs_25 <= 1.09,
        avcs_25 <= 1.02,
        all(results[(r, "gf-avcs")].stretch_greedy < results[(r, "gf-vcs")].stretch_greedy
            for r in (2.5, 3.0)),
        elapsed < 600.0,
    ]
    report(
        "criterion 2 (VCS vs AVCS stretch at degree >= 19)",
        all(checks),
        f"deg19: vcs={vcs_25:.4f} avcs={avcs_25:.4f}; "
        f"deg27: vcs={results[(3.0, 'gf-vcs')].stretch_greedy:.4f} "
        f"avcs={results[(3.0, 'gf-avcs')].stretch_greedy:.4f}; {elapsed:.0f}s",
    )
    assert 1.01 <= vcs_25 <= 1.09
    assert avcs_25 <= 1.02
    for r in (2.5, 3.0):
        assert results[(r, "gf-avcs")].stretch_greedy < results[(r, "gf-vcs")].stretch_greedy
    assert elapsed < 600.0


def test_criterion_3_failure_rates_random_degree10():
    """Greedy failure rates on 400-node random deployments at mean degree 10."""
    t0 = time.time()
    means = {}
    for dims in (4, 3):
        ratios = []
        for seed in DEGREE10_SEEDS:
            cfg = ScenarioConfig(deployment="random", n=400, width=20, height=20,
                                 radio_range=1.85, protocol="gf-vcs", dims=dims,
                                 distance="euclid", seed=seed)
            ratios.append(evaluate(cfg).greedy_ratio)
        means[dims] = float(np.mean(ratios))
    elapsed = time.time() - t0
    ok = 0.70 <= means[4] <= 0.90 and 0.45 <= means[3] <= 0.75 and elapsed < 300.0
    report(
        "criterion 3 (random deployment failure rates)",
        ok,
        f"4D greedy_ratio={means[4]:.4f} (want [0.70,0.90]), "
        f"3D={means[3]:.4f} (want [0.45,0.75]); {elapsed:.0f}s for 20 seeds",
    )
    assert 0.70 <= means[4] <= 0.90
    assert 0.45 <= means[3] <= 0.75
    assert elapsed < 300.0


def test_criterion_4_abc_counterexample():
    """The three-node forwarding-void regression fixture."""
    t, vc = fixture_abc()
    m = vc.matrix
    ef = dm.whole_field(dm.euclidean_field, m.astype(float), m[ABC_A].astype(float))
    mf = dm.whole_field(dm.manhattan_field, m.astype(float), m[ABC_A].astype(float))
    e_ca, e_ba = float(ef[ABC_C]), float(ef[ABC_B])
    m_ca, m_ba = float(mf[ABC_C]), float(mf[ABC_B])
    fails = [greedy_route(ABC_C, ABC_A, dfield, t, 4 * t.n) for dfield in (ef, mf)]
    lcr = lcr_route(ABC_C, ABC_A, ef, t, 4 * t.n)
    ok = (
        e_ca == math.sqrt(2) and e_ba == math.sqrt(2)
        and m_ca == 2.0 and m_ba == 2.0
        and all(rr.failure_cause == "local-minimum" for rr in fails)
        and lcr.delivered
    )
    report(
        "criterion 4 (A/B/C counterexample regression)",
        ok,
        f"euclid C/B->A = {e_ca:.6f}/{e_ba:.6f}, manhattan = {m_ca:.0f}/{m_ba:.0f}; "
        f"greedy fails both metrics; lcr failure cause = {lcr.failure_cause}",
    )
    assert e_ca == math.sqrt(2) and e_ba == math.sqrt(2)
    assert m_ca == 2.0 and m_ba == 2.0
    for rr in fails:
        assert rr.failure_cause == "local-minimum"
    assert lcr.delivered


def test_criterion_5_distance_map_fixture():
    """Raw coordinates leave forwarding voids toward cell (2, 8); one
    alignment round clears every one of them."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "forwarding_void_map.cfg")
    dst = 162   # cell (x=2, y=8)
    raw = distance_map(cfg, dst)
    aligned = distance_map(replace(cfg, protocol="gf-avcs", align_depth=1), dst)
    ok = len(raw.local_minima) >= 1 and len(aligned.local_minima) == 0
    report(
        "criterion 5 (distance-map reproduction)",
        ok,
        f"raw minima at {raw.local_minima}; aligned depth-1 minima: {aligned.local_minima}",
    )
    assert len(raw.local_minima) >= 1
    assert len(aligned.local_minima) == 0


def test_criterion_6_alignment_rules_agree():
    """Both alignment rules produce nearly identical greedy ratios across
    the single-void size sweep."""
    radii = [0.0, 1.5, 2.2, 3.0, 3.7]
    base = ScenarioConfig(deployment="grid", rows=20, cols=20, radio_range=1.2,
                          protocol="gf-avcs", align_depth=1, distance="euclid")
    from dataclasses import replace

    rows1, err1 = sweep(replace(base, align_rule="self-weighted"), "void_size", radii)
    rows2, err2 = sweep(replace(base, align_rule="uniform-average"), "void_size", radii)
    assert not err1 and not err2
    diffs = [abs(a.greedy_ratio - b.greedy_ratio) for a, b in zip(rows1, rows2)]
    ok = max(diffs) <= 0.02
    report(
        "criterion 6 (alignment rule equivalence)",
        ok,
        "max |greedy_ratio diff| = %.4f over void radii %s" % (max(diffs), radii),
    )
    assert max(diffs) <= 0.02


# Criterion 7 fixture: the 50x50 grid with a central void across two density
# rows, 40% localization error on the geographic side (virtual-coordinate
# protocols are position-free and unaffected).
CRIT7_ROWS = (2.0, 2.5)


def _crit7_row(radio_range: float, protocol: str):
    cfg = ScenarioConfig(deployment="grid", rows=50, cols=50, radio_range=radio_range,
                         voids=(HOLE_50x50,), protocol=protocol, distance="euclid",
                         loc_error=0.4, seed=3, sample=8000)
    return evaluate(cfg)


def test_criterion_7_complementary_mode_ordering():
    """Perimeter episodes cost the most, beacon fallback sits between, and
    backtracking stays near optimal."""
    values = {}
    for r in CRIT7_ROWS:
        for proto in ("gpsr-rng", "bvr", "lcr"):
            values[(r, proto)] = _crit7_row(r, proto).stretch_complementary
    ordering = all(
        values[(r, "gpsr-rng")] > values[(r, "bvr")] > values[(r, "lcr")]
        for r in CRIT7_ROWS
    )
    lcr_band = all(1.0 <= values[(r, "lcr")] <= 1.2 for r in CRIT7_ROWS)
    bvr_high = 1.5 <= values[(2.5, "bvr")] <= 3.0
    detail = "; ".join(
        f"r={r}: perimeter={values[(r, 'gpsr-rng')]:.2f} bvr={values[(r, 'bvr')]:.2f} "
        f"lcr={values[(r, 'lcr')]:.2f}"
        for r in CRIT7_ROWS
    )
    report("criterion 7 (complementary-mode ordering)", ordering and lcr_band and bvr_high, detail)
    assert ordering
    assert lcr_band
    assert bvr_high


@pytest.mark.xfail(
    strict=True,
    reason="unattainable with the specified perimeter algorithm: first-closer "
    "exit bounds episode stretch near 4x (measured max ~8x across fixtures), "
    "and the beacon-fallback band does not hold at the low-density row; see "
    "the decisions ledger",
)
def test_criterion_7_strict_reference_magnitudes():
    """The literal reference magnitudes: bvr band at every row and perimeter
    episode stretch above 10 at the lowest density."""
    values = {}
    for r in CRIT7_ROWS:
        for proto in ("gpsr-rng", "bvr"):
            values[(r, proto)] = _crit7_row(r, proto).stretch_complementary
    report(
        "criterion 7 strict magnitudes",
        False,
        f"perimeter@lowest={values[(CRIT7_ROWS[0], 'gpsr-rng')]:.2f} (want > 10); "
        f"bvr rows={[round(float(values[(r, 'bvr')]), 2) for r in CRIT7_ROWS]} (want [1.5, 3.0])",
    )
    assert all(1.5 <= values[(r, "bvr")] <= 3.0 for r in CRIT7_ROWS)
    assert values[(CRIT7_ROWS[0], "gpsr-rng")] > 10.0


def test_criterion_8_depth_monotonicity():
    """Deeper alignment never hurts the greedy ratio on the single-void grid."""
    base = ScenarioConfig(deployment="grid", rows=20, cols=20, radio_range=1.2,
                          voids=(HOLE_29,), protocol="gf-avcs", distance="euclid")
    rows, errors = sweep(base, "align_depth", [0, 1, 2, 3])
    assert not errors
    ratios = [r.greedy_ratio for r in rows]
    ok = all(b >= a - 0.02 for a, b in zip(ratios, ratios[1:]))
    report(
        "criterion 8 (alignment depth monotonicity)",
        ok,
        "greedy_ratio by depth = " + ", ".join(f"{x:.4f}" for x in ratios),
    )
    assert ok


# --- criterion 9: property suites, each bounded well under a minute ---------


def _random_connected(seed, n=60, side=8.0, rng_range=1.6):
    t = build_udg(generate_random(n, side, side, seed=seed), rng_range)
    return None if t.component_labels().any() else t


def test_criterion_9a_bfs_lipschitz_100_topologies():
    t0 = time.time()
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        t = _random_connected(seed)
        if t is None:
            continue
        vc = build_vcs(t, corner_anchors(t, 4))
        assert check_edge_lipschitz(vc, t)
        checked += 1
    elapsed = time.time() - t0
    report("criterion 9a (BFS Lipschitz on 100 topologies)", elapsed < 60, f"{elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_9b_alignment_max_principle_and_locality():
    t0 = time.time()
    for seed in (1, 2, 3):
        t = _random_connected(seed, n=80)
        if t is None:
            continue
        vc = build_vcs(t, corner_anchors(t, 4))
        prev = vc.matrix.astype(float)
        for depth in (1, 2, 3):
            cur = align(vc, t, depth).matrix
            for u in range(t.n):
                hood = list(t.adjacency[u]) + [u]
                assert (cur[u] >= prev[hood].min(axis=0) - 1e-12).all()
                assert (cur[u] <= prev[hood].max(axis=0) + 1e-12).all()
            prev = cur
    # d-hop locality on a chain
    from routesim.coords import VirtualCoords
    from routesim.topology import topology_from_adjacency

    n = 16
    chain = topology_from_adjacency(
        np.array([[float(i), 0.0] for i in range(n)]),
        [[i + 1] if i + 1 < n else [] for i in range(n)],
    )
    base = np.arange(n).reshape(-1, 1)
    far = base.copy()
    far[-1, 0] = 99
    for d in (1, 2, 3):
        aa = align(VirtualCoords(base), chain, d).matrix
        ab = align(VirtualCoords(far), chain, d).matrix
        assert np.array_equal(aa[: n - 1 - d], ab[: n - 1 - d])
    elapsed = time.time() - t0
    report("criterion 9b (alignment max principle + locality)", elapsed < 60, f"{elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_9c_greedy_monotone_no_revisit():
    t0 = time.time()
    rng = np.random.default_rng(11)
    for seed in (2, 3, 4):
        t = _random_connected(seed, n=120, side=10.0)
        if t is None:
            continue
        vc = build_vcs(t, corner_anchors(t, 4))
        m = vc.matrix.astype(float)
        for _ in range(80):
            src, dst = (int(x) for x in rng.integers(0, t.n, 2))
            dfield = dm.whole_field(dm.euclidean_field, m, m[dst])
            rr = greedy_route(src, dst, dfield, t, 4 * t.n)
            if not rr.delivered:
                continue
            assert len(set(rr.path)) == len(rr.path)
            for a, b in zip(rr.path, rr.path[1:]):
                assert dfield[b] < dfield[a] or b == dst
    elapsed = time.time() - t0
    report("criterion 9c (greedy monotonicity, no revisits)", elapsed < 60, f"{elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_9d_stretch_at_least_one():
    t0 = time.time()
    cfgs = [
        ScenarioConfig(deployment="grid", rows=14, cols=14, radio_range=1.2,
                       voids=(VoidSpec("disc", (6.5, 6.5), radius=2.0),),
                       protocol=p, sample=1500, seed=4)
        for p in ("gf-geo", "gf-vcs", "gpsr-gg", "lcr", "bvr")
    ]
    for cfg in cfgs:
        row = evaluate(cfg)
        for field in ("stretch_greedy", "stretch_all", "stretch_complementary"):
            v = getattr(row, field)
            assert math.isnan(v) or v >= 1.0, (cfg.protocol, field, v)
    elapsed = time.time() - t0
    report("criterion 9d (stretch >= 1 for all delivered)", elapsed < 60, f"{elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_9e_planarization_properties():
    t0 = time.time()
    done = 0
    seed = 100
    while done < 20:
        seed += 1
        t = build_udg(generate_random(200, 14, 14, seed=seed), 1.4)
        gg = planarize(t, t.positions, METHOD_GG)
        rng_ = planarize(t, t.positions, METHOD_RNG)
        gg_edges = set(map(tuple, gg.edges().tolist()))
        assert all(tuple(e) in gg_edges for e in rng_.edges().tolist())
        assert count_crossings(gg, t.positions) == 0
        assert count_crossings(rng_, t.positions) == 0
        done += 1
    elapsed = time.time() - t0
    report("criterion 9e (RNG subset of GG, no crossings, 20 instances)", elapsed < 60, f"{elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_9f_determinism():
    t0 = time.time()
    cfg = ScenarioConfig(deployment="random", n=300, width=18, height=18,
                         radio_range=2.0, protocol="gf-avcs", align_depth=2,
                         sample=5000, seed=12)
    assert evaluate(cfg).csv_row() == evaluate(cfg).csv_row()
    elapsed = time.time() - t0
    report("criterion 9f (byte-identical reruns)", elapsed < 60, f"{elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_9g_lcr_complete():
    t0 = time.time()
    rng = np.random.default_rng(21)
    for seed in (5, 6, 7):
        t = _random_connected(seed, n=100, side=9.0)
        if t is None:
            continue
        vc = build_vcs(t, corner_anchors(t, 4))
        m = vc.matrix.astype(float)
        for _ in range(60):
            src, dst = (int(x) for x in rng.integers(0, t.n, 2))
            dfield = dm.whole_field(dm.euclidean_field, m, m[dst])
            rr = lcr_route(src, dst, dfield, t, 2 * t.n)
            assert rr.delivered
    elapsed = time.time() - t0
    report("criterion 9g (LCR delivers on connected graphs)", elapsed < 60, f"{elapsed:.1f}s")
    assert elapsed < 60
