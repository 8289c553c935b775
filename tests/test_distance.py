import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from routesim import distance as dm
from routesim.harness import Scenario, ScenarioConfig
from routesim.routing import Failure, greedy_route
from routesim.routing.greedy import greedy_lockstep


def euclid(a, b) -> float:
    return float(dm.euclidean_field(np.asarray([a], dtype=float), b)[0])


def manhattan(a, b) -> float:
    return float(dm.manhattan_field(np.asarray([a], dtype=float), b)[0])


def semi(a, b, weight) -> float:
    return float(dm.semi_manhattan_field(np.asarray([a], dtype=float), b, weight)[0])


def test_euclidean_reference_vectors():
    # the counterexample triple: both one-hop options sit at the same distance
    assert euclid([3, 8, 8, 11], [3, 9, 7, 11]) == pytest.approx(math.sqrt(2))
    assert euclid([2, 9, 8, 11], [3, 9, 7, 11]) == pytest.approx(math.sqrt(2))


def test_manhattan_reference_vectors():
    assert manhattan([2, 9, 8, 11], [3, 9, 7, 11]) == 2.0
    assert manhattan([3, 8, 8, 11], [3, 9, 7, 11]) == 2.0


def test_identity_of_indiscernibles():
    v = [4.0, 1.5, 2.25]
    assert euclid(v, v) == 0.0
    assert manhattan(v, v) == 0.0
    assert semi(v, v, 10.0) == 0.0
    assert euclid((1.0, 2.0), (1.0, 2.0)) == 0.0


def test_hand_values():
    assert euclid([0.5, 0.5], [0, 0]) == pytest.approx(0.7071067811865476)
    assert manhattan([0.25, 0.75], [1, 0]) == pytest.approx(1.5)


def test_semi_manhattan_hand_values():
    assert semi([3, 1], [1, 3], 10.0) == pytest.approx(22.0)
    assert semi([1, 1], [3, 3], 10.0) == pytest.approx(4.0)


def test_semi_manhattan_weight_one_is_manhattan():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.integers(0, 20, 4)
        b = rng.integers(0, 20, 4)
        assert semi(a, b, 1.0) == pytest.approx(manhattan(a, b))


def test_semi_manhattan_asymmetric():
    # swapping flips which side carries the overshoot weight, so the value
    # changes whenever overshoot and undershoot differ
    assert semi([5, 0], [0, 0], 10.0) == 50.0
    assert semi([0, 0], [5, 0], 10.0) == 5.0
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(100):
        a = rng.integers(0, 20, 4)
        b = rng.integers(0, 20, 4)
        diff = a - b
        over = diff[diff > 0].sum()
        under = -diff[diff < 0].sum()
        if over == under:
            continue
        checked += 1
        assert semi(a, b, 10.0) != semi(b, a, 10.0)
    assert checked > 50


def test_symmetry_of_symmetric_kinds():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = rng.random(4) * 20
        b = rng.random(4) * 20
        assert euclid(a, b) == pytest.approx(euclid(b, a))
        assert manhattan(a, b) == pytest.approx(manhattan(b, a))


def test_manhattan_dominates_euclidean():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.integers(0, 30, 4)
        b = rng.integers(0, 30, 4)
        assert manhattan(a, b) >= euclid(a, b) - 1e-12


def test_planar_345_and_translation():
    geo = dm.field_function("geo")
    assert geo(np.array([[0.0, 0.0]]), (3, 4))[0] == 5.0
    assert geo(np.array([[1.5, 2.5]]), (4.5, 6.5))[0] == 5.0


def test_fields_match_point_functions():
    # every row of a field equals the distance written out for that row alone
    rng = np.random.default_rng(4)
    m = rng.random((40, 4)) * 12
    v = rng.integers(0, 12, 4)
    ef = dm.euclidean_field(m, v)
    mf = dm.manhattan_field(m, v)
    sf = dm.semi_manhattan_field(m, v, 10.0)
    for i in range(40):
        diff = [float(x) - float(y) for x, y in zip(m[i], v)]
        assert ef[i] == pytest.approx(math.sqrt(sum(d * d for d in diff)))
        assert mf[i] == pytest.approx(sum(abs(d) for d in diff))
        assert sf[i] == pytest.approx(10.0 * sum(d for d in diff if d > 0) - sum(d for d in diff if d < 0))


def test_field_function_selection():
    with pytest.raises(ValueError):
        dm.field_function("nope")
    m = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert dm.field_function("geo")(m, (0.0, 0.0))[1] == 5.0


# The widths row_sums adds column by column, and the first it leaves to numpy.
ROW_SUM_WIDTHS = range(1, 9)


def bits(a: np.ndarray) -> list[int]:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64).tolist()


@st.composite
def float_rows(draw, width: int) -> np.ndarray:
    """1-3 rows of terms within a drawn number of binades of each other, whose
    sum rounds differently in any other order, with a drawn share of signed
    zeros and a few extreme entries."""
    rows = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.integers(0, 60))
    a = np.ldexp(rng.uniform(-1.0, 1.0, (rows, width)), rng.integers(-spread, 1, (rows, width)))
    zero = rng.random((rows, width)) < draw(st.sampled_from((0.0, 0.3, 1.0)))
    a[zero] = np.copysign(0.0, rng.uniform(-1.0, 1.0, int(zero.sum())))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, rows - 1)), draw(st.integers(0, width - 1))
        a[at] = draw(st.floats(-1e300, 1e300))
    return a


@pytest.mark.parametrize("width", ROW_SUM_WIDTHS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_sums_is_numpy_row_sum_bit_for_bit(width, data):
    a = data.draw(float_rows(width))
    assert bits(dm.row_sums(a)) == bits(a.sum(axis=1))


@pytest.mark.parametrize("width", ROW_SUM_WIDTHS)
def test_row_sums_of_negative_zeros_is_positive_zero(width):
    a = np.full((2, width), -0.0)
    assert bits(dm.row_sums(a)) == bits(a.sum(axis=1)) == bits(np.zeros(2))


@pytest.mark.parametrize("width", ROW_SUM_WIDTHS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_manhattan_and_semi_fields_match_numpy_row_sums(width, data):
    """Entries equal to the target's give exact zero differences of either sign."""
    matrix = data.draw(float_rows(width))
    target = data.draw(arrays(np.int64, width, elements=st.integers(-3, 3)))
    same = data.draw(arrays(bool, matrix.shape))
    matrix[same] = np.broadcast_to(target, matrix.shape)[same]
    diff = matrix - target.astype(float)
    assert bits(dm.manhattan_field(matrix, target)) == bits(np.abs(diff).sum(axis=1))
    for weight in (1.0, 10.0):
        want = (weight * np.clip(diff, 0.0, None).sum(axis=1)
                + np.clip(-diff, 0.0, None).sum(axis=1))
        assert bits(dm.semi_manhattan_field(matrix, target, weight)) == bits(want)


@pytest.mark.parametrize("anchors", [(0, 13, 167), (0, 6, 13, 60, 84, 97, 154, 161, 167)])
@pytest.mark.parametrize("distance", ["semi", "manhattan"])
@pytest.mark.parametrize("protocol,align_depth", [("gf-vcs", 0), ("gf-avcs", 2)])
def test_lockstep_matches_greedy_route_on_hand_anchors(anchors, distance, protocol, align_depth):
    """Nine anchors take the fields through numpy's own row sum, three through row_sums."""
    cfg = ScenarioConfig(rows=12, cols=14, radio_range=1.5, anchors=anchors, distance=distance,
                         protocol=protocol, align_depth=align_depth, ttl_factor=0.8)
    sc = Scenario.build(cfg)
    t, ttl = sc.topology, sc.ctx.ttl
    rng = np.random.default_rng(len(anchors))
    srcs = rng.integers(0, t.n, 600)
    dsts = rng.integers(0, t.n, 600)
    hops, stop = greedy_lockstep(srcs, dsts, *sc.ctx.field_inputs(protocol), t, ttl)
    seen = set()
    for i, (src, dst) in enumerate(zip(srcs.tolist(), dsts.tolist())):
        rr = greedy_route(src, dst, sc.ctx.dfield(protocol, dst), t, ttl)
        assert rr.hops == hops[i]
        # dst when delivered, the local minimum, or -1 when ttl-exceeded
        assert stop[i] == (-1 if rr.failure_cause == Failure.TTL_EXCEEDED else rr.path[-1])
        seen.add(rr.failure_cause)
    assert None in seen and len(seen) > 1  # some pairs delivered, some not
