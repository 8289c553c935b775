import math

import numpy as np
import pytest

from routesim import distance as dm


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
