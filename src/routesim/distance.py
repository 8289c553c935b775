"""Distance functions over coordinate vectors and planar points.

Routing compares a node's (possibly aligned, real-valued) coordinates against
the destination's integer coordinate vector, so all VCS distances take a real
vector on the left and an integer vector on the right.  The semi-Manhattan
distance weights overshoot (coordinate above the destination's) by a factor A
and is intentionally asymmetric for A != 1; A = 1 reduces it to Manhattan.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

KINDS = ("euclid", "manhattan", "semi", "geo")

DEFAULT_SEMI_WEIGHT = 10.0


def _check_dims(av, v_dst) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(av, dtype=float)
    b = np.asarray(v_dst, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def euclidean_vcs(av, v_dst) -> float:
    """sqrt of the summed squared per-dimension differences."""
    a, b = _check_dims(av, v_dst)
    return float(euclidean_field(a[None], b)[0])


def manhattan_vcs(av, v_dst) -> float:
    """Sum of absolute per-dimension differences."""
    a, b = _check_dims(av, v_dst)
    return float(manhattan_field(a[None], b)[0])


def semi_manhattan_vcs(av, v_dst, weight: float = DEFAULT_SEMI_WEIGHT) -> float:
    """weight * (total overshoot above the destination) + total undershoot."""
    if weight <= 0:
        raise ValueError("semi-Manhattan weight must be positive")
    a, b = _check_dims(av, v_dst)
    return float(semi_manhattan_field(a[None], b, weight)[0])


def planar_euclidean(p, q) -> float:
    """Standard planar Euclidean distance for geographic routing."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


# Vectorized per-destination fields used by the harness: distance of every
# node's coordinate row to one destination vector.

def euclidean_field(matrix: np.ndarray, v_dst: np.ndarray) -> np.ndarray:
    d = matrix - np.asarray(v_dst, dtype=float)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def manhattan_field(matrix: np.ndarray, v_dst: np.ndarray) -> np.ndarray:
    return np.abs(matrix - np.asarray(v_dst, dtype=float)).sum(axis=1)


def semi_manhattan_field(matrix: np.ndarray, v_dst: np.ndarray,
                         weight: float = DEFAULT_SEMI_WEIGHT) -> np.ndarray:
    diff = matrix - np.asarray(v_dst, dtype=float)
    over = np.clip(diff, 0.0, None).sum(axis=1)
    under = np.clip(-diff, 0.0, None).sum(axis=1)
    return weight * over + under


def planar_field(positions: np.ndarray, q) -> np.ndarray:
    d = positions - np.asarray(q, dtype=float)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def field_function(kind: str, weight: float = DEFAULT_SEMI_WEIGHT) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Field builder for a configured distance kind (config key ``distance``)."""
    if kind == "euclid":
        return euclidean_field
    if kind == "manhattan":
        return manhattan_field
    if kind == "semi":
        return lambda m, v: semi_manhattan_field(m, v, weight)
    if kind == "geo":
        return planar_field
    raise ValueError(f"unknown distance kind {kind!r}")
