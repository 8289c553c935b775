"""Distance fields: the distance of every node's coordinate row to one target.

Routing compares a node's (possibly aligned, real-valued) coordinates against
the destination's integer coordinate vector, so all VCS distances take a real
vector on the left and an integer vector on the right.  The semi-Manhattan
distance weights overshoot (coordinate above the destination's) by a factor A
and is intentionally asymmetric for A != 1; A = 1 reduces it to Manhattan.
Geographic routing uses the Euclidean field over planar positions.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

KINDS = ("euclid", "manhattan", "semi", "geo")

DEFAULT_SEMI_WEIGHT = 10.0

# field(coordinate rows, target rows or one target vector) -> distance per row
FieldFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def euclidean_field(matrix: np.ndarray, v_dst: np.ndarray) -> np.ndarray:
    d = matrix - np.asarray(v_dst, dtype=float)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)``, bit for bit, of a 2-D float array of one or more columns.

    Below 8 terms numpy sums each row in order, starting from 0.0 (so a row
    of -0.0 sums to 0.0).  The same additions done on whole columns skip
    numpy's per-row loop call, which dominates for the few columns a
    coordinate row has; wider rows go to numpy itself.
    """
    n = a.shape[1]
    if n >= 8:
        return a.sum(axis=1)
    res = a[:, 0] + 0.0
    for j in range(1, n):
        res += a[:, j]
    return res


def manhattan_field(matrix: np.ndarray, v_dst: np.ndarray) -> np.ndarray:
    return row_sums(np.abs(matrix - np.asarray(v_dst, dtype=float)))


def semi_manhattan_field(matrix: np.ndarray, v_dst: np.ndarray,
                         weight: float = DEFAULT_SEMI_WEIGHT) -> np.ndarray:
    diff = matrix - np.asarray(v_dst, dtype=float)
    over = row_sums(np.clip(diff, 0.0, None))
    under = row_sums(np.clip(-diff, 0.0, None))
    return weight * over + under


def field_function(kind: str, weight: float = DEFAULT_SEMI_WEIGHT) -> FieldFn:
    """Field builder for a configured distance kind (config key ``distance``)."""
    if kind in ("euclid", "geo"):
        return euclidean_field
    if kind == "manhattan":
        return manhattan_field
    if kind == "semi":
        return lambda m, v: semi_manhattan_field(m, v, weight)
    raise ValueError(f"unknown distance kind {kind!r}")
