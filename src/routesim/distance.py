"""Distance fields: the distance of every node's coordinate row to one target.

Routing compares a node's (possibly aligned, real-valued) coordinates against
the destination's integer coordinate vector, so all VCS distances take a real
vector on the left and an integer vector on the right.  The semi-Manhattan
distance weights overshoot (coordinate above the destination's) by a factor A
and is intentionally asymmetric for A != 1; A = 1 reduces it to Manhattan.
Geographic routing uses the Euclidean field over planar positions.

A field function reduces rows of ``local - target`` into a distance per row:
``field(diff, out) -> out``.  The caller owns both arrays and the field may
overwrite ``diff``, so the lockstep kernel reuses one set of step buffers
for a whole call.  ``whole_field`` builds a field from local rows and one
target vector (or one target row per local row) with fresh arrays.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

KINDS = ("euclid", "manhattan", "semi", "geo")

DEFAULT_SEMI_WEIGHT = 10.0

# field(rows of local - target, may be overwritten; out) -> out, the distance per row
FieldFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def whole_field(field: FieldFn, local: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``field`` of every row of ``local`` to ``target``: one vector, or one row per local row."""
    return field(local - np.asarray(target, dtype=float), np.empty(len(local)))


def row_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` into ``out``, bit for bit, of a 2-D float array of one or more columns.

    Below 8 terms numpy sums each row in order, starting from 0.0 (so a row
    of -0.0 sums to 0.0).  The same additions done on whole columns skip
    numpy's per-row loop call, which dominates for the few columns a
    coordinate row has; wider rows go to numpy itself.
    """
    n = a.shape[1]
    if n >= 8:
        return a.sum(axis=1, out=out)
    np.add(a[:, 0], 0.0, out=out)
    for j in range(1, n):
        out += a[:, j]
    return out


def euclidean_field(diff: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.einsum("ij,ij->i", diff, diff, out=out)
    return np.sqrt(out, out=out)


def manhattan_field(diff: np.ndarray, out: np.ndarray) -> np.ndarray:
    return row_sums(np.abs(diff, out=diff), out)


def semi_manhattan_field(diff: np.ndarray, out: np.ndarray,
                         weight: float = DEFAULT_SEMI_WEIGHT) -> np.ndarray:
    """``weight * sum(max(d, 0)) - sum(min(d, 0))`` per row.

    The same bits as ``weight * sum(clip(d, 0)) + sum(clip(-d, 0))``, signed
    zeros included: negating every term negates a row sum exactly, and
    subtracting a sum adds its negation.  The undershoot is the one
    (rows, dims) temporary a field allocates.
    """
    under = row_sums(np.minimum(diff, 0.0), np.empty(len(out)))
    row_sums(np.maximum(diff, 0.0, out=diff), out)
    out *= weight
    return np.subtract(out, under, out=out)


def field_function(kind: str, weight: float = DEFAULT_SEMI_WEIGHT) -> FieldFn:
    """Field function for a configured distance kind (config key ``distance``)."""
    if kind in ("euclid", "geo"):
        return euclidean_field
    if kind == "manhattan":
        return manhattan_field
    if kind == "semi":
        return lambda diff, out: semi_manhattan_field(diff, out, weight)
    raise ValueError(f"unknown distance kind {kind!r}")
