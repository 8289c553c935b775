"""Invariants of virtual coordinates that several test modules assert."""

import numpy as np


def check_edge_lipschitz(vc, t) -> bool:
    """Every edge differs by at most one hop in every dimension (BFS property)."""
    u, v = t.edges().T
    return bool((np.abs(vc.matrix[u] - vc.matrix[v]) <= 1).all())
