"""Exact minimum-cost assignment with a deterministic lexicographic tie rule.

The matching itself is delegated to ``scipy.optimize.linear_sum_assignment``;
this module adds the tie-break contract: among all optimal assignments, the
lexicographically smallest ``assign`` array is returned.  That is resolved by
a greedy pass that pins slots left to right, testing each smaller column with
a constrained re-solve.  Near-ties closer than ``TIE_TOL`` (relative) are
treated as exact ties; genuine cost gaps in practice are many orders of
magnitude wider.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .cost import neg_log, validate_unary

TIE_TOL = 1e-12


@dataclass(frozen=True)
class AssignmentResult:
    """Optimal configuration and its total selected-entry cost."""

    config: np.ndarray
    cost: float


def _solve(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    rows, cols = linear_sum_assignment(matrix)
    return cols, float(matrix[rows, cols].sum())


def min_cost_assignment(costs) -> AssignmentResult:
    """Globally optimal assignment, lexicographically smallest among ties."""
    m = np.asarray(costs, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("cost matrix must be at least 1x1")
    if not np.isfinite(m).all():
        raise ValueError("cost matrix must be finite")

    n = m.shape[0]
    completion, opt = _solve(m)
    tol = TIE_TOL * max(1.0, abs(opt))

    assign = np.empty(n, dtype=np.int64)
    remaining = list(range(n))  # kept sorted
    completion = list(completion)  # optimal columns for slots s..n-1
    fixed = 0.0
    for s in range(n):
        chosen = completion[0]
        # Any unused smaller column that still admits an optimal completion
        # wins; test candidates in ascending order.
        for c in remaining:
            if c >= chosen:
                break
            rest = [r for r in remaining if r != c]
            if s + 1 < n:
                sub = m[s + 1 :, rest]
                sub_cols, sub_cost = _solve(sub)
                cand_cost = fixed + m[s, c] + sub_cost
                cand_completion = [rest[j] for j in sub_cols]
            else:
                cand_cost = fixed + m[s, c]
                cand_completion = []
            if cand_cost <= opt + tol:
                chosen = c
                completion = [c] + cand_completion
                break
        assign[s] = chosen
        fixed += m[s, chosen]
        remaining.remove(chosen)
        completion = completion[1:]

    return AssignmentResult(config=assign, cost=float(m[np.arange(n), assign].sum()))


def unary_argmin(U) -> AssignmentResult:
    """Best configuration under unary terms alone (binary switched off).

    Matches on the ``-ln`` entries, so the reported cost is the unary part of
    the total configuration cost.
    """
    return min_cost_assignment(neg_log(validate_unary(U)))
