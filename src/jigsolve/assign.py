"""Exact minimum-cost assignment with a deterministic lexicographic tie rule.

The matching itself is delegated to ``scipy.optimize.linear_sum_assignment``;
this module adds the tie-break contract: among all optimal assignments, the
lexicographically smallest ``assign`` array is returned.  Near-ties closer
than ``TIE_TOL`` (relative) are treated as exact ties; genuine cost gaps in
practice are many orders of magnitude wider.

One solve gives an optimal matching, and shortest paths on its residual
graph give LP duals.  An assignment within the tie tolerance of the optimum
uses only (slot, column) pairs of near-zero reduced cost, and it differs
from the optimum by cycles of such pairs.  A greedy pass then pins slots
left to right.  It tests a column smaller than the current one with a
constrained re-solve only when that column is near the slot and near pairs
lead from it back to the slot's optimal column.  So a matrix without
near-ties takes one solve, and the greedy's float test decides every tie.
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


def _reduced_moves(m: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LP reduced costs of the moves away from the optimum ``sigma``, and the duals.

    The move ``k -> j`` gives column j to the slot ``i`` that ``sigma`` gives
    column k, and costs ``m[i, j] - m[i, k]``.  The column potentials ``v``
    are shortest-path distances over these moves from a zero virtual source
    (Bellman-Ford, at most n rounds of one (n, n) ``min``), and the reduced
    cost of ``k -> j`` is ``v[k] + cost - v[j]``, >= 0 up to rounding.
    """
    n = m.shape[0]
    w = (m - m[np.arange(n), sigma][:, None])[np.argsort(sigma)]  # w[k, k] == 0
    v = np.zeros(n)
    for _ in range(n):
        nxt = np.minimum.reduce(v[:, None] + w)
        if not (nxt < v).any():
            break
        v = nxt
    return v[:, None] + w - v[None, :], v


def _near_moves(m: np.ndarray, sigma: np.ndarray, tol: float) -> tuple[list, list]:
    """The moves that an assignment within ``tol`` of ``sigma``'s cost may make.

    Returns ascending column lists twice: per column k, the columns that the
    slot holding k may move to, and the same lists per slot.
    """
    # An assignment p differs from sigma by disjoint cycles of moves, and its
    # extra cost is the sum of their reduced costs, since the potentials
    # cancel around each cycle.  If p costs at most opt + tol, each of its
    # moves therefore has red <= tol - low, with low = n * min(0, min(red))
    # (0 for exactly feasible duals).  Float error, with eps = 2**-53 and
    # scale = 1 + |m| + |v|: <= 10 eps scale in a red entry and 10 n eps
    # scale in low, and <= (n + 1) n eps scale in each of the greedy's summed
    # cost, opt and opt + tol: under 25 n**2 eps scale in all.
    # margin = 1e-9 n scale covers that for n < 3e5, beyond any matrix that
    # fits in memory, so every move of an assignment the greedy's float test
    # accepts is near.  Too large a margin would only add re-solves.
    n = m.shape[0]
    red, v = _reduced_moves(m, sigma)
    low = n * min(0.0, red.min())
    scale = 1.0 + np.abs(m).max() - v.min()
    rows, cols = np.nonzero(red <= tol + 1e-9 * n * scale - low)
    cols = cols.tolist()
    ends = np.searchsorted(rows, np.arange(n + 1)).tolist()
    moves = [cols[ends[k] : ends[k + 1]] for k in range(n)]
    return moves, [moves[k] for k in sigma.tolist()]


def _leads_back(moves: list, c: int, target: int) -> bool:
    """Whether a path of near moves leads from column c to column ``target``."""
    seen = {c}
    todo = [c]
    while todo:
        for j in moves[todo.pop()]:
            if j == target:
                return True
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return False


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
    sigma, opt = _solve(m)
    tol = TIE_TOL * max(1.0, abs(opt))

    assign = np.empty(n, dtype=np.int64)
    free = [True] * n
    completion = sigma.tolist()  # optimal columns for slots s..n-1
    near = moves = None  # built when a smaller column first needs a test
    fixed = 0.0
    for s in range(n):
        chosen = completion[0]
        # Any unused smaller column that still admits an optimal completion
        # wins; test them in ascending order.  An assignment that gives slot s
        # column c holds the cycle of moves sigma[s] -> c -> ... -> sigma[s];
        # unless each of them is near, the float test below fails, so the
        # re-solve is skipped.
        if any(free[:chosen]):
            if near is None:
                moves, near = _near_moves(m, sigma, tol)
            for c in near[s]:
                if c >= chosen:
                    break
                if not free[c] or not _leads_back(moves, c, int(sigma[s])):
                    continue
                # Never the last slot: there only the chosen column is free.
                rest = [r for r in range(n) if free[r] and r != c]
                sub_cols, sub_cost = _solve(m[s + 1 :, rest])
                if fixed + m[s, c] + sub_cost <= opt + tol:
                    chosen = c
                    completion = [c] + [rest[j] for j in sub_cols]
                    break
        assign[s] = chosen
        fixed += m[s, chosen]
        free[chosen] = False
        completion = completion[1:]

    return AssignmentResult(config=assign, cost=float(m[np.arange(n), assign].sum()))


def unary_argmin(U) -> AssignmentResult:
    """Best configuration under unary terms alone (binary switched off).

    Matches on the ``-ln`` entries, so the reported cost is the unary part of
    the total configuration cost.
    """
    return min_cost_assignment(neg_log(validate_unary(U)))
