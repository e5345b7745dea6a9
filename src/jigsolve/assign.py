"""Exact minimum-cost assignment with a deterministic lexicographic tie rule.

The matching itself is delegated to ``scipy.optimize.linear_sum_assignment``;
this module adds the tie-break contract: among all optimal assignments, the
lexicographically smallest ``assign`` array is returned.  Near-ties closer
than ``TIE_TOL`` (relative) are treated as exact ties; genuine cost gaps in
practice are many orders of magnitude wider.

One solve gives an optimal matching sigma.  A second solve, with each of
sigma's entries raised by a margin wider than the tie tolerance, certifies
it: when sigma stays optimal, no other assignment is within the tolerance,
and sigma is the answer.  So the identity takes one solve and a table
without near-ties two.  Only a table that fails the certificate runs the
tie pass: shortest paths on sigma's residual graph give LP duals, an
assignment within the tolerance uses only (slot, column) pairs of near-zero
reduced cost, and a greedy pass pins slots left to right.  It tests a
column smaller than the current one with a constrained re-solve only when
that column is near the slot and near pairs lead from it back to the
slot's optimal column, and its float test decides every tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .cost import NEG_LOG_BOUND, neg_log, validate_unary

TIE_TOL = 1e-12
_SWEEP_BYTES = 64 << 10  # a Bellman-Ford sweep's temporary, as ``search.round_bytes`` counts it


@dataclass(frozen=True)
class AssignmentResult:
    """Optimal configuration and its total selected-entry cost."""

    config: np.ndarray
    cost: float


@lru_cache(maxsize=64)
def _row_starts(n: int) -> np.ndarray:
    # Flat index of each row's first entry in an (n, n) table, read-only.
    starts = np.arange(n) * n
    starts.setflags(write=False)
    return starts


def _solve(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    # A square table: the solver's rows are 0..n-1, so the optimum's entries
    # are one take on the raveled table, summed in row order.
    _, cols = linear_sum_assignment(matrix)
    return cols, float(np.add.reduce(matrix.take(cols + _row_starts(len(cols)))))


def _reduced_moves(m: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LP reduced costs of the moves away from the optimum ``sigma``, and the duals.

    The move ``k -> j`` gives column j to the slot ``i`` that ``sigma`` gives
    column k, and costs ``m[i, j] - m[i, k]``.  The column potentials ``v``
    are shortest-path distances over these moves from a zero virtual source
    (Bellman-Ford, at most n rounds of one (n, n) ``min``), and the reduced
    cost of ``k -> j`` is ``v[k] + cost - v[j]``, >= 0 up to rounding.  One
    (n, n) array is built and turned into the reduced costs in place; a
    sweep takes its ``min`` over row chunks of about ``_SWEEP_BYTES``.
    """
    n = m.shape[0]
    w = m[np.argsort(sigma)]
    w -= w.diagonal().copy()[:, None]  # w[k, k] == 0
    v = np.zeros(n)
    step = max(1, _SWEEP_BYTES // (8 * n))
    for _ in range(n):
        nxt = np.full(n, np.inf)
        for lo in range(0, n, step):
            np.minimum(nxt, (v[lo : lo + step, None] + w[lo : lo + step]).min(axis=0), out=nxt)
        if not (nxt < v).any():
            break
        v = nxt
    w += v[:, None]
    w -= v[None, :]
    return w, v


def _near_moves(m: np.ndarray, sigma: np.ndarray, tol: float) -> np.ndarray:
    """The moves that an assignment within ``tol`` of ``sigma``'s cost may make.

    An (n, n) mask: row k holds the columns that the slot holding column k
    may move to.
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
    scale = 1.0 + max(m.max(), -m.min()) - v.min()
    return red <= tol + 1e-9 * n * scale - low


def _certified(m: np.ndarray, sigma: np.ndarray, tol: float, bound: Optional[float] = None) -> bool:
    """Whether ``sigma`` is the only assignment the tie pass's float test can accept.

    ``bound`` is an upper bound on ``max|m|`` that the caller knows, such as
    ``NEG_LOG_BOUND`` for a ``-ln`` table of checked probabilities; without it
    the scale is read off ``m`` with two full-table reductions.
    """
    # Raise each of sigma's n entries by delta = tol + 1e-9 n (1 + top), with
    # top = bound >= max|m| (or max|m| itself), the margin above with no duals in
    # the scale, and solve again.  An assignment p that differs from sigma in
    # d >= 2 slots keeps n - d of the raised entries, so if sigma stays optimal,
    # cost(p) >= opt + d delta - (LSAP rounding) >= opt + 2 delta - (LSAP
    # rounding).  The tie pass accepts only p with cost(p) <= opt + tol up to
    # under 25 n**2 eps (1 + max|m|), and 2 delta - tol exceeds that by at least
    # the same 1e-9 n margin, as top >= max|m|.  So the tie pass would return
    # sigma, with the cost opt.  A larger top only widens delta, which can turn
    # a certification into that same tie pass, never into another answer.  A
    # table whose raised entries could overflow (top + delta is not finite),
    # or a solver error, leaves sigma uncertified; the raised copy is freed on
    # return, before any tie pass runs.
    n = len(sigma)
    if bound is None:
        bound = max(np.maximum.reduce(m, axis=None), -np.minimum.reduce(m, axis=None))
    top = float(bound)
    delta = tol + 1e-9 * n * (1.0 + top)
    if not math.isfinite(top + delta):
        return False
    bumped = m.copy()
    bumped.ravel()[sigma + _row_starts(n)] += delta
    try:
        _, cols = linear_sum_assignment(bumped)
    except ValueError:
        return False
    return cols.tolist() == sigma.tolist()


def _leads_back(near: np.ndarray, c: int, target: int) -> bool:
    """Whether a path of near moves leads from column c to column ``target``."""
    seen = {c}
    todo = [c]
    while todo:
        for j in np.flatnonzero(near[todo.pop()]).tolist():
            if j == target:
                return True
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return False


def _tie_pass(m: np.ndarray, sigma: np.ndarray, opt: float, tol: float) -> AssignmentResult:
    """The greedy tie pass from the optimum ``sigma`` of cost ``opt``, pruned by near moves."""
    n = m.shape[0]
    assign = np.empty(n, dtype=np.int64)
    free = [True] * n
    completion = sigma.tolist()  # optimal columns for slots s..n-1
    near = None  # built when a smaller column first needs a test
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
                near = _near_moves(m, sigma, tol)
            for c in np.flatnonzero(near[sigma[s]]).tolist():
                if c >= chosen:
                    break
                if not free[c] or not _leads_back(near, c, int(sigma[s])):
                    continue
                # Never the last slot: there only the chosen column is free.
                # ``take`` gives a C-ordered block, which the solver does not copy.
                rest = [r for r in range(n) if free[r] and r != c]
                sub_cols, sub_cost = _solve(m[s + 1 :].take(rest, axis=1))
                if fixed + m[s, c] + sub_cost <= opt + tol:
                    chosen = c
                    completion = [c] + [rest[j] for j in sub_cols]
                    break
        assign[s] = chosen
        fixed += m[s, chosen]
        free[chosen] = False
        completion = completion[1:]

    return AssignmentResult(config=assign, cost=float(m[np.arange(n), assign].sum()))


def _tie_ruled(m: np.ndarray, bound: Optional[float] = None) -> AssignmentResult:
    """``min_cost_assignment`` of a square, finite float64 matrix, which it does not check.

    The solver entries reach it with tables they have checked once, and pass
    ``NEG_LOG_BOUND`` as ``bound`` for the ``-ln`` tables they build, so the
    certificate reads no scale off the table (see ``_certified``).
    """
    n = m.shape[0]
    if n < 1:
        raise ValueError("cost matrix must be at least 1x1")
    sigma, opt = _solve(m)
    tol = TIE_TOL * max(1.0, abs(opt))
    if sigma.tolist() == list(range(n)) or _certified(m, sigma, tol, bound):
        return AssignmentResult(config=sigma.astype(np.int64), cost=opt)
    return _tie_pass(m, sigma, opt, tol)


def min_cost_assignment(costs) -> AssignmentResult:
    """Globally optimal assignment, lexicographically smallest among ties."""
    m = np.asarray(costs, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("cost matrix must be finite")
    return _tie_ruled(m)


def unary_argmin(U) -> AssignmentResult:
    """Best configuration under unary terms alone (binary switched off).

    Matches on the ``-ln`` entries, so the reported cost is the unary part of
    the total configuration cost.
    """
    return _tie_ruled(neg_log(validate_unary(U)), NEG_LOG_BOUND)
