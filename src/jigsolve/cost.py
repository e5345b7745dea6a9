"""Configuration cost: unary + binary negative log-likelihoods.

The unary table ``U`` is row-stochastic, ``U[slot, orig]`` being the belief
that the patch currently in ``slot`` came from original position ``orig``.
The binary table ``V`` has shape ``(n, n, 9)``; ``V[p, q]`` is a distribution
over the 9 relative-position classes for the ordered slot pair ``(p, q)``.
That is the public format.  The solver works on V's pair block, its
``(n(n-1), 9)`` rows in ``ordered_pairs`` order, which the score providers hand
it; ``pair_table`` pads a block into V.  Plain numpy arrays; each solver entry
checks them once with the validators below.

A validator accepts a valid table after one test (``_accepted``): no NaN and no
entry below 0 (one ``minimum.reduce``, which propagates NaN), and every row sum
within ``ROW_SUM_TOL`` of 1.  That rules out +-inf, and for U any entry above
``1 + ROW_SUM_TOL``.  The full checks, one rule at a time, run only on a table
the test refuses, to word the refusal with the rule it breaks.

Probabilities are clamped to ``PROB_FLOOR`` before the log so degenerate
one-hot tables still give finite costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import NUM_REL_CLASSES, GridShape, as_permutation, ordered_pairs, relation_table

PROB_FLOOR = 1e-12
# Above every |entry| of neg_log on checked probabilities: -ln(PROB_FLOOR) ~ 27.63 at most, and above
# -ln(1 + ROW_SUM_TOL) ~ -1e-9 at least.
NEG_LOG_BOUND = 28.0
ROW_SUM_TOL = 1e-9


def neg_log(p: np.ndarray) -> np.ndarray:
    """Elementwise ``-ln max(p, PROB_FLOOR)``, in float64."""
    out = np.maximum(np.asarray(p, dtype=np.float64), PROB_FLOOR)
    if out.ndim == 0:  # a scalar: the ufuncs return numpy scalars, which take no ``out``
        return -np.log(out)
    # The clamp is a fresh array, so the log and the negation run in it.
    return np.negative(np.log(out, out=out), out=out)


def row_softmax(logits) -> np.ndarray:
    """Per-row softmax with max subtraction for numerical stability."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("expected a 2D logit array")
    _extremes(z, "logits")
    # The subtraction makes a fresh array, so ``logits`` is never written.
    e = np.subtract(z, np.maximum.reduce(z, axis=1, keepdims=True))
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def softmax9(logits) -> np.ndarray:
    """Softmax over a single 9-vector of relative-position logits."""
    z = np.asarray(logits, dtype=np.float64)
    if z.shape != (NUM_REL_CLASSES,):
        raise ValueError(f"expected {NUM_REL_CLASSES} logits, got shape {z.shape}")
    return row_softmax(z[None, :])[0]


def _extremes(arr: np.ndarray, name: str):
    """``arr``'s min and max (0, 0 when empty); raise unless both are finite."""
    if not arr.size:
        return 0.0, 0.0
    lo, hi = np.minimum.reduce(arr, axis=None), np.maximum.reduce(arr, axis=None)
    if not -np.inf < lo <= hi < np.inf:  # min and max propagate NaN
        raise ValueError(f"{name} must be finite")
    return lo, hi


def _row_sum_gap(arr: np.ndarray):
    """The largest ``|row sum - 1|`` of a 2D array (0 when it has no rows)."""
    dev = np.add.reduce(arr, axis=1)
    dev -= 1.0
    return np.maximum.reduce(np.abs(dev, out=dev), initial=0.0)


def _accepted(arr: np.ndarray) -> bool:
    """The one acceptance test of a 2D table (see the module docstring): exactly the tables the full checks pass."""
    return bool(np.minimum.reduce(arr, axis=None, initial=0.0) >= 0 and _row_sum_gap(arr) <= ROW_SUM_TOL)


def _unary_refusal(arr: np.ndarray) -> None:
    """Every check of a square unary table in turn; raise the first that fails."""
    lo, hi = _extremes(arr, "unary matrix")
    if lo < 0 or hi > 1 + ROW_SUM_TOL:
        raise ValueError("unary entries must lie in [0, 1]")
    if not _row_sum_gap(arr) <= ROW_SUM_TOL:
        raise ValueError("every unary row must sum to 1")


def _pairs_refusal(arr: np.ndarray) -> None:
    """Every check of a C-ordered pair block in turn; raise the first that fails."""
    lo, _ = _extremes(arr, "binary table")
    if lo < 0 or not _row_sum_gap(arr) <= ROW_SUM_TOL:
        raise ValueError("every off-diagonal 9-vector must be a distribution")


def validate_unary(U, n: int | None = None) -> np.ndarray:
    """Check the row-stochastic unary-matrix invariants and return the array."""
    arr = np.asarray(U, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"unary matrix must be square, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"unary matrix is {arr.shape[0]}x{arr.shape[0]}, expected n={n}")
    if not _accepted(arr):
        _unary_refusal(arr)
    return arr


def validate_pairs(block, n: int) -> np.ndarray:
    """Check V's ``(n(n-1), 9)`` pair block (finite, no negatives, 9-row sums of 1) and return it."""
    arr = np.asarray(block, dtype=np.float64)
    if arr.shape != (n * (n - 1), NUM_REL_CLASSES):
        raise ValueError(f"pair block must have shape ({n * (n - 1)}, 9), got {arr.shape}")
    # Each 9-vector is summed as one contiguous run, whatever the block's layout.
    rows = np.ascontiguousarray(arr)
    if not _accepted(rows):
        _pairs_refusal(rows)
    return arr


def validate_binary(V, n: int | None = None) -> np.ndarray:
    """Check the public (n, n, 9) V, all finite, and its pair block (:func:`validate_pairs`); return it."""
    arr = np.asarray(V, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != NUM_REL_CLASSES:
        raise ValueError(f"binary table must have shape (n, n, 9), got {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"binary table is for n={arr.shape[0]}, expected n={n}")
    _extremes(arr, "binary table")
    validate_pairs(arr[ordered_pairs(arr.shape[0])], arr.shape[0])
    return arr


def pair_table(block, n: int, fill: float) -> np.ndarray:
    """The public ``(n, n, 9)`` V of a pair block, its unused diagonal set to ``fill``."""
    V = np.full((n, n, NUM_REL_CLASSES), fill)
    V[ordered_pairs(n)] = block
    return V


@dataclass(frozen=True)
class CostBreakdown:
    """Unary and binary parts of the configuration cost, plus their sum."""

    unary: float
    binary: float

    @property
    def total(self) -> float:
        return self.unary + self.binary


def unary_cost(U, c) -> float:
    """``sum_s -ln U[s, c[s]]`` with the probability floor applied."""
    arr = np.asarray(U, dtype=np.float64)
    perm = as_permutation(c)
    if arr.shape != (perm.size, perm.size):
        raise ValueError(f"unary matrix {arr.shape} does not match n={perm.size}")
    return float(np.sum(neg_log(arr[np.arange(perm.size), perm])))


def binary_cost(V, c, shape: GridShape) -> float:
    """Sum over ordered slot pairs of the relative-position log-likelihoods."""
    if shape.is_3d:
        raise ValueError("binary terms are not defined on 3D grids")
    perm = as_permutation(c, shape.n)
    arr = np.asarray(V, dtype=np.float64)
    n = perm.size
    if arr.shape != (n, n, NUM_REL_CLASSES):
        raise ValueError(f"binary table {arr.shape} does not match n={n}")
    rel = relation_table(shape)
    p, q = ordered_pairs(n)
    classes = rel[perm[p], perm[q]]
    return float(np.sum(neg_log(arr[p, q, classes])))


def total_cost(U, V, c, shape: GridShape) -> CostBreakdown:
    """Unary part plus (when ``V`` is given) the binary part."""
    u = unary_cost(U, c)
    b = 0.0 if V is None else binary_cost(V, c, shape)
    return CostBreakdown(unary=u, binary=b)


def column_sum_deviation(U) -> np.ndarray:
    """Per-column ``|sum - 1|``; a diagnostic, never used by the optimizer."""
    arr = validate_unary(U)
    return np.abs(arr.sum(axis=0) - 1.0)
