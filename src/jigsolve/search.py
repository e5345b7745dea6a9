"""Full configuration predictor and the iterative reorganization loop.

A round validates and takes ``-ln`` of each table once, seeds from the
Hungarian solution of the unary terms, and ranks every permutation within a
limited Hamming distance of the seed (radius 0 unless 2D binary terms apply)
with one cost kernel, whose parts at the winner are the round's cost.  The
prediction is then applied physically -- patches move to their predicted
slots -- until the predictor proposes the identity or a round cap is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Protocol, TYPE_CHECKING

import numpy as np

from . import cost as _cost
from .assign import min_cost_assignment
from .cost import CostBreakdown, neg_log, validate_binary, validate_unary
from .grid import (
    GridShape,
    all_permutations,
    as_permutation,
    enumerate_hamming_ball,
    hamming,
    hamming_ball_size,
    is_identity,
    relation_table,
)

if TYPE_CHECKING:
    from .puzzlegen import PuzzleInstance

BRUTE_FORCE_MAX_N = 9
_CHUNK = 50_000


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the predictor and the iteration loop.

    The Hamming radius is a free hyperparameter (the ball search only says
    "limited" distance); the default of 3 covers pair and triple corrections
    at negligible per-round cost.
    """

    radius: int = 3
    max_rounds: int = 20
    use_binary: bool = True
    candidate_cap: Optional[int] = None

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.candidate_cap is not None and self.candidate_cap < 1:
            raise ValueError("candidate_cap must be >= 1 when set")


@dataclass(frozen=True)
class RoundRecord:
    prediction: np.ndarray
    cost: CostBreakdown
    hamming_to_truth: Optional[int] = None


@dataclass(frozen=True)
class SolveTrace:
    """Per-round record of one iterative solve."""

    rounds: list[RoundRecord]
    converged: bool
    solved: Optional[bool]
    final_truth: Optional[np.ndarray] = None
    binary_degraded: bool = False

    @property
    def rounds_used(self) -> int:
        return len(self.rounds)


class ScoreProvider(Protocol):
    """Anything that can turn an arranged puzzle into score tables."""

    def score(self, puzzle: "PuzzleInstance") -> tuple[np.ndarray, Optional[np.ndarray]]:
        ...


def _candidate_array(center: np.ndarray, radius: int, cap: Optional[int]) -> np.ndarray:
    n = center.size
    if radius >= n and n <= BRUTE_FORCE_MAX_N and cap is None:
        return all_permutations(n)
    radius = min(radius, n)
    if cap is None:
        return enumerate_hamming_ball(center, radius)
    # A smaller ball is a prefix of a larger one, so the first `cap` members
    # come from the smallest radius whose ball holds them; a large radius
    # with a small cap then never builds the whole table.
    while radius > 0 and hamming_ball_size(n, radius - 1) >= cap:
        radius -= 1
    return enumerate_hamming_ball(center, radius)[:cap]


@lru_cache(maxsize=1)
def _full_sweep_flat(shape: GridShape) -> np.ndarray:
    # Flattened pair-table indices for the all-permutations sweep.  They only
    # depend on the grid, so full-enumeration calls (the brute-force oracle
    # and radius >= n refinement) share one precomputed gather index.
    n = shape.n
    idx = all_permutations(n).astype(np.intp)
    p, q = _cost._pair_indices(n)
    koff = (np.arange(len(p), dtype=np.intp) * n * n)[None, :]
    flat = ((idx * n)[:, p] + idx[:, q] + koff).astype(np.int32)
    flat.setflags(write=False)
    return flat


def _batch_costs(logu, logv, shape: GridShape, cands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unary and binary cost parts of each candidate row, from ``-ln`` tables.

    All rows of one call are summed the same way, so they rank consistently;
    a total may differ from the scalar ``total_cost`` in the last bits.
    """
    n = shape.n
    idx = cands.astype(np.intp)
    unary = logu[np.arange(n), idx].sum(axis=1)
    binary = np.zeros(len(idx))
    if logv is not None:
        rel = relation_table(shape)
        p, q = _cost._pair_indices(n)
        # One flattened lookup table per ordered pair: entry (k, a*n + b) is
        # the pair-k cost of original IDs (a, b).  A single gather per chunk
        # then replaces the per-pair class lookup.
        paircost = logv[p[:, None], q[:, None], rel.ravel()[None, :]]
        pc_flat = np.ascontiguousarray(paircost).ravel()
        # The length test comes first so that a ball never materializes S_n.
        cached = (
            n <= BRUTE_FORCE_MAX_N
            and len(cands) == math.factorial(n)
            and cands is all_permutations(n)
        )
        flat_all = _full_sweep_flat(shape) if cached else None
        koff = (np.arange(len(p), dtype=np.intp) * n * n)[None, :]
        for lo in range(0, len(idx), _CHUNK):
            if cached:
                flat = flat_all[lo : lo + _CHUNK]
            else:
                chunk = idx[lo : lo + _CHUNK]
                flat = (chunk * n)[:, p] + chunk[:, q] + koff
            binary[lo : lo + _CHUNK] = pc_flat[flat].sum(axis=1)
    return unary, binary


def _select(cands: np.ndarray, totals: np.ndarray, center: np.ndarray) -> int:
    # Tie key: total cost, then Hamming distance to the center, then
    # lexicographic order of the assign array.  Exact float equality is the
    # tie test; genuinely tied candidates produce bit-identical sums.
    best = np.flatnonzero(totals == totals.min())
    if len(best) > 1:
        ham = (cands[best] != center[None, :]).sum(axis=1)
        best = best[ham == ham.min()]
    return int(min(best, key=lambda row: cands[row].tolist()))


def _refine(logu, logv, center, shape: GridShape, radius: int, cap: Optional[int]):
    # Best member of the radius ball around ``center`` and its cost parts.
    cands = _candidate_array(center, radius, cap)
    unary, binary = _batch_costs(logu, logv, shape, cands)
    row = _select(cands, unary + binary, center)
    return cands[row].astype(np.int64), CostBreakdown(float(unary[row]), float(binary[row]))


def refine_with_binary(
    U,
    V,
    seed,
    shape: GridShape,
    radius: int,
    candidate_cap: Optional[int] = None,
) -> np.ndarray:
    """Best configuration in the Hamming ball around ``seed``.

    Never returns a candidate costlier than the seed (the seed is in the
    ball).  Ties break toward smaller distance from the seed, then
    lexicographically.
    """
    if shape.is_3d and V is not None:
        raise ValueError("binary refinement is not defined on 3D grids")
    logv = None if V is None else neg_log(V)
    config, _ = _refine(neg_log(U), logv, as_permutation(seed, shape.n), shape, radius, candidate_cap)
    return config


def predict(U, V, shape: GridShape, opts: SolverOptions) -> tuple[np.ndarray, CostBreakdown]:
    """Hungarian seed refined over the Hamming ball, and the winner's cost."""
    logu = neg_log(validate_unary(U, shape.n))
    use_v = opts.use_binary and V is not None and not shape.is_3d
    logv = neg_log(validate_binary(V, shape.n)) if use_v else None
    seed = min_cost_assignment(logu).config
    return _refine(logu, logv, seed, shape, opts.radius if use_v else 0, opts.candidate_cap)


def brute_force_argmin(U, V, shape: GridShape) -> np.ndarray:
    """Exhaustive minimum over all n! configurations (test oracle, n <= 9)."""
    if shape.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force refused for n > {BRUTE_FORCE_MAX_N}")
    cands = all_permutations(shape.n)
    unary, binary = _batch_costs(neg_log(U), None if V is None else neg_log(V), shape, cands)
    # all_permutations is lexicographic, so the first minimum is the tie rule.
    return cands[int(np.argmin(unary + binary))].astype(np.int64)


def solve_iterative(provider: ScoreProvider, puzzle: "PuzzleInstance", opts: SolverOptions) -> SolveTrace:
    """Iterate score -> predict -> reorganize until the identity is proposed.

    Each round appends a record; convergence means the predictor proposed no
    further moves.  On 3D grids binary terms are silently dropped and the
    trace carries ``binary_degraded=True``.
    """
    state = puzzle
    shape = state.shape
    rounds: list[RoundRecord] = []
    converged = False
    degraded = False
    for idx in range(opts.max_rounds):
        try:
            U, V = provider.score(state)
        except Exception as exc:
            raise RuntimeError(f"score provider failed at round {idx + 1}") from exc
        if shape.is_3d and opts.use_binary:
            degraded = True
            V = None
        pred, breakdown = predict(U, V, shape, opts)
        ham = hamming(pred, state.truth) if state.truth is not None else None
        rounds.append(RoundRecord(prediction=pred, cost=breakdown, hamming_to_truth=ham))
        if is_identity(pred):
            converged = True
            break
        state = state.apply_prediction(pred)
    solved = bool(is_identity(state.truth)) if state.truth is not None else None
    return SolveTrace(
        rounds=rounds,
        converged=converged,
        solved=solved,
        final_truth=None if state.truth is None else np.asarray(state.truth).copy(),
        binary_degraded=degraded,
    )
