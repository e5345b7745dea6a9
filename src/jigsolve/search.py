"""Full configuration predictor and the iterative reorganization loop.

Every solver entry validates and takes ``-ln`` of its tables once, at one
boundary.  The solver works on V's (n(n-1), 9) pair block: ``rounds`` passes
on the block its provider scored, and a public (n, n, 9) V is cut to it there.
A round seeds from the Hungarian solution of the unary terms and ranks every
permutation within a limited Hamming distance of the seed (radius 0 unless 2D
binary terms apply) with one cost kernel over a cached identity-ball index;
the parts at the winner are the round's cost.

``rounds`` is the one reorganization loop, for solving and training replay
alike: each round scores a puzzle's per-slot rows (computed once per puzzle)
and predicts, then the rows and the truth move with the patches to their
predicted slots, until the predictor proposes the identity or a round cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Protocol, TYPE_CHECKING

import numpy as np

from .assign import _tie_ruled
from .cost import NEG_LOG_BOUND, CostBreakdown, neg_log, validate_binary, validate_pairs, validate_unary
from .grid import (
    NUM_REL_CLASSES,
    GridShape,
    _ball_table,
    as_permutation,
    hamming_ball_size,
    is_identity,
    ordered_pairs,
    relation_table,
)

if TYPE_CHECKING:
    from .puzzlegen import PuzzleInstance

BRUTE_FORCE_MAX_N = 9
_GATHER_BYTES = 8 << 20
_SEED_SLACK = 128 << 10  # a tie-pass sweep chunk and numpy's reduction buffer


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
    """Per-slot rows of a puzzle, once; from rows in slot order, per round, U and V's pair block (or None)."""

    def rows(self, puzzle: "PuzzleInstance") -> np.ndarray:
        ...

    def score(self, rows: np.ndarray, shape: GridShape) -> tuple[np.ndarray, Optional[np.ndarray]]:
        ...


class _Ball(NamedTuple):
    """Gather plan of the identity ball for one ``(n, radius)``, cached read-only."""

    table: np.ndarray  # (|B|, n) ball rows T
    unary: np.ndarray  # (|B|, n) flat unary index j*n + T[i, j]
    pairs: np.ndarray  # (|B|, n(n-1)) pair index k*n*n + T[i,p_k]*n + T[i,q_k], Fortran-ordered

    def head(self, cap: Optional[int]) -> "_Ball":
        if cap is None:
            return self
        return self._replace(table=self.table[:cap], unary=self.unary[:cap], pairs=self.pairs[:cap])


def _pair_index(table: np.ndarray, dtype) -> np.ndarray:
    # flat[i, k] = k*n*n + T[i,p_k]*n + T[i,q_k], filled in place one column
    # at a time, in ordered_pairs order, from contiguous copies of the
    # table's columns.
    n = table.shape[1]
    cols = np.ascontiguousarray(table.T, dtype=dtype)
    flat = np.empty((len(table), n * (n - 1)), dtype=dtype, order="F")
    base = np.empty(len(table), dtype=dtype)
    k = 0
    for a in range(n):
        np.multiply(cols[a], n, out=base)
        for b in range(n):
            if b != a:
                col = flat[:, k]
                np.add(base, cols[b], out=col)
                col += k * n * n
                k += 1
    return flat


def _index_dtype(rows: int, n: int) -> np.dtype:
    # intp, which numpy gathers with no cast, while the pair index fits one
    # gather chunk; int32 (n**4 < 2**31) above that, to halve its memory.
    small = rows * n * (n - 1) * np.dtype(np.intp).itemsize <= _GATHER_BYTES
    return np.dtype(np.intp if small or n**4 >= 2**31 else np.int32)


@lru_cache(maxsize=1)
def _ball_index(n: int, radius: int, cap: Optional[int] = None) -> _Ball:
    # The plan a refinement at (radius, cap) reads: the ball of _ball_radius,
    # cut to the cap.  One plan at a time, as its pair index grows as n**4.
    # Building holds no second copy of the pair index.  Its Fortran order
    # makes numpy sum each row of a gather through it left to right, in pair
    # order.
    table = _ball_table(n, _ball_radius(n, radius, cap))
    dtype = _index_dtype(len(table), n)
    pairs = _pair_index(table, dtype)
    unary = np.empty(table.shape, dtype=dtype)
    np.add(table, np.arange(n) * n, out=unary, casting="same_kind")
    for arr in (unary, pairs):
        arr.setflags(write=False)
    return _Ball(table, unary, pairs).head(cap)


def _batch_costs(logu, logv, shape: GridShape, center, ball: _Ball) -> tuple[np.ndarray, np.ndarray]:
    """Unary and binary cost parts of each candidate ``center[ball.table[i]]``.

    ``ball`` is (a prefix of) the cached identity-ball plan; ``logv`` is the ``-ln`` of
    V's (n(n-1), 9) pair block.  The tables are relabelled by the center (slot ``j`` reads
    ID ``center[j]``), so row ``i`` gathers exactly the floats of candidate ``i``, in pair
    order, without building it.  All rows are summed the same way, so they rank
    consistently; a total may differ from the scalar ``total_cost`` in the last bits.
    A chunk's gather and the cost rows together hold about ``_GATHER_BYTES``.
    """
    unary = np.add.reduce(logu.take(center, axis=1).take(ball.unary), axis=1)
    if logv is None:
        return unary, np.zeros(len(ball.table))
    rel = relation_table(shape).take(center, axis=0).take(center, axis=1)
    # Entry (k, a*n + b): pair k's cost for the IDs center[a], center[b].
    pc_flat = logv.take(rel.ravel(), axis=1).ravel()
    # np.take would return each chunk C-ordered, and numpy sums a C row
    # pairwise; the fancy gather keeps the index's Fortran order.  A chunk
    # of one row would be summed pairwise too, so no chunk holds a single
    # row unless the whole set is one row.
    flat = ball.pairs
    step = max(2, (_GATHER_BYTES - 16 * len(flat)) // (8 * max(1, flat.shape[1])))
    if len(flat) <= step:  # one chunk: one gather and one reduce
        return unary, np.add.reduce(pc_flat[flat], axis=1)
    binary = np.empty(len(flat))
    starts = range(0, len(flat) - 1, step)
    for lo, hi in zip(starts, [*starts[1:], len(flat)]):
        np.add.reduce(pc_flat[flat[lo:hi]], axis=1, out=binary[lo:hi])
    return unary, binary


def _select(table: np.ndarray, totals: np.ndarray, center: np.ndarray) -> int:
    # Tie key: total cost, then Hamming distance to the center (the slots
    # the table row moves), then lexicographic order of the candidate.  Exact
    # float equality is the tie test; true ties give bit-identical sums.
    best = (totals == np.minimum.reduce(totals)).nonzero()[0]
    if len(best) == 1:
        return int(best[0])
    moved = np.add.reduce(table[best] != np.arange(table.shape[1]), axis=1)
    best = best[moved == np.minimum.reduce(moved)]
    return int(min(best, key=lambda row: center[table[row]].tolist()))


def _ball_radius(n: int, radius: int, cap: Optional[int]) -> int:
    # A ball is a prefix of any larger one, so a cap takes its ``cap`` members
    # from the smallest ball holding them, never building the whole table.
    radius = min(radius, n)
    return next((r for r in range(radius) if cap is not None and hamming_ball_size(n, r) >= cap), radius)


def round_bytes(shape: GridShape, opts: SolverOptions) -> int:
    """Bytes one round at ``opts`` holds, up to 2**63 (no array can be larger).

    U and, on any 2D grid, V count three times each: the scored table and the two
    copies ``-ln`` holds at once, or U, ``-ln U`` and the one U-sized array the seed
    works in (the certificate's raised copy or the tie pass's reduced costs).  The
    tie pass's boolean (n, n) mask counts once, and its other arrays as
    ``_SEED_SLACK`` and 256 bytes a slot.  With pair terms the ball plan a
    refinement builds, the relabelled V and one chunk of gathered pair costs count
    once; the chunk shares its ``_GATHER_BYTES`` with the ball's per-row unary and
    binary costs.
    """
    n = shape.n
    total = 3 * 8 * n * n * (1 if shape.is_3d else 1 + NUM_REL_CLASSES) + n * n + _SEED_SLACK + 256 * n
    if opts.use_binary and not shape.is_3d:
        # Past radius 20 a ball's table alone (D_20 > 8.9e17 rows) is over 2**63 bytes.
        rows = hamming_ball_size(n, _ball_radius(n, min(opts.radius, 20), opts.candidate_cap))
        total += rows * n * (8 + _index_dtype(rows, n).itemsize * n) + 8 * n**3 * (n - 1)
        total += min(_GATHER_BYTES, 8 * rows * n * (n - 1))
    return min(total, 2**63)


def _refine(logu, logv, center, shape: GridShape, opts: SolverOptions):
    # Best of the ball around ``center`` at ``opts`` (radius and cap) and its cost parts.
    ball = _ball_index(shape.n, opts.radius, opts.candidate_cap)
    unary, binary = _batch_costs(logu, logv, shape, center, ball)
    row = _select(ball.table, unary + binary, center)
    return center[ball.table[row]], CostBreakdown(float(unary[row]), float(binary[row]))


def _neg_logs(U, V, shape: GridShape):
    # Every entry's table boundary: U, then V if given, checked for shape.n; -ln U and -ln of
    # V's pair block.  A 2D V is that block, as a score provider hands it; a public V is cut here.
    n = shape.n
    logu = neg_log(validate_unary(U, n))
    if V is None:
        return logu, None
    return logu, neg_log(validate_pairs(V, n) if np.ndim(V) == 2 else validate_binary(V, n)[ordered_pairs(n)])


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
    opts = SolverOptions(radius=radius, candidate_cap=candidate_cap)
    logu, logv = _neg_logs(U, V, shape)
    config, _ = _refine(logu, logv, as_permutation(seed, shape.n), shape, opts)
    return config


def predict(U, V, shape: GridShape, opts: SolverOptions) -> tuple[np.ndarray, CostBreakdown]:
    """Hungarian seed refined over the Hamming ball, and the winner's cost.

    ``V`` is the public (n, n, 9) table or its pair block.  Without pair terms
    (``use_binary`` off, no V or a 3D grid) the ball has radius 0: the seed
    wins, and its cost is the kernel's unary sum.
    """
    pairs = opts.use_binary and V is not None and not shape.is_3d
    logu, logv = _neg_logs(U, V if pairs else None, shape)
    seed = _tie_ruled(logu, NEG_LOG_BOUND)
    if logv is None:
        return seed.config, CostBreakdown(seed.cost, 0.0)
    return _refine(logu, logv, seed.config, shape, opts)


def brute_force_argmin(U, V, shape: GridShape) -> np.ndarray:
    """Exhaustive minimum over all n! configurations (test oracle, n <= 9).

    Ties go to the lexicographically smallest configuration.
    """
    n = shape.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force refused for n > {BRUTE_FORCE_MAX_N}")
    logu, logv = _neg_logs(U, V, shape)
    ball = _ball_index(n, n, None)  # the key a refinement at radius n uses, so the two share one plan
    totals = sum(_batch_costs(logu, logv, shape, np.arange(n), ball))
    best = np.flatnonzero(totals == totals.min())
    return np.array(min(ball.table[best].tolist()), dtype=np.int64)


def _provider_call(round_no: int, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        raise RuntimeError(f"score provider failed at round {round_no}") from exc


def rounds(provider: ScoreProvider, rows, truth, shape: GridShape, opts: SolverOptions) -> Iterator[tuple]:
    """Score -> predict -> reorganize, yielding ``(rows, truth, U, block, prediction, cost)``.

    Each round checks U and, when pair terms apply, the pair block once.  After
    each round the patch in slot ``s`` moves to slot ``prediction[s]`` and its
    row and truth entry move with it.  Stops after a round that proposes the
    identity, or after ``opts.max_rounds`` rounds.
    """
    for idx in range(opts.max_rounds):
        U, block = _provider_call(idx + 1, provider.score, rows, shape)
        pred, cost = predict(U, block, shape, opts)
        yield rows, truth, U, block, pred, cost
        if is_identity(pred):
            return
        back = pred.argsort()
        rows, truth = rows[back], truth[back]


def solve_iterative(provider: ScoreProvider, puzzle: "PuzzleInstance", opts: SolverOptions) -> SolveTrace:
    """Iterate score -> predict -> reorganize until the identity is proposed.

    Each round appends a record; convergence means the predictor proposed no
    further moves.  On 3D grids binary terms are silently dropped and the
    trace carries ``binary_degraded=True``.
    """
    records: list[RoundRecord] = []
    rows = _provider_call(1, provider.rows, puzzle)
    for _, truth, _, _, pred, cost in rounds(provider, rows, puzzle.truth, puzzle.shape, opts):
        distance = int(np.count_nonzero(pred != truth))  # grid.hamming's count, without its checks
        records.append(RoundRecord(prediction=pred, cost=cost, hamming_to_truth=distance))
    # Apply the last round's move (none when it proposed the identity).
    truth = truth[np.argsort(pred)]
    return SolveTrace(
        rounds=records,
        converged=is_identity(pred),
        solved=is_identity(truth),
        final_truth=truth,
        binary_degraded=puzzle.shape.is_3d and opts.use_binary,
    )
