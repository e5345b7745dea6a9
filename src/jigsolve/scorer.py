"""Score providers: noise-controlled oracle and a trainable linear model.

The linear model replaces the heavy feature backbone with a deterministic
hand-crafted patch descriptor, keeping every algorithmic mechanism (the
order-sensitive unary head over the concatenated feature set, the pairwise
9-class binary head, cross-entropy training with iterative reorganization)
checkable at desk scale.  The grid's rank fixes the descriptor, so a JSW1
model file's recipe word must be 1 on a 2D grid and 2 on a 3D one.

The oracle mixes the ground-truth one-hot tables with uniform noise.  At the
endpoints it is exact (eps=0 gives one-hots, eps=1 gives uniform tables); in
between, a seeded logit jitter with amplitude proportional to eps*(1-eps)
makes the tables genuinely noisy, so solver quality degrades smoothly with
eps instead of flipping at eps=1.  Pass ``rng=None`` (or ``jitter=0``) for
the plain deterministic mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .cost import neg_log, pair_table, row_softmax
from .grid import NUM_REL_CLASSES, GridShape, ordered_pairs, relation_table
from .puzzlegen import FormatError, PuzzleInstance, header_bytes, read_floats, read_header
from . import search
from .assign import _row_starts
from .search import SolverOptions

MODEL_MAGIC = b"JSW1"
MODEL_VERSION = 1

FEATURE_RECIPE_2D = 1
FEATURE_RECIPE_3D = 2

EDGE_STRIP = 2  # boundary strip width, pixels
POOL_CELLS = {2: 4, 3: 2}  # pooled map cells per axis, by spatial rank
DEFAULT_ORACLE_JITTER = 8.0
TRAIN_COPIES = 8  # model-sized arrays training holds; tracemalloc read up to 7.1 at 5x5 to 8x8


def feature_dim(recipe: int, channels: int) -> int:
    """Descriptor length: per-channel mean, std and 2 strips per axis, plus the pooled map."""
    dims = {FEATURE_RECIPE_2D: 2, FEATURE_RECIPE_3D: 3}.get(recipe)
    if dims is None:
        raise ValueError(f"unknown feature recipe {recipe}")
    return (2 + 2 * dims) * channels + POOL_CELLS[dims] ** dims


def grid_recipe(shape: GridShape) -> int:
    """The descriptor a model on ``shape`` uses: the grid's rank fixes it."""
    return FEATURE_RECIPE_3D if shape.is_3d else FEATURE_RECIPE_2D


def check_tile(tile: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless a ``(H, W, C)`` or ``(Z, H, W, C)`` tile fits the descriptor.

    Every spatial extent must hold the pooling grid: 4 pixels in 2D (4x4
    map), 2 in 3D (2x2x2 map).  A smaller tile would leave an empty pooling
    cell, whose mean is NaN.
    """
    if len(tile) not in (3, 4) or tile[-1] < 1:
        raise ValueError("patch must be a non-empty (H,W,C) tile or (Z,H,W,C) volume")
    cells = POOL_CELLS[len(tile) - 1]
    if min(tile[:-1]) < cells:
        raise ValueError(
            f"patch extent {'x'.join(map(str, tile[:-1]))} is below the descriptor's "
            f"minimum of {cells} per axis (its {len(tile) - 1}D pooling grid)"
        )


def _descriptors(stack) -> np.ndarray:
    # (k, d) descriptors of a stack of k tiles, (k, H, W, C) or (k, Z, H, W, C).
    # Every reduction runs over the spatial axes 1.. of the whole stack; the
    # leading batch axis keeps each one's inner loop and summation order, so
    # row i has the same bytes as a stack of tile i alone.  Those are numpy's
    # mean, std and array_split bytes on the tile, so every sum keeps their
    # order: one spatial add.reduce, and pooling one axis at a time, y first.
    # A float32 stack is checked as stored: a float32 value is finite exactly when its float64 copy is.
    arr = np.asarray(stack, dtype=None if getattr(stack, "dtype", None) == np.float32 else np.float64)
    check_tile(arr.shape[1:])
    if not np.isfinite(arr).all():
        raise ValueError("patch values must be finite")
    arr = np.asarray(arr, dtype=np.float64)
    k, spatial, size = len(arr), tuple(range(1, arr.ndim - 1)), math.prod(arr.shape[1:-1])
    # np.std's steps on the mean's own sum: divide, subtract, square, sum, divide, sqrt.
    mean = np.add.reduce(arr, axis=spatial, keepdims=True)
    mean /= size
    dev = arr - mean
    var = np.add.reduce(np.square(dev, out=dev), axis=spatial)
    var /= size
    # Two boundary strips per spatial axis, x (the last) first: basic slices,
    # so each strip is a view and its mean sums in the tile's own order.
    edges = (slice(None, EDGE_STRIP), slice(-EDGE_STRIP, None))
    strips = [arr[(slice(None),) * ax + (edge,)] for ax in reversed(spatial) for edge in edges]
    # Block-average the channel-mean map down to the pooling grid, one
    # spatial axis at a time, in array_split's chunks: r of q + 1, then cells - r of q.
    # An extent that the grid divides (r = 0) is one run, with no empty run to
    # join; it is made C-ordered, as the join would, since the next axis's sums follow the layout.
    # One channel is its own mean, as x / 1 == x; the mean's sum would turn
    # -0.0 into 0.0, and the pooling sums that follow do that either way.
    cells = POOL_CELLS[len(spatial)]
    channels = arr.shape[-1]
    pooled = arr[..., 0] if channels == 1 else _mean(arr, -1, channels)
    for ax in spatial:
        q, r = divmod(pooled.shape[ax], cells)
        # (first pixel, chunks, width) of each run
        runs = ((0, r, q + 1), (r * (q + 1), cells - r, q)) if r else ((0, cells, q),)
        means = [_mean(pooled[(slice(None),) * ax + (slice(start, start + count * width),)]
                       .reshape(pooled.shape[:ax] + (count, width) + pooled.shape[ax + 1:]), ax + 1, width)
                 for start, count, width in runs]
        pooled = np.ascontiguousarray(means[0]) if r == 0 else np.concatenate(means, axis=ax)
    parts = [mean.reshape(k, arr.shape[-1]), np.sqrt(var, out=var)]
    parts += [_mean(st, spatial, math.prod(st.shape[1:-1])) for st in strips]
    parts.append(pooled.reshape(k, cells ** len(spatial)))
    return np.concatenate(parts, axis=1)


def _mean(arr: np.ndarray, axis, count: int) -> np.ndarray:
    # ndarray.mean's own steps for a float64 array and the ``count`` values each result reduces.
    total = np.add.reduce(arr, axis=axis)
    total /= count
    return total


def extract_features(patch: np.ndarray) -> np.ndarray:
    """Deterministic descriptor of one patch tile: ``features_of``'s kernel on a stack of one.

    2D (H, W, C): per-channel mean and std, the four 2-pixel boundary strip
    means, and a 4x4 average-pooled grayscale map; d = 6C + 16.
    3D (Z, H, W, C): per-channel mean and std, the six face-strip means, and
    a 2x2x2 pooled intensity map; d = 8C + 8.
    Raises ``ValueError`` on a non-finite value or a tile below
    :func:`check_tile`'s minimum extent.
    """
    return _descriptors(np.asarray(patch)[None])[0]


def features_of(puzzle: PuzzleInstance) -> np.ndarray:
    """(n, d) feature rows ordered by current slot, in one pass over the stacked patches."""
    if puzzle.patches is None:
        raise ValueError("puzzle carries no pixel data")
    return _descriptors(puzzle.patches)


# ---------------------------------------------------------------------------
# oracle


def oracle_score(
    truth,
    shape: GridShape,
    eps: float,
    rng: Optional[np.random.Generator] = None,
    jitter: float = DEFAULT_ORACLE_JITTER,
    binary_eps: Optional[float] = None,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """``OracleScorer.score`` with V in the public (n, n, 9) format, ``binary_eps / 9`` on its diagonal."""
    U, block = OracleScorer(eps, rng, binary_eps, jitter).score(truth, shape)
    fill = (eps if binary_eps is None else binary_eps) / NUM_REL_CLASSES
    return U, None if block is None else pair_table(block, shape.n, fill)


def _check_oracle(noise: float, binary_noise: Optional[float], jitter: float) -> None:
    """Raise ``ValueError`` unless both noises are in [0, 1] (or unset) and the jitter is finite."""
    for name, eps in (("noise", noise), ("binary noise", binary_noise)):
        if eps is not None and not 0.0 <= eps <= 1.0:
            raise ValueError(f"oracle {name} must be in [0, 1], got {eps}")
    if not math.isfinite(jitter):
        raise ValueError(f"oracle jitter must be finite, got {jitter}")


@lru_cache(maxsize=64)
def _mixture_logs(low: float, high: float) -> tuple[float, float]:
    # ln of a mixture table's two values, each clamped at 1e-300: the jitter's elementwise log pass, done once.
    return tuple(np.log(np.maximum(np.array([low, high]), 1e-300)).tolist())


@dataclass(frozen=True)
class OracleScorer:
    """Test instrument: emits truth-derived tables at a chosen noise level.

    Frozen: ``__post_init__`` checks the fields, so a scorer scores only
    tables it has checked; ``dataclasses.replace`` makes a checked copy.
    """

    noise: float
    rng: Optional[np.random.Generator] = None
    binary_noise: Optional[float] = None
    jitter: float = DEFAULT_ORACLE_JITTER

    def __post_init__(self):
        _check_oracle(self.noise, self.binary_noise, self.jitter)

    def rows(self, puzzle: PuzzleInstance) -> np.ndarray:
        """The oracle's rows are the truth: each slot's original cell ID."""
        if puzzle.truth is None:
            raise ValueError("oracle scoring needs the ground-truth configuration")
        return puzzle.truth

    def score(self, rows: np.ndarray, shape: GridShape) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """U and V's pair block (None on 3D grids), mixing the truth's one-hots with uniform mass.

        With ``rng`` given and 0 < eps < 1, each table draws a logit jitter of amplitude
        ``jitter*eps*(1-eps)``, U's first.  Both tables are views of one buffer, filled in
        one pass: a jittered table starts as the logs of its two values (cached per pair of
        values), the normals of every jittered table are one draw, and one ``exp`` runs over
        them; only the row max and the row sum are per table.  The bytes and the draws are
        those of jittering each table alone: elementwise ``log`` and ``exp`` do not depend on
        where a value sits, and one normal draw equals consecutive ones (``jigsolve selftest``
        checks both).  A table without jitter holds the plain mixture and draws nothing.
        """
        eps = self.noise
        binary_eps = eps if self.binary_noise is None else self.binary_noise
        t = np.asarray(rows, dtype=np.int64)
        n = shape.n
        m = 0 if shape.is_3d else n * (n - 1)
        buf = np.empty(n * n + m * NUM_REL_CLASSES)
        unary, pairs = buf[: n * n], buf[n * n :]
        amps = [self._mix(unary, t + _row_starts(n), eps, eps / n)]
        tables = [unary.reshape(n, n)]
        if m:
            p, q = ordered_pairs(n)
            hot = relation_table(shape)[t[p], t[q]] + np.arange(0, pairs.size, NUM_REL_CLASSES)
            amps.append(self._mix(pairs, hot, binary_eps, binary_eps / NUM_REL_CLASSES))
            del hot  # a pair-sized index, not held through the draw
            tables.append(pairs.reshape(m, NUM_REL_CLASSES))
        jittered = [(table, amp) for table, amp in zip(tables, amps) if amp]
        if jittered:
            # One draw over the jittered tables, which are adjacent: U's normals first, then the block's.
            z = buf if len(jittered) == len(tables) else (unary if amps[0] else pairs)
            noise = self.rng.standard_normal(z.size)
            if len(jittered) == 2 and amps[0] != amps[1]:
                noise[: n * n] *= amps[0]
                noise[n * n :] *= amps[1]
            else:
                noise *= jittered[0][1]
            z += noise
            for table, _ in jittered:
                table -= np.maximum.reduce(table, axis=-1, keepdims=True)
            np.exp(z, out=z)
            for table, _ in jittered:
                table /= np.add.reduce(table, axis=-1, keepdims=True)
        return tables[0], tables[1] if m else None

    def _mix(self, flat: np.ndarray, hot: np.ndarray, e: float, low: float) -> float:
        # Fills ``flat`` with one table of the mixture: ``low`` everywhere and ``low + 1 - e``
        # at the truth's flat indices ``hot``.  A table to be jittered holds their logs
        # instead; returns its jitter amplitude, or 0.0 for a plain table.
        high = low + (1.0 - e)
        amp = self.jitter * e * (1.0 - e)
        if self.rng is None or amp == 0.0:
            amp = 0.0
        else:
            low, high = _mixture_logs(low, high)
        flat.fill(low)
        flat.put(hot, high)
        return amp


# ---------------------------------------------------------------------------
# linear model


class Params(NamedTuple):
    """The linear model's four arrays, or their gradients, in JSW1 order."""

    unary_w: np.ndarray
    unary_b: np.ndarray
    binary_w: np.ndarray
    binary_b: np.ndarray

    def scaled(self, factor: float) -> "Params":
        return Params(*(a * factor for a in self))


def param_shapes(n: int, d: int) -> Params:
    """Each array's shape for n cells and d-wide feature rows."""
    return Params((n * n, n * d), (n * n,), (NUM_REL_CLASSES, 2 * d), (NUM_REL_CLASSES,))


@dataclass
class LinearScorer:
    """Two linear heads over hand-crafted features.

    The unary head maps the flattened (n*d) feature set to n*n logits, so it
    is sensitive to the order of the input rows.  The binary head maps each
    ordered pair concatenation (2d) to 9 relative-position logits.  The four
    arrays are laid out as :func:`param_shapes` says; the grid fixes the ``recipe``.
    """

    shape: GridShape
    d: int
    unary_w: np.ndarray
    unary_b: np.ndarray
    binary_w: np.ndarray
    binary_b: np.ndarray

    def __post_init__(self):
        for name, arr, want in zip(Params._fields, self.params, param_shapes(self.shape.n, self.d)):
            if arr.shape != want:
                raise ValueError(f"{name} has shape {arr.shape}, expected {want}")

    @property
    def params(self) -> Params:
        """The four arrays themselves, not copies."""
        return Params(*(getattr(self, name) for name in Params._fields))

    @property
    def recipe(self) -> int:
        return grid_recipe(self.shape)

    @property
    def unary_param_count(self) -> int:
        return self.unary_w.size + self.unary_b.size

    @property
    def binary_param_count(self) -> int:
        return self.binary_w.size + self.binary_b.size

    @classmethod
    def init_random(cls, shape: GridShape, d: int, rng: np.random.Generator,
                    scale: float = 0.01) -> "LinearScorer":
        return cls(shape, d, *(rng.uniform(-scale, scale, size=size) for size in param_shapes(shape.n, d)))

    def rows(self, puzzle: PuzzleInstance) -> np.ndarray:
        return features_of(puzzle)

    def score(self, rows: np.ndarray, shape: GridShape) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Row-softmaxed unary matrix and V's per-pair softmaxed pair block (None on 3D grids)."""
        F = np.asarray(rows, dtype=np.float64)
        n = self.shape.n
        if F.shape != (n, self.d):
            raise ValueError(f"feature set has shape {F.shape}, expected ({n}, {self.d})")
        U = row_softmax((self.unary_w @ F.ravel() + self.unary_b).reshape(n, n))
        if self.shape.is_3d:
            return U, None
        _, _, X = _pair_concat(F)
        return U, row_softmax(X @ self.binary_w.T + self.binary_b)


@lru_cache(maxsize=32)
def _pair_rows(n: int) -> np.ndarray:
    # Read-only p[0], q[0], p[1], q[1], ...: one take by it lays out each pair's two rows side by side.
    p, q = ordered_pairs(n)
    index = np.stack([p, q], axis=1).ravel()
    index.setflags(write=False)
    return index


def _pair_concat(F: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Row k is F[p_k] followed by F[q_k].
    n, d = F.shape
    p, q = ordered_pairs(n)
    return p, q, F.take(_pair_rows(n), axis=0).reshape(len(p), 2 * d)


def linear_score(model: LinearScorer, F) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """``model.score`` with V in the public ``(n, n, 9)`` format, its unused diagonal uniform."""
    U, block = model.score(F, model.shape)
    return U, None if block is None else pair_table(block, model.shape.n, 1.0 / NUM_REL_CLASSES)


def loss_and_grad(model: LinearScorer, F, truth, shape: GridShape) -> tuple[float, Params]:
    """Cross-entropy of both heads against the true cells, with exact grads.

    Unary: mean over slots of CE(U row s, truth[s]).  Binary (2D only): mean
    over ordered pairs of CE(V[p,q], true relative class).
    """
    return _loss_and_grad(model, F, truth, shape, *model.score(F, model.shape))


def _loss_and_grad(model: LinearScorer, F, truth, shape: GridShape, U, block) -> tuple[float, Params]:
    # loss_and_grad, given the tables that model.score(F, model.shape) returned.
    F = np.asarray(F, dtype=np.float64)
    t = np.asarray(truth, dtype=np.int64)
    n = shape.n
    flat = F.ravel()

    loss_u = float(np.mean(neg_log(U[np.arange(n), t])))
    dZ = U.copy()
    dZ[np.arange(n), t] -= 1.0
    dZ /= n
    g_uw = np.outer(dZ.ravel(), flat)
    g_ub = dZ.ravel()

    if shape.is_3d:
        loss_b = 0.0
        g_bw = np.zeros_like(model.binary_w)
        g_bb = np.zeros_like(model.binary_b)
    else:
        rel = relation_table(shape)
        p, q, X = _pair_concat(F)
        dP = block.copy()
        classes = rel[t[p], t[q]]
        loss_b = float(np.mean(neg_log(dP[np.arange(len(p)), classes])))
        dP[np.arange(len(p)), classes] -= 1.0
        dP /= len(p)
        g_bw = dP.T @ X
        g_bb = dP.sum(axis=0)

    return loss_u + loss_b, Params(g_uw, g_ub, g_bw, g_bb)


# ---------------------------------------------------------------------------
# training


def train_bytes(puzzle: PuzzleInstance) -> int:
    """Bytes that training a model on puzzles like ``puzzle`` holds for the model's arrays."""
    d = feature_dim(grid_recipe(puzzle.shape), puzzle.patches.shape[-1])
    return TRAIN_COPIES * 8 * sum(math.prod(s) for s in param_shapes(puzzle.shape.n, d))


@dataclass(frozen=True)
class TrainOptions:
    learning_rate: float = 0.3
    batch_size: int = 32
    epochs: int = 10
    train_rounds: int = 5
    seed: int = 0
    weight_init_scale: float = 0.01

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.learning_rate, self.weight_init_scale)):
            raise ValueError(f"learning_rate and weight_init_scale must be finite and positive, "
                             f"got {self.learning_rate} and {self.weight_init_scale}")
        if not math.isfinite(2.0 * self.weight_init_scale):  # init_random draws from a range this wide
            raise ValueError(f"weight_init_scale must leave a finite draw range 2*scale, "
                             f"got {self.weight_init_scale}")
        if min(self.batch_size, self.epochs, self.train_rounds) < 1:
            raise ValueError("batch_size, epochs and train_rounds must be >= 1")


class Diverged(ValueError):
    """Training drove a parameter to a value that is not finite in float32, which JSW1 cannot hold."""


@dataclass
class TrainResult:
    model: LinearScorer
    epoch_losses: list[float]


def _summed(passes: Iterable[tuple[float, Params]], record=None) -> tuple[float, int, Params]:
    # The passes' losses summed left to right from 0, as ``sum`` adds them, and
    # counted, and their gradients summed in order, into the first pass's
    # arrays.  ``record``, if given, takes each pass's loss.
    loss_sum, count, total = 0, 0, None
    for loss, grads in passes:
        loss_sum += loss
        count += 1
        if record is not None:
            record(loss)
        if total is None:
            total = grads
        else:
            for acc, g in zip(total, grads):
                acc += g
    return loss_sum, count, total


def _sample_pass(
    model: LinearScorer,
    feats: np.ndarray,
    truth: np.ndarray,
    shape: GridShape,
    opts: SolverOptions,
) -> tuple[float, Params]:
    # One sample's round-averaged loss/grad under iterative reorganization:
    # the solver's own loop, with the loss of each arrangement it scores.
    passes = (_loss_and_grad(model, F, t, shape, U, block)
              for F, t, U, block, _, _ in search.rounds(model, feats, truth, shape, opts))
    loss_sum, count, grads = _summed(passes)
    return loss_sum / count, grads.scaled(1.0 / count)


def train_sgd(
    corpus: list[PuzzleInstance],
    opts: TrainOptions = TrainOptions(),
    solver_opts: Optional[SolverOptions] = None,
) -> TrainResult:
    """Mini-batch SGD on the two-head cross-entropy with round averaging.

    Raises :class:`Diverged` as soon as the initial draw or an epoch leaves a
    parameter that is not finite in float32, naming the array and the epoch.
    """
    if not corpus:
        raise ValueError("training corpus is empty")
    shape = corpus[0].shape
    if any(inst.shape != shape for inst in corpus):
        raise ValueError("corpus mixes grid shapes")
    replay_opts = replace(solver_opts or SolverOptions(), max_rounds=opts.train_rounds)

    all_feats = [features_of(inst) for inst in corpus]
    d = all_feats[0].shape[1]
    rng = np.random.default_rng(opts.seed)
    model = LinearScorer.init_random(shape, d, rng, scale=opts.weight_init_scale)
    _check_float32(model.params, " at initialisation")

    epoch_losses = []
    for epoch in range(1, opts.epochs + 1):
        order = rng.permutation(len(corpus))
        losses = []
        for lo in range(0, len(order), opts.batch_size):
            batch = order[lo : lo + opts.batch_size]
            _, _, grads = _summed((_sample_pass(model, all_feats[i], corpus[i].truth, shape, replay_opts)
                                   for i in batch), losses.append)
            for param, step in zip(model.params, grads.scaled(opts.learning_rate / len(batch))):
                param -= step
        epoch_losses.append(float(np.mean(losses)))
        _check_float32(model.params, f" after epoch {epoch}")
    return TrainResult(model=model, epoch_losses=epoch_losses)


# ---------------------------------------------------------------------------
# model file ("JSW1": little-endian, float32 payload)


def _check_float32(arrays, when: str = "") -> None:
    """Raise :class:`Diverged` naming the first of the four arrays with a value not finite in float32."""
    with np.errstate(over="ignore"):  # a value past float32's range casts to inf
        for name, arr in zip(Params._fields, arrays):
            if not np.isfinite(arr.astype(np.float32, copy=False)).all():
                raise Diverged(f"{name} has a value that is not finite in float32{when}")


def save_model(model: LinearScorer, path) -> None:
    """Write ``model`` as JSW1, or nothing if a value is not finite in float32 (``load_model`` refuses it)."""
    with np.errstate(over="ignore"):
        payload = [np.ascontiguousarray(arr, dtype="<f4") for arr in model.params]
    try:
        _check_float32(payload)
    except Diverged as exc:
        raise FormatError(f"{path}: {exc}; nothing written") from None
    with open(path, "wb") as fh:
        fh.write(header_bytes(MODEL_MAGIC, MODEL_VERSION, model.shape.extents, (model.d, model.recipe)))
        for arr in payload:
            fh.write(arr.tobytes())


def load_model(path) -> LinearScorer:
    blob = Path(path).read_bytes()
    extents, (d, recipe), off = read_header(blob, path, MODEL_MAGIC, MODEL_VERSION, 2)
    shape = GridShape(extents)
    if recipe != grid_recipe(shape):
        raise FormatError.at(path, f"recipe {recipe} does not fit the grid's {grid_recipe(shape)}", off - 4)
    arrays = read_floats(blob, path, off, param_shapes(shape.n, d))
    return LinearScorer(shape, d, *(arr.astype(np.float64) for arr in arrays))
