"""Grid geometry, permutation algebra, and the cached Hamming-ball table.

A 2D cell pair's relative-position class, scalar, tabled or mirrored, is
read off one 3x3 table indexed by the pair's offset.

A puzzle configuration is a permutation over slot indices: ``assign[s]`` is
the original-position ID of the patch currently sitting in slot ``s``.  The
solved state is the identity permutation.  All functions here are pure and
operate on plain numpy integer arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache

import numpy as np


class RelClass(IntEnum):
    """The 9 relative-position classes of an ordered cell pair (2D only).

    ``TOP`` means the first cell is one row above the second; diagonals
    combine the row and column relations; ``NONE`` covers every pair that is
    not in the immediate 8-neighborhood.
    """

    TOP = 0
    BOTTOM = 1
    LEFT = 2
    RIGHT = 3
    TOP_LEFT = 4
    TOP_RIGHT = 5
    BOTTOM_LEFT = 6
    BOTTOM_RIGHT = 7
    NONE = 8


NUM_REL_CLASSES = 9

# Class of a pair whose first cell sits (dx, dy) from the second, at
# [dy + 1, dx + 1]; the centre holds NONE.  Swapping the cells negates the
# offset, so a class's mirror sits at its place in the point-reflected table.
_OFFSET_CLASS = np.array(
    [[RelClass.TOP_LEFT, RelClass.TOP, RelClass.TOP_RIGHT],
     [RelClass.LEFT, RelClass.NONE, RelClass.RIGHT],
     [RelClass.BOTTOM_LEFT, RelClass.BOTTOM, RelClass.BOTTOM_RIGHT]],
    dtype=np.int8,
)
_OFFSET_CLASS.setflags(write=False)


def mirror_class(rel: RelClass) -> RelClass:
    """Class obtained by swapping the two cells of the pair."""
    return RelClass(int(_OFFSET_CLASS[::-1, ::-1][_OFFSET_CLASS == RelClass(rel)][0]))


@dataclass(frozen=True)
class GridShape:
    """Per-axis cell counts: (W, H) for 2D grids, (W, H, Z) for 3D."""

    extents: tuple[int, ...]

    def __post_init__(self):
        ext = tuple(int(e) for e in self.extents)
        object.__setattr__(self, "extents", ext)
        if len(ext) not in (2, 3):
            raise ValueError(f"grid must be 2D or 3D, got {len(ext)} axes")
        if any(e < 1 for e in ext):
            raise ValueError(f"every extent must be >= 1, got {ext}")

    @property
    def n(self) -> int:
        """Total number of cells."""
        return math.prod(self.extents)

    @property
    def is_3d(self) -> bool:
        return len(self.extents) == 3

    def __str__(self) -> str:
        return "x".join(str(e) for e in self.extents)

    @classmethod
    def parse(cls, text: str) -> "GridShape":
        """Parse a ``WxH`` or ``WxHxZ`` string."""
        try:
            ext = tuple(int(p) for p in text.lower().split("x"))
        except ValueError:
            raise ValueError(f"bad grid spec {text!r}, expected WxH or WxHxZ")
        return cls(ext)


def position_to_id(coords: tuple[int, ...], shape: GridShape) -> int:
    """Row-major cell index: ``x + y*W`` in 2D, ``x + y*W + z*W*H`` in 3D."""
    if len(coords) != len(shape.extents):
        raise ValueError(f"coords {coords} do not match {len(shape.extents)}D grid")
    pid = 0
    stride = 1
    for c, e in zip(coords, shape.extents):
        if not 0 <= c < e:
            raise ValueError(f"coordinate {c} out of range [0, {e})")
        pid += c * stride
        stride *= e
    return pid


def id_to_position(pid: int, shape: GridShape) -> tuple[int, ...]:
    """Inverse of :func:`position_to_id`."""
    if not 0 <= pid < shape.n:
        raise ValueError(f"position id {pid} out of range [0, {shape.n})")
    coords = []
    for e in shape.extents:
        coords.append(pid % e)
        pid //= e
    return tuple(coords)


def relative_type(id_a: int, id_b: int, shape: GridShape) -> RelClass:
    """8-neighborhood relation of cell ``id_a`` with respect to cell ``id_b``.

    Only defined on 2D grids; returns ``NONE`` for any pair at Chebyshev
    distance greater than 1.
    """
    if shape.is_3d:
        raise ValueError("relative position classes are not defined on 3D grids")
    if id_a == id_b:
        raise ValueError("relative type of a cell with itself is undefined")
    xa, ya = id_to_position(id_a, shape)
    xb, yb = id_to_position(id_b, shape)
    dx = xa - xb
    dy = ya - yb
    if max(abs(dx), abs(dy)) > 1:
        return RelClass.NONE
    return RelClass(int(_OFFSET_CLASS[dy + 1, dx + 1]))


@lru_cache(maxsize=32)
def relation_table(shape: GridShape) -> np.ndarray:
    """(n, n) int8 table of ``relative_type`` over all ordered ID pairs.

    The diagonal (undefined pairs) is filled with ``NONE`` so the table can
    be used for vectorized gathers; callers must mask it out.
    """
    if shape.is_3d:
        raise ValueError("relative position classes are not defined on 3D grids")
    y, x = np.divmod(np.arange(shape.n), shape.extents[0])
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    table = _OFFSET_CLASS[dy.clip(-1, 1) + 1, dx.clip(-1, 1) + 1]
    table[np.maximum(abs(dx), abs(dy)) > 1] = RelClass.NONE
    table.setflags(write=False)
    return table


@lru_cache(maxsize=32)
def ordered_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(p, q)`` over the n(n-1) ordered pairs of distinct cells.

    Pair k is ``(p[k], q[k])``, row-major without the diagonal; every
    pair-indexed array (binary head rows, pair costs, the ball index) uses it.
    """
    p, q = np.where(~np.eye(n, dtype=bool))
    p.setflags(write=False)
    q.setflags(write=False)
    return p, q


def as_permutation(c, n: int | None = None) -> np.ndarray:
    """Validate and return ``c`` as an int64 permutation array."""
    arr = np.asarray(c, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("configuration must be a 1D sequence")
    if n is not None and arr.size != n:
        raise ValueError(f"configuration has length {arr.size}, expected {n}")
    if arr.size == 0:
        raise ValueError("configuration must be non-empty")
    # The range comes first, so the count is never longer than the array.
    if arr.min() < 0 or arr.max() >= arr.size or not (np.bincount(arr) == 1).all():
        raise ValueError("configuration is not a permutation of 0..n-1")
    return arr


def identity_configuration(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64)


def is_identity(c) -> bool:
    arr = np.asarray(c)
    return bool((arr == np.arange(arr.size)).all())


def hamming(c1, c2) -> int:
    """Number of slots where the two configurations disagree."""
    a1 = np.asarray(c1)
    a2 = np.asarray(c2)
    if a1.shape != a2.shape:
        raise ValueError(f"length mismatch: {a1.size} vs {a2.size}")
    return int(np.count_nonzero(a1 != a2))


def reorganize(truth, prediction) -> np.ndarray:
    """Ground truth of the puzzle after moving each patch per ``prediction``.

    The patch in slot ``s`` moves to slot ``prediction[s]``, so the new truth
    satisfies ``new[prediction[s]] = truth[s]``.  A perfect prediction
    (``prediction == truth``) yields the identity.
    """
    t = as_permutation(truth)
    p = as_permutation(prediction, t.size)
    out = np.empty_like(t)
    out[p] = t
    return out


def random_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation of ``0..n-1`` from the caller's stream."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.permutation(n).astype(np.int64)


@lru_cache(maxsize=64)
def derangement_number(k: int) -> int:
    """D_k, the number of permutations of k elements with no fixed point."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return 1
    if k == 1:
        return 0
    return (k - 1) * (derangement_number(k - 1) + derangement_number(k - 2))


def hamming_ball_size(n: int, radius: int) -> int:
    """``1 + sum_{k=2..radius} C(n,k) * D_k`` (distance 1 is impossible)."""
    total = 1
    for k in range(2, min(radius, n) + 1):
        total += math.comb(n, k) * derangement_number(k)
    return total


@lru_cache(maxsize=1)
def _ball_table(n: int, radius: int) -> np.ndarray:
    # The read-only (|B|, n) ball around the identity, in the order documented
    # on enumerate_hamming_ball.  center[table] is the ball around center in
    # the same order: row i moves center's values between exactly the slots
    # that row i of the table moves, by the same derangement.
    blocks = [np.arange(n, dtype=np.intp)[None, :]]
    for k in range(2, radius + 1):
        ders = np.array(
            [p for p in itertools.permutations(range(k)) if all(p[i] != i for i in range(k))],
            dtype=np.intp,
        )
        # One subset at a time: a list of them would leave up to 2000 freed
        # tuples on the interpreter's free list, which no round count includes.
        subsets = np.fromiter(itertools.combinations(range(n), k), dtype=np.dtype((np.intp, k)),
                              count=math.comb(n, k))
        block = np.tile(np.arange(n, dtype=np.intp), (len(subsets), len(ders), 1))
        rows = np.arange(len(subsets))[:, None, None]
        cols = np.arange(len(ders))[None, :, None]
        block[rows, cols, subsets[:, None, :]] = subsets[:, ders]
        blocks.append(block.reshape(-1, n))
    table = np.concatenate(blocks)
    table.setflags(write=False)
    return table


def enumerate_hamming_ball(center, radius: int) -> np.ndarray:
    """Every permutation within Hamming distance ``radius`` of ``center``.

    Returns a fresh ``(|B|, n)`` int64 array, one member per row.  The center
    comes first; the rest follow by increasing distance k, with the k
    disturbed slot subsets in lexicographic order and, within a subset, the
    derangements of the center's values in lexicographic order.  The ball
    around the identity is built once per ``(n, radius)`` and cached, so each
    call is a single gather ``center[table]``.
    """
    c = as_permutation(center)
    n = c.size
    if not 0 <= radius <= n:
        raise ValueError(f"radius must be in [0, {n}], got {radius}")
    return c[_ball_table(n, radius)]


@lru_cache(maxsize=4)
def all_permutations(n: int) -> np.ndarray:
    """All n! permutations of 0..n-1 in lexicographic order (n <= 9)."""
    if n > 9:
        raise ValueError("refusing to materialize S_n for n > 9")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    perms.setflags(write=False)
    return perms
