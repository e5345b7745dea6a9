"""The round path's ufunc bodies against their earlier numpy bodies, byte for byte.

Each ``*_reference`` below is a test-only copy of a body as it was before it
called ``np.add.reduce``, ``np.maximum.reduce`` or ``np.minimum.reduce``
directly and ran its element-wise passes in place.  Over seeded edge tables
(-0.0, subnormal entries, entries clamped at 1e-300, uniform rows, and NaN or
+-inf in each position) the bodies in use must return the same bytes, or raise
the same ``ValueError`` with the same message.
"""

import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from jigsolve import assign
from jigsolve.cost import PROB_FLOOR, ROW_SUM_TOL, neg_log, row_softmax, validate_pairs, validate_unary
from jigsolve.grid import NUM_REL_CLASSES, GridShape, ordered_pairs, random_permutation, relation_table
from jigsolve.scorer import OracleScorer

SUBNORMAL = 5e-324
BADS = (math.nan, math.inf, -math.inf)


def neg_log_reference(p):
    return -np.log(np.maximum(np.asarray(p, dtype=np.float64), PROB_FLOOR))


def row_softmax_reference(logits):
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("expected a 2D logit array")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def extremes_reference(arr, name):
    flat = arr.ravel()
    lo, hi = (flat.min(), flat.max()) if flat.size else (0.0, 0.0)
    if not -np.inf < lo <= hi < np.inf:
        raise ValueError(f"{name} must be finite")
    return lo, hi


def validate_unary_reference(U, n=None):
    arr = np.asarray(U, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"unary matrix must be square, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"unary matrix is {arr.shape[0]}x{arr.shape[0]}, expected n={n}")
    lo, hi = extremes_reference(arr, "unary matrix")
    if lo < 0 or hi > 1 + ROW_SUM_TOL:
        raise ValueError("unary entries must lie in [0, 1]")
    if not np.abs(arr.sum(axis=1) - 1.0).max(initial=0.0) <= ROW_SUM_TOL:
        raise ValueError("every unary row must sum to 1")
    return arr


def validate_pairs_reference(block, n):
    arr = np.asarray(block, dtype=np.float64)
    if arr.shape != (n * (n - 1), NUM_REL_CLASSES):
        raise ValueError(f"pair block must have shape ({n * (n - 1)}, 9), got {arr.shape}")
    lo, _ = extremes_reference(arr, "binary table")
    dev = np.abs(np.ascontiguousarray(arr).sum(axis=1) - 1.0)
    if lo < 0 or not dev.max(initial=0.0) <= ROW_SUM_TOL:
        raise ValueError("every off-diagonal 9-vector must be a distribution")
    return arr


def solve_reference(matrix):
    rows, cols = linear_sum_assignment(matrix)
    return cols, float(matrix[rows, cols].sum())


def oracle_score_reference(oracle, rows, shape):
    """``OracleScorer.score`` as it was, its jitter included."""
    eps = oracle.noise
    binary_eps = eps if oracle.binary_noise is None else oracle.binary_noise
    t = np.asarray(rows, dtype=np.int64)
    n = shape.n

    def noisy(base, e):
        amp = oracle.jitter * e * (1.0 - e)
        if oracle.rng is None or amp == 0.0:
            return base
        z = np.log(np.maximum(base, 1e-300, out=base), out=base)
        z += amp * oracle.rng.standard_normal(base.shape)
        z -= z.max(axis=-1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=-1, keepdims=True)
        return z

    U = np.full((n, n), eps / n)
    U[np.arange(n), t] = eps / n + (1.0 - eps)
    U = noisy(U, eps)
    if shape.is_3d:
        return U, None
    p, q = ordered_pairs(n)
    fill = binary_eps / NUM_REL_CLASSES
    block = np.full((len(p), NUM_REL_CLASSES), fill)
    block[np.arange(len(p)), relation_table(shape)[t[p], t[q]]] = fill + (1.0 - binary_eps)
    return U, noisy(block, binary_eps)


def outcome(fn, *args):
    """``("value", result)`` or ``("error", message)``."""
    try:
        return "value", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def assert_same(got, want, label):
    assert got[0] == want[0], (label, got, want)
    a, b = got[1], want[1]
    if got[0] == "error":
        assert a == b, label
    elif isinstance(b, tuple):
        assert len(a) == len(b), label
        for x, y in zip(a, b):
            assert_same(("value", x), ("value", y), label)
    elif isinstance(b, float):
        assert type(a) is float and math.copysign(1.0, a) == math.copysign(1.0, b), label
        assert a == b or (math.isnan(a) and math.isnan(b)), label
    elif b is None:
        assert a is None, label
    else:
        assert type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape, label
        assert a.tobytes() == b.tobytes(), label


def in_each_position(table):
    """``(label, copy)`` with NaN, +inf and -inf written at each position of ``table`` in turn."""
    for pos in np.ndindex(table.shape):
        for bad in BADS:
            edited = table.copy()
            edited[pos] = bad
            yield f"{bad} at {pos}", edited


def edge_logits():
    """Seeded logit tables, and the edits that must be refused."""
    rng = np.random.default_rng(90)
    for rows, cols in ((1, 1), (1, 9), (3, 4), (9, 9), (27, 27), (12, 9)):
        for scale in (1e-300, 1e-8, 1.0, 30.0, 1e3, 1e300):
            yield f"{rows}x{cols} scale {scale:g}", rng.standard_normal((rows, cols)) * scale
        z = rng.standard_normal((rows, cols))
        z[rng.random(z.shape) < 0.3] = -0.0
        yield f"{rows}x{cols} with -0.0", z
        yield f"{rows}x{cols} all -0.0", np.full((rows, cols), -0.0)
        yield f"{rows}x{cols} subnormal", rng.choice([SUBNORMAL, -SUBNORMAL, 0.0, 2.2e-310], size=(rows, cols))
        yield f"{rows}x{cols} uniform rows", np.repeat(rng.standard_normal((rows, 1)), cols, axis=1)
        yield f"{rows}x{cols} extremes", rng.choice([1.7e308, -1.7e308, 0.0, 1.0], size=(rows, cols))
    base = rng.standard_normal((3, 4))
    yield from in_each_position(base)
    yield "fortran", np.asfortranarray(rng.standard_normal((5, 7)))
    yield "transposed view", rng.standard_normal((7, 5)).T
    yield "strided view", rng.standard_normal((6, 10))[::2, ::3]
    yield "float32", rng.standard_normal((4, 9)).astype(np.float32)
    yield "int", rng.integers(-5, 5, size=(3, 3))
    yield "list", [[0.5, -1.0], [2.0, -0.0]]
    yield "no rows", np.zeros((0, 4))
    yield "no columns", np.zeros((3, 0))
    yield "1D", rng.standard_normal(9)
    yield "3D", rng.standard_normal((2, 3, 9))
    yield "0D", np.float64(1.0)


def edge_probabilities():
    """Seeded probability arrays for ``neg_log``: zeros of both signs, subnormals, the floor's edges."""
    rng = np.random.default_rng(91)
    specials = [0.0, -0.0, SUBNORMAL, 2.2e-310, 1e-300, PROB_FLOOR, np.nextafter(PROB_FLOOR, 0.0),
                np.nextafter(PROB_FLOOR, 1.0), 0.5, 1.0, 2.0, -1.0, *BADS]
    yield "specials", np.array(specials)
    for shape in ((7,), (4, 4), (6, 9), (2, 3, 9)):
        yield f"mixed {shape}", rng.choice(specials, size=shape)
        yield f"softmax {shape}", row_softmax(rng.standard_normal((math.prod(shape[:-1]), shape[-1]))).reshape(shape)
    yield "fortran", np.asfortranarray(rng.random((5, 7)))
    yield "reversed view", rng.random(10)[::-1]
    yield "float32", rng.random(6).astype(np.float32)
    yield "int", np.array([0, 1, 2])
    yield "list", [0.25, 0.0, -0.0, 1.0]
    yield "empty", np.zeros((0, 9))
    yield "0D array", np.array(0.3)
    yield "0D floor", np.array(0.0)
    yield "python float", 0.3
    yield "numpy scalar", np.float64(1e-300)


def unary_tables():
    """Seeded unary tables at the validator's edges: ``(label, U, n)``."""
    rng = np.random.default_rng(92)
    offsets = [0.5e-9, 0.9e-9, 1.1e-9] + [1e-9 + j * 1e-16 for j in range(-3, 4)]
    for n in (1, 2, 4, 9):
        U = row_softmax(rng.standard_normal((n, n)))
        yield f"clean {n}", U, n
        yield f"clean {n}, no n", U, None
        yield f"wrong n {n}", U, n + 1
        yield f"uniform {n}", np.full((n, n), 1.0 / n), n
        one_hot = np.full((n, n), -0.0)
        one_hot[np.arange(n), random_permutation(n, rng)] = 1.0
        yield f"one-hot with -0.0 {n}", one_hot, n
        sub = U.copy()
        sub[0, 0] = SUBNORMAL
        yield f"subnormal {n}", sub, n
        if n <= 4:
            for label, edited in in_each_position(U):
                yield label, edited, n
        for bad in (-1e-300, -0.5, 1.0 + 2e-9, 2.0):
            edited = U.copy()
            edited[n - 1, 0] = bad
            yield f"{bad} {n}", edited, n
        for off in offsets:
            for sign in (1, -1):
                edited = U.copy()
                edited[0, n - 1] += sign * off
                yield f"{sign * off:g} {n}", edited, n
    yield "fortran", np.asfortranarray(row_softmax(rng.standard_normal((5, 5)))), 5
    yield "non-square", np.full((2, 3), 1 / 3), None
    yield "3D", np.full((2, 2, 2), 0.5), None
    yield "empty", np.zeros((0, 0)), None


def pair_blocks():
    """Seeded pair blocks at the validator's edges: ``(label, block, n)``."""
    rng = np.random.default_rng(93)
    for n in (2, 3, 9):
        block = row_softmax(rng.standard_normal((n * (n - 1), NUM_REL_CLASSES)))
        yield f"clean {n}", block, n
        yield f"fortran {n}", np.asfortranarray(block), n
        yield f"uniform {n}", np.full(block.shape, 1 / 9), n
        zeros = np.full(block.shape, -0.0)
        zeros[:, 4] = 1.0
        yield f"one-hot with -0.0 {n}", zeros, n
        sub = block.copy()
        sub[-1, 0] = SUBNORMAL
        yield f"subnormal {n}", sub, n
        if n == 2:
            for label, edited in in_each_position(block):
                yield label, edited, n
        for bad in (-1e-300, -0.5, 1.5):
            edited = block.copy()
            edited[0, 8] = bad
            yield f"{bad} {n}", edited, n
        for off in (0.9e-9, 1e-9, 1.1e-9):
            for sign in (1, -1):
                edited = block.copy()
                edited[-1, 3] += sign * off
                yield f"{sign * off:g} {n}", edited, n
    yield "wrong shape", np.full((9, 9), 1 / 9), 3
    yield "empty", np.zeros((0, 9)), 1


def square_tables():
    """Seeded square cost tables for ``_solve``, ties and float edges included."""
    rng = np.random.default_rng(94)
    for n in (1, 2, 3, 4, 9, 27):
        yield f"random {n}", rng.random((n, n))
        yield f"integer ties {n}", rng.integers(0, 3, (n, n)).astype(np.float64)
        yield f"uniform {n}", np.full((n, n), 0.7)
        yield f"-ln softmax {n}", neg_log(row_softmax(rng.standard_normal((n, n)) * 5.0))
        z = rng.standard_normal((n, n))
        z[rng.random(z.shape) < 0.4] = -0.0
        yield f"-0.0 {n}", z
        yield f"all -0.0 {n}", np.full((n, n), -0.0)
        yield f"subnormal {n}", rng.choice([SUBNORMAL, 0.0, -SUBNORMAL, 1e-310], size=(n, n))
        yield f"large {n}", rng.standard_normal((n, n)) * 1e300
        yield f"clamped {n}", neg_log(np.where(rng.random((n, n)) < 0.5, 0.0, 1.0))
    yield "fortran", np.asfortranarray(rng.random((6, 6)))
    base = rng.random((3, 3))
    for label, edited in in_each_position(base):
        yield label, edited


class TestAgainstTheEarlierBodies:
    def test_row_softmax(self):
        errors = set()
        with np.errstate(over="ignore"):  # logits of 1e300 overflow in the subtraction
            for label, z in edge_logits():
                want = outcome(row_softmax_reference, z)
                assert_same(outcome(row_softmax, z), want, label)
                errors.add(want[1] if want[0] == "error" else None)
        assert {"logits must be finite", "expected a 2D logit array", None} <= errors
        assert any(e and "zero-size" in e for e in errors)

    def test_neg_log(self):
        for label, p in edge_probabilities():
            before = np.asarray(p).tobytes()
            got = neg_log(p)
            assert np.asarray(p).tobytes() == before, label  # the input is never written
            want = neg_log_reference(p)
            assert type(got) is type(want), label
            assert got.dtype == want.dtype and np.shape(got) == np.shape(want), label
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), label

    def test_validate_unary(self):
        errors = set()
        for label, U, n in unary_tables():
            want = outcome(validate_unary_reference, U, n)
            assert_same(outcome(validate_unary, U, n), want, label)
            errors.add(want[1] if want[0] == "error" else None)
        assert {None, "unary matrix must be finite", "unary entries must lie in [0, 1]",
                "every unary row must sum to 1"} <= errors

    def test_validate_pairs(self):
        errors = set()
        for label, block, n in pair_blocks():
            want = outcome(validate_pairs_reference, block, n)
            assert_same(outcome(validate_pairs, block, n), want, label)
            errors.add(want[1] if want[0] == "error" else None)
        assert {None, "binary table must be finite",
                "every off-diagonal 9-vector must be a distribution"} <= errors

    def test_solve(self):
        errors = 0
        for label, m in square_tables():
            want = outcome(solve_reference, m)
            assert_same(outcome(assign._solve, m), want, label)
            errors += want[0] == "error"
        assert errors  # NaN and inf tables reach the solver's own refusal

    @pytest.mark.parametrize("spec", ["2x2", "3x3", "3x2", "2x2x2"])
    def test_oracle_jitter(self, spec):
        # eps of 0 and 1 skip the jitter; a tiny eps jitters entries the clamp
        # lifts to 1e-300, and a huge jitter overflows the logits.
        shape = GridShape.parse(spec)
        truth = random_permutation(shape.n, np.random.default_rng([95, shape.n]))
        for eps in (0.0, 5e-324, 1e-310, 1e-300, 1e-12, 0.3, 1.0 - 1e-16, 1.0):
            for binary in (None, 0.0, 1e-305, 0.5):
                for jitter in (8.0, 0.0, -2.5, 1e300):
                    rngs = [np.random.default_rng(96) for _ in range(2)]
                    got = OracleScorer(eps, rngs[0], binary, jitter).score(truth, shape)
                    want = oracle_score_reference(OracleScorer(eps, rngs[1], binary, jitter), truth, shape)
                    assert_same(("value", got), ("value", want), (eps, binary, jitter))
                    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_row_softmax_leaves_its_input_unchanged():
    x = np.random.default_rng(97).standard_normal((9, 9)) * 4.0
    before = x.tobytes()
    out = row_softmax(x)
    assert x.tobytes() == before
    assert not np.shares_memory(out, x)
