"""Configuration cost evaluation and normalization utilities."""

import itertools
import math
import re

import numpy as np
import pytest

from jigsolve.cost import (
    ROW_SUM_TOL,
    CostBreakdown,
    binary_cost,
    column_sum_deviation,
    row_softmax,
    softmax9,
    total_cost,
    unary_cost,
    validate_binary,
    validate_pairs,
    validate_unary,
)
from jigsolve.grid import GridShape, ordered_pairs, relative_type

S2 = GridShape((2, 2))
S3 = GridShape((3, 3))

# Frozen by hand: -ln 0.9 - ln 0.8 and -ln 0.1 - ln 0.2.
COST_IDENTITY = 0.32850406697203605
COST_SWAP = 3.912023005428146

U_2X2 = np.array([[0.9, 0.1], [0.2, 0.8]])


def one_hot_unary(c, n):
    U = np.full((n, n), 1e-12)
    U[np.arange(n), c] = 1.0
    return U


def one_hot_binary(c, shape):
    n = shape.n
    V = np.full((n, n, 9), 1e-12)
    for p in range(n):
        for q in range(n):
            if p != q:
                r = int(relative_type(int(c[p]), int(c[q]), shape))
                V[p, q] = 0.0
                V[p, q, r] = 1.0
    return V


def random_tables(n, shape, rng):
    U = row_softmax(rng.standard_normal((n, n)))
    V = np.stack(
        [
            np.stack([softmax9(rng.standard_normal(9)) for _ in range(n)])
            for _ in range(n)
        ]
    )
    return U, V


class TestRowSoftmax:
    def test_uniform_from_zeros(self):
        U = row_softmax(np.zeros((2, 2)))
        assert np.allclose(U, 0.5)

    def test_known_row(self):
        U = row_softmax(np.array([[math.log(9), 0.0], [0.0, 0.0]]))
        assert np.allclose(U[0], [0.9, 0.1])

    def test_shift_invariance(self):
        logits = np.random.default_rng(0).standard_normal((4, 4))
        shifted = logits.copy()
        shifted[2] += 100.0
        assert np.abs(row_softmax(logits) - row_softmax(shifted)).max() < 1e-12

    def test_output_is_row_stochastic(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            U = row_softmax(rng.standard_normal((5, 5)) * 30)
            validate_unary(U)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            row_softmax(np.array([[0.0, np.inf], [0.0, 0.0]]))


class TestSoftmax9:
    def test_uniform(self):
        assert np.allclose(softmax9(np.zeros(9)), 1 / 9)

    def test_boosted_index(self):
        logits = np.zeros(9)
        logits[3] = math.log(8)
        v = softmax9(logits)
        assert np.isclose(v[3], 0.5)
        assert np.allclose(np.delete(v, 3), 1 / 16)

    def test_shift_invariance(self):
        logits = np.random.default_rng(2).standard_normal(9)
        assert np.abs(softmax9(logits) - softmax9(logits + 57.0)).max() < 1e-12


class TestUnaryCost:
    def test_one_hot_is_zero(self):
        c = np.array([2, 0, 1, 3])
        assert unary_cost(one_hot_unary(c, 4), c) == pytest.approx(0.0, abs=1e-9)

    def test_identity_hand_value(self):
        assert unary_cost(U_2X2, [0, 1]) == pytest.approx(COST_IDENTITY, abs=1e-4)

    def test_swap_hand_value(self):
        assert unary_cost(U_2X2, [1, 0]) == pytest.approx(COST_SWAP, abs=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            unary_cost(U_2X2, [0, 1, 2])

    def test_floor_keeps_exact_zeros_finite(self):
        U = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert math.isfinite(unary_cost(U, [1, 0]))

    def test_sign_consistency_with_likelihood(self):
        # the min-cost permutation is the max-likelihood permutation
        rng = np.random.default_rng(3)
        for n in range(2, 6):
            U = row_softmax(rng.standard_normal((n, n)))
            perms = [np.array(p) for p in itertools.permutations(range(n))]
            costs = [unary_cost(U, p) for p in perms]
            likes = [np.sum(np.log(U[np.arange(n), p])) for p in perms]
            assert np.argmin(costs) == np.argmax(likes)

    def test_monotone_in_selected_entry(self):
        # boosting the mass on the chosen entry (renormalized) never raises
        # the cost
        rng = np.random.default_rng(4)
        for _ in range(50):
            U = row_softmax(rng.standard_normal((3, 3)))
            c = np.random.default_rng(_).permutation(3)
            before = unary_cost(U, c)
            U2 = U.copy()
            U2[0, c[0]] += 0.5
            U2[0] /= U2[0].sum()
            assert unary_cost(U2, c) <= before + 1e-12


class TestBinaryCost:
    def test_one_hot_is_zero(self):
        c = np.array([2, 0, 3, 1])
        V = one_hot_binary(c, S2)
        assert binary_cost(V, c, S2) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_2x2(self):
        V = np.full((4, 4, 9), 1 / 9)
        got = binary_cost(V, np.arange(4), S2)
        assert got == pytest.approx(12 * math.log(9), abs=1e-9)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            U, V = random_tables(4, S2, rng)
            c = rng.permutation(4)
            brute = 0.0
            for p in range(4):
                for q in range(4):
                    if p != q:
                        r = int(relative_type(int(c[p]), int(c[q]), S2))
                        brute -= math.log(max(V[p, q, r], 1e-12))
            assert binary_cost(V, c, S2) == pytest.approx(brute, rel=1e-12)

    def test_rejects_3d(self):
        V = np.full((8, 8, 9), 1 / 9)
        with pytest.raises(ValueError):
            binary_cost(V, np.arange(8), GridShape((2, 2, 2)))


class TestTotalCost:
    def test_perfect_tables_total_zero(self):
        c = np.array([1, 3, 0, 2])
        bd = total_cost(one_hot_unary(c, 4), one_hot_binary(c, S2), c, S2)
        assert bd.total == pytest.approx(0.0, abs=1e-8)

    def test_missing_binary_table(self):
        c = np.array([1, 0, 3, 2])
        bd = total_cost(U := row_softmax(np.random.default_rng(6).standard_normal((4, 4))), None, c, S2)
        assert bd.binary == 0.0
        assert bd.total == unary_cost(U, c)

    def test_compositional(self):
        rng = np.random.default_rng(7)
        U, V = random_tables(4, S2, rng)
        c = rng.permutation(4)
        bd = total_cost(U, V, c, S2)
        assert bd.unary == unary_cost(U, c)
        assert bd.binary == binary_cost(V, c, S2)
        assert bd.total == bd.unary + bd.binary

    def test_relabeling_invariance(self):
        # renaming slots consistently in U, V and c leaves the cost unchanged
        rng = np.random.default_rng(8)
        for _ in range(20):
            U, V = random_tables(4, S2, rng)
            c = rng.permutation(4)
            pi = rng.permutation(4)  # slot relabeling: old slot s -> new slot pi[s]
            U2 = np.empty_like(U)
            V2 = np.empty_like(V)
            c2 = np.empty_like(c)
            U2[pi] = U
            c2[pi] = c
            for p in range(4):
                for q in range(4):
                    V2[pi[p], pi[q]] = V[p, q]
            a = total_cost(U, V, c, S2)
            b = total_cost(U2, V2, c2, S2)
            assert b.total == pytest.approx(a.total, rel=1e-12)

    def test_always_finite(self):
        U = np.eye(3)
        bd = total_cost(U[:, [1, 2, 0]], None, np.arange(3), GridShape((3, 1)))
        assert math.isfinite(bd.total)


class TestColumnSumDeviation:
    def test_permutation_one_hot(self):
        c = np.array([1, 2, 0])
        assert np.allclose(column_sum_deviation(one_hot_unary(c, 3)), 0.0, atol=1e-9)

    def test_uniform(self):
        assert np.allclose(column_sum_deviation(np.full((5, 5), 0.2)), 0.0)

    def test_hand_value(self):
        assert np.allclose(column_sum_deviation(U_2X2), [0.1, 0.1])


class TestValidation:
    def test_validate_unary_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            validate_unary(np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            validate_unary(np.array([[1.5, -0.5], [0.5, 0.5]]))

    @pytest.mark.parametrize("off,ok", [(0.5e-9, True), (2e-9, False)])
    def test_row_sum_tolerance_boundary(self, off, ok):
        U = np.array([[0.5, 0.5 + off], [0.5, 0.5]])
        V = np.full((2, 2, 9), 1 / 9)
        V[0, 1, 0] += off
        for validate, table in ((validate_unary, U), (validate_binary, V)):
            if ok:
                validate(table)
            else:
                with pytest.raises(ValueError):
                    validate(table)

    @pytest.mark.parametrize("bad,message", [
        (math.nan, "unary matrix must be finite"),
        (math.inf, "unary matrix must be finite"),
        (-math.inf, "unary matrix must be finite"),
        (-0.25, "unary entries must lie in [0, 1]"),
        (1.25, "unary entries must lie in [0, 1]"),
    ])
    def test_unary_messages(self, bad, message):
        U = np.full((3, 3), 1 / 3)
        U[1, 2] = bad
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            validate_unary(U, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_binary_diagonal_must_be_finite(self, bad):
        V = np.full((3, 3, 9), 1 / 9)
        V[1, 1, 4] = bad
        with pytest.raises(ValueError, match="^binary table must be finite$"):
            validate_binary(V, 3)

    def test_binary_diagonal_is_otherwise_unconstrained(self):
        V = np.full((3, 3, 9), 1 / 9)
        V[2, 2] = -5.0
        assert validate_binary(V, 3) is V

    def test_binary_pair_messages(self):
        V = np.full((3, 3, 9), 1 / 9)
        V[0, 2, 0] = -1e-3
        with pytest.raises(ValueError, match="^every off-diagonal 9-vector must be a distribution$"):
            validate_binary(V, 3)

    def test_validate_binary_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            validate_binary(np.full((4, 4, 8), 1 / 8))

    def test_breakdown_total(self):
        bd = CostBreakdown(unary=1.25, binary=0.5)
        assert bd.total == 1.75


def validate_binary_reference(V, n=None):
    """``validate_binary`` as it was when it checked the whole V under a diagonal mask (test-only)."""
    arr = np.asarray(V, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 9:
        raise ValueError(f"binary table must have shape (n, n, 9), got {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"binary table is for n={arr.shape[0]}, expected n={n}")
    flat = arr.ravel()
    lo, hi = (flat.min(), flat.max()) if flat.size else (0.0, 0.0)
    if not -np.inf < lo <= hi < np.inf:
        raise ValueError("binary table must be finite")
    n = arr.shape[0]
    dev = np.abs(np.ascontiguousarray(arr).sum(axis=2) - 1.0)
    dev.flat[:: n + 1] = 0.0
    if (lo < 0 and (arr[ordered_pairs(n)] < 0).any()) or not dev.max(initial=0.0) <= ROW_SUM_TOL:
        raise ValueError("every off-diagonal 9-vector must be a distribution")
    return arr


def edge_tables():
    """Seeded V tables at the validators' edges, each with the cell it edits: (label, V, on_diagonal)."""
    rng = np.random.default_rng(71)
    # Row-sum edits on both sides of the tolerance, and within a few ulps of it.
    offsets = [0.3e-9, 0.5e-9, 0.9e-9, 1.1e-9, 1.2e-9] + [1e-9 + j * 1e-16 for j in range(-3, 4)]
    for n in (2, 4, 9):
        V = row_softmax(rng.standard_normal((n * n, 9))).reshape(n, n, 9)
        yield "clean", V, False
        p, q = ordered_pairs(n)
        for on_diagonal in (True, False):
            for _ in range(3):
                k = int(rng.integers(len(p)))
                a, b = (k % n, k % n) if on_diagonal else (p[k], q[k])
                c = int(rng.integers(9))
                for bad in (math.nan, math.inf, -math.inf, -1e-3, -0.5):
                    W = V.copy()
                    W[a, b, c] = bad
                    yield f"{bad}", W, on_diagonal
                    if math.isfinite(bad):  # a negative entry in a row that still sums to 1
                        W[a, b, (c + 1) % 9] += V[a, b, c] - bad
                        yield f"{bad} in a unit row", W, on_diagonal
                for off in offsets:
                    for sign in (1, -1):
                        W = V.copy()
                        W[a, b, c] += sign * off
                        yield f"{sign * off:g}", W, on_diagonal


def layouts(V):
    """V in C order, in Fortran order, and as the transpose of a transposed C copy."""
    yield np.ascontiguousarray(V)
    yield np.asfortranarray(V)
    yield np.ascontiguousarray(V.transpose(1, 0, 2)).transpose(1, 0, 2)


def outcome(validate, *args):
    try:
        validate(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestPairBlock:
    """The public V's check and its pair block's check against the masked whole-V check."""

    def test_same_verdicts_and_messages_as_the_masked_check(self):
        verdicts = set()
        for label, V, on_diagonal in edge_tables():
            n = V.shape[0]
            for table in layouts(V):
                want = outcome(validate_binary_reference, table, n)
                assert outcome(validate_binary, table, n) == want, (label, on_diagonal)
                # The block carries no diagonal: it answers as V with a valid one would,
                # in whatever layout a provider hands it.
                clean = table.copy()
                clean[np.arange(n), np.arange(n)] = 1 / 9
                block = table[ordered_pairs(n)]
                for layout in (block, np.asfortranarray(block)):
                    assert outcome(validate_pairs, layout, n) == outcome(validate_binary_reference, clean, n)
                verdicts.add((label, on_diagonal, want))
        # Every kind of edit must both pass and fail somewhere for the comparison to bite.
        assert ("nan", True, "binary table must be finite") in verdicts
        assert ("-0.5 in a unit row", True, None) in verdicts
        assert ("-0.5 in a unit row", False, "every off-diagonal 9-vector must be a distribution") in verdicts
        assert ("3e-10", False, None) in verdicts
        assert ("1.2e-09", False, "every off-diagonal 9-vector must be a distribution") in verdicts

    def test_block_shape_is_checked(self):
        with pytest.raises(ValueError, match=re.escape("pair block must have shape (6, 9), got (9, 9)")):
            validate_pairs(np.full((9, 9), 1 / 9), 3)
