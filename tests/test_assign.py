"""Exact minimum-cost assignment with a deterministic tie rule."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from jigsolve import assign, search
from jigsolve.assign import TIE_TOL, min_cost_assignment, unary_argmin
from jigsolve.cli import EXIT_OK, main
from jigsolve.cost import neg_log, row_softmax, unary_cost

U_2X2 = np.array([[0.9, 0.1], [0.2, 0.8]])


def brute_force(matrix):
    """Lexicographically-first minimum over all permutations."""
    n = matrix.shape[0]
    best_cost = None
    best = None
    for p in itertools.permutations(range(n)):
        cost = sum(matrix[s, p[s]] for s in range(n))
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best = p
    return np.array(best), best_cost


def _solve(matrix):
    rows, cols = linear_sum_assignment(matrix)
    return cols, float(matrix[rows, cols].sum())


def greedy_reference(costs):
    """The tie rule by a greedy pass that re-solves for every smaller column.

    Pins slots left to right; a smaller unused column wins when a constrained
    re-solve shows it still admits an optimal completion.  ``(config, cost)``.
    """
    m = np.asarray(costs, dtype=np.float64)
    n = m.shape[0]
    completion, opt = _solve(m)
    tol = TIE_TOL * max(1.0, abs(opt))

    config = np.empty(n, dtype=np.int64)
    remaining = list(range(n))  # kept sorted
    completion = list(completion)  # optimal columns for slots s..n-1
    fixed = 0.0
    for s in range(n):
        chosen = completion[0]
        for c in remaining:
            if c >= chosen:
                break
            rest = [r for r in remaining if r != c]
            if s + 1 < n:
                sub_cols, sub_cost = _solve(m[s + 1 :, rest])
                cand_cost = fixed + m[s, c] + sub_cost
                cand_completion = [rest[j] for j in sub_cols]
            else:
                cand_cost = fixed + m[s, c]
                cand_completion = []
            if cand_cost <= opt + tol:
                chosen = c
                completion = [c] + cand_completion
                break
        config[s] = chosen
        fixed += m[s, chosen]
        remaining.remove(chosen)
        completion = completion[1:]
    return config, float(m[np.arange(n), config].sum())


def tie_pass(matrix):
    """The tie pass from the first solve, the path the certificate short-cuts."""
    sigma, opt = assign._solve(matrix)
    return assign._tie_pass(matrix, sigma, opt, TIE_TOL * max(1.0, abs(opt)))


def count_solves(monkeypatch) -> list:
    """The shapes of the LSAP solves the tie rule runs, in order."""
    calls = []

    def counting(matrix):
        calls.append(matrix.shape)
        return linear_sum_assignment(matrix)

    monkeypatch.setattr(assign, "linear_sum_assignment", counting)
    return calls


def _matrix_kinds(n, rng):
    """Named matrices of size n, from generic to tie-heavy."""
    yield "uniform", rng.random((n, n))
    yield "neg_log_softmax", neg_log(row_softmax(rng.standard_normal((n, n)) * 2.0))
    yield "int012", rng.integers(0, 3, (n, n)).astype(np.float64)
    yield "round_0.1", np.round(rng.random((n, n)), 1)
    for factor in (0.5, -0.5, 2.0, -2.0):
        m = np.full((n, n), 0.7)
        i, j = rng.integers(0, n, 2)
        m[i, j] *= 1.0 + factor * TIE_TOL
        yield f"ties_nudged_{factor:+g}", m
    for factor in (1.0 - 1e-6, 1.0, 1.0 + 1e-6):
        # one entry below the all-ties optimum by about the tie tolerance
        m = np.full((n, n), 0.7)
        i, j = rng.integers(0, n, 2)
        m[i, j] -= factor * TIE_TOL * max(1.0, 0.7 * n)
        yield f"ties_at_tol_{factor:.6f}", m
    yield "shift_1e6", rng.random((n, n)) + 1e6


class TestMinCostAssignment:
    def test_n1(self):
        res = min_cost_assignment(np.array([[2.5]]))
        assert res.config.tolist() == [0]
        assert res.cost == 2.5

    def test_neg_log_2x2(self):
        res = min_cost_assignment(neg_log(U_2X2))
        assert res.config.tolist() == [0, 1]
        assert res.cost == pytest.approx(0.3285, abs=1e-4)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            m = rng.random((n, n))
            res = min_cost_assignment(m)
            ref, ref_cost = brute_force(m)
            assert res.cost == pytest.approx(ref_cost, abs=1e-12)
            assert (res.config == ref).all()

    def test_lexicographic_tie_break(self):
        # all-equal matrix: every permutation ties, identity is lexicographically
        # smallest
        res = min_cost_assignment(np.ones((4, 4)))
        assert res.config.tolist() == [0, 1, 2, 3]

    def test_structured_ties(self):
        # two optimal assignments; the smaller assign array must win
        m = np.array(
            [
                [0.0, 0.0, 9.0],
                [0.0, 0.0, 9.0],
                [9.0, 9.0, 0.0],
            ]
        )
        res = min_cost_assignment(m)
        assert res.config.tolist() == [0, 1, 2]

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = rng.random((5, 5))
            base = min_cost_assignment(m)
            shifted = m.copy()
            shifted[2] += 7.25
            assert (min_cost_assignment(shifted).config == base.config).all()

    def test_determinism(self):
        m = np.random.default_rng(13).random((6, 6))
        runs = [min_cost_assignment(m) for _ in range(5)]
        for r in runs[1:]:
            assert (r.config == runs[0].config).all()
            assert r.cost == runs[0].cost

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            min_cost_assignment(np.ones((2, 3)))
        with pytest.raises(ValueError):
            min_cost_assignment(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestAgainstGreedy:
    def test_identical_to_greedy_reference(self):
        rng = np.random.default_rng(16)
        for n in range(1, 41):
            for _ in range(2):
                for kind, m in _matrix_kinds(n, rng):
                    res = min_cost_assignment(m)
                    config, cost = greedy_reference(m)
                    assert res.config.tolist() == config.tolist(), (kind, n)
                    assert res.cost == cost, (kind, n)

    def test_generic_seed_takes_few_solves(self, monkeypatch):
        # The optimum, then the certificate's re-solve.
        calls = count_solves(monkeypatch)
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = neg_log(row_softmax(rng.standard_normal((27, 27))))
            calls.clear()
            min_cost_assignment(m)
            assert calls == [(27, 27), (27, 27)]

    def test_identity_seed_takes_one_solve(self, monkeypatch):
        calls = count_solves(monkeypatch)
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = neg_log(row_softmax(rng.standard_normal((27, 27)) + 10.0 * np.eye(27)))
            calls.clear()
            assert min_cost_assignment(m).config.tolist() == list(range(27))
            assert calls == [(27, 27)]

    def test_reduced_moves_are_feasible_and_telescope(self):
        rng = np.random.default_rng(18)
        for n in (1, 2, 5, 27):
            m = neg_log(row_softmax(rng.standard_normal((n, n))))
            _, sigma = linear_sum_assignment(m)
            red, _ = assign._reduced_moves(m, sigma)
            assert red.min() >= -1e-12
            assert (np.diag(red) == 0.0).all()
            p = rng.permutation(n)
            extra = m[np.arange(n), p].sum() - m[np.arange(n), sigma].sum()
            assert red[sigma, p].sum() == pytest.approx(extra, abs=1e-9)


class TestCertificate:
    """The certified seed against the tie pass, ``==`` on config and cost."""

    def test_matches_tie_pass_on_matrix_kinds(self):
        rng = np.random.default_rng(19)
        paths = set()
        for n in range(1, 41):
            for kind, m in _matrix_kinds(n, rng):
                got, want = min_cost_assignment(m), tie_pass(m)
                assert got.config.tolist() == want.config.tolist(), (kind, n)
                assert got.cost == want.cost, (kind, n)
                sigma, opt = assign._solve(m)
                paths.add(assign._certified(m, sigma, TIE_TOL * max(1.0, abs(opt))))
        assert paths == {True, False}

    def test_overflowing_bump_falls_back(self):
        # Raising the optimum's entries would leave the float range.
        top = np.finfo(np.float64).max
        for m in (np.array([[top, 1.0], [0.0, top]]), np.array([[top, top / 2], [0.0, top]])):
            sigma, opt = assign._solve(m)
            assert sigma.tolist() == [1, 0]
            assert not assign._certified(m, sigma, TIE_TOL * max(1.0, abs(opt)))
            got, want = min_cost_assignment(m), tie_pass(m)
            assert got.config.tolist() == want.config.tolist() == [1, 0]
            assert got.cost == want.cost == opt


def _seed_tables(monkeypatch, *runs):
    """The tables the solver seeds from over CLI runs, and those that ran the tie pass."""
    tables, fallbacks = [], []
    tie_ruled, tie_pass_ = assign._tie_ruled, assign._tie_pass
    monkeypatch.setattr(search, "_tie_ruled", lambda m: tables.append(m) or tie_ruled(m))
    monkeypatch.setattr(assign, "_tie_pass", lambda m, *args: fallbacks.append(m) or tie_pass_(m, *args))
    for argv in runs:
        assert main(argv) == EXIT_OK
    monkeypatch.undo()
    return tables, fallbacks


def _assert_matches_tie_pass(tables):
    for m in tables:
        got, want = assign._tie_ruled(m), tie_pass(m)
        assert got.config.tolist() == want.config.tolist()
        assert got.cost == want.cost


class TestRecordedSeeds:
    """Tables recorded from seed-0 runs: oracle seeds never fall back."""

    @pytest.mark.parametrize("grid,noise,count,rounds", [
        ("3x3", "0.5", "200", 3047), ("3x3x3", "0.5", "200", 4000), ("3x3x3", "0.3", "100", 1871),
    ])
    def test_oracle_seeds_are_certified(self, monkeypatch, tmp_path, grid, noise, count, rounds):
        tables, fallbacks = _seed_tables(monkeypatch, [
            "solve", "--grid", grid, "--oracle", noise, "--count", count, "--seed", "0",
            "--report", str(tmp_path / "r.jsonl")])
        assert len(tables) == rounds
        assert fallbacks == []
        _assert_matches_tie_pass(tables)

    def test_learned_replay_matches_tie_pass(self, monkeypatch, tmp_path):
        corpus, model = str(tmp_path / "c"), str(tmp_path / "m.jsw1")
        tables, _ = _seed_tables(
            monkeypatch,
            ["gen", "--grid", "2x2", "--count", "16", "--seed", "0", "--out", corpus, "--cell", "12",
             "--crop", "8", "--mirror-p", "0"],
            ["train", "--corpus", corpus, "--out", model, "--epochs", "2", "--seed", "0"])
        assert len(tables) > 100
        _assert_matches_tie_pass(tables)


class TestUnaryArgmin:
    def test_one_hot_recovers_permutation(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            c = rng.permutation(5)
            U = np.full((5, 5), 1e-12)
            U[np.arange(5), c] = 1.0
            res = unary_argmin(U)
            assert (res.config == c).all()
            assert res.cost == pytest.approx(0.0, abs=1e-9)

    def test_uniform_ties_to_identity(self):
        res = unary_argmin(np.full((4, 4), 0.25))
        assert res.config.tolist() == [0, 1, 2, 3]

    def test_matches_brute_force_on_unary_cost(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            U = row_softmax(rng.standard_normal((n, n)))
            res = unary_argmin(U)
            best = min(
                (unary_cost(U, np.array(p)) for p in itertools.permutations(range(n)))
            )
            assert res.cost == pytest.approx(best, rel=1e-12)
            assert res.cost == pytest.approx(unary_cost(U, res.config), rel=1e-12)
