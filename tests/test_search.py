"""Hungarian seed + Hamming-ball refinement and the iterative solve loop."""

import hashlib
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from jigsolve import assign, cli, cost, grid, scorer, search
from jigsolve.assign import unary_argmin
from jigsolve.cost import neg_log, row_softmax, softmax9, total_cost, validate_binary, validate_unary
from jigsolve.grid import (
    GridShape,
    all_permutations,
    enumerate_hamming_ball,
    hamming,
    hamming_ball_size,
    ordered_pairs,
    random_permutation,
    relation_table,
    reorganize,
)
from jigsolve.puzzlegen import GenOptions, PuzzleInstance, generate_corpus
from jigsolve.scorer import LinearScorer, OracleScorer, features_of, linear_score, oracle_score
from jigsolve.search import (
    SolverOptions,
    brute_force_argmin,
    predict,
    refine_with_binary,
    solve_iterative,
)

S2 = GridShape((2, 2))
S3 = GridShape((3, 3))


def random_tables(n, rng):
    U = row_softmax(rng.standard_normal((n, n)))
    V = np.stack(
        [
            np.stack([softmax9(rng.standard_normal(9)) for _ in range(n)])
            for _ in range(n)
        ]
    )
    return U, V


def exhaustive_argmin(U, V, shape):
    """Independent lexicographic argmin over all permutations."""
    best = None
    best_cost = None
    for p in itertools.permutations(range(shape.n)):
        c = np.array(p)
        cost = total_cost(U, V, c, shape).total
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best = c
    return best


def gathered_costs(logu, logv, shape, cands):
    """Cost parts of each candidate row, gathered at the candidate itself.

    This is the kernel that built the candidates.  Its pair index comes out
    Fortran-ordered, so when it gathers several rows each one is summed left
    to right; a single row is summed pairwise.
    """
    n = shape.n
    idx = cands.astype(np.intp)
    unary = logu[np.arange(n), idx].sum(axis=1)
    p, q = np.where(~np.eye(n, dtype=bool))
    paircost = logv[p[:, None], q[:, None], relation_table(shape).ravel()[None, :]]
    flat = (idx * n)[:, p] + idx[:, q] + (np.arange(len(p)) * n * n)[None, :]
    return unary, paircost.ravel()[flat].sum(axis=1)


class TestBallKernel:
    @pytest.mark.parametrize("extents", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (7, 1)])
    @pytest.mark.parametrize("chunk_rows", [None, 1, 3])
    def test_relabelled_tables_equal_the_candidate_gather(self, extents, chunk_rows, monkeypatch):
        shape = GridShape(extents)
        n = shape.n
        chunk = search._GATHER_BYTES if chunk_rows is None else 8 * n * (n - 1) * chunk_rows
        rng = np.random.default_rng([50, n])
        cases = [(r, None) for r in range(min(n, 4) + 1)]
        # The last cap ends inside the radius-n ball, past the radius-(n-1) one.
        cases += [(n, None), (n, 1), (min(n, 3), 5), (n, hamming_ball_size(n, n - 1) + 1)]
        for radius, cap in cases:
            U, V = random_tables(n, rng)
            logu, logv = neg_log(U), neg_log(V)
            center = random_permutation(n, rng)
            # An uncached plan built below and above the byte budget takes
            # each index dtype; both must give the same floats.
            for budget, dtype in ((1 << 62, np.intp), (0, np.int32)):
                monkeypatch.setattr(search, "_GATHER_BYTES", budget)
                ball = search._ball_index.__wrapped__(n, radius).head(cap)
                assert ball.unary.dtype == ball.pairs.dtype == dtype
                monkeypatch.setattr(search, "_GATHER_BYTES", chunk)
                cands = center[ball.table]
                assert (cands == enumerate_hamming_ball(center, radius)[:cap]).all()
                unary, binary = search._batch_costs(logu, logv[ordered_pairs(n)], shape, center, ball)
                want_unary, want_binary = gathered_costs(logu, logv, shape, cands)
                assert (unary == want_unary).all(), (radius, cap, dtype)
                assert (binary == want_binary).all(), (radius, cap, dtype)

    def test_index_is_cached_and_read_only(self):
        ball = search._ball_index(5, 3)
        assert search._ball_index(5, 3) is ball
        assert not any(a.flags.writeable for a in ball)

    def test_one_plan_is_cached_at_a_time(self):
        search._ball_index(5, 3)
        search._ball_index(4, 2)
        assert search._ball_index.cache_info().currsize == 1

    def test_brute_force_shares_the_plan_of_a_full_refinement(self):
        # Acceptance 02 alternates the two on S_9; a second key would rebuild
        # the 362 880-row plan at every call.
        shape = GridShape((2, 2))
        U, V = random_tables(4, np.random.default_rng(54))
        search._ball_index.cache_clear()
        for _ in range(3):
            predict(U, V, shape, SolverOptions(radius=4))
            brute_force_argmin(U, V, shape)
        assert search._ball_index.cache_info().misses == 1

    def test_one_ball_table_is_cached_at_a_time(self):
        # A --radii sweep must not keep older radii's tables, which round_bytes does not count.
        search._ball_index(5, 2)
        search._ball_index(5, 3)
        assert grid._ball_table.cache_info().currsize == 1

    def test_3x3_plan_gathers_without_a_cast(self):
        # 205 x 72 intp entries (118 KB) fit one gather chunk, so numpy
        # gathers through them with no per-round cast to intp.
        ball = search._ball_index(9, 3)
        assert all(a.dtype == np.intp for a in ball)
        assert ball.pairs.shape == (205, 72) and ball.pairs.flags.f_contiguous
        assert ball.unary.flags.c_contiguous
        assert (ball.unary == np.arange(9) * 9 + ball.table).all()

    @pytest.mark.parametrize("n", [25, 36])
    def test_cold_build_holds_one_pair_index(self, n):
        # 5x5 and 6x6 at r=3 keep an int32 pair index of 11.2 and 71.7 MiB;
        # building it must not hold a second copy.  The ball table is
        # grid's own cache and stays warm.
        grid._ball_table(n, 3)
        search._ball_index.cache_clear()
        tracemalloc.start()
        try:
            ball = search._ball_index(n, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ball.pairs.dtype == np.int32
        assert peak <= 1.1 * ball.pairs.nbytes

    @pytest.mark.parametrize("spec,radius,cap", [
        ("3x3", 3, None), ("2x3", 6, None), ("4x4", 16, 60), ("5x5", 3, None), ("5x5", 3, 7),
        ("6x6", 3, 1000),
    ])
    def test_round_bytes_counts_the_plan_a_refinement_builds(self, spec, radius, cap):
        shape = GridShape.parse(spec)
        n = shape.n
        ball = search._ball_index(n, search._ball_radius(n, radius, cap))
        plan = ball.table.nbytes + ball.unary.nbytes + ball.pairs.nbytes
        seed = 3 * 8 * n * n * 10 + n * n + search._SEED_SLACK + 256 * n
        chunk = min(search._GATHER_BYTES, 8 * len(ball.table) * n * (n - 1))
        opts = SolverOptions(radius=radius, candidate_cap=cap)
        assert search.round_bytes(shape, opts) == seed + 8 * n**3 * (n - 1) + plan + chunk
        no_pairs = SolverOptions(radius=radius, candidate_cap=cap, use_binary=False)
        assert search.round_bytes(shape, no_pairs) == seed

    @pytest.mark.parametrize("spec", ["5x5", "6x6"])
    def test_round_bytes_is_a_cold_predict_peak(self, spec):
        # With the ball table and plan built inside it, one predict at radius 3
        # peaks at 23.7 and 98.8 MiB.
        shape = GridShape.parse(spec)
        rng = np.random.default_rng(51)
        U, V = oracle_score(random_permutation(shape.n, rng), shape, 0.5, rng=rng)
        opts = SolverOptions(radius=3)
        grid._ball_table.cache_clear()
        search._ball_index.cache_clear()
        tracemalloc.start()
        try:
            predict(U, V, shape, opts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(peak - search.round_bytes(shape, opts)) <= 0.1 * search.round_bytes(shape, opts)

    @pytest.mark.parametrize("spec", ["5x5", "6x6"])
    def test_an_admitted_round_stays_within_its_admission(self, spec):
        # Admission as a bound: scoring plus a predict that builds its ball
        # plan cold hold no more than _admit counts for a solve.
        shape = GridShape.parse(spec)
        opts = SolverOptions(radius=3)
        held = cli.CURVE_BYTES * opts.max_rounds
        cli._admit(shape, [opts], held, "the report's curve")
        grid._ball_table.cache_clear()
        search._ball_index.cache_clear()
        rng = np.random.default_rng(53)
        truth = random_permutation(shape.n, rng)
        tracemalloc.start()
        try:
            U, block = OracleScorer(0.2, rng).score(truth, shape)
            predict(U, block, shape, opts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= search.round_bytes(shape, opts) + held

    def test_round_bytes_bounds_both_3d_seed_paths(self, monkeypatch):
        # One 8x8x8 round, scoring and predict: the certified seed holds U, -ln U
        # and the raised copy (3.0 U); the tie pass U, -ln U, its reduced costs
        # and the near-move mask (3.125 U).
        shape = GridShape((8, 8, 8))
        peaks, fallbacks = [], []
        tie_pass = assign._tie_pass
        monkeypatch.setattr(assign, "_tie_pass", lambda *args: fallbacks.append(len(peaks)) or tie_pass(*args))
        opts = SolverOptions()
        for tied in (False, True):
            rng = np.random.default_rng(52)
            truth = random_permutation(shape.n, rng)
            tracemalloc.start()
            try:
                U, _ = oracle_score(truth, shape, 0.5, rng=rng)
                if tied:
                    U[1] = U[0]  # slots 0 and 1 tie on every column
                predict(U, None, shape, opts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert fallbacks == [1]  # only the tied table runs the tie pass
        bound = search.round_bytes(shape, opts)
        assert max(peaks) <= bound <= 1.1 * max(peaks)

    def test_warm_6x6_predict_memory_is_bounded(self):
        shape = GridShape((6, 6))
        rng = np.random.default_rng(51)
        U, V = oracle_score(random_permutation(36, rng), shape, 0.5, rng=rng)
        opts = SolverOptions(radius=3)
        predict(U, V, shape, opts)
        tracemalloc.start()
        try:
            predict(U, V, shape, opts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20


class TestRefineWithBinary:
    def test_radius_zero_returns_seed(self):
        rng = np.random.default_rng(20)
        U, V = random_tables(4, rng)
        seed = rng.permutation(4)
        got = refine_with_binary(U, V, seed, S2, 0)
        assert (got == seed).all()

    def test_perfect_tables_fix_a_swap(self):
        truth = np.array([2, 0, 3, 1])
        U, V = oracle_score(truth, S2, 0.0)
        seed = truth.copy()
        seed[[0, 1]] = seed[[1, 0]]
        got = refine_with_binary(U, V, seed, S2, 2)
        assert (got == truth).all()

    def test_full_radius_matches_exhaustive(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            U, V = random_tables(4, rng)
            seed = rng.permutation(4)
            got = refine_with_binary(U, V, seed, S2, 4)
            ref = exhaustive_argmin(U, V, S2)
            assert (got == ref).all()

    def test_never_worse_than_seed(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            U, V = random_tables(9, rng)
            seed = rng.permutation(9)
            for radius in (0, 2, 3):
                got = refine_with_binary(U, V, seed, S3, radius)
                assert (
                    total_cost(U, V, got, S3).total
                    <= total_cost(U, V, seed, S3).total + 1e-12
                )

    def test_ball_refinement_never_builds_s_n(self):
        rng = np.random.default_rng(29)
        U, V = random_tables(9, rng)
        all_permutations.cache_clear()
        refine_with_binary(U, V, unary_argmin(U).config, S3, 3)
        assert all_permutations.cache_info().misses == 0

    @pytest.mark.parametrize("fields,message", [
        ({"radius": -1}, "radius must be >= 0"),
        ({"radius": 3, "candidate_cap": 0}, "candidate_cap must be >= 1"),
        ({"radius": 3, "candidate_cap": -1}, "candidate_cap must be >= 1"),
    ])
    def test_rejects_what_solver_options_rejects(self, fields, message):
        U, V = random_tables(9, np.random.default_rng(30))
        with pytest.raises(ValueError, match=message):
            refine_with_binary(U, V, np.arange(9), S3, **fields)

    def test_rejects_3d(self):
        V = np.full((8, 8, 9), 1 / 9)
        U = np.full((8, 8), 1 / 8)
        with pytest.raises(ValueError):
            refine_with_binary(U, V, np.arange(8), GridShape((2, 2, 2)), 2)


class TestPredict:
    def test_one_hot_tables_recover_truth(self):
        rng = np.random.default_rng(23)
        truth = random_permutation(9, rng)
        U, V = oracle_score(truth, S3, 0.0)
        config, bd = predict(U, V, S3, SolverOptions())
        assert (config == truth).all()
        assert bd.total == pytest.approx(0.0, abs=1e-7)

    def test_no_binary_equals_unary_argmin(self):
        rng = np.random.default_rng(24)
        U, V = random_tables(9, rng)
        config, bd = predict(U, V, S3, SolverOptions(use_binary=False))
        assert (config == unary_argmin(U).config).all()
        assert bd.binary == 0.0

    @pytest.mark.parametrize("spec,use_binary", [("3x3x3", True), ("3x3", False)])
    def test_radius_zero_round_equals_the_one_row_kernel(self, spec, use_binary):
        # Without binary terms the round skips the ball; its result and the
        # float of its cost are those of the kernel over the one-row ball.
        shape = GridShape.parse(spec)
        n = shape.n
        rng = np.random.default_rng([28, n])
        opts = SolverOptions(use_binary=use_binary, candidate_cap=7)
        tables = [oracle_score(random_permutation(n, rng), shape, eps, rng=rng)
                  for eps in (0.0, 0.3, 0.5, 1.0) for _ in range(5)]
        tables += [(row_softmax(3 * rng.standard_normal((n, n))), None) for _ in range(20)]
        for U, V in tables:
            config, bd = predict(U, V, shape, opts)
            logu = neg_log(U)
            seed = assign.min_cost_assignment(logu).config
            want, want_bd = search._refine(logu, None, seed, shape, SolverOptions(radius=0))
            assert config.dtype == want.dtype and (config == want).all()
            assert bd == want_bd

    def test_full_radius_matches_brute_force(self):
        rng = np.random.default_rng(25)
        for shape in (S2, GridShape((3, 2))):
            for _ in range(20):
                U, V = random_tables(shape.n, rng)
                config, _ = predict(U, V, shape, SolverOptions(radius=shape.n))
                assert (config == brute_force_argmin(U, V, shape)).all()

    def test_binary_refinement_helps_under_noise(self):
        # paired trials: refining with low-noise relative cues must not hurt
        rng = np.random.default_rng(26)
        wins_with = wins_without = 0
        for i in range(100):
            truth = random_permutation(9, np.random.default_rng([26, i]))
            U, V = oracle_score(
                truth, S3, 0.3, rng=np.random.default_rng([27, i]), binary_eps=0.05
            )
            with_b, _ = predict(U, V, S3, SolverOptions())
            without_b, _ = predict(U, V, S3, SolverOptions(use_binary=False))
            wins_with += (with_b == truth).all()
            wins_without += (without_b == truth).all()
        assert wins_with >= wins_without


class TestPredictCost:
    @pytest.mark.parametrize("spec", ["2x2", "3x2", "3x3", "2x2x2"])
    @pytest.mark.parametrize("use_binary", [True, False])
    @pytest.mark.parametrize("radius,cap", [(0, None), (3, None), (3, 7)])
    def test_breakdown_matches_scalar_cost(self, spec, use_binary, radius, cap):
        shape = GridShape.parse(spec)
        binary_on = use_binary and not shape.is_3d
        opts = SolverOptions(radius=radius, use_binary=use_binary, candidate_cap=cap)
        rng = np.random.default_rng([40, shape.n, radius])
        for _ in range(10):
            U, V = random_tables(shape.n, rng)
            config, bd = predict(U, V, shape, opts)
            ref = total_cost(U, V if binary_on else None, config, shape)
            assert bd.unary == pytest.approx(ref.unary, rel=1e-12)
            assert bd.binary == pytest.approx(ref.binary, rel=1e-12)
            if not binary_on:
                assert bd.binary == 0.0

    def test_validates_each_table_once(self, monkeypatch):
        calls = []
        for module, name in ((search, "validate_unary"), (search, "validate_binary"),
                             (assign, "validate_unary")):
            real = getattr(module, name)

            def spy(*args, _real=real, _tag=f"{module.__name__}.{name}"):
                calls.append(_tag)
                return _real(*args)

            monkeypatch.setattr(module, name, spy)
        U, V = random_tables(9, np.random.default_rng(41))
        predict(U, V, S3, SolverOptions())
        assert sorted(calls) == ["jigsolve.search.validate_binary", "jigsolve.search.validate_unary"]


class TestBruteForceArgmin:
    def test_one_hot(self):
        truth = np.array([1, 3, 2, 0])
        U, V = oracle_score(truth, S2, 0.0)
        assert (brute_force_argmin(U, V, S2) == truth).all()

    def test_uniform_ties_to_identity(self):
        U = np.full((9, 9), 1 / 9)
        V = np.full((9, 9, 9), 1 / 9)
        assert (brute_force_argmin(U, V, S3) == np.arange(9)).all()

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            U, V = random_tables(4, rng)
            assert (brute_force_argmin(U, V, S2) == exhaustive_argmin(U, V, S2)).all()

    def test_uniform_tables_keep_the_seed_at_radius_n(self):
        # Every configuration ties, so the Hamming key keeps the seed and
        # the brute-force tie rule picks the identity.
        rng = np.random.default_rng(52)
        for shape in (S2, GridShape((3, 2)), S3):
            n = shape.n
            U, V = np.full((n, n), 1 / n), np.full((n, n, 9), 1 / 9)
            config, _ = predict(U, V, shape, SolverOptions(radius=n))
            assert (config == unary_argmin(U).config).all()
            seed = random_permutation(n, rng)
            assert (refine_with_binary(U, V, seed, shape, n) == seed).all()
            assert (brute_force_argmin(U, V, shape) == np.arange(n)).all()

    def test_refuses_large_grids(self):
        with pytest.raises(ValueError):
            brute_force_argmin(np.full((16, 16), 1 / 16), None, GridShape((4, 4)))


ENTRIES = {
    "refine_with_binary": lambda U, V: refine_with_binary(U, V, np.arange(9), S3, 3),
    "brute_force_argmin": lambda U, V: brute_force_argmin(U, V, S3),
}


class TestEntryTables:
    """Every solver entry checks its tables with the validators' own messages."""

    @staticmethod
    def bad_tables():
        U, V = random_tables(9, np.random.default_rng(61))
        nan_u = U.copy()
        nan_u[4, 2] = np.nan
        yield nan_u, V, lambda: validate_unary(nan_u, 9)
        yield 2 * U, V, lambda: validate_unary(2 * U, 9)
        yield U, V[:, :, :8], lambda: validate_binary(V[:, :, :8], 9)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_bad_table_raises_the_validators_message(self, entry):
        for U, V, validator in self.bad_tables():
            with pytest.raises(ValueError) as want:
                validator()
            with pytest.raises(ValueError) as got:
                ENTRIES[entry](U, V)
            assert str(got.value) == str(want.value)

    def test_pair_block_is_taken_as_it_is(self):
        # A 2D V is the pair block a score provider hands the loop: the
        # entries answer as for the public V it was cut from, and check it.
        U, V = random_tables(9, np.random.default_rng(62))
        block = V[ordered_pairs(9)]
        for opts in (SolverOptions(), SolverOptions(radius=2, candidate_cap=20)):
            (got, got_cost), (want, want_cost) = predict(U, block, S3, opts), predict(U, V, S3, opts)
            assert got.tolist() == want.tolist() and got_cost == want_cost
        seed = random_permutation(9, np.random.default_rng(63))
        assert (refine_with_binary(U, block, seed, S3, 3) == refine_with_binary(U, V, seed, S3, 3)).all()
        block[5, 3] += block[5, 2] + 0.25  # a negative entry in a row that still sums to 1
        block[5, 2] = -0.25
        for entry in sorted(ENTRIES):
            with pytest.raises(ValueError, match="^every off-diagonal 9-vector must be a distribution$"):
                ENTRIES[entry](U, block)
            with pytest.raises(ValueError, match=re.escape("pair block must have shape (72, 9), got (81, 9)")):
                ENTRIES[entry](U, V.reshape(81, 9))

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_unary_is_checked_without_v(self, entry):
        U = np.full((9, 9), 1 / 9)
        with pytest.raises(ValueError, match="every unary row must sum to 1"):
            ENTRIES[entry](2 * U, None)
        with pytest.raises(ValueError, match="expected n=9"):
            ENTRIES[entry](U[:4, :4], None)


class TestSolveIterative:
    def test_perfect_oracle_two_rounds(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            inst = PuzzleInstance.scrambled(S3, rng)
            if hamming(inst.truth, np.arange(9)) == 0:
                continue
            trace = solve_iterative(OracleScorer(0.0), inst, SolverOptions())
            assert trace.converged and trace.solved
            assert trace.rounds_used == 2
            assert (trace.rounds[0].prediction == inst.truth).all()

    def test_already_solved_one_round(self):
        inst = PuzzleInstance(shape=S3, truth=np.arange(9))
        trace = solve_iterative(OracleScorer(0.0), inst, SolverOptions())
        assert trace.converged and trace.solved
        assert trace.rounds_used == 1

    def test_respects_round_cap(self):
        rng = np.random.default_rng(29)
        inst = PuzzleInstance.scrambled(S3, rng)
        trace = solve_iterative(
            OracleScorer(1.0), inst, SolverOptions(max_rounds=5)
        )
        assert trace.rounds_used <= 5

    def test_trace_bookkeeping_consistent(self):
        # replaying the prediction sequence from the initial truth must land
        # on the recorded final truth
        from jigsolve.grid import reorganize

        rng = np.random.default_rng(30)
        for i in range(10):
            inst = PuzzleInstance.scrambled(S3, rng)
            provider = OracleScorer(0.5, rng=np.random.default_rng([30, i]))
            trace = solve_iterative(provider, inst, SolverOptions(max_rounds=6))
            truth = inst.truth
            for rec in trace.rounds:
                if (rec.prediction == np.arange(9)).all():
                    break
                truth = reorganize(truth, rec.prediction)
            assert (truth == trace.final_truth).all()
            assert trace.solved == (truth == np.arange(9)).all()
            if trace.converged:
                assert (trace.rounds[-1].prediction == np.arange(9)).all()

    def test_fixed_point(self):
        # once solved, a perfect oracle proposes the identity and halts
        inst = PuzzleInstance(shape=S3, truth=np.arange(9))
        trace = solve_iterative(OracleScorer(0.0), inst, SolverOptions())
        assert trace.rounds_used == 1
        assert (trace.rounds[0].prediction == np.arange(9)).all()

    def test_noise_monotonicity_small(self):
        solved = {}
        for eps in (0.2, 0.6):
            count = 0
            for i in range(120):
                inst = PuzzleInstance.scrambled(S3, np.random.default_rng([31, i]))
                provider = OracleScorer(eps, rng=np.random.default_rng([32, i]))
                count += solve_iterative(provider, inst, SolverOptions()).solved
            solved[eps] = count
        assert solved[0.2] >= solved[0.6]

    def test_3d_degrades_binary(self):
        rng = np.random.default_rng(33)
        inst = PuzzleInstance.scrambled(GridShape((2, 2, 2)), rng)
        trace = solve_iterative(
            OracleScorer(0.0), inst, SolverOptions(use_binary=True)
        )
        assert trace.binary_degraded
        assert trace.solved

    def test_provider_failure_reports_round(self):
        class Broken:
            def rows(self, puzzle):
                return puzzle.truth

            def score(self, rows, shape):
                raise RuntimeError("boom")

        inst = PuzzleInstance.scrambled(S3, np.random.default_rng(34))
        with pytest.raises(RuntimeError, match="round 1"):
            solve_iterative(Broken(), inst, SolverOptions())


class TestSolverOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.radius == 3
        assert opts.max_rounds == 20
        assert opts.use_binary

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(radius=-1)
        with pytest.raises(ValueError):
            SolverOptions(max_rounds=0)
        with pytest.raises(ValueError):
            SolverOptions(candidate_cap=0)

    def test_candidate_cap_truncates_deterministically(self):
        rng = np.random.default_rng(35)
        U, V = random_tables(9, rng)
        full, _ = predict(U, V, S3, SolverOptions())
        capped, _ = predict(U, V, S3, SolverOptions(candidate_cap=1))
        # cap 1 keeps only the Hungarian seed
        assert (capped == unary_argmin(U).config).all()
        # and the uncapped result can only be at least as good
        assert (
            total_cost(U, V, full, S3).total <= total_cost(U, V, capped, S3).total + 1e-12
        )


def reference_solve(score, puzzle, opts):
    # The loop as it was before per-slot rows: every round re-scores the
    # whole moved puzzle, then moves its patches and truth to the predicted
    # slots.
    truth, patches = puzzle.truth, puzzle.patches
    preds, costs = [], []
    for _ in range(opts.max_rounds):
        U, V = score(PuzzleInstance(shape=puzzle.shape, truth=truth, patches=patches))
        pred, cost = predict(U, None if puzzle.shape.is_3d else V, puzzle.shape, opts)
        preds.append(pred)
        costs.append(cost)
        if (pred == np.arange(puzzle.n)).all():
            break
        truth = reorganize(truth, pred)
        if patches is not None:
            moved = np.empty_like(patches)
            moved[pred] = patches
            patches = moved
    return preds, costs, truth


SMALL_GEN = GenOptions(cell=12, crop=8, mirror_p=0.0, mean_subtract=False)


def learned_case(shape, count, seed, scale):
    corpus = generate_corpus("mixed", shape, count, seed, SMALL_GEN if not shape.is_3d
                             else GenOptions())
    d = features_of(corpus[0]).shape[1]
    return corpus, LinearScorer.init_random(shape, d, np.random.default_rng(seed), scale=scale)


class TestOneLoop:
    """``solve_iterative`` over per-slot rows against the re-scoring loop."""

    def check(self, provider, score, puzzles, opts):
        rounds = 0
        for inst in puzzles:
            trace = solve_iterative(provider(), inst, opts)
            preds, costs, final = reference_solve(score(), inst, opts)
            assert [r.prediction.tolist() for r in trace.rounds] == [p.tolist() for p in preds]
            assert [r.cost for r in trace.rounds] == costs
            assert trace.final_truth.tolist() == final.tolist()
            rounds += trace.rounds_used
        # Some puzzles must move their patches for the comparison to bite.
        assert rounds > len(puzzles)

    def learned(self, spec, count, scale, opts):
        corpus, model = learned_case(GridShape.parse(spec), count, 61, scale)
        self.check(lambda: model,
                   lambda: lambda inst: linear_score(model, features_of(inst)),
                   corpus, opts)

    def oracle(self, spec, eps, opts):
        shape = GridShape.parse(spec)
        puzzles = [PuzzleInstance.scrambled(shape, np.random.default_rng([62, i]))
                   for i in range(4)]

        def reference():
            rng = np.random.default_rng(63)
            return lambda inst: oracle_score(inst.truth, shape, eps, rng=rng)

        self.check(lambda: OracleScorer(eps, rng=np.random.default_rng(63)), reference, puzzles, opts)

    @pytest.mark.parametrize("spec,count,scale", [("2x2", 6, 1.0), ("3x3", 3, 0.5),
                                                  ("2x2x2", 2, 1.0)])
    def test_learned(self, spec, count, scale):
        self.learned(spec, count, scale, SolverOptions(max_rounds=6))

    @pytest.mark.parametrize("spec,eps", [("3x3", 0.5), ("3x3x3", 0.3)])
    def test_oracle(self, spec, eps):
        self.oracle(spec, eps, SolverOptions())

    def test_learned_without_pairs(self):
        self.learned("2x2", 6, 1.0, SolverOptions(max_rounds=6, use_binary=False))

    def test_oracle_without_pairs(self):
        self.oracle("3x3", 0.5, SolverOptions(use_binary=False))

    @pytest.mark.parametrize("case", ["oracle-3x3", "oracle-3x3x3", "learned-2x2", "learned-2x2x2"])
    @pytest.mark.parametrize("use_binary", [True, False])
    def test_rounds_check_the_pair_block_once(self, case, use_binary, monkeypatch):
        # Each round checks U once and, when pair terms apply, the provider's
        # pair block once; no round builds or checks the public (n, n, 9) V.
        kind, spec = case.split("-")
        shape = GridShape.parse(spec)
        if kind == "oracle":
            provider = OracleScorer(0.5, rng=np.random.default_rng(66))
            puzzle = PuzzleInstance.scrambled(shape, np.random.default_rng(67))
        else:
            (puzzle,), provider = learned_case(shape, 1, 68, 1.0)
        calls = Counter()
        for module, name in ((search, "validate_unary"), (search, "validate_pairs"),
                             (search, "validate_binary"), (cost, "pair_table"), (scorer, "pair_table")):
            real = getattr(module, name)

            def spy(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, spy)
        opts = SolverOptions(use_binary=use_binary)
        used = sum(1 for _ in search.rounds(provider, provider.rows(puzzle), puzzle.truth, shape, opts))
        pairs = use_binary and not shape.is_3d
        assert used > 1
        assert calls == Counter(validate_unary=used, validate_pairs=used if pairs else 0)

    def test_features_once_per_puzzle(self, monkeypatch):
        corpus, model = learned_case(S2, 4, 64, 1.0)
        calls = []
        real = scorer._descriptors
        monkeypatch.setattr(scorer, "_descriptors", lambda s: calls.append(s.shape) or real(s))
        traces = [solve_iterative(model, inst, SolverOptions()) for inst in corpus]
        assert sum(t.rounds_used for t in traces) > len(corpus)
        # One kernel call per puzzle, over all of its patches at once.
        assert calls == [inst.patches.shape for inst in corpus]

    def test_rows_failure_reports_round_one(self):
        class Broken:
            def rows(self, puzzle):
                raise ValueError("no rows")

            def score(self, rows, shape):
                raise AssertionError("score must not run")

        inst = PuzzleInstance.scrambled(S3, np.random.default_rng(65))
        with pytest.raises(RuntimeError, match="round 1") as info:
            solve_iterative(Broken(), inst, SolverOptions())
        assert isinstance(info.value.__cause__, ValueError)


# sha256 of each demo's stdout, recorded before the 2D and 3D puzzle makers
# came to share one body; both print only seeded results.
DEMO_STDOUT = {
    "01_solver_basics.py": "1d15170bd8cb5ed4ea27f87e560840bf15fa9c4b639fc85dd5be879aa028e6e0",
    "02_noisy_oracle_study.py": "1d4b591b94bb1882bb8e39b882162b122440d786532631b278d7e5b5154088a7",
}


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT))
def test_demo_stdout_is_pinned(demo):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, str(root / "demos" / demo)],
                         capture_output=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_STDOUT[demo]
