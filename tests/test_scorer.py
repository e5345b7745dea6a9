"""Oracle and linear score providers, training, and model serialization."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jigsolve import scorer, search
from jigsolve.cost import validate_binary, validate_unary
from jigsolve.grid import GridShape, hamming, random_permutation, relation_table, relative_type
from jigsolve.puzzlegen import FormatError, GenOptions, generate_corpus
from jigsolve.scorer import (
    FEATURE_RECIPE_2D,
    FEATURE_RECIPE_3D,
    LinearScorer,
    OracleScorer,
    TrainOptions,
    extract_features,
    feature_dim,
    features_of,
    linear_score,
    load_model,
    loss_and_grad,
    oracle_score,
    save_model,
    train_sgd,
)
from jigsolve.search import SolverOptions, predict

S2 = GridShape((2, 2))
S3 = GridShape((3, 3))

SMALL_GEN = GenOptions(cell=12, crop=8, mirror_p=0.0, mean_subtract=False)


def per_patch_reference(patch: np.ndarray) -> np.ndarray:
    """The descriptor of one tile, one reduction at a time: the loop the kernel replaced."""
    arr = np.asarray(patch, dtype=np.float64)
    s = scorer.EDGE_STRIP

    def pooled(gray, cells):
        out = gray
        for ax in range(gray.ndim):
            chunks = np.array_split(out, cells, axis=ax)
            out = np.stack([c.mean(axis=ax) for c in chunks], axis=ax)
        return out

    if arr.ndim == 3:
        spatial = (0, 1)
        strips = [arr[:, :s], arr[:, -s:], arr[:s, :], arr[-s:, :]]  # L, R, T, B
        pool = pooled(arr.mean(axis=2), 4)
    else:
        spatial = (0, 1, 2)
        strips = [
            arr[:, :, :s], arr[:, :, -s:],  # x faces
            arr[:, :s, :], arr[:, -s:, :],  # y faces
            arr[:s, :, :], arr[-s:, :, :],  # z faces
        ]
        pool = pooled(arr.mean(axis=3), 2)
    parts = [arr.mean(axis=spatial), arr.std(axis=spatial)]
    parts += [st.mean(axis=spatial) for st in strips]
    parts.append(pool.ravel())
    return np.concatenate(parts)


def array_split_descriptors(stack) -> np.ndarray:
    """The kernel's earlier body, verbatim: numpy's mean and std, array_split chunks one by one."""
    arr = np.asarray(stack, dtype=np.float64)
    scorer.check_tile(arr.shape[1:])
    if not np.isfinite(arr).all():
        raise ValueError("patch values must be finite")
    spatial = tuple(range(1, arr.ndim - 1))
    # Two boundary strips per spatial axis, x (the last) first: basic slices,
    # so each strip is a view and its mean sums in the tile's own order.
    edges = (slice(None, scorer.EDGE_STRIP), slice(-scorer.EDGE_STRIP, None))
    strips = [arr[(slice(None),) * ax + (edge,)] for ax in reversed(spatial) for edge in edges]
    # Block-average the channel-mean map down to the pooling grid, one
    # spatial axis at a time; array_split handles non-divisible extents.
    cells = scorer.POOL_CELLS[len(spatial)]
    pooled = arr.mean(axis=-1)
    for ax in spatial:
        chunks = np.array_split(pooled, cells, axis=ax)
        pooled = np.stack([c.mean(axis=ax) for c in chunks], axis=ax)
    parts = [arr.mean(axis=spatial), arr.std(axis=spatial)]
    parts += [st.mean(axis=spatial) for st in strips]
    parts.append(pooled.reshape(len(arr), cells ** len(spatial)))
    return np.concatenate(parts, axis=1)


def seeded_stacks(count: int, seed: int = 2025):
    """``count`` stacks cycling through rank, channels, dtype and extents; ``(key, stack)`` each.

    Extents are all divisible by the pooling grid, none, or a random mix;
    magnitudes run from 1e-5 to 1e5 around an offset; about 5% of values are
    -0.0, every 50th stack is all -0.0, and every 7th stack is empty.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        rank, channels, dtype = 2 + i % 2, 1 + i // 2 % 3, (np.float32, np.float64)[i // 6 % 2]
        cells, mode = scorer.POOL_CELLS[rank], ("divisible", "none", "mixed")[i // 12 % 3]
        low, high = {"divisible": (0, 1), "none": (1, cells), "mixed": (0, cells)}[mode]  # remainders
        blocks = rng.integers(1, 10 if rank == 2 else 5, size=rank)
        extents = cells * blocks + rng.integers(low, high, size=rank)
        shape = (i % 7,) + tuple(int(e) for e in extents) + (channels,)
        scale = 10.0 ** rng.uniform(-5, 5)
        stack = ((rng.standard_normal(shape) + rng.uniform(-3, 3)) * scale).astype(dtype)
        stack[rng.random(shape) < 0.05] = -0.0
        if i % 50 == 49:
            stack[...] = -0.0
        yield (rank, channels, np.dtype(dtype).name, mode), stack


class TestDescriptorExactness:
    """The kernel against :func:`array_split_descriptors`, byte for byte, over 600 seeded stacks."""

    def test_bytes_equal_array_split_form(self):
        kinds, empty = set(), 0
        for key, stack in seeded_stacks(600):
            kinds.add(key)
            empty += len(stack) == 0
            got, want = scorer._descriptors(stack), array_split_descriptors(stack)
            assert got.dtype == want.dtype and got.shape == want.shape, key
            assert got.tobytes() == want.tobytes(), (key, stack.shape)
        assert len(kinds) == 2 * 3 * 2 * 3 and empty >= 80

    @pytest.mark.parametrize("tile", [(21, 19), (5, 7), (4, 13), (9, 6), (7, 9, 5), (2, 3, 5)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_channel_stacks_with_negative_zeros(self, tile, dtype):
        # A one-channel map is pooled from the channel itself, not its mean;
        # -0.0 is where the two could differ, and float64 views with negative
        # or transposed strides reach the kernel uncopied.
        rng = np.random.default_rng([80, *tile])
        stack = (rng.standard_normal((5, *tile, 1)) * 10.0 ** rng.uniform(-5, 5)).astype(dtype)
        stack[rng.random(stack.shape) < 0.3] = -0.0
        stack[1] = -0.0
        stack[2, ..., :2, :] = -0.0  # a whole pooling column in the first chunk
        cases = [stack, stack[:, ::-1], stack[..., ::-1, :], np.swapaxes(stack, 1, 2)]
        for case in cases:
            got, want = scorer._descriptors(case), array_split_descriptors(case)
            assert got.tobytes() == want.tobytes(), (case.shape, case.strides)


class TestDescriptorKernel:
    """``scorer._descriptors`` over a stack against the per-tile reference, byte for byte."""

    TILES = [
        (64, 64, 1), (20, 20, 3),  # 2D, C = 1 and 3
        (21, 19, 3), (33, 17, 1),  # 2D, extents not divisible by the 4x4 grid
        (4, 4, 1), (4, 5, 3),  # 2D at the minimum extent
        (16, 16, 16, 1), (10, 12, 9, 2),  # 3D, C = 1 and 2, the second not divisible
        (7, 9, 8, 1), (2, 2, 2, 2),  # 3D, odd extents and the minimum
    ]

    @pytest.mark.parametrize("tile", TILES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_reference(self, tile, dtype):
        rng = np.random.default_rng(len(tile) * 100 + sum(tile))
        stack = (rng.standard_normal((9,) + tile) * 3.0 + 0.7).astype(dtype)
        got = scorer._descriptors(stack)
        want = np.stack([per_patch_reference(p) for p in stack])
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tile", TILES)
    def test_row_equals_tile_alone(self, tile):
        rng = np.random.default_rng(sum(tile))
        stack = rng.random((8,) + tile).astype(np.float32)
        rows = scorer._descriptors(stack)
        for i in range(len(stack)):
            assert rows[i].tobytes() == scorer._descriptors(stack[i : i + 1])[0].tobytes()
            assert rows[i].tobytes() == extract_features(stack[i]).tobytes()

    @pytest.mark.parametrize("tile,minimum", [
        ((3, 8, 1), 4), ((8, 3, 3), 4), ((0, 8, 1), 4),
        ((1, 4, 4, 1), 2), ((4, 4, 1, 2), 2),
    ])
    def test_tile_below_pooling_grid_is_rejected(self, tile, minimum):
        with pytest.raises(ValueError, match=f"minimum of {minimum} per axis"):
            scorer._descriptors(np.ones((2,) + tile))
        with pytest.raises(ValueError, match=f"minimum of {minimum} per axis"):
            scorer.check_tile(tile)

    def test_empty_stack_has_no_rows(self):
        assert scorer._descriptors(np.zeros((0, 8, 8, 3))).shape == (0, feature_dim(FEATURE_RECIPE_2D, 3))
        assert scorer._descriptors(np.zeros((0, 4, 4, 4, 1))).shape == (0, feature_dim(FEATURE_RECIPE_3D, 1))

    def test_rejects_bad_stacks(self):
        with pytest.raises(ValueError, match="non-empty"):
            scorer._descriptors(np.zeros((2, 8, 8)))
        with pytest.raises(ValueError, match="non-empty"):
            scorer._descriptors(np.zeros((2, 8, 8, 0)))
        bad = np.zeros((3, 8, 8, 1))
        bad[2, 5, 5, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            scorer._descriptors(bad)


class TestExtractFeatures:
    def test_dimension_2d(self):
        patch = np.zeros((64, 64, 3))
        assert extract_features(patch).shape == (feature_dim(FEATURE_RECIPE_2D, 3),)
        assert feature_dim(FEATURE_RECIPE_2D, 1) == 22

    def test_dimension_per_recipe_and_channels(self):
        for channels in range(1, 5):
            assert feature_dim(FEATURE_RECIPE_2D, channels) == 6 * channels + 16
            assert feature_dim(FEATURE_RECIPE_3D, channels) == 8 * channels + 8
        for recipe in (0, 3):
            with pytest.raises(ValueError, match="unknown feature recipe"):
                feature_dim(recipe, 1)

    def test_dimension_3d(self):
        vol = np.zeros((32, 32, 32, 1))
        assert extract_features(vol).shape == (feature_dim(FEATURE_RECIPE_3D, 1),)
        assert feature_dim(FEATURE_RECIPE_3D, 1) == 16

    def test_constant_gray_patch(self):
        f = extract_features(np.full((64, 64, 1), 0.5))
        assert f[0] == pytest.approx(0.5)  # mean
        assert f[1] == pytest.approx(0.0)  # std
        assert np.allclose(f[2:6], 0.5)  # boundary strips
        assert np.allclose(f[6:], 0.5)  # pooled map

    def test_half_and_half_edges(self):
        patch = np.zeros((64, 64, 1))
        patch[:, 32:] = 1.0
        f = extract_features(patch)
        assert f[2] == pytest.approx(0.0)  # left strip
        assert f[3] == pytest.approx(1.0)  # right strip

    def test_horizontal_flip_swaps_left_right(self):
        rng = np.random.default_rng(40)
        patch = rng.random((64, 64, 1))
        f = extract_features(patch)
        g = extract_features(patch[:, ::-1])
        C = 1
        assert g[2 * C] == pytest.approx(f[2 * C + C])  # left <- right
        assert g[2 * C + C] == pytest.approx(f[2 * C])  # right <- left
        # pooled 4x4 map has its columns reversed
        fp = f[6:].reshape(4, 4)
        gp = g[6:].reshape(4, 4)
        assert np.allclose(gp, fp[:, ::-1])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            extract_features(np.zeros((64, 64)))
        with pytest.raises(ValueError):
            extract_features(np.full((8, 8, 1), np.nan))


def oracle_reference(truth, shape, eps, rng=None, jitter=scorer.DEFAULT_ORACLE_JITTER, binary_eps=None):
    """The oracle as it scattered V's pair block, then gathered and jittered it."""
    if binary_eps is None:
        binary_eps = eps
    t = np.asarray(truth, dtype=np.int64)
    n = shape.n

    def noisy(base, e):
        amp = jitter * e * (1.0 - e)
        if rng is None or amp == 0.0:
            return base
        z = np.log(np.maximum(base, 1e-300)) + amp * rng.standard_normal(base.shape)
        z -= z.max(axis=-1, keepdims=True)
        ez = np.exp(z)
        return ez / ez.sum(axis=-1, keepdims=True)

    U = np.full((n, n), eps / n)
    U[np.arange(n), t] += 1.0 - eps
    U = noisy(U, eps)
    if shape.is_3d:
        return U, None
    rel = relation_table(shape)
    V = np.full((n, n, 9), binary_eps / 9)
    p, q = np.where(~np.eye(n, dtype=bool))
    V[p, q, rel[t[p], t[q]]] += 1.0 - binary_eps
    V[p, q] = noisy(V[p, q], binary_eps)
    return U, V


class TestOracleScore:
    @pytest.mark.parametrize("spec", ["3x3", "3x2", "2x2x2"])
    @pytest.mark.parametrize("binary_eps", [None, 0.0, 0.2, 1.0])
    def test_bytes_and_draws_match_the_reference(self, spec, binary_eps):
        shape = GridShape.parse(spec)
        for eps in (0.0, 0.3, 0.5, 1.0):
            for seed, jitter in ((None, 8.0), (3, 8.0), (4, 0.0), (5, 2.5)):
                truth = random_permutation(shape.n, np.random.default_rng([60, shape.n]))
                rngs = [None if seed is None else np.random.default_rng(seed) for _ in range(2)]
                got = oracle_score(truth, shape, eps, rngs[0], jitter, binary_eps)
                want = oracle_reference(truth, shape, eps, rngs[1], jitter, binary_eps)
                for a, b in zip(got, want):
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert a.dtype == b.dtype and a.shape == b.shape
                        assert a.tobytes() == b.tobytes(), (eps, seed, jitter)
                if seed is not None:
                    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_eps_zero_is_one_hot(self):
        truth = np.array([2, 0, 1, 3])
        U, V = oracle_score(truth, S2, 0.0)
        assert np.allclose(U[np.arange(4), truth], 1.0)
        config, _ = predict(U, V, S2, SolverOptions())
        assert (config == truth).all()

    def test_eps_one_is_uniform(self):
        truth = np.array([1, 0, 3, 2])
        U, V = oracle_score(truth, S2, 1.0)
        assert np.allclose(U, 0.25)
        assert np.allclose(V[0, 1], 1 / 9)
        config, _ = predict(U, V, S2, SolverOptions())
        assert (config == np.arange(4)).all()  # all tie, lexicographic

    def test_half_mixture_diagonal(self):
        truth = np.arange(9)
        U, _ = oracle_score(truth, S3, 0.5)  # no rng: exact mixture
        assert np.allclose(np.diag(U), 0.5 + 0.5 / 9)

    def test_tables_valid_across_noise_grid(self):
        rng = np.random.default_rng(41)
        truth = random_permutation(9, rng)
        for eps in np.linspace(0.0, 1.0, 11):
            for r in (None, np.random.default_rng(5)):
                U, V = oracle_score(truth, S3, float(eps), rng=r)
                validate_unary(U, 9)
                validate_binary(V, 9)

    def test_binary_classes_match_truth(self):
        truth = np.array([4, 1, 8, 0, 7, 2, 6, 3, 5])
        _, V = oracle_score(truth, S3, 0.0)
        for p in range(9):
            for q in range(9):
                if p != q:
                    r = int(relative_type(int(truth[p]), int(truth[q]), S3))
                    assert V[p, q, r] == pytest.approx(1.0)

    def test_separate_binary_noise(self):
        truth = np.arange(9)
        U, V = oracle_score(truth, S3, 0.8, binary_eps=0.0)
        assert np.diag(U).max() < 0.5
        assert V[0, 1].max() == pytest.approx(1.0)

    def test_3d_has_no_binary_table(self):
        truth = np.arange(8)
        U, V = oracle_score(truth, GridShape((2, 2, 2)), 0.2)
        assert V is None
        validate_unary(U, 8)

    def test_jitter_is_seed_deterministic(self):
        truth = np.arange(9)
        a, _ = oracle_score(truth, S3, 0.5, rng=np.random.default_rng(9))
        b, _ = oracle_score(truth, S3, 0.5, rng=np.random.default_rng(9))
        c, _ = oracle_score(truth, S3, 0.5, rng=np.random.default_rng(10))
        assert (a == b).all()
        assert not np.allclose(a, c)

    def test_rejects_out_of_range_eps(self):
        with pytest.raises(ValueError):
            oracle_score(np.arange(4), S2, 1.5)

    def test_rejects_out_of_range_binary_eps(self):
        with pytest.raises(ValueError):
            oracle_score(np.arange(4), S2, 0.5, binary_eps=2.0)

    @pytest.mark.parametrize("jitter", [math.nan, math.inf])
    def test_rejects_non_finite_jitter(self, jitter):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="oracle jitter must be finite"):
            oracle_score(np.arange(4), S2, 0.5, rng=rng, jitter=jitter)

    @pytest.mark.parametrize("fields", [
        {"noise": math.nan}, {"noise": -0.1}, {"noise": 1.5},
        {"noise": 0.5, "binary_noise": math.nan}, {"noise": 0.5, "binary_noise": 2.0},
        {"noise": 0.5, "jitter": math.nan}, {"noise": 0.5, "jitter": math.inf},
    ])
    def test_scorer_rejects_bad_fields_when_built(self, fields):
        with pytest.raises(ValueError):
            OracleScorer(**fields)


class TestLinearScore:
    def test_zero_model_is_uniform(self):
        model = LinearScorer.init_random(S3, 22, np.random.default_rng(0), scale=0.0)
        F = np.random.default_rng(1).standard_normal((9, 22))
        U, V = linear_score(model, F)
        assert np.allclose(U, 1 / 9)
        assert np.allclose(V, 1 / 9)

    def test_order_sensitivity(self):
        model = LinearScorer.init_random(S3, 22, np.random.default_rng(2), scale=0.1)
        F = np.random.default_rng(3).standard_normal((9, 22))
        U1, _ = linear_score(model, F)
        U2, _ = linear_score(model, F[::-1])
        assert not np.allclose(U1, U2)

    def test_parameter_counts_3x3_d22(self):
        model = LinearScorer.init_random(S3, 22, np.random.default_rng(4))
        assert model.unary_param_count == 16_119
        assert model.binary_param_count == 405
        assert model.unary_w.shape == (81, 9 * 22)
        assert model.binary_w.shape == (9, 44)

    def test_deterministic_and_pure(self):
        model = LinearScorer.init_random(S3, 22, np.random.default_rng(5), scale=0.1)
        F = np.random.default_rng(6).standard_normal((9, 22))
        U1, V1 = linear_score(model, F)
        U2, V2 = linear_score(model, F)
        assert (U1 == U2).all() and (V1 == V2).all()

    def test_dimension_mismatch(self):
        model = LinearScorer.init_random(S3, 22, np.random.default_rng(7))
        with pytest.raises(ValueError):
            linear_score(model, np.zeros((9, 21)))

    def test_3d_model_emits_no_binary(self):
        shape = GridShape((2, 2, 2))
        model = LinearScorer.init_random(shape, 16, np.random.default_rng(8))
        _, V = linear_score(model, np.zeros((8, 16)))
        assert V is None

    @pytest.mark.parametrize("field", ["unary_w", "unary_b", "binary_w", "binary_b"])
    def test_wrong_shaped_array_rejected(self, field):
        model = LinearScorer.init_random(S3, 22, np.random.default_rng(9))
        arrays = model.params._asdict()
        arrays[field] = arrays[field][..., :-1]
        with pytest.raises(ValueError, match=field):
            LinearScorer(shape=S3, d=22, **arrays)


class TestLossAndGrad:
    def test_zero_model_loss_is_two_log9(self):
        model = LinearScorer.init_random(S3, 22, np.random.default_rng(9), scale=0.0)
        F = np.random.default_rng(10).standard_normal((9, 22))
        truth = random_permutation(9, np.random.default_rng(11))
        loss, _ = loss_and_grad(model, F, truth, S3)
        assert loss == pytest.approx(2 * math.log(9), abs=1e-9)

    def test_near_one_hot_model_has_tiny_loss_and_grads(self):
        # drive the correct logits far above the rest via biases only
        truth = np.array([2, 0, 1, 3])
        model = LinearScorer.init_random(S2, 22, np.random.default_rng(12), scale=0.0)
        model.unary_b = model.unary_b.reshape(4, 4)
        model.unary_b[np.arange(4), truth] = 200.0
        model.unary_b = model.unary_b.ravel()
        F = np.zeros((4, 22))
        loss, grads = loss_and_grad(model, F, truth, S2)
        # binary head stays uniform, so only its ln 9 survives
        assert loss == pytest.approx(math.log(9), abs=1e-9)
        assert np.abs(grads.unary_w).max() < 1e-12
        assert np.abs(grads.unary_b).max() < 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-5
        for shape in (S2, S3):
            n = shape.n
            d = 7
            for _ in range(5):
                model = LinearScorer.init_random(shape, d, rng, scale=0.2)
                F = rng.standard_normal((n, d))
                truth = random_permutation(n, rng)
                _, grads = loss_and_grad(model, F, truth, shape)
                for arr, g in (
                    (model.unary_w, grads.unary_w),
                    (model.unary_b, grads.unary_b),
                    (model.binary_w, grads.binary_w),
                    (model.binary_b, grads.binary_b),
                ):
                    for _ in range(3):
                        idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
                        orig = arr[idx]
                        arr[idx] = orig + h
                        lp, _ = loss_and_grad(model, F, truth, shape)
                        arr[idx] = orig - h
                        lm, _ = loss_and_grad(model, F, truth, shape)
                        arr[idx] = orig
                        fd = (lp - lm) / (2 * h)
                        rel = abs(fd - g[idx]) / max(1e-8, abs(fd), abs(g[idx]))
                        assert rel < 1e-4


class TestTrainSgd:
    @staticmethod
    def corpus(count, seed=100):
        return generate_corpus("mixed", S2, count, seed, SMALL_GEN)

    def test_loss_decreases(self):
        result = train_sgd(
            self.corpus(120), TrainOptions(epochs=4, seed=0), SolverOptions()
        )
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_deterministic_given_seed(self):
        corpus = self.corpus(40)
        opts = TrainOptions(epochs=2, seed=3)
        a = train_sgd(corpus, opts, SolverOptions())
        b = train_sgd(corpus, opts, SolverOptions())
        assert (a.model.unary_w == b.model.unary_w).all()
        assert (a.model.binary_w == b.model.binary_w).all()

    def test_single_round_training_runs(self):
        result = train_sgd(
            self.corpus(40), TrainOptions(epochs=1, train_rounds=1, seed=1),
            SolverOptions(),
        )
        assert len(result.epoch_losses) == 1
        assert math.isfinite(result.epoch_losses[0])

    def test_sample_pass_averages_each_round_like_sum(self):
        # A running loss total from 0 gives sum(list)'s bytes without the list.
        model = LinearScorer.init_random(S2, feature_dim(FEATURE_RECIPE_2D, 1), np.random.default_rng(4), 0.5)
        opts = SolverOptions(max_rounds=7)
        for inst in self.corpus(6, seed=101):
            feats = features_of(inst)
            losses, grads = [], []
            for F, t, U, block, _, _ in search.rounds(model, feats, inst.truth, S2, opts):
                loss, g = scorer._loss_and_grad(model, F, t, S2, U, block)
                losses.append(loss)
                grads.append(g)
            loss, summed = scorer._sample_pass(model, feats, inst.truth, S2, opts)
            assert loss == sum(losses) / len(losses)
            for k, arr in enumerate(summed):
                want = grads[0][k].copy()
                for g in grads[1:]:
                    want += g[k]
                assert (arr == want * (1.0 / len(losses))).all()

    def test_one_forward_pass_per_replay_round(self, monkeypatch):
        calls = {"softmax": 0, "predict": 0}
        real_softmax, real_predict = scorer.row_softmax, search.predict

        def softmax(z):
            calls["softmax"] += 1
            return real_softmax(z)

        def counted_predict(*args):
            calls["predict"] += 1
            return real_predict(*args)

        monkeypatch.setattr(scorer, "row_softmax", softmax)
        monkeypatch.setattr(search, "predict", counted_predict)
        train_sgd(self.corpus(8), TrainOptions(epochs=1, train_rounds=3, seed=2),
                  SolverOptions())
        # one unary and one binary softmax per round, each round one predict
        assert calls["predict"] >= 8
        assert calls["softmax"] == 2 * calls["predict"]

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            train_sgd([], TrainOptions(), SolverOptions())

    def test_options_validation(self):
        with pytest.raises(ValueError):
            TrainOptions(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainOptions(train_rounds=0)

    @pytest.mark.parametrize("field", ["learning_rate", "weight_init_scale"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rates_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match="must be finite and positive"):
            TrainOptions(**{field: value})


class TestIterativeAugmentation:
    def test_perfect_scores_shrink_distance_monotonically(self):
        # with exact tables the per-round arrangement distance to solved
        # never grows during the inner loop
        from jigsolve.search import solve_iterative
        from jigsolve.puzzlegen import PuzzleInstance

        rng = np.random.default_rng(44)
        for _ in range(20):
            inst = PuzzleInstance.scrambled(S3, rng)
            trace = solve_iterative(OracleScorer(0.0), inst, SolverOptions())
            dists = [r.hamming_to_truth for r in trace.rounds]
            assert all(a >= b for a, b in zip(dists, dists[1:]))


class TestSerialization:
    def test_round_trip_scores_bit_identical(self, tmp_path):
        corpus = generate_corpus("mixed", S2, 1, 7, SMALL_GEN)
        F = features_of(corpus[0])
        model = LinearScorer.init_random(
            S2, F.shape[1], np.random.default_rng(46), scale=0.05
        )
        # save -> load once to land on the 32-bit stored weights, then verify
        # the stored form is a fixed point of the round trip
        path = tmp_path / "model.jsw1"
        save_model(model, path)
        loaded = load_model(path)
        save_model(loaded, path)
        again = load_model(path)
        assert (loaded.unary_w == again.unary_w).all()
        assert (loaded.binary_w == again.binary_w).all()
        U1, V1 = linear_score(loaded, F)
        U2, V2 = linear_score(again, F)
        assert (U1 == U2).all() and (V1 == V2).all()

    def test_preserves_shape_and_recipe(self, tmp_path):
        model = LinearScorer.init_random(S3, 22, np.random.default_rng(47))
        path = tmp_path / "m.jsw1"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.shape == S3
        assert loaded.d == 22
        assert loaded.recipe == model.recipe

    def test_magic_bytes(self, tmp_path):
        model = LinearScorer.init_random(S2, 22, np.random.default_rng(48))
        path = tmp_path / "m.jsw1"
        save_model(model, path)
        assert path.read_bytes()[:4] == b"JSW1"

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.jsw1"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = LinearScorer.init_random(S2, 22, np.random.default_rng(50))
        path = tmp_path / "m.jsw1"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 7)
        with pytest.raises(FormatError, match="7 trailing bytes"):
            load_model(path)

    def test_non_finite_weight_rejected(self, tmp_path):
        model = LinearScorer.init_random(S2, 22, np.random.default_rng(52))
        path = tmp_path / "m.jsw1"
        save_model(model, path)
        blob = path.read_bytes()  # 28 header bytes, then unary_w[0, 3] at byte 40
        for value in (np.nan, np.inf, -np.inf):
            path.write_bytes(blob[:40] + np.array(value, dtype="<f4").tobytes() + blob[44:])
            with pytest.raises(FormatError, match=r"m\.jsw1: non-finite value \(byte offset 40\)"):
                load_model(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, -3.5e38])
    def test_save_refuses_what_load_refuses(self, tmp_path, bad):
        # A value past float32's range would be stored as inf, which load_model refuses.
        model = LinearScorer.init_random(S2, 22, np.random.default_rng(54))
        model.binary_b[3] = bad
        path = tmp_path / "m.jsw1"
        with pytest.raises(FormatError, match=r"^.*m\.jsw1: binary_b has a value that is not finite in float32"):
            save_model(model, path)
        assert not path.exists()

    def test_float32_extremes_round_trip(self, tmp_path):
        model = LinearScorer.init_random(S2, 22, np.random.default_rng(55))
        top = float(np.finfo(np.float32).max)
        model.unary_b[:2] = top, -top
        path = tmp_path / "m.jsw1"
        save_model(model, path)
        assert load_model(path).unary_b[:2].tolist() == [top, -top]

    def test_extent_past_the_file_rejected(self, tmp_path):
        model = LinearScorer.init_random(S2, 22, np.random.default_rng(53))
        path = tmp_path / "m.jsw1"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:12] + (0xFFFFFF02).to_bytes(4, "little") + blob[16:])
        with pytest.raises(FormatError, match="payload truncated"):
            load_model(path)

    def test_unknown_recipe_rejected(self, tmp_path):
        model = LinearScorer.init_random(S2, 22, np.random.default_rng(51))
        path = tmp_path / "m.jsw1"
        save_model(model, path)
        blob = path.read_bytes()  # the recipe word is bytes 24-28 of a 2D header
        assert blob[24:28] == FEATURE_RECIPE_2D.to_bytes(4, "little")
        for recipe in (0, 2, 3, 9):
            path.write_bytes(blob[:24] + recipe.to_bytes(4, "little") + blob[28:])
            with pytest.raises(FormatError, match=r"m\.jsw1: .*\(byte offset 24\)"):
                load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = LinearScorer.init_random(S2, 22, np.random.default_rng(49))
        path = tmp_path / "m.jsw1"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            load_model(path)


DEMO_03_STDOUT = """\
generating corpora ...
training: lr=0.3 batch=32 epochs=6 rounds/sample=5
  epoch 1: mean loss 3.2922
  epoch 2: mean loss 3.0286
  epoch 3: mean loss 2.8931
  epoch 4: mean loss 2.8017
  epoch 5: mean loss 2.7305
  epoch 6: mean loss 2.6910

held-out exact recovery: 0.42  (chance is 1/24 = 0.042)

saved 7344 bytes, magic b'JSW1'
reloaded model matches: True
"""


def test_demo_03_trains_saves_and_reloads():
    # The one demo that runs train_sgd, save_model and load_model; its
    # stdout was recorded before they came to share one parameter layout.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, str(root / "demos" / "03_training_walkthrough.py")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == DEMO_03_STDOUT
