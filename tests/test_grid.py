"""Grid geometry, permutation algebra, and Hamming-ball enumeration."""

import itertools

import numpy as np
import pytest

from jigsolve import grid, search
from jigsolve.cost import row_softmax
from jigsolve.grid import (
    GridShape,
    RelClass,
    all_permutations,
    derangement_number,
    enumerate_hamming_ball,
    hamming,
    hamming_ball_size,
    id_to_position,
    identity_configuration,
    mirror_class,
    position_to_id,
    random_permutation,
    relation_table,
    relative_type,
    reorganize,
)

S3 = GridShape((3, 3))
S333 = GridShape((3, 3, 3))


REFERENCE_OFFSETS = {
    (0, -1): RelClass.TOP,
    (0, 1): RelClass.BOTTOM,
    (-1, 0): RelClass.LEFT,
    (1, 0): RelClass.RIGHT,
    (-1, -1): RelClass.TOP_LEFT,
    (1, -1): RelClass.TOP_RIGHT,
    (-1, 1): RelClass.BOTTOM_LEFT,
    (1, 1): RelClass.BOTTOM_RIGHT,
}


def reference_relation_table(shape):
    """The scalar loop over the offset dict that the vectorised table must reproduce."""
    n = shape.n
    table = np.full((n, n), int(RelClass.NONE), dtype=np.int8)
    for a in range(n):
        for b in range(n):
            (xa, ya), (xb, yb) = id_to_position(a, shape), id_to_position(b, shape)
            if a != b and max(abs(xa - xb), abs(ya - yb)) <= 1:
                table[a, b] = REFERENCE_OFFSETS[(xa - xb, ya - yb)]
    return table


def reference_ball(center, radius):
    """The nested-loop enumeration the cached table must reproduce row for row."""
    c = np.asarray(center, dtype=np.int64)
    yield c.copy()
    for k in range(2, radius + 1):
        for slots in itertools.combinations(range(c.size), k):
            vals = c[list(slots)]
            for der in itertools.permutations(range(k)):
                if all(der[i] != i for i in range(k)):
                    out = c.copy()
                    out[list(slots)] = vals[list(der)]
                    yield out


class TestGridShape:
    def test_parse_2d(self):
        assert GridShape.parse("3x3") == S3
        assert GridShape.parse("4x2").n == 8

    def test_parse_3d(self):
        s = GridShape.parse("2x3x4")
        assert s.extents == (2, 3, 4)
        assert s.n == 24
        assert s.is_3d

    def test_str_round_trip(self):
        for text in ("2x2", "3x3", "5x1", "3x3x3"):
            assert str(GridShape.parse(text)) == text

    def test_rejects_bad_specs(self):
        for bad in ("3", "3x3x3x3", "0x2", "ax2", ""):
            with pytest.raises(ValueError):
                GridShape.parse(bad)


class TestPositionIds:
    def test_origin(self):
        assert position_to_id((0, 0), S3) == 0

    def test_row_major_2d(self):
        assert position_to_id((1, 2), S3) == 7

    def test_row_major_3d(self):
        assert position_to_id((1, 1, 1), S333) == 13

    def test_round_trip_all_cells(self):
        # bijectivity of the encoding over every cell of every small shape
        shapes = [GridShape((w, h)) for w in range(1, 5) for h in range(1, 5)]
        shapes += [
            GridShape((w, h, z))
            for w in range(1, 5)
            for h in range(1, 5)
            for z in range(1, 5)
        ]
        for shape in shapes:
            seen = set()
            for coords in itertools.product(*(range(e) for e in shape.extents)):
                pid = position_to_id(coords, shape)
                assert id_to_position(pid, shape) == coords
                seen.add(pid)
            assert seen == set(range(shape.n))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            position_to_id((3, 0), S3)
        with pytest.raises(ValueError):
            id_to_position(9, S3)
        with pytest.raises(ValueError):
            id_to_position(-1, S3)


class TestRelativeType:
    def test_left(self):
        assert relative_type(0, 1, S3) is RelClass.LEFT

    def test_top_left(self):
        assert relative_type(0, 4, S3) is RelClass.TOP_LEFT

    def test_not_adjacent(self):
        assert relative_type(0, 2, S3) is RelClass.NONE

    def test_encoding_is_stable(self):
        assert [int(r) for r in RelClass] == list(range(9))
        assert int(RelClass.NONE) == 8

    def test_mirror_symmetry_all_pairs(self):
        # swapping the pair must swap the direction
        for a in range(9):
            for b in range(9):
                if a != b:
                    assert relative_type(a, b, S3) is mirror_class(
                        relative_type(b, a, S3)
                    )

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            relative_type(0, 1, S333)

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            relative_type(4, 4, S3)

    def test_relation_table_matches_scalar(self):
        table = relation_table(S3)
        assert table.shape == (9, 9)
        for a in range(9):
            for b in range(9):
                if a == b:
                    assert table[a, b] == int(RelClass.NONE)
                else:
                    assert table[a, b] == int(relative_type(a, b, S3))

    def test_relation_table_matches_reference(self):
        for w in range(1, 12):
            for h in range(1, 12):
                shape = GridShape((w, h))
                table = relation_table(shape)
                assert table.dtype == np.int8 and not table.flags.writeable
                assert table.tobytes() == reference_relation_table(shape).tobytes(), shape

    def test_relation_table_rejects_3d(self):
        for shape in (S333, GridShape((1, 1, 1))):
            with pytest.raises(ValueError, match="not defined on 3D grids"):
                relation_table(shape)

    def test_mirror_class_negates_the_offset(self):
        mirrored = {rel: REFERENCE_OFFSETS[(-dx, -dy)] for (dx, dy), rel in REFERENCE_OFFSETS.items()}
        mirrored[RelClass.NONE] = RelClass.NONE
        for rel in RelClass:
            assert mirror_class(rel) is mirrored[rel]
            assert mirror_class(int(rel)) is mirrored[rel]
        with pytest.raises(ValueError):
            mirror_class(9)


class TestHamming:
    def test_identical(self):
        c = np.array([2, 0, 1])
        assert hamming(c, c) == 0

    def test_transposition(self):
        assert hamming([0, 1, 2, 3], [0, 2, 1, 3]) == 2

    def test_three_cycle(self):
        assert hamming([0, 1, 2], [1, 2, 0]) == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming([0, 1], [0, 1, 2])

    def test_metric_axioms_on_s4(self):
        perms = [np.array(p) for p in itertools.permutations(range(4))]
        for p in perms:
            assert hamming(p, p) == 0
            for q in perms:
                d = hamming(p, q)
                assert d == hamming(q, p) >= 0
                assert d != 1  # distinct permutations differ in >= 2 slots
                if d == 0:
                    assert (p == q).all()
                for r in perms:
                    assert d <= hamming(p, r) + hamming(r, q)


class TestReorganize:
    def test_perfect_prediction_solves(self):
        c = np.array([2, 0, 1])
        assert (reorganize(c, c) == identity_configuration(3)).all()

    def test_identity_prediction_is_noop(self):
        assert (reorganize([1, 0], [0, 1]) == [1, 0]).all()

    def test_partial_prediction(self):
        # moving slot contents per the prediction: new[pred[s]] = truth[s]
        got = reorganize([2, 0, 1], [0, 2, 1])
        assert got.tolist() == [2, 1, 0]

    def test_perfect_prediction_random(self):
        rng = np.random.default_rng(1)
        for n in (4, 9, 27):
            for _ in range(1000 // 3):
                c = random_permutation(n, rng)
                assert (reorganize(c, c) == np.arange(n)).all()

    def test_composition_matches_stepwise_tracking(self):
        # applying two predictions in sequence agrees with tracking each
        # patch's slot by hand
        rng = np.random.default_rng(7)
        n = 6
        for _ in range(200):
            truth = random_permutation(n, rng)
            p1 = random_permutation(n, rng)
            p2 = random_permutation(n, rng)
            mid = reorganize(truth, p1)
            final = reorganize(mid, p2)
            # patch with original ID truth[s] sits at slot p2[p1[s]] at the end
            manual = np.empty(n, dtype=np.int64)
            for s in range(n):
                manual[p2[p1[s]]] = truth[s]
            assert (final == manual).all()

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            reorganize([0, 0, 1], [0, 1, 2])
        with pytest.raises(ValueError):
            reorganize([0, 1, 2], [0, 1])

    def test_huge_entry_is_refused_before_counting(self):
        # A count up to the largest entry would ask for 80 TB here.
        with pytest.raises(ValueError, match="not a permutation"):
            grid.as_permutation([0, 1, 2, 10**13], 4)


class TestRandomPermutation:
    def test_n1(self):
        rng = np.random.default_rng(0)
        assert random_permutation(1, rng).tolist() == [0]

    def test_determinism(self):
        a = [random_permutation(5, np.random.default_rng(42)) for _ in range(10)]
        b = [random_permutation(5, np.random.default_rng(42)) for _ in range(10)]
        for x, y in zip(a, b):
            assert (x == y).all()

    def test_uniform_over_s3(self):
        rng = np.random.default_rng(2024)
        counts = {}
        draws = 60_000
        for _ in range(draws):
            key = tuple(random_permutation(3, rng))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for key, count in counts.items():
            assert abs(count / draws - 1 / 6) < 0.01, (key, count)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            random_permutation(0, np.random.default_rng(0))


class TestHammingBall:
    def test_radius_zero(self):
        center = np.array([1, 2, 0])
        ball = list(enumerate_hamming_ball(center, 0))
        assert len(ball) == 1
        assert (ball[0] == center).all()

    def test_center_comes_first(self):
        center = np.array([3, 1, 0, 2])
        first = next(iter(enumerate_hamming_ball(center, 3)))
        assert (first == center).all()

    def test_n4_radius2_has_seven(self):
        # oracle: filter all 24 permutations of S_4 by distance
        center = np.array([0, 1, 2, 3])
        ball = {tuple(p) for p in enumerate_hamming_ball(center, 2)}
        brute = {
            p
            for p in itertools.permutations(range(4))
            if sum(a != b for a, b in zip(p, center)) <= 2
        }
        assert len(ball) == 7
        assert ball == brute

    def test_n9_radius3_has_205(self):
        center = np.arange(9)
        assert sum(1 for _ in enumerate_hamming_ball(center, 3)) == 205
        assert hamming_ball_size(9, 3) == 205

    def test_counts_match_formula_and_filter(self):
        rng = np.random.default_rng(5)
        for n in range(2, 7):
            center = random_permutation(n, rng)
            perms = [np.array(p) for p in itertools.permutations(range(n))]
            for radius in range(n + 1):
                members = list(enumerate_hamming_ball(center, radius))
                keys = {tuple(m) for m in members}
                assert len(keys) == len(members)  # no duplicates
                brute = {tuple(p) for p in perms if hamming(p, center) <= radius}
                assert keys == brute
                assert len(members) == hamming_ball_size(n, radius)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            list(enumerate_hamming_ball(np.arange(3), 4))
        with pytest.raises(ValueError):
            list(enumerate_hamming_ball(np.arange(3), -1))

    def test_order_matches_reference_loop(self):
        rng = np.random.default_rng(11)
        for n in range(2, 8):
            for radius in range(n + 1):
                center = random_permutation(n, rng)
                got = enumerate_hamming_ball(center, radius)
                want = np.array(list(reference_ball(center, radius)))
                assert got.shape == want.shape == (hamming_ball_size(n, radius), n)
                assert got.dtype == np.int64
                assert (got == want).all(), (n, radius)

    def test_cached_table_is_read_only(self):
        table = grid._ball_table(9, 3)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1

    def test_result_is_a_fresh_array(self):
        center = np.array([2, 0, 1, 3, 4])
        first = enumerate_hamming_ball(center, 3)
        assert first.flags.writeable
        assert not np.shares_memory(first, grid._ball_table(5, 3))
        first[:] = -1
        second = enumerate_hamming_ball(center, 3)
        assert (second == np.array(list(reference_ball(center, 3)))).all()


@pytest.fixture
def scanned(monkeypatch):
    """Every candidate array that refinement passes to the cost kernel."""
    seen = []
    real = search._batch_costs

    def spy(logu, logv, shape, center, ball):
        seen.append(center[ball.table])
        return real(logu, logv, shape, center, ball)

    monkeypatch.setattr(search, "_batch_costs", spy)
    return seen


def random_tables(n, rng):
    U = row_softmax(rng.standard_normal((n, n)))
    V = row_softmax(rng.standard_normal((n * n, 9))).reshape(n, n, 9)
    return U, V


class TestCappedRefinement:
    def test_scans_the_first_cap_reference_candidates(self, scanned):
        rng = np.random.default_rng(31)
        U, V = random_tables(9, rng)
        seed = random_permutation(9, rng)
        for cap in (1, 2, 36, 37, 100, 205, 500):
            scanned.clear()
            search.refine_with_binary(U, V, seed, S3, 3, candidate_cap=cap)
            (cands,) = scanned
            want = np.array(list(itertools.islice(reference_ball(seed, 3), cap)))
            assert (cands == want).all(), cap

    def test_large_radius_with_small_cap(self, scanned):
        # The radius-16 ball on 16 slots holds 16! rows; a cap of 50 is met
        # by the radius-2 prefix, so only that much is built.
        rng = np.random.default_rng(37)
        U, V = random_tables(16, rng)
        seed = random_permutation(16, rng)
        search.refine_with_binary(U, V, seed, GridShape((4, 4)), 16, candidate_cap=50)
        (cands,) = scanned
        want = np.array(list(itertools.islice(reference_ball(seed, 16), 50)))
        assert (cands == want).all()


class TestDerangements:
    def test_known_values(self):
        # D_k satisfies the classic recurrence; first values are standard
        assert [derangement_number(k) for k in range(7)] == [1, 0, 1, 2, 9, 44, 265]

    def test_matches_exhaustive_count(self):
        for k in range(2, 8):
            brute = sum(
                1
                for p in itertools.permutations(range(k))
                if all(p[i] != i for i in range(k))
            )
            assert derangement_number(k) == brute


class TestAllPermutations:
    def test_lexicographic_and_complete(self):
        perms = all_permutations(4)
        assert perms.shape == (24, 4)
        as_tuples = [tuple(int(v) for v in row) for row in perms]
        assert as_tuples == sorted(itertools.permutations(range(4)))

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            all_permutations(10)
