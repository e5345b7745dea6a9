"""Command-line front end: corpus generation, training, solving, sweeps.

Reports are line-delimited JSON, one record per puzzle plus one aggregate
record, written in puzzle-index order so identical flags and seed produce
byte-identical files at any thread count.  Timing goes to stderr only.
``bench`` solves each puzzle once per (noise, radius, binary) at the largest
``--rounds`` cap and folds that trajectory into every cap's counts as it ends;
``solve`` is that sweep at one setting.  Records stream to a file beside
``--report`` that replaces it only when the run succeeds, and no per-puzzle
state is held.  Every setting is checked before anything is read or built,
and a run past ``MEMORY_BUDGET`` is refused.

Exit codes: 0 success, 2 usage, 3 data/format, 4 selftest failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import assign, cost, grid, puzzlegen, scorer, search
from .grid import GridShape
from .puzzlegen import FormatError, GenOptions, PuzzleInstance
from .scorer import LinearScorer, OracleScorer, TrainOptions
from .search import SolverOptions

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SELFTEST = 4
MEMORY_BUDGET = 6 << 30  # bytes of one round (search.round_bytes): 9x9 at radius 3 fits, 10x10 does not
CURVE_BYTES = 64  # bytes per round of a report's per_round_solved curve, held and written


class UsageError(Exception):
    """Bad flag values detected after argparse (e.g. empty sweep lists)."""


def _options(make, *args, **fields):
    """``make(*args, **fields)`` for values from flags; a bad value is a usage error."""
    try:
        return make(*args, **fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_count(count) -> None:
    if count is not None and count < 1:
        raise UsageError(f"--count must be at least 1, got {count}")


def _run_settings(args, noises, radii, caps, binaries) -> list[list[SolverOptions]]:
    """Check ``--count``, the oracle flags at each noise (None: a model run) and every setting.

    Returns the options at the largest cap, one list per radius of one per binary
    setting, each built first at the smallest cap, which checks every cap.
    """
    _check_count(args.count)
    for eps in noises:
        if eps is not None:
            _options(OracleScorer, eps, binary_noise=args.oracle_binary, jitter=args.oracle_jitter)
    return [[replace(_options(SolverOptions, radius=radius, max_rounds=min(caps), use_binary=use_binary,
                              candidate_cap=args.candidate_cap), max_rounds=max(caps))
             for use_binary in binaries] for radius in radii]


def _admit(shape, options, held: int, what: str) -> None:
    for opts in options:
        need = search.round_bytes(shape, opts) + held
        if need > MEMORY_BUDGET:
            pairs = "" if opts.use_binary else " without pair terms"
            raise UsageError(f"a {shape} round at radius {opts.radius}{pairs} and {what} would hold about "
                             f"{need / 2**30:.3g} GiB, above the {MEMORY_BUDGET >> 30} GiB budget")


def _check_gen(shape, opts) -> None:
    """Reject a grid, cell or crop that a synthetic corpus cannot be cut with or described by."""
    _, crop = _options(puzzlegen.check_geometry, shape.extents, opts)  # fixed on 3D grids
    try:
        scorer.check_tile((crop,) * len(shape.extents) + (1,))
    except ValueError as exc:
        raise UsageError(f"--crop {crop}: {exc}") from None
    size = puzzlegen.synth_size(shape, opts)
    if not puzzlegen.MIN_SYNTH_SIZE <= size <= puzzlegen.MAX_SYNTH_SIZE:
        bound = (f"below the minimum of {puzzlegen.MIN_SYNTH_SIZE}" if size < puzzlegen.MIN_SYNTH_SIZE
                 else f"above the maximum of {puzzlegen.MAX_SYNTH_SIZE}")
        raise UsageError(f"--cell {opts.cell} on a {shape} grid gives a synthetic image of "
                         f"{size} pixels a side, {bound}")


def _load_corpus(args):
    """``--corpus``'s instances, held to ``--grid`` when it is given."""
    shape = _options(GridShape.parse, args.grid) if args.grid else None
    instances = puzzlegen.load_corpus(args.corpus)
    if shape is not None and instances[0].shape != shape:
        raise FormatError(f"corpus grid {instances[0].shape} does not match --grid {args.grid}")
    return instances


def _check_tiles(path, instances) -> None:
    """The descriptor's minimum tile extent, as a data error naming the corpus."""
    # load_corpus holds every patch of a corpus to one shape.
    try:
        scorer.check_tile(instances[0].patches.shape[1:])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def cmd_gen(args) -> int:
    shape = _options(GridShape.parse, args.grid)
    opts = _options(
        GenOptions,
        cell=args.cell,
        crop=args.crop,
        jitter=not args.no_jitter,
        mirror_p=args.mirror_p,
        mean_subtract=not args.no_mean_subtract,
        mean_scope=args.mean_scope,
        scramble=not args.no_scramble,
    )
    _check_count(args.count)
    _check_gen(shape, opts)
    # The kind is checked before ``--out`` is made; each instance is drawn, written and dropped in turn.
    instances = _options(puzzlegen.iter_corpus, args.kind.removeprefix("synth-"), shape, args.count,
                         args.seed, opts)
    puzzlegen.save_corpus(args.out, instances)
    print(f"wrote {args.count} instances to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_train(args) -> int:
    opts = _options(TrainOptions, learning_rate=args.lr, batch_size=args.batch_size, epochs=args.epochs,
                    train_rounds=args.train_rounds, seed=args.seed, weight_init_scale=args.init_scale)
    solver_opts = _options(SolverOptions, radius=args.radius, use_binary=not args.no_binary)
    corpus = _load_corpus(args)
    _check_tiles(args.corpus, corpus)
    _admit(corpus[0].shape, [solver_opts], scorer.train_bytes(corpus[0]), "the model in training")
    try:
        result = scorer.train_sgd(corpus, opts, solver_opts)
    except scorer.Diverged as exc:  # stopped at the first epoch (or the draw) that left float32's range
        raise FormatError(f"{args.out}: {exc}; nothing written") from None
    scorer.save_model(result.model, args.out)
    log_lines = [
        f"epoch={e} mean_loss={loss:.6f} train_rounds={opts.train_rounds}"
        for e, loss in enumerate(result.epoch_losses, start=1)
    ]
    if args.log:
        Path(args.log).write_text("\n".join(log_lines) + "\n")
    for line in log_lines:
        print(line, file=sys.stderr)
    print(f"wrote model to {args.out}", file=sys.stderr)
    return EXIT_OK


def _fold(args, shape, instances, count, opts, model, eps, caps, write):
    """Wall time, each round's solved share, and per cap the ``d <= 2`` count and rounds used.

    Each puzzle is solved once at ``opts`` and its trajectory folded in as it ends, then dropped; it stays
    as its last round left it, so the shares run to the longest trajectory.  ``write``, if given, takes
    each puzzle's record.
    """
    t0, near, used = time.perf_counter(), [0] * len(caps), [0] * len(caps)
    ended, offsets = 0, []  # puzzles their last round left solved; per round, the solved count less that
    for index in range(count):
        rng = np.random.default_rng([args.seed, index]) if model is None else None  # a model run draws none
        instance = instances[index] if instances else PuzzleInstance.scrambled(shape, rng)
        provider = OracleScorer(eps, rng, args.oracle_binary, args.oracle_jitter) if model is None else model
        trace = search.solve_iterative(provider, instance, opts)
        hams = [r.hamming_to_truth for r in trace.rounds]
        solved = hams[-1] == 0
        ended += solved
        offsets += [0] * (len(hams) - len(offsets))
        for j, ham in enumerate(hams):
            offsets[j] += (ham == 0) - solved
        for i, k in enumerate(caps):
            cut = min(k, len(hams))
            near[i] += hams[cut - 1] <= 2
            used[i] += cut
        if write:
            write({"type": "puzzle", "index": index, "rounds_used": len(hams), "converged": trace.converged,
                   "solved": solved, "final_hamming": hams[-1], "binary_degraded": trace.binary_degraded})
    return time.perf_counter() - t0, [(ended + o) / count for o in offsets], near, used


def _sweep(args, shape, instances, count, model, noises, settings, caps, write=None):
    """``(noise, wall, aggregate)`` per setting and cap, by noise, radius, cap, binary.

    Each puzzle is solved once per noise and setting, at the largest cap, in
    ``wall`` seconds (given with the first cap, None after).  A cap-k solve is
    the first k rounds of any longer one, and the truth's Hamming distance after
    a round's move is that round's ``hamming_to_truth``: each cap cuts them.
    """
    space = math.factorial(shape.n)
    for eps in noises:
        desc = f"model:{args.model}" if model is not None else f"oracle:eps={eps}" + (
            f",binary_eps={args.oracle_binary}" if args.oracle_binary is not None else "")
        for per_binary in settings:
            folded = [(opts, *_fold(args, shape, instances, count, opts, model, eps, caps, write))
                      for opts in per_binary]
            for i, k in enumerate(caps):
                for opts, wall, curve, near, used in folded:
                    run = min(k, len(curve))
                    yield eps, None if i else wall, {
                        "type": "aggregate",
                        "grid": str(shape),
                        "seed": args.seed,
                        "scorer": desc,
                        "radius": opts.radius,
                        "max_rounds": k,
                        "use_binary": opts.use_binary,
                        "n_puzzles": count,
                        "exact_rate": curve[run - 1],
                        "d_le_2_rate": near[i] / count,
                        "mean_rounds": used[i] / count,
                        "config_space_size": space,
                        "config_space_size_approx": float(space) if space <= sys.float_info.max else None,
                        "per_round_solved": curve[:run] + curve[-1:] * (k - run),
                    }


@contextlib.contextmanager
def _exact_ints():
    # From 1559 cells on, config_space_size (the exact n!) passes int's 4300-digit str limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@contextlib.contextmanager
def _report_writer(path):
    """``write(record)`` to a sibling temporary file, moved onto ``path`` only if the block succeeds."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "w")
    try:
        with _exact_ints(), fh:
            yield lambda record: fh.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def read_report(path) -> list[dict]:
    """A report's records in file order, with the exact n! of a grid of any size."""
    with _exact_ints(), open(path) as fh:
        return [json.loads(line) for line in fh]


def _load_solve_inputs(args):
    model = scorer.load_model(args.model) if args.model else None
    if model is None and args.oracle is None:
        raise FormatError("need either --model or --oracle")
    if args.corpus:
        instances = _load_corpus(args)
        shape, count = instances[0].shape, min(args.count or len(instances), len(instances))
    elif model is not None:
        raise FormatError("--model requires --corpus (pixel data)")
    elif not args.grid:
        raise FormatError("need --corpus or --grid")
    else:
        instances, shape, count = None, _options(GridShape.parse, args.grid), args.count or 100
    if model is not None:
        if model.shape != shape:
            raise FormatError(f"model grid {model.shape} does not match corpus grid {shape}")
        if model.d != scorer.feature_dim(model.recipe, instances[0].patches.shape[-1]):
            raise FormatError(f"{args.model}: feature width {model.d} does not fit the corpus's patches")
        _check_tiles(args.corpus, instances)
    return model, instances, shape, count


def cmd_solve(args) -> int:
    noises, caps = [args.oracle], [args.max_rounds]
    settings = _run_settings(args, noises, [args.radius], caps, [not args.no_binary])
    model, instances, shape, count = _load_solve_inputs(args)
    _admit(shape, settings[0], CURVE_BYTES * args.max_rounds, "the report's curve")
    with _report_writer(args.report) as write:
        ((_, wall, agg),) = _sweep(args, shape, instances, count, model, noises, settings, caps, write)
        write(agg)
    print(f"{count} puzzles in {wall:.2f}s: exact_rate={agg['exact_rate']:.4f} "
          f"d_le_2_rate={agg['d_le_2_rate']:.4f} mean_rounds={agg['mean_rounds']:.2f}", file=sys.stderr)
    return EXIT_OK


def _parse_list(text, conv):
    items = [p for p in text.split(",") if p]
    if not items:
        raise UsageError(f"empty sweep list {text!r}")
    try:
        return [conv(p) for p in items]
    except ValueError:
        raise UsageError(f"bad sweep list {text!r}")


def cmd_bench(args) -> int:
    shape = _options(GridShape.parse, args.grid)
    radii = _parse_list(args.radii, int)
    caps = _parse_list(args.rounds, int)
    noises = _parse_list(args.noise, float)
    binaries = {"both": [True, False], "on": [True], "off": [False]}[args.binary]
    settings = _run_settings(args, noises, radii, caps, binaries)
    options = sum(settings, [])
    _admit(shape, options, CURVE_BYTES * len(noises) * len(options) * sum(caps), "the report's curves")
    with _report_writer(args.report) as write:
        rows = list(_sweep(args, shape, None, args.count, None, noises, settings, caps))
        for *_, agg in rows:
            write(agg)
    print("noise  radius  rounds  binary  exact    d<=2     mean_rounds", file=sys.stderr)
    row = ("{eps:<6g} {radius:<7d} {max_rounds:<7d} {use_binary!s:<7s} "
           "{exact_rate:<8.4f} {d_le_2_rate:<8.4f} {mean_rounds:.2f}")
    for eps, _, agg in rows:
        print(row.format(eps=eps, **agg), file=sys.stderr)
    print(f"noise  radius  binary  wall (one solve at {max(caps)} rounds, shared by every cap)",
          file=sys.stderr)
    for eps, wall, agg in rows:
        if wall is not None:
            print(f"{eps:<6g} {agg['radius']:<7d} {agg['use_binary']!s:<7s} {wall:.2f}s", file=sys.stderr)
    return EXIT_OK


def cmd_selftest(args) -> int:
    checks = []
    rng = np.random.default_rng(20240817)

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except AssertionError as exc:
            checks.append((name, False, str(exc)))

    def assignment_optimality(draw):
        for _ in range(300):
            n = int(rng.integers(2, 6))
            m = draw(n)
            res = assign.min_cost_assignment(m)
            perms = grid.all_permutations(n).astype(np.intp)
            costs = m[np.arange(n), perms].sum(axis=1)
            best = costs.min()
            assert res.cost <= best + 1e-12, f"suboptimal: {res.cost} > {best}"
            lex = perms[int(np.argmin(costs))]
            assert (res.config == lex).all(), f"tie rule violated: {res.config} vs {lex}"

    def ball_cardinalities():
        for n in range(2, 7):
            center = grid.random_permutation(n, rng)
            perms = grid.all_permutations(n)
            for radius in range(n + 1):
                got = len(grid.enumerate_hamming_ball(center, radius))
                want = grid.hamming_ball_size(n, radius)
                dists = (perms != center[None, :]).sum(axis=1)
                brute = int(np.count_nonzero(dists <= radius))
                assert got == want == brute, f"n={n} r={radius}: {got} vs {want} vs {brute}"

    def gradient_check():
        shape = GridShape((2, 2))
        F = rng.standard_normal((4, 7))
        model = LinearScorer.init_random(shape, 7, rng, scale=0.1)
        truth = grid.random_permutation(4, rng)
        _, grads = scorer.loss_and_grad(model, F, truth, shape)
        h = 1e-5
        for arr, g in ((model.unary_w, grads.unary_w), (model.binary_w, grads.binary_w)):
            idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            lp, _ = scorer.loss_and_grad(model, F, truth, shape)
            arr[idx] = orig - h
            lm, _ = scorer.loss_and_grad(model, F, truth, shape)
            arr[idx] = orig
            fd = (lp - lm) / (2 * h)
            rel = abs(fd - g[idx]) / max(1e-8, abs(fd), abs(g[idx]))
            assert rel < 1e-4, f"gradient mismatch: analytic {g[idx]} vs fd {fd}"

    def perfect_oracle():
        for spec in ("2x2", "3x3", "2x2x2"):
            shape = GridShape.parse(spec)
            inst = PuzzleInstance.scrambled(shape, rng)
            trace = search.solve_iterative(OracleScorer(0.0), inst, SolverOptions())
            assert trace.solved and trace.converged, f"eps=0 failed on {spec}"

    def reference_descriptor(patch):
        # One tile, one numpy call per statistic: mean, std, the strip means
        # (x first) and the channel-mean map pooled through array_split.
        arr = np.asarray(patch, dtype=np.float64)
        spatial, cells = tuple(range(arr.ndim - 1)), scorer.POOL_CELLS[arr.ndim - 1]
        edges = (slice(None, scorer.EDGE_STRIP), slice(-scorer.EDGE_STRIP, None))
        strips = [arr[(slice(None),) * ax + (edge,)] for ax in reversed(spatial) for edge in edges]
        pooled = arr.mean(axis=-1)
        for ax in spatial:
            pooled = np.stack([c.mean(axis=ax) for c in np.array_split(pooled, cells, axis=ax)], axis=ax)
        return np.concatenate([arr.mean(axis=spatial), arr.std(axis=spatial),
                               *(st.mean(axis=spatial) for st in strips), pooled.ravel()])

    def descriptor_bytes():
        # The kernel reduces a whole puzzle's stack at once, and keeps numpy's
        # reduction order to do it: each row, and each tile described alone,
        # must have the bytes of the reference loop on that tile.
        # (21, 19, 1): a one-channel 2D tile, whose map is the channel itself, pooled in uneven chunks.
        # (64, 64, 1): the benchmark's tile, whose extents the grid divides, pooled in one run per axis.
        for spec, tile in (("3x3", (21, 19, 3)), ("2x2", (16, 16, 1)), ("2x2", (21, 19, 1)), ("2x2", (64, 64, 1)),
                           ("2x2x2", (7, 9, 8, 2)), ("2x2x2", (4, 6, 8, 1))):
            shape = GridShape.parse(spec)
            for dtype in (np.float32, np.float64):
                patches = (rng.standard_normal((shape.n,) + tile) * 10.0 ** rng.uniform(-5, 5)).astype(dtype)
                inst = PuzzleInstance(shape=shape, truth=np.arange(shape.n), patches=patches)
                rows = scorer.features_of(inst)
                for i, patch in enumerate(patches):
                    want = reference_descriptor(patch).tobytes()
                    assert rows[i].tobytes() == want, f"{spec} {tile}: row {i} differs from the reference"
                    alone = scorer.extract_features(patch).tobytes()
                    assert alone == want, f"{spec} {tile}: tile {i} alone differs from the reference"

    def edge_tables(n):
        # Seeded unary tables and pair blocks, each clean and with one edit at the checks' edges.
        for table in (cost.row_softmax(rng.standard_normal((n, n))),
                      cost.row_softmax(rng.standard_normal((n * (n - 1), grid.NUM_REL_CLASSES)))):
            unary = table.shape == (n, n)
            yield unary, table
            for i, j in itertools.product(range(min(len(table), 3)), range(table.shape[1])):
                for bad in (math.nan, math.inf, -math.inf, -0.0, 5e-324, -1e-300, 1.0 + 2e-9):
                    edited = table.copy()
                    edited[i, j] = bad
                    yield unary, edited
            if len(table) and table.shape[1] >= 3:
                # the three non-finite values in one row; rows that sum to 1 with a negative entry
                for row in ((math.nan, math.inf, -math.inf), (1.5, -0.5, 0.0), (1.0, -1e-300, 0.0)):
                    edited = table.copy()
                    edited[-1] = 0.0
                    edited[-1, :3] = row
                    yield unary, edited
            for off in (0.9e-9, 1.1e-9, -0.9e-9, -1.1e-9):  # a row sum inside, then outside, the tolerance
                edited = table.copy()
                edited[-1:, -1] += off
                yield unary, edited

    def passes(fn, *args):
        try:
            fn(*args)
        except ValueError:
            return False
        return True

    def table_acceptance():
        # The validators accept a table after one test (no NaN, no entry below
        # 0, row sums within tolerance; it needs minimum.reduce to propagate
        # NaN), and the full checks only word a refusal.  Both must agree with
        # an entry-wise reading of the rules on every table.
        for n in (1, 2, 3, 4, 9):
            for unary, table in edge_tables(n):
                rule = bool(np.isfinite(table).all() and (table >= 0).all()
                            and (np.abs(np.add.reduce(table, axis=1) - 1.0) <= cost.ROW_SUM_TOL).all()
                            and (not unary or (table <= 1 + cost.ROW_SUM_TOL).all()))
                refusal, validate = ((cost._unary_refusal, cost.validate_unary) if unary
                                     else (cost._pairs_refusal, cost.validate_pairs))
                got = {"one test": cost._accepted(table), "full checks": passes(refusal, table),
                       "validator": passes(validate, table, n)}
                for name, ok in got.items():
                    assert ok == rule, f"{name} {'accepts' if ok else 'refuses'} a {table.shape} table it must not"

    def reference_oracle(oracle, truth, shape):
        # Each table alone, as the oracle scored it before its one pass: the mixture, then, when
        # jittered, its clamped log, its own normal draw, the row max, exp and the row sum.
        def table(rows, cols, hot, e):
            base = np.full((rows, cols), e / cols)
            base[np.arange(rows), hot] = e / cols + (1.0 - e)
            amp = oracle.jitter * e * (1.0 - e)
            if oracle.rng is None or amp == 0.0:
                return base
            z = np.log(np.maximum(base, 1e-300)) + amp * oracle.rng.standard_normal(base.shape)
            z = np.exp(z - z.max(axis=-1, keepdims=True))
            return z / z.sum(axis=-1, keepdims=True)

        t, n = np.asarray(truth), shape.n
        U = table(n, n, t, oracle.noise)
        if shape.is_3d:
            return U, None
        p, q = grid.ordered_pairs(n)
        binary = oracle.noise if oracle.binary_noise is None else oracle.binary_noise
        return U, table(len(p), grid.NUM_REL_CLASSES, grid.relation_table(shape)[t[p], t[q]], binary)

    def oracle_one_pass():
        # The oracle fills U and the pair block as views of one buffer, starting from the
        # logs of the mixture's two values, draws every table's normals at once and runs one
        # exp over them.  That holds only while one normal draw equals consecutive draws and
        # log and exp give a value the same bytes wherever it sits: its tables and the RNG
        # state after them must equal each table's own pass.
        for spec in ("2x2", "3x3", "3x2", "2x2x2", "3x3x3"):
            shape = GridShape.parse(spec)
            truth = grid.random_permutation(shape.n, rng)
            for eps, binary in ((0.5, None), (0.3, 0.0), (0.0, 0.3), (0.2, 0.7), (1e-300, 0.5), (1.0, None)):
                for jitter in (8.0, -2.5, 0.0):
                    seed = int(rng.integers(2**32))
                    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = OracleScorer(eps, rngs[0], binary, jitter).score(truth, shape)
                    want = reference_oracle(OracleScorer(eps, rngs[1], binary, jitter), truth, shape)
                    for name, a, b in zip(("U", "pair block"), got, want):
                        assert (a is None) == (b is None), f"{spec}: {name} present on one side only"
                        assert a is None or (a.shape == b.shape and a.tobytes() == b.tobytes()), \
                            f"{spec} eps={eps} binary={binary} jitter={jitter}: {name} differs from the reference"
                    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state, \
                        f"{spec} eps={eps} binary={binary} jitter={jitter}: the draws differ from the reference"

    check("assignment optimality vs brute force (n<=5, tol 1e-12)",
          lambda: assignment_optimality(lambda n: rng.random((n, n))))
    check("tie rule on integer {0,1,2} matrices vs brute force (n<=5, exact)",
          lambda: assignment_optimality(lambda n: rng.integers(0, 3, (n, n)).astype(np.float64)))
    check("hamming ball cardinalities vs formula and S_n filter (exact)", ball_cardinalities)
    check("analytic gradients vs central differences (rel err < 1e-4)", gradient_check)
    check("perfect oracle solves scrambles (exact)", perfect_oracle)
    check("patch descriptor of a stack and of each tile vs the per-tile numpy loop (2D and 3D, same bytes)",
          descriptor_bytes)
    check("table validators' one-test acceptance vs the full checks on seeded edge tables (exact)",
          table_acceptance)
    check("oracle tables in one pass vs each table's own pass (2D and 3D, same bytes and draws)",
          oracle_one_pass)

    failed = [c for c in checks if not c[1]]
    for name, ok, msg in checks:
        print(("ok:   " if ok else "FAIL: ") + name + (f" -- {msg}" if msg else ""))
    return EXIT_SELFTEST if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jigsolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
        p.add_argument("--threads", type=int, default=1, help="accepted; has no effect on output or speed")

    g = sub.add_parser("gen", help="generate a puzzle corpus")
    add_common(g)
    g.add_argument("--kind", "--volume-kind", default="synth-mixed",
                   help="synthetic source kind, 2D or 3D: synth-gradient|synth-blobs|synth-mixed")
    g.add_argument("--grid", required=True, help="WxH or WxHxZ")
    g.add_argument("--count", type=int, default=100, help="number of instances")
    g.add_argument("--out", required=True, help="corpus directory")
    g.add_argument("--cell", type=int, default=85,
                   help="2D cell size in pixels; 3D grids ignore it")
    g.add_argument("--crop", type=int, default=64, help="2D patch crop size; 3D grids ignore it")
    g.add_argument("--no-jitter", action="store_true", help="center crops instead of jittering")
    g.add_argument("--mirror-p", type=float, default=0.5,
                   help="2D per-patch flip probability; 3D grids ignore it")
    g.add_argument("--no-mean-subtract", action="store_true", help="keep raw intensities")
    g.add_argument("--mean-scope", default="patch", choices=("patch", "image"),
                   help="2D mean to subtract; 3D patches always subtract their own")
    g.add_argument("--no-scramble", action="store_true", help="emit solved instances")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train the linear scorer on a corpus")
    add_common(t)
    t.add_argument("--corpus", required=True)
    t.add_argument("--out", required=True, help="model file (JSW1)")
    t.add_argument("--log", default=None, help="epoch-loss log path")
    t.add_argument("--grid", default=None, help="expected corpus grid (checked)")
    t.add_argument("--lr", type=float, default=0.3)
    t.add_argument("--batch-size", type=int, default=32)
    t.add_argument("--epochs", type=int, default=10)
    t.add_argument("--train-rounds", type=int, default=5)
    t.add_argument("--init-scale", type=float, default=0.01)
    t.add_argument("--radius", type=int, default=3)
    t.add_argument("--no-binary", action="store_true")
    t.set_defaults(func=cmd_train)

    def add_run_flags(p, count):
        add_common(p)
        p.add_argument("--count", type=int, default=count)
        p.add_argument("--candidate-cap", type=int, default=None)
        p.add_argument("--oracle-binary", type=float, default=None, help="separate binary-table noise level")
        p.add_argument("--oracle-jitter", type=float, default=scorer.DEFAULT_ORACLE_JITTER)
        p.add_argument("--report", required=True, help="JSON-lines output path")

    s = sub.add_parser("solve", help="solve a corpus (or fresh scrambles) and report")
    add_run_flags(s, None)
    s.add_argument("--corpus", default=None)
    s.add_argument("--grid", default=None, help="grid for oracle runs without a corpus; checked against one")
    s.add_argument("--model", default=None, help="JSW1 model file")
    s.add_argument("--oracle", type=float, default=None, help="oracle noise level")
    s.add_argument("--radius", type=int, default=3, help="Hamming-ball radius")
    s.add_argument("--max-rounds", type=int, default=20)
    s.add_argument("--no-binary", action="store_true")
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="sweep radius x rounds x binary x noise")
    add_run_flags(b, 200)
    b.add_argument("--grid", required=True)
    b.add_argument("--noise", default="0.2,0.5", help="comma list of oracle noise levels")
    b.add_argument("--radii", default="3", help="comma list of ball radii")
    b.add_argument("--rounds", default="1,5,10,20", help="comma list of round caps")
    b.add_argument("--binary", default="both", choices=("both", "on", "off"))
    b.set_defaults(func=cmd_bench)

    st = sub.add_parser("selftest", help="run the built-in oracle suites")
    add_common(st)
    st.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:  # every subcommand's one seed check, before anything is read or written
            raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
