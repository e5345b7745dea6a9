"""Command-line driver: generation, training, solving, sweeps, selftest."""

import hashlib
import itertools
import json
import math
import random
import re
import shutil
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from jigsolve import cli, scorer, search
from jigsolve.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    MEMORY_BUDGET,
    build_parser,
    main,
)
from jigsolve.grid import GridShape
from jigsolve.puzzlegen import GenOptions, ImageTensor, generate_corpus, load_image, save_rten
from jigsolve.scorer import LinearScorer, TrainOptions, save_model
from jigsolve.search import SolverOptions

GEN_FLAGS = [
    "--cell", "12", "--crop", "8", "--mirror-p", "0", "--no-mean-subtract",
]


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def read_report(path: Path):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    aggregates = [r for r in records if r["type"] == "aggregate"]
    puzzles = [r for r in records if r["type"] == "puzzle"]
    return puzzles, aggregates


def random_model(path: Path) -> Path:
    # A model that fits ``corpus_dir``: 2x2 grid, one-channel 2D features.
    save_model(LinearScorer.init_random(GridShape((2, 2)), 22, np.random.default_rng(0)), path)
    return path


def spy_solves(monkeypatch) -> list:
    """Count the CLI's solves: the returned list gets each solve's rounds used."""
    rounds_used = []
    solve_iterative = search.solve_iterative

    def spy(*args):
        trace = solve_iterative(*args)
        rounds_used.append(trace.rounds_used)
        return trace

    monkeypatch.setattr(search, "solve_iterative", spy)
    return rounds_used


def reference_report(trajectories, shape, seed, scorer_desc, opts, k):
    """Puzzle records and aggregate of a solve at ``opts`` capped at ``k`` rounds.

    The CLI's earlier cut, which held every trajectory and re-scanned them per
    cap; kept verbatim as the reference for the fold that replaced it.
    """
    records = []
    for index, (hams, converged, degraded) in enumerate(trajectories):
        used = min(k, len(hams))
        records.append({"type": "puzzle", "index": index, "rounds_used": used,
                        "converged": converged and k >= len(hams), "solved": hams[used - 1] == 0,
                        "final_hamming": hams[used - 1], "binary_degraded": degraded})
    final = np.array([r["final_hamming"] for r in records])
    # Each round's solved share; a puzzle stays as its last round left it, so it ends at the exact rate.
    run = max(r["rounds_used"] for r in records)
    curve = [sum(hams[min(j, len(hams) - 1)] == 0 for hams, *_ in trajectories) / len(records)
             for j in range(run)]
    space = math.factorial(shape.n)
    return records, {
        "type": "aggregate",
        "grid": str(shape),
        "seed": seed,
        "scorer": scorer_desc,
        "radius": opts.radius,
        "max_rounds": k,
        "use_binary": opts.use_binary,
        "n_puzzles": len(records),
        "exact_rate": curve[-1],
        "d_le_2_rate": float(np.mean(final <= 2)),
        "mean_rounds": float(np.mean([r["rounds_used"] for r in records])),
        "config_space_size": space,
        "config_space_size_approx": float(space) if space <= sys.float_info.max else None,
        "per_round_solved": curve + curve[-1:] * (k - run),
    }


def scripted_trajectories(count: int, seed: int) -> list:
    """``(hams, converged, degraded)`` per puzzle: 1 to 20 rounds, often solved and then moved off again."""
    rng = random.Random(seed)
    out = []
    for index in range(count):
        length = (1, 20)[index] if index < 2 else rng.randint(1, 20)
        hams = [rng.choice((0, 0, 2, 3, 4)) for _ in range(length)]
        out.append((hams, rng.random() < 0.5, rng.random() < 0.3))
    return out


def script_solves(monkeypatch, trajectories) -> None:
    """Make the CLI's solves replay ``trajectories`` in turn, cut at the solve's round cap."""
    calls = itertools.count()

    def solve(provider, instance, opts):
        hams, converged, degraded = trajectories[next(calls) % len(trajectories)]
        cut = hams[:opts.max_rounds]
        rounds = [search.RoundRecord(prediction=None, cost=None, hamming_to_truth=h) for h in cut]
        return search.SolveTrace(rounds=rounds, converged=converged and len(hams) <= opts.max_rounds,
                                 solved=cut[-1] == 0, binary_degraded=degraded)

    monkeypatch.setattr(search, "solve_iterative", solve)


def peak_bytes(argv) -> int:
    """tracemalloc's peak over one in-process ``main(argv)``, which must succeed."""
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "corpus"
    code = main(
        ["gen", "--grid", "2x2", "--count", "16", "--seed", "7",
         "--out", str(root)] + GEN_FLAGS
    )
    assert code == EXIT_OK
    return root


@pytest.fixture(scope="module")
def corpus_3d_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli3d") / "corpus"
    assert main(["gen", "--grid", "2x2x2", "--count", "1", "--out", str(root)]) == EXIT_OK
    return root


class TestGen:
    def test_writes_instances(self, corpus_dir):
        assert len(list(corpus_dir.glob("inst_*"))) == 16
        assert (corpus_dir / "inst_00000" / "manifest.txt").exists()

    def test_rerun_is_byte_identical(self, corpus_dir, tmp_path):
        other = tmp_path / "again"
        main(["gen", "--grid", "2x2", "--count", "16", "--seed", "7",
              "--out", str(other)] + GEN_FLAGS)
        assert dir_digest(other) == dir_digest(corpus_dir)

    def test_peak_does_not_grow_with_count(self, tmp_path):
        # Each instance is drawn, written and dropped in turn: holding them
        # all would add 16 KB of patches per instance here (2.9 MB at 200).
        def peak(count):
            tracemalloc.start()
            try:
                code = main(["gen", "--grid", "2x2", "--count", str(count), "--cell", "40", "--crop", "32",
                             "--out", str(tmp_path / str(count))])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                assert code == EXIT_OK

        peak(1)  # first-call allocations
        assert peak(200) <= peak(20) + (512 << 10)
        assert len(list((tmp_path / "200").glob("inst_*"))) == 200

    def test_3d_geometry(self, tmp_path):
        root = tmp_path / "vol"
        code = main(["gen", "--grid", "3x3x3", "--volume-kind", "synth-mixed",
                     "--count", "1", "--seed", "1", "--out", str(root)])
        assert code == EXIT_OK
        from jigsolve.puzzlegen import load_corpus

        inst = load_corpus(root)[0]
        assert inst.patches.shape == (27, 32, 32, 32, 1)

    def test_3d_ignores_cell_and_crop(self, tmp_path):
        from jigsolve.puzzlegen import load_corpus

        for cell, crop in (("3", "2"), ("8", "12")):
            root = tmp_path / f"vol{cell}"
            code = main(["gen", "--grid", "2x2x2", "--count", "1", "--cell", cell, "--crop", crop,
                         "--out", str(root)])
            assert code == EXIT_OK
            assert load_corpus(root)[0].patches.shape == (8, 48, 48, 48, 1)

    def test_smallest_admitted_geometry(self, tmp_path):
        root = tmp_path / "small"
        code = main(["gen", "--grid", "2x2", "--count", "2", "--cell", "8", "--crop", "4",
                     "--out", str(root)])
        assert code == EXIT_OK
        model = tmp_path / "m.jsw1"
        assert main(["train", "--corpus", str(root), "--out", str(model), "--epochs", "1"]) == EXIT_OK

    def test_unknown_kind(self, tmp_path):
        code = main(["gen", "--grid", "2x2", "--count", "1", "--kind", "plaid",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("grid", ["2x2", "2x2x2"])
    def test_volume_kind_spells_kind(self, grid, tmp_path):
        # One setting under two names: on any grid the last one given wins.
        digests = {}
        for name, flags in {"kind": ["--kind", "synth-blobs"],
                            "volume": ["--volume-kind", "synth-blobs"],
                            "last": ["--volume-kind", "synth-gradient", "--kind", "synth-blobs"],
                            "other": ["--kind", "synth-blobs", "--volume-kind", "synth-gradient"]}.items():
            root = tmp_path / name
            assert main(["gen", "--grid", grid, "--count", "1", "--out", str(root), *flags]
                        + GEN_FLAGS) == EXIT_OK
            digests[name] = dir_digest(root)
        assert digests["kind"] == digests["volume"] == digests["last"] != digests["other"]

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--grid", "2x2", "--out", "x", "--bogus"])
        assert exc.value.code == 2


class TestTrain:
    def test_writes_model_and_log(self, corpus_dir, tmp_path):
        model = tmp_path / "m.jsw1"
        log = tmp_path / "loss.log"
        code = main(["train", "--corpus", str(corpus_dir), "--out", str(model),
                     "--log", str(log), "--epochs", "2", "--seed", "0"])
        assert code == EXIT_OK
        assert model.read_bytes()[:4] == b"JSW1"
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("epoch=1 mean_loss=")
        assert "train_rounds=5" in lines[0]

    def test_missing_corpus(self, tmp_path, capsys):
        code = main(["train", "--corpus", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "m.jsw1")])
        assert code == EXIT_DATA
        assert "absent" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "solve"])
    def test_grid_mismatch(self, command, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        argv = {"train": ["train", "--out", str(out)],
                "solve": ["solve", "--oracle", "0.5", "--report", str(out)]}[command]
        assert main(argv + ["--corpus", str(corpus_dir), "--grid", "3x3"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == "error: corpus grid 2x2 does not match --grid 3x3\n"
        assert not out.exists()

    def test_radius_past_the_memory_budget_is_usage_error(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        assert main(["gen", "--grid", "4x4", "--count", "1", "--out", str(root)] + GEN_FLAGS) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "m.jsw1"
        code = main(["train", "--corpus", str(root), "--out", str(out), "--radius", "16"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: a 4x4 round at radius 16") and err.count("\n") == 1
        assert not out.exists()

    def test_model_past_the_memory_budget_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # The 30x30 unary head alone is (810000, 19800) float64, 119 GiB; its
        # round without pair terms is 0.18 GiB.  Never run this without the admission.
        root = tmp_path / "corpus"
        assert main(["gen", "--grid", "30x30", "--count", "1", "--cell", "8", "--crop", "4",
                     "--out", str(root)]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(scorer, "train_sgd", None)  # refused before training starts
        out = tmp_path / "m.jsw1"
        assert main(["train", "--corpus", str(root), "--out", str(out), "--no-binary"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: a 30x30 round") and "model" in err and err.count("\n") == 1
        assert not out.exists()

    def test_admission_covers_the_training_peak(self):
        # A 5x5 model is 2.8 MB; training held up to 7.1 times that, with
        # its rounds, at 5x5 to 8x8.
        shape = GridShape((5, 5))
        corpus = generate_corpus("mixed", shape, 6, 0, GenOptions(cell=12, crop=8))
        opts = SolverOptions(use_binary=False)
        tracemalloc.start()
        try:
            model = scorer.train_sgd(corpus, TrainOptions(epochs=1, batch_size=6), opts).model
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scorer.train_bytes(corpus[0]) == scorer.TRAIN_COPIES * sum(a.nbytes for a in model.params)
        assert peak <= scorer.train_bytes(corpus[0]) + search.round_bytes(shape, opts)


class TestSolve:
    def test_perfect_oracle_on_corpus(self, corpus_dir, tmp_path):
        report = tmp_path / "r.jsonl"
        code = main(["solve", "--corpus", str(corpus_dir), "--oracle", "0.0",
                     "--report", str(report)])
        assert code == EXIT_OK
        puzzles, (agg,) = read_report(report)
        assert len(puzzles) == 16
        assert agg["exact_rate"] == 1.0
        assert all(p["rounds_used"] == 2 or p["final_hamming"] == 0 for p in puzzles)

    def test_pure_noise_is_chance_level(self, tmp_path):
        report = tmp_path / "r.jsonl"
        main(["solve", "--grid", "2x2", "--count", "300", "--oracle", "1.0",
              "--report", str(report)])
        _, (agg,) = read_report(report)
        assert agg["exact_rate"] < 0.2  # chance is 1/24

    def test_aggregate_invariants(self, tmp_path):
        report = tmp_path / "r.jsonl"
        main(["solve", "--grid", "3x3", "--count", "40", "--oracle", "0.5",
              "--report", str(report)])
        puzzles, (agg,) = read_report(report)
        assert 0.0 <= agg["exact_rate"] <= agg["d_le_2_rate"] <= 1.0
        assert agg["config_space_size"] == math.factorial(9)
        assert len(agg["per_round_solved"]) == agg["max_rounds"]
        for p in puzzles:
            assert p["final_hamming"] != 1

    def test_config_space_past_the_int_digit_limit(self, tmp_path):
        # 1600! has 4 434 digits, past int's default str limit of 4 300.
        report = tmp_path / "r.jsonl"
        limit = sys.get_int_max_str_digits()
        code = main(["solve", "--grid", "40x40", "--oracle", "0.0", "--no-binary", "--count", "1",
                     "--max-rounds", "1", "--report", str(report)])
        assert code == EXIT_OK and sys.get_int_max_str_digits() == limit
        text = report.read_text().splitlines()[-1]
        space = math.factorial(1600)
        sys.set_int_max_str_digits(0)
        try:
            assert f'"config_space_size": {space},' in text
        finally:
            sys.set_int_max_str_digits(limit)

    def test_library_reader_past_the_int_digit_limit(self, tmp_path):
        report = tmp_path / "r.jsonl"
        code = main(["solve", "--grid", "40x40", "--oracle", "0.0", "--no-binary", "--count", "1",
                     "--max-rounds", "1", "--report", str(report)])
        assert code == EXIT_OK
        limit = sys.get_int_max_str_digits()
        records = cli.read_report(report)
        assert sys.get_int_max_str_digits() == limit
        assert [r["type"] for r in records] == ["puzzle", "aggregate"]
        assert records[0]["solved"] and records[-1]["config_space_size"] == math.factorial(1600)

    def test_library_reader_restores_the_limit_on_error(self, tmp_path):
        report = tmp_path / "r.jsonl"
        report.write_text('{"type": "puzzle"}\n{"type": \n')
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(json.JSONDecodeError):
                cli.read_report(report)
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("source", ["grid", "corpus", "model"])
    def test_only_oracle_runs_build_a_stream(self, source, corpus_dir, tmp_path, monkeypatch):
        # One default_rng([seed, index]) per puzzle, in index order, for oracle
        # scoring and fresh scrambles; a model run reads no stream and builds none.
        model = random_model(tmp_path / "m.jsw1")
        argv = {"grid": ["--grid", "2x2", "--oracle", "0.5", "--count", "5"],
                "corpus": ["--corpus", str(corpus_dir), "--oracle", "0.5", "--count", "5"],
                "model": ["--corpus", str(corpus_dir), "--model", str(model), "--count", "5"]}[source]
        built, real = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: built.append(seed) or real(seed))
        assert main(["solve", "--seed", "9", "--report", str(tmp_path / "r.jsonl")] + argv) == EXIT_OK
        assert built == ([] if source == "model" else [[9, index] for index in range(5)])

    def test_config_space_past_float_range(self, tmp_path):
        # 180! does not fit in a float, so its approximation is null.
        report = tmp_path / "r.jsonl"
        code = main(["solve", "--grid", "6x6x5", "--oracle", "0", "--count", "1",
                     "--report", str(report)])
        assert code == EXIT_OK

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        agg = json.loads(report.read_text().splitlines()[-1], parse_constant=reject)
        assert agg["config_space_size"] == math.factorial(180)
        assert agg["config_space_size_approx"] is None

    def test_model_on_corpus(self, corpus_dir, tmp_path):
        model = tmp_path / "m.jsw1"
        main(["train", "--corpus", str(corpus_dir), "--out", str(model),
              "--epochs", "1"])
        report = tmp_path / "r.jsonl"
        code = main(["solve", "--corpus", str(corpus_dir), "--model", str(model),
                     "--report", str(report)])
        assert code == EXIT_OK
        _, (agg,) = read_report(report)
        assert agg["scorer"].startswith("model:")

    def test_needs_scorer(self, corpus_dir, tmp_path):
        code = main(["solve", "--corpus", str(corpus_dir),
                     "--report", str(tmp_path / "r.jsonl")])
        assert code == EXIT_DATA

    def test_corrupt_model_magic(self, corpus_dir, tmp_path):
        bad = tmp_path / "bad.jsw1"
        bad.write_bytes(b"NOPE" + b"\x00" * 64)
        code = main(["solve", "--corpus", str(corpus_dir), "--model", str(bad),
                     "--report", str(tmp_path / "r.jsonl")])
        assert code == EXIT_DATA

    def test_model_feature_width_mismatch_is_data_error(self, corpus_dir, tmp_path, capsys):
        model = random_model(tmp_path / "m.jsw1")
        root = tmp_path / "rgb"
        shutil.copytree(corpus_dir, root)
        for path in root.glob("inst_*/patch_*.rten"):
            save_rten(ImageTensor(load_image(path).data.repeat(3, axis=-1)), path)
        code = main(["solve", "--corpus", str(root), "--model", str(model),
                     "--report", str(tmp_path / "r.jsonl")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and "width" in err and err.count("\n") == 1

    @pytest.mark.parametrize("recipe", [2, 9])
    def test_model_recipe_of_another_rank_is_data_error(self, recipe, corpus_dir, tmp_path, capsys):
        # A 2x2 model saved under the 3D recipe with the 3D width d = 16.
        model = tmp_path / "m.jsw1"
        save_model(LinearScorer.init_random(GridShape((2, 2)), 16, np.random.default_rng(0)), model)
        blob = model.read_bytes()
        model.write_bytes(blob[:24] + recipe.to_bytes(4, "little") + blob[28:])
        code = main(["solve", "--corpus", str(corpus_dir), "--model", str(model),
                     "--report", str(tmp_path / "r.jsonl")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(byte offset 24)" in err and err.count("\n") == 1
        assert not (tmp_path / "r.jsonl").exists()

    def test_model_trailing_bytes_is_data_error(self, corpus_dir, tmp_path, capsys):
        model = random_model(tmp_path / "m.jsw1")
        model.write_bytes(model.read_bytes() + b"\x00" * 7)
        code = main(["solve", "--corpus", str(corpus_dir), "--model", str(model),
                     "--report", str(tmp_path / "r.jsonl")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and "trailing" in err and err.count("\n") == 1

    def test_thread_count_does_not_change_report(self, tmp_path):
        reports = []
        for threads in ("1", "8"):
            report = tmp_path / f"r{threads}.jsonl"
            main(["solve", "--grid", "3x3", "--count", "30", "--oracle", "0.4",
                  "--seed", "5", "--threads", threads, "--report", str(report)])
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("flag", [["--radius", "-1"], ["--max-rounds", "0"],
                                      ["--candidate-cap", "0"]])
    def test_bad_ball_knob_is_usage_error(self, flag, tmp_path, capsys):
        code = main(["solve", "--grid", "3x3", "--count", "2", "--oracle", "0.5",
                     "--report", str(tmp_path / "r.jsonl")] + flag)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_thread_variable_is_ignored(self, tmp_path, monkeypatch):
        reports = []
        for value in (None, "6", "x"):
            if value is None:
                monkeypatch.delenv("JIGSOLVE_THREADS", raising=False)
            else:
                monkeypatch.setenv("JIGSOLVE_THREADS", value)
            report = tmp_path / f"r{value}.jsonl"
            assert main(["solve", "--grid", "3x3", "--count", "10", "--oracle", "0.4",
                         "--report", str(report)]) == EXIT_OK
            reports.append(report.read_bytes())
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert build_parser().parse_args(["solve", "--report", "r"]).threads == 1


class TestBench:
    def test_round_sweep(self, tmp_path):
        report = tmp_path / "bench.jsonl"
        code = main(["bench", "--grid", "3x3", "--count", "40",
                     "--noise", "0.5", "--radii", "3", "--rounds", "1,20",
                     "--binary", "on", "--report", str(report)])
        assert code == EXIT_OK
        _, aggs = read_report(report)
        assert len(aggs) == 2
        by_rounds = {a["max_rounds"]: a["exact_rate"] for a in aggs}
        assert by_rounds[20] >= by_rounds[1]

    def test_binary_sweep_shapes(self, tmp_path):
        report = tmp_path / "bench.jsonl"
        main(["bench", "--grid", "3x3", "--count", "20", "--noise", "0.3,0.6",
              "--radii", "0,3", "--rounds", "5", "--binary", "both",
              "--report", str(report)])
        _, aggs = read_report(report)
        assert len(aggs) == 2 * 2 * 2

    def test_candidate_cap_is_applied(self, tmp_path):
        common = ["--grid", "3x3", "--count", "20", "--seed", "3", "--oracle-binary", "0.1"]
        sweep = ["--noise", "0.6", "--rounds", "3", "--binary", "on"]
        reports = {}
        for name, argv in {
            "capped": ["bench"] + common + sweep + ["--candidate-cap", "1"],
            "uncapped": ["bench"] + common + sweep,
            "solve": ["solve"] + common + ["--oracle", "0.6", "--max-rounds", "3",
                                           "--candidate-cap", "1"],
        }.items():
            report = tmp_path / f"{name}.jsonl"
            assert main(argv + ["--report", str(report)]) == EXIT_OK
            reports[name] = read_report(report)[1]
        assert reports["capped"] == reports["solve"]
        assert reports["capped"] != reports["uncapped"]

    @pytest.mark.parametrize("grid,flags,count", [
        ("3x3", ["--oracle-binary", "0.1"], 10),
        ("3x3", ["--oracle-binary", "0.1", "--no-binary"], 10),
        ("3x3x3", [], 5),
        ("4x4", ["--candidate-cap", "60"], 3),
    ])
    def test_every_cap_equals_a_solve_at_that_cap(self, grid, flags, count, tmp_path,
                                                  monkeypatch):
        rounds_used = spy_solves(monkeypatch)
        caps = list(range(1, 21))
        common = ["--grid", grid, "--count", str(count), "--seed", "3"]
        binary = "off" if "--no-binary" in flags else "on"
        report = tmp_path / "bench.jsonl"
        assert main(["bench", *common, *[f for f in flags if f != "--no-binary"],
                     "--noise", "0.6", "--binary", binary, "--rounds", ",".join(map(str, caps)),
                     "--report", str(report)]) == EXIT_OK
        # One solve per puzzle at the largest cap, and some trajectory to cut.
        assert len(rounds_used) == count and max(rounds_used) > 1
        _, aggs = read_report(report)
        assert len(aggs) == len(caps)
        for k, agg in zip(caps, aggs):
            solved = tmp_path / f"solve{k}.jsonl"
            assert main(["solve", *common, *flags, "--oracle", "0.6", "--max-rounds", str(k),
                         "--report", str(solved)]) == EXIT_OK
            assert read_report(solved)[1] == [agg]

    def test_one_solve_per_noise_radius_and_binary(self, tmp_path, monkeypatch):
        rounds_used = spy_solves(monkeypatch)
        assert main(["bench", "--grid", "2x2", "--count", "3", "--noise", "0.2,0.5",
                     "--radii", "0,3", "--rounds", "1,5,20", "--binary", "both",
                     "--report", str(tmp_path / "b.jsonl")]) == EXIT_OK
        assert len(rounds_used) == 3 * 2 * 2 * 2

    def test_bad_ball_knob_is_usage_error(self, tmp_path, monkeypatch):
        rounds_used = spy_solves(monkeypatch)
        for flag in (["--radii", "3,-1"], ["--rounds", "5,0"]):
            code = main(["bench", "--grid", "3x3", *flag, "--report", str(tmp_path / "b.jsonl")])
            assert code == EXIT_USAGE
        # Every setting is checked before any puzzle is built.
        assert rounds_used == []

    def test_stderr_tables_follow_the_report(self, tmp_path, capsys):
        report = tmp_path / "bench.jsonl"
        assert main(["bench", "--grid", "3x3", "--count", "5", "--noise", "0.3,0.6",
                     "--radii", "0,3", "--rounds", "3,1", "--binary", "both",
                     "--report", str(report)]) == EXIT_OK
        _, aggs = read_report(report)
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].split() == ["noise", "radius", "rounds", "binary", "exact", "d<=2",
                                    "mean_rounds"]
        results = [line.split() for line in lines[1:1 + len(aggs)]]
        assert results == [
            [a["scorer"].removeprefix("oracle:eps="), str(a["radius"]),
             str(a["max_rounds"]), str(a["use_binary"]), f"{a['exact_rate']:.4f}",
             f"{a['d_le_2_rate']:.4f}", f"{a['mean_rounds']:.2f}"]
            for a in aggs
        ]
        assert lines[1 + len(aggs)].startswith("noise  radius  binary  wall (one solve at 3 rounds")
        walls = [line.split() for line in lines[2 + len(aggs):]]
        assert [w[:3] for w in walls] == [[noise, radius, binary] for noise in ("0.3", "0.6")
                                          for radius in ("0", "3") for binary in ("True", "False")]
        assert all(re.fullmatch(r"\d+\.\d\ds", w[3]) for w in walls) and len(walls[0]) == 4

    def test_empty_sweep_is_usage_error(self, tmp_path):
        code = main(["bench", "--grid", "3x3", "--noise", "", "--report",
                     str(tmp_path / "b.jsonl")])
        assert code == EXIT_USAGE


class TestFold:
    """Every report the fold writes equals the reference cut of the same trajectories, floats included."""

    SHAPE = GridShape((2, 2))

    def test_trajectories_cover_the_cases(self):
        trajectories = scripted_trajectories(40, 40)
        lengths = {len(hams) for hams, *_ in trajectories}
        assert {1, 20} <= lengths
        assert any(0 in hams[:-1] and hams[-1] != 0 for hams, *_ in trajectories)  # solved, then moved off

    @pytest.mark.parametrize("count", [1, 7, 40])
    @pytest.mark.parametrize("rounds", ["7,1,25,3,20", "3,1", "20,20,1"])
    def test_bench_aggregates(self, count, rounds, tmp_path, monkeypatch):
        trajectories = scripted_trajectories(count, count)
        script_solves(monkeypatch, trajectories)
        report = tmp_path / "b.jsonl"
        assert main(["bench", "--grid", "2x2", "--count", str(count), "--noise", "0.5", "--radii", "3",
                     "--binary", "on", "--rounds", rounds, "--seed", "4", "--report", str(report)]) == EXIT_OK
        caps = [int(k) for k in rounds.split(",")]
        largest = max(caps)
        solved = [(hams[:largest], converged and len(hams) <= largest, degraded)
                  for hams, converged, degraded in trajectories]
        opts = SolverOptions(max_rounds=largest)
        want = [reference_report(solved, self.SHAPE, 4, "oracle:eps=0.5", opts, k)[1] for k in caps]
        assert cli.read_report(report) == want
        assert report.read_text() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in want)

    @pytest.mark.parametrize("count", [1, 7, 40])
    @pytest.mark.parametrize("cap", [1, 3, 20, 25])
    def test_solve_records_and_aggregate(self, count, cap, tmp_path, monkeypatch):
        trajectories = scripted_trajectories(count, count)
        script_solves(monkeypatch, trajectories)
        report = tmp_path / "r.jsonl"
        assert main(["solve", "--grid", "2x2", "--oracle", "0.5", "--count", str(count),
                     "--max-rounds", str(cap), "--seed", "4", "--report", str(report)]) == EXIT_OK
        solved = [(hams[:cap], converged and len(hams) <= cap, degraded)
                  for hams, converged, degraded in trajectories]
        opts = SolverOptions(max_rounds=cap)
        records, agg = reference_report(solved, self.SHAPE, 4, "oracle:eps=0.5", opts, cap)
        assert cli.read_report(report) == records + [agg]
        assert report.read_text() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in records + [agg])

    @pytest.mark.parametrize("argv", [
        ["solve", "--grid", "2x2", "--oracle", "0.5"],
        ["bench", "--grid", "2x2", "--noise", "0.5", "--binary", "off", "--rounds", "1,5,20"],
    ])
    def test_peak_does_not_grow_with_count(self, argv, tmp_path):
        # Holding every trajectory and record until the end took about 470
        # bytes a puzzle: about 200 KB more at 500 puzzles than at 50.
        run = argv + ["--report", str(tmp_path / "r.jsonl"), "--count"]
        peak_bytes(run + ["50"])  # warms the caches a first run fills
        assert peak_bytes(run + ["500"]) <= peak_bytes(run + ["50"]) + 48_000

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("exc", [OSError("disk gone"), KeyboardInterrupt()])
    def test_failed_run_leaves_no_report(self, command, exc, tmp_path, monkeypatch, capsys):
        solve_iterative = search.solve_iterative

        def fail_third(*args):
            if next(calls) == 3:
                raise exc
            return solve_iterative(*args)

        monkeypatch.setattr(search, "solve_iterative", fail_third)
        argv = {"solve": ["solve", "--grid", "2x2", "--oracle", "0.5", "--count", "5"],
                "bench": ["bench", "--grid", "2x2", "--count", "5", "--noise", "0.5",
                          "--rounds", "1,5"]}[command]
        report = tmp_path / "r.jsonl"
        for earlier in (None, b"an earlier report\n"):
            calls = itertools.count(1)
            if earlier is not None:
                report.write_bytes(earlier)
            if isinstance(exc, OSError):
                assert main(argv + ["--report", str(report)]) == EXIT_DATA
                assert capsys.readouterr().err == "error: disk gone\n"
            else:
                with pytest.raises(KeyboardInterrupt):
                    main(argv + ["--report", str(report)])
            assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else ["r.jsonl"])
            assert earlier is None or report.read_bytes() == earlier


class TestMemoryBudget:
    # 9x9 at radius 3 ran in 11.1 s at 4.88 GB on an 8 GB machine.
    @pytest.mark.parametrize("spec,fields", [
        ("2x2", {}), ("3x3", {}), ("4x4", {"candidate_cap": 60}), ("6x6", {}), ("8x8", {}),
        ("9x9", {}), ("4x4", {"radius": 16, "candidate_cap": 60}), ("2x2x2", {}), ("3x3x3", {}),
        ("6x6x5", {}),
    ])
    def test_admits(self, spec, fields):
        assert search.round_bytes(GridShape.parse(spec), SolverOptions(**fields)) <= MEMORY_BUDGET

    def test_long_round_cap_runs(self, tmp_path, monkeypatch):
        # Past the 2 rounds run, the report's curve repeats the exact rate up to the cap.
        rounds_used = spy_solves(monkeypatch)
        report = tmp_path / "r.jsonl"
        assert main(["solve", "--grid", "2x2", "--oracle", "0", "--count", "1",
                     "--max-rounds", "10000000", "--report", str(report)]) == EXIT_OK
        _, (agg,) = read_report(report)
        assert rounds_used == [2]
        assert agg["per_round_solved"] == [1.0] * 10_000_000

    def test_capped_radius_past_the_grid_runs(self, tmp_path):
        report = tmp_path / "r.jsonl"
        assert main(["solve", "--grid", "4x4", "--oracle", "0.5", "--radius", "16",
                     "--candidate-cap", "60", "--count", "2", "--report", str(report)]) == EXIT_OK
        assert read_report(report)[1][0]["radius"] == 16


class TestSelftest:
    def test_passes_and_repeats_identically(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["selftest"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert "ok:" in first
        assert "FAIL" not in first


class TestHelp:
    def test_all_subcommands_have_help(self, capsys):
        for cmd in ("gen", "train", "solve", "bench", "selftest"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "--seed" in out


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["train", "--corpus", "{corpus}", "--out", "{out}", "--epochs", "0"],
        ["train", "--corpus", "{corpus}", "--out", "{out}", "--batch-size", "0"],
        ["train", "--corpus", "{corpus}", "--out", "{out}", "--train-rounds", "0"],
        ["train", "--corpus", "{corpus}", "--out", "{out}", "--lr", "0"],
        ["train", "--corpus", "{corpus}", "--out", "{out}", "--init-scale", "-1"],
        ["train", "--corpus", "{corpus}", "--out", "{out}", "--grid", "0x3"],
        ["train", "--corpus", "{corpus}", "--out", "{out}", "--grid", "abc"],
        ["gen", "--grid", "0x3", "--out", "{out}"],
        ["gen", "--grid", "abc", "--out", "{out}"],
        ["gen", "--grid", "2x2", "--out", "{out}", "--cell", "8", "--crop", "12"],
        ["solve", "--grid", "0x3", "--oracle", "0.5", "--report", "{out}"],
        ["solve", "--grid", "abc", "--oracle", "0.5", "--report", "{out}"],
        ["bench", "--grid", "0x3", "--report", "{out}"],
        ["bench", "--grid", "abc", "--report", "{out}"],
        ["solve", "--grid", "3x3", "--oracle", "0.5", "--count", "0", "--report", "{out}"],
        ["solve", "--grid", "3x3", "--oracle", "0.5", "--count", "-1", "--report", "{out}"],
        ["solve", "--corpus", "{corpus}", "--oracle", "0.5", "--count", "0", "--report", "{out}"],
        ["bench", "--grid", "2x2", "--count", "0", "--report", "{out}"],
        ["solve", "--grid", "3x3", "--oracle", "nan", "--report", "{out}"],
        ["solve", "--grid", "3x3", "--oracle", "-1", "--report", "{out}"],
        ["bench", "--grid", "2x2", "--noise", "0.2,nan", "--report", "{out}"],
        ["bench", "--grid", "2x2", "--noise", "0.2,1.5", "--report", "{out}"],
        ["solve", "--grid", "3x3", "--oracle", "0.5", "--oracle-jitter", "nan", "--report", "{out}"],
        ["bench", "--grid", "2x2", "--oracle-jitter", "nan", "--report", "{out}"],
        ["solve", "--grid", "3x3", "--oracle", "0.5", "--oracle-binary", "1.5", "--report", "{out}"],
        ["bench", "--grid", "2x2", "--oracle-binary", "nan", "--report", "{out}"],
        ["gen", "--grid", "2x2", "--out", "{out}", "--cell", "3", "--crop", "3"],
        ["gen", "--grid", "2x2", "--out", "{out}", "--crop", "-1"],
        ["gen", "--grid", "2x2", "--out", "{out}", "--cell", "20", "--crop", "2"],
        ["gen", "--grid", "2x2", "--out", "{out}", "--cell", "4", "--crop", "4"],
        ["gen", "--grid", "4x4x4", "--out", "{out}"],
        ["gen", "--grid", "2x3x2", "--out", "{out}"],
        ["gen", "--grid", "3x3x2", "--out", "{out}"],
        ["gen", "--grid", "2x2", "--out", "{out}", "--count", "0"],
        ["gen", "--grid", "2x2", "--out", "{out}", "--count", "-3"],
        ["gen", "--grid", "2x2", "--count", "1", "--out", "{out}", "--cell", "10000000"],
        ["gen", "--grid", "2x2", "--count", "1", "--out", "{out}", "--kind", "plaid"],
        ["gen", "--grid", "2x2", "--count", "1", "--out", "{out}", "--volume-kind", "nope"],
        ["gen", "--grid", "2x2x2", "--count", "1", "--out", "{out}", "--volume-kind", "nope"],
        ["bench", "--grid", "3x3", "--radii", "a", "--report", "{out}"],
        ["solve", "--corpus", "{corpus}", "--oracle", "0.5", "--grid", "abc", "--report", "{out}"],
        # Refused by the size admission; never run these without it.
        ["solve", "--grid", "10x10", "--oracle", "0.2", "--report", "{out}"],
        ["solve", "--grid", "100x100", "--oracle", "0.5", "--no-binary", "--report", "{out}"],
        ["solve", "--grid", "4x4", "--oracle", "0.5", "--radius", "16", "--report", "{out}"],
        ["bench", "--grid", "10x10", "--radii", "0,3", "--report", "{out}"],
        ["bench", "--grid", "1000x1000", "--radii", "1000000", "--report", "{out}"],
        # A report curve as long as the round cap would not fit.
        ["solve", "--grid", "2x2", "--oracle", "0", "--count", "1", "--max-rounds", "1000000000",
         "--report", "{out}"],
        ["bench", "--grid", "2x2", "--rounds", "1,1000000000", "--report", "{out}"],
        # One seed check for every subcommand, before anything is read or written.
        ["gen", "--grid", "2x2", "--out", "{out}", "--seed", "-5"],
        ["train", "--corpus", "{corpus}", "--out", "{out}", "--seed", "-1"],
        ["solve", "--grid", "3x3", "--oracle", "0.5", "--seed", "-1", "--report", "{out}"],
        ["bench", "--grid", "2x2", "--seed", "-1", "--report", "{out}"],
        # A learning rate and an init scale must be finite.
        ["train", "--corpus", "{corpus}", "--out", "{out}", "--lr", "nan"],
        ["train", "--corpus", "{corpus}", "--out", "{out}", "--init-scale", "inf"],
        ["train", "--corpus", "{corpus}", "--out", "{out}", "--init-scale", "nan"],
        # So must the draw range 2*scale.
        ["train", "--corpus", "{corpus}", "--out", "{out}", "--init-scale", "1e308"],
        ["train", "--corpus", "{corpus}", "--out", "{out}", "--init-scale", "1.7976931348623157e308"],
    ])
    def test_bad_flag_is_usage_error(self, argv, corpus_dir, tmp_path, capsys, monkeypatch):
        rounds_used = spy_solves(monkeypatch)
        out = tmp_path / "out"
        code = main([a.format(corpus=corpus_dir, out=out) for a in argv])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not out.exists() and rounds_used == []

    @pytest.mark.parametrize("command", ["gen", "train", "solve", "bench"])
    def test_negative_seed_message(self, command, corpus_dir, tmp_path, capsys):
        argv = {"gen": ["gen", "--grid", "2x2"], "train": ["train", "--corpus", str(corpus_dir)],
                "solve": ["solve", "--grid", "2x2", "--oracle", "0.5"], "bench": ["bench", "--grid", "2x2"]}
        out = "--out" if command in ("gen", "train") else "--report"
        assert main(argv[command] + [out, str(tmp_path / "out"), "--seed", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: --seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("command", ["gen", "train", "solve", "bench"])
    def test_huge_seed_runs(self, command, corpus_dir, tmp_path):
        out = tmp_path / "out"
        argv = {"gen": ["gen", "--grid", "2x2", "--count", "1", "--out", str(out)] + GEN_FLAGS,
                "train": ["train", "--corpus", str(corpus_dir), "--out", str(out), "--epochs", "1"],
                "solve": ["solve", "--grid", "2x2", "--oracle", "0.5", "--count", "2", "--report", str(out)],
                "bench": ["bench", "--grid", "2x2", "--count", "2", "--noise", "0.5", "--rounds", "2",
                          "--report", str(out)]}[command]
        assert main(argv + ["--seed", "1" * 23]) == EXIT_OK
        assert out.exists()

    @pytest.mark.parametrize("flags", [["--lr", "1e300", "--epochs", "3"], ["--init-scale", "1e300"]])
    def test_diverged_model_is_not_written(self, flags, corpus_dir, tmp_path, capsys):
        # The flags pass every rule; the weights this corpus drives them to do
        # not fit JSW1's float32, so the run is a data error and writes nothing.
        out = tmp_path / "m.jsw1"
        assert main(["train", "--corpus", str(corpus_dir), "--out", str(out)] + flags) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: ") and "not finite in float32" in err and err.count("\n") == 1
        assert not out.exists()

    @staticmethod
    def solve_edited(corpus, inst, pattern, repl, tmp_path, capsys):
        """``solve`` on a copy of ``corpus`` with ``inst``'s manifest edited: exit 3, one line."""
        root = tmp_path / "corpus"
        shutil.copytree(corpus, root)
        manifest = root / inst / "manifest.txt"
        text = manifest.read_text()
        edited = re.sub(pattern, repl, text, count=1)
        assert edited != text
        manifest.write_text(edited, encoding="latin-1")  # so a non-ASCII repl is not UTF-8
        code = main(["solve", "--corpus", str(root), "--oracle", "0.5",
                     "--report", str(tmp_path / "r.jsonl")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and "manifest" in err and err.count("\n") == 1

    # cell 12, crop 8: every offset lies in [0, 4]
    @pytest.mark.parametrize("pattern,repl", [
        (r"(?m)^cell=.*\n", ""),
        (r"(?m)^truth=.*$", "truth=0,0,1,2"),
        (r"(?m)^truth=.*$", "truth=0,1,2,10000000000000"),
        (r"(?m)^crop=.*$", "crop=13"),
        (r"(?m)^offsets=\d+:\d+", "offsets=9:9"),
        (r"(?m)^offsets=\d+:\d+", "offsets=-1:0"),
        (r"(?m)^source_kind=.*$", "source_kind=caf\xe9"),
    ])
    def test_bad_manifest_is_data_error(self, pattern, repl, corpus_dir, tmp_path, capsys):
        self.solve_edited(corpus_dir, "inst_00003", pattern, repl, tmp_path, capsys)

    # 2x2x2: cell 60, crop 48, a 120^3 region of a 120^3 volume
    @pytest.mark.parametrize("pattern,repl", [
        (r"(?m)^offsets=\d+:\d+:\d+", "offsets=99:0:0"),
        (r"(?m)^region_offset=.*$", "region_offset=500,0,0"),
        (r"(?m)^region_offset=.*\n", ""),
        (r"(?m)^grid=.*$", "grid=4x2x1"),
        (r"(?m)^mirror=0", "mirror=1"),  # 3D patches are never flipped
    ])
    def test_bad_3d_manifest_is_data_error(self, pattern, repl, corpus_3d_dir, tmp_path, capsys):
        self.solve_edited(corpus_3d_dir, "inst_00000", pattern, repl, tmp_path, capsys)

    @pytest.mark.parametrize("argv", [
        ["solve", "--corpus", "{corpus}", "--model", "{dir}", "--report", "{out}"],
        ["solve", "--grid", "3x3", "--oracle", "0.5", "--count", "2", "--report", "{dir}"],
        ["train", "--corpus", "{corpus}", "--out", "{dir}", "--epochs", "1"],
        ["gen", "--grid", "2x2", "--count", "1", "--out", "{file}"],
        # The same contract for inputs that do not fit together: exit 3, one line.
        ["solve", "--model", "{model}", "--report", "{out}"],
        ["solve", "--oracle", "0.5", "--report", "{out}"],
        ["solve", "--corpus", "{corpus_3d}", "--model", "{model}", "--report", "{out}"],
    ])
    def test_file_system_error_is_data_error(self, argv, corpus_dir, corpus_3d_dir, tmp_path, capsys):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        model = random_model(tmp_path / "m.jsw1")  # 2x2
        code = main([a.format(corpus=corpus_dir, corpus_3d=corpus_3d_dir, model=model,
                              dir=tmp_path / "dir", file=tmp_path / "file", out=tmp_path / "out")
                     for a in argv])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "solve"])
    def test_tiles_below_pooling_grid_are_data_error(self, command, corpus_dir, tmp_path, capsys):
        root = tmp_path / "tiny"
        shutil.copytree(corpus_dir, root)
        for path in root.glob("inst_*/patch_*.rten"):
            save_rten(ImageTensor(load_image(path).data[:3, :3]), path)
        # The records must say crop 3 too, or load_corpus refuses the tiles first.
        for manifest in root.glob("inst_*/manifest.txt"):
            manifest.write_text(manifest.read_text().replace("\ncrop=8\n", "\ncrop=3\n"))
        model = random_model(tmp_path / "m.jsw1")
        argv = {
            "train": ["train", "--corpus", str(root), "--out", str(tmp_path / "new.jsw1")],
            "solve": ["solve", "--corpus", str(root), "--model", str(model),
                      "--report", str(tmp_path / "r.jsonl")],
        }[command]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and "minimum of 4" in err and err.count("\n") == 1
        assert not (tmp_path / "new.jsw1").exists() and not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("command", ["train", "solve-model", "solve-oracle"])
    def test_non_finite_patch_is_data_error(self, command, corpus_dir, tmp_path, capsys):
        root = tmp_path / "corpus"
        shutil.copytree(corpus_dir, root)
        path = root / "inst_00002" / "patch_003.rten"
        path.write_bytes(path.read_bytes()[:-4] + np.float32(np.nan).tobytes())
        model = random_model(tmp_path / "m.jsw1")
        argv = {
            "train": ["train", "--corpus", str(root), "--out", str(tmp_path / "new.jsw1")],
            "solve-model": ["solve", "--corpus", str(root), "--model", str(model),
                            "--report", str(tmp_path / "r.jsonl")],
            "solve-oracle": ["solve", "--corpus", str(root), "--oracle", "0.5",
                             "--report", str(tmp_path / "r.jsonl")],
        }[command]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and "patch_003.rten: non-finite value" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "new.jsw1").exists() and not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("command", ["train", "solve-model"])
    @pytest.mark.parametrize("inst", ["inst_00000", "inst_00003"])
    def test_manifest_crop_that_disagrees_with_its_patches_is_data_error(
        self, command, inst, corpus_dir, tmp_path, capsys
    ):
        root = tmp_path / "corpus"
        shutil.copytree(corpus_dir, root)
        manifest = root / inst / "manifest.txt"
        text = manifest.read_text()
        assert "\ncrop=8\n" in text
        manifest.write_text(text.replace("\ncrop=8\n", "\ncrop=6\n"))
        model = random_model(tmp_path / "m.jsw1")
        argv = {
            "train": ["train", "--corpus", str(root), "--out", str(tmp_path / "new.jsw1")],
            "solve-model": ["solve", "--corpus", str(root), "--model", str(model),
                            "--report", str(tmp_path / "r.jsonl")],
        }[command]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and inst in err and err.count("\n") == 1
        assert "(6, 6, 1) differs from (8, 8, 1)" in err or "(8, 8, 1) differs from (6, 6, 1)" in err
        assert not (tmp_path / "new.jsw1").exists() and not (tmp_path / "r.jsonl").exists()

    def test_patch_of_another_shape_is_data_error(self, corpus_dir, tmp_path, capsys):
        root = tmp_path / "corpus"
        shutil.copytree(corpus_dir, root)
        save_rten(ImageTensor(np.zeros((5, 8, 1))), root / "inst_00000" / "patch_001.rten")
        code = main(["solve", "--corpus", str(root), "--oracle", "0.5",
                     "--report", str(tmp_path / "r.jsonl")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and "patch_001.rten" in err and err.count("\n") == 1
