"""Seeded flag fuzz of the command line (after Miller et al. 1990).

Each draw runs ``gen``, ``train``, ``solve`` or ``bench`` on a tiny 2x2 grid
through ``main`` in process, with one to four flags set to values from the
set below: edge numbers, non-numbers and malformed or huge grid specs.  A run
exits 0, 2 or 3.  A refused run leaves one line on stderr (``main``'s, or
argparse's usage block) and no file at all, temporary ones included; a run
that exits 0 leaves exactly its output, and that output loads.  Work sizes
draw a huge value only where the run must be refused before any work.
"""

import random

import numpy as np
import pytest

from jigsolve import cli
from jigsolve.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from jigsolve.grid import GridShape
from jigsolve.puzzlegen import load_corpus
from jigsolve.scorer import LinearScorer, load_model, save_model

HUGE = str(2**63)
VALUES = ("0", "-1", "1", HUGE, "1e300", "nan", "inf", "-inf", "", "x", "1e-320", "-0.0")
GRIDS = ("", "x", "2", "0x2", "2x0", "-2x2", "2x2x2x2", "2.5x2", "ax2", "1x2", "99999999x99999999",
         "999x999x999")
UNBOUNDED = {"--count", "--epochs", "--train-rounds"}  # a huge value here is work no check refuses
REFUSED = {"--max-rounds", "--rounds"}  # a huge value here must be refused before any work

COMMANDS = {
    "gen": (["gen", "--grid", "2x2", "--count", "1", "--cell", "12", "--crop", "8", "--out", "{out}"],
            ["--grid", "--count", "--cell", "--crop", "--mirror-p", "--seed", "--threads"]),
    "train": (["train", "--corpus", "{corpus}", "--out", "{out}", "--epochs", "1"],
              ["--grid", "--lr", "--batch-size", "--epochs", "--train-rounds", "--init-scale", "--radius",
               "--seed", "--threads"]),
    "solve": (["solve", "--grid", "2x2", "--oracle", "0.5", "--count", "2", "--report", "{out}"],
              ["--grid", "--oracle", "--oracle-binary", "--oracle-jitter", "--radius", "--max-rounds",
               "--candidate-cap", "--count", "--seed", "--threads"]),
    "solve-model": (["solve", "--corpus", "{corpus}", "--model", "{model}", "--report", "{out}"],
                    ["--grid", "--radius", "--max-rounds", "--candidate-cap", "--count", "--seed",
                     "--threads"]),
    "bench": (["bench", "--grid", "2x2", "--count", "2", "--noise", "0.5", "--rounds", "1,3",
               "--binary", "on", "--report", "{out}"],
              ["--grid", "--noise", "--radii", "--rounds", "--candidate-cap", "--count", "--oracle-binary",
               "--oracle-jitter", "--seed", "--threads"]),
}
LISTS = {"--noise", "--radii", "--rounds"}
FLOATS = {"--mirror-p", "--lr", "--init-scale", "--oracle", "--oracle-binary", "--oracle-jitter", "--noise"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("flagfuzz")
    corpus = root / "corpus"
    assert main(["gen", "--grid", "2x2", "--count", "3", "--seed", "3", "--out", str(corpus),
                 "--cell", "12", "--crop", "8"]) == EXIT_OK
    model = root / "m.jsw1"
    save_model(LinearScorer.init_random(GridShape((2, 2)), 22, np.random.default_rng(0)), model)
    return corpus, model


def values(flag: str, parsed: bool = False) -> list[str]:
    """``flag``'s draws; with ``parsed``, only those its flag type reads, so a run gets past argparse."""
    if flag == "--grid":
        return list(GRIDS)
    kind = float if flag in FLOATS else int
    out = []
    for v in VALUES:
        try:
            kind(v)
        except ValueError:
            if parsed:
                continue
        if not (flag in UNBOUNDED and v == HUGE):
            out.append(v)
    return out


def check_run(command, argv, drawn, work, capsys):
    """Run ``argv``: exit 0 leaving only a loadable output in ``work``, or 2 or 3, one line and no file."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's refusal
        code = exc.code
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA), (argv, err)
    if code == EXIT_OK:
        assert not any(HUGE in drawn.get(flag, "") for flag in REFUSED), argv
        assert [p.name for p in work.iterdir()] == ["out"], argv
        if command == "gen":
            load_corpus(work / "out")
        elif command == "train":
            load_model(work / "out")
        else:
            assert cli.read_report(work / "out")[-1]["type"] == "aggregate"
        return code
    lines = err.splitlines()
    if err.startswith("usage:"):
        assert code == EXIT_USAGE and ": error: " in lines[-1], (argv, err)
    else:
        assert len(lines) == 1 and err.endswith("\n"), (argv, err)
        assert lines[0].startswith("usage error: " if code == EXIT_USAGE else "error: "), (argv, err)
    assert list(work.iterdir()) == [], argv
    return code


def argv_of(command, drawn, inputs, work):
    corpus, model = inputs
    argv = [a.format(corpus=corpus, model=model, out=work / "out") for a in COMMANDS[command][0]]
    for flag, value in drawn.items():
        argv += [flag, value]
    return argv


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_flag_alone(command, inputs, tmp_path, capsys):
    codes = set()
    for flag in COMMANDS[command][1]:
        for i, value in enumerate(values(flag)):
            work = tmp_path / f"{flag}{i}"
            work.mkdir()
            drawn = {flag: value}
            codes.add(check_run(command, argv_of(command, drawn, inputs, work), drawn, work, capsys))
    assert codes >= {EXIT_OK, EXIT_USAGE}, codes


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_flags_in_combination(command, inputs, tmp_path, capsys):
    rng = random.Random(f"flags-{command}-5")
    flags = COMMANDS[command][1]
    codes = set()
    for i in range(100):
        drawn = {}
        for flag in rng.sample(flags, rng.randint(2, 4)):
            pick = values(flag, parsed=True)
            drawn[flag] = (f"{rng.choice(pick)},{rng.choice(pick)}" if flag in LISTS and rng.random() < 0.3
                           else rng.choice(pick))
        work = tmp_path / f"run{i}"
        work.mkdir()
        codes.add(check_run(command, argv_of(command, drawn, inputs, work), drawn, work, capsys))
    assert codes >= {EXIT_OK, EXIT_USAGE}, codes
