"""Seeded byte-mutation fuzz of every file the program reads (after Miller et al. 1990).

Seed files of each format are mutated by one byte overwrite, truncation or
insertion, or, in RTEN and JSW1 files, by setting a u32 word to an edge
value. A mutant must either load or raise ``FormatError``; through the CLI,
``solve`` on a mutated model or manifest exits 0 or 3 with one stderr line.
"""

import random
import shutil

import numpy as np
import pytest

from jigsolve.cli import EXIT_DATA, EXIT_OK, main
from jigsolve.grid import GridShape
from jigsolve.puzzlegen import FormatError, ImageTensor, load_corpus, load_image, save_image
from jigsolve.scorer import LinearScorer, load_model, save_model

U32_EDGES = (0, 1, 2, 3, 7, 255, 65535, 2**31 - 1, 2**32 - 1)


def mutate(blob: bytes, rng: random.Random, header_words: int) -> bytes:
    """One mutation of ``blob``; ``header_words`` > 0 allows setting a u32 word.

    The word is one of the header's (after the magic) half of the time, and
    any aligned word of the file otherwise, so payload floats become NaN too.
    """
    out = bytearray(blob)
    op = rng.randrange(4 if header_words else 3)
    at = rng.randrange(len(out))
    if op == 0:
        out[at] = rng.randrange(256)
    elif op == 1:
        del out[at:]
    elif op == 2:
        out.insert(at, rng.randrange(256))
    else:
        word = 1 + rng.randrange(header_words) if rng.random() < 0.5 else rng.randrange(len(out) // 4)
        out[4 * word : 4 * word + 4] = rng.choice(U32_EDGES).to_bytes(4, "little")
    return bytes(out)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz") / "corpus"
    assert main(["gen", "--grid", "2x2", "--count", "1", "--seed", "3", "--out", str(root),
                 "--cell", "12", "--crop", "8", "--mirror-p", "0"]) == EXIT_OK
    return root


def model_bytes(tmp_path) -> bytes:
    # Fits the 2x2 one-channel corpus above: d = 22.
    path = tmp_path / "seed.jsw1"
    save_model(LinearScorer.init_random(GridShape((2, 2)), 22, np.random.default_rng(0)), path)
    return path.read_bytes()


def image_bytes(tmp_path, suffix: str, shape: tuple[int, ...]) -> bytes:
    path = tmp_path / f"seed{suffix}"
    save_image(ImageTensor(np.random.default_rng(1).random(shape)), path)
    return path.read_bytes()


@pytest.mark.parametrize("fmt,count", [
    ("pgm", 1000), ("ppm", 1000), ("rten-2d", 1000), ("rten-3d", 1000), ("jsw1", 1000), ("manifest", 400),
])
def test_every_mutant_loads_or_raises_format_error(fmt, count, corpus, tmp_path):
    if fmt == "manifest":
        root = tmp_path / "corpus"
        shutil.copytree(corpus, root)
        target = root / "inst_00000" / "manifest.txt"
        seed, words, load = target.read_bytes(), 0, lambda: load_corpus(root)
    else:
        target = tmp_path / "mutant"
        seed, words = {
            "pgm": (image_bytes(tmp_path, ".pgm", (5, 4, 1)), 0),
            "ppm": (image_bytes(tmp_path, ".ppm", (3, 4, 3)), 0),
            "rten-2d": (image_bytes(tmp_path, ".rten", (5, 4, 2)), 5),  # version, rank, W, H, C
            "rten-3d": (image_bytes(tmp_path, ".rten", (2, 3, 4, 1)), 6),
            "jsw1": (model_bytes(tmp_path), 6),  # version, rank, W, H, d, recipe
        }[fmt]
        load = (lambda: load_model(target)) if fmt == "jsw1" else (lambda: load_image(target))
    rng = random.Random(f"{fmt}-17")
    refused = 0
    for _ in range(count):
        target.write_bytes(mutate(seed, rng, words))
        try:
            load()
        except FormatError:
            refused += 1
    assert 0 < refused < count  # mutants reach past the first check, and some still load


@pytest.mark.parametrize("mutated,count", [("model", 150), ("manifest", 150)])
def test_solve_on_a_mutant_exits_0_or_3_with_one_line(mutated, count, corpus, tmp_path, capsys):
    root = tmp_path / "corpus"
    shutil.copytree(corpus, root)
    model = tmp_path / "m.jsw1"
    model.write_bytes(model_bytes(tmp_path))
    target, words = (model, 6) if mutated == "model" else (root / "inst_00000" / "manifest.txt", 0)
    seed = target.read_bytes()
    rng = random.Random(f"cli-{mutated}-17")
    codes = set()
    for _ in range(count):
        blob = mutate(seed, rng, words)
        target.write_bytes(blob)
        code = main(["solve", "--corpus", str(root), "--model", str(model), "--max-rounds", "2",
                     "--report", str(tmp_path / "r.jsonl")])
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_DATA), blob
        assert err.count("\n") == 1, err
        codes.add(code)
    assert EXIT_DATA in codes
