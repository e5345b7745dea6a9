"""Report, corpus and model pins: small CLI runs whose bytes must never change.

A speedup must leave every report byte-identical.  Each case below runs one
small ``solve`` or multi-cap ``bench`` and compares its report's sha256 with
a hash recorded before a rewrite (the ``solve`` pins before the ball kernel
took its cached gather plan, the ``bench`` pins before ``bench`` cut every
round cap from one solve), so a change that moves a single decision fails
here, not only in the benchmark's seed-0 pins.

The ``gen`` pins do the same for corpora, hashed as their sorted relative
paths plus file bytes, and the ``train`` pin for the model trained on the
first of them.  They were recorded before ``make_puzzle_2d``,
``make_puzzle_3d`` and ``regenerate`` came to share one cutter, so a moved
patch byte fails here before it moves a learned model or report; every
pinned corpus must also come back bit for bit from ``regenerate``.

The ``train`` runs also pin their ``--log`` bytes, and ``solve --model``
pins a report of the trained model.  These were recorded before the linear
model's init, gradients, SGD step and JSW1 file came to read one parameter
layout, so a reordered draw or float operation fails here.
"""

import hashlib

import pytest

from jigsolve.cli import EXIT_OK, main
from jigsolve.puzzlegen import load_corpus, regenerate
from test_cli import dir_digest

PINS = {
    "3x3-oracle": (
        ["--grid", "3x3", "--oracle", "0.5", "--count", "20"],
        "52fea0a4368d89c6cb5e539f4815240078ee95531ae1c9c2a876d1ff732ebe26",
    ),
    "3x3x3-oracle": (
        ["--grid", "3x3x3", "--oracle", "0.3", "--count", "10"],
        "3278ce3b2d8b4b3eb377ca56e0889a926d5a3fb69fe819f5fd559c4e3590c990",
    ),
    "4x4-capped": (
        ["--grid", "4x4", "--oracle", "0.5", "--candidate-cap", "60", "--count", "5"],
        "bef2374fb69c15ab12e8ee09c1c942321c22b5c75e06cf1bdde948aeb714de16",
    ),
    "3x3-no-binary": (
        ["--grid", "3x3", "--oracle", "0.5", "--count", "20", "--no-binary"],
        "82b7e445a792621d1334045c7f0a00231183455f44987bc896f4798659770612",
    ),
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_report_bytes_are_pinned(case, tmp_path):
    flags, digest = PINS[case]
    report = tmp_path / "report.jsonl"
    assert main(["solve", *flags, "--seed", "5", "--report", str(report)]) == EXIT_OK
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


BENCH_PINS = {
    "3x3-noise-radius-sweep": (
        ["--grid", "3x3", "--count", "30", "--noise", "0.3,0.6", "--radii", "0,3",
         "--rounds", "1,2,7,20"],
        "34ddb10c0e0c14f9c9ee26e9bb1effeaeb9d8ccf8c63c3002d7064330c5699a4",
    ),
    "3x3x3": (
        ["--grid", "3x3x3", "--count", "15", "--rounds", "1,5,20"],
        "7232b8280be711cf46f3a0fa4b13ae4782c69fd7028f0a7388874c5da9c7b6bf",
    ),
    "4x4-capped": (
        ["--grid", "4x4", "--candidate-cap", "60", "--count", "5", "--rounds", "1,5,10"],
        "4b1ce6cf42a0ba6ff86f2a4d211219518dadaffdfba2e8ab41774ab54739310c",
    ),
    # Unsorted caps keep their order in the report.
    "2x2-unsorted-caps": (
        ["--grid", "2x2", "--rounds", "3,1,20"],
        "3bce60b4849a945719c8b53d0a27b6b62c677e1615405726e6d2e6cfd976b488",
    ),
}


@pytest.mark.parametrize("case", sorted(BENCH_PINS))
def test_bench_report_bytes_are_pinned(case, tmp_path):
    flags, digest = BENCH_PINS[case]
    report = tmp_path / "report.jsonl"
    assert main(["bench", *flags, "--report", str(report)]) == EXIT_OK
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


GEN_PINS = {
    "2x2": (
        ["--grid", "2x2", "--count", "20"],
        "00e607ebcc8d33752c7599aec49b882215a60ea21e637892ddd8c77f131789d2",
    ),
    "3x3-cell-crop": (
        ["--grid", "3x3", "--count", "4", "--cell", "20", "--crop", "12"],
        "3f33f916cfa9625cc06c7028f4f3f3394110b46c0603057f9f869d38be3b65a6",
    ),
    "3x2-image-mean-mirrored": (
        ["--grid", "3x2", "--count", "4", "--cell", "16", "--crop", "9", "--mean-scope", "image",
         "--mirror-p", "1"],
        "9c68d12ecd58f48e1bf63bd2cfc7eb0af61bb8b58efba1f34006fd4743be7596",
    ),
    "2x3-raw-solved-blobs": (
        ["--grid", "2x3", "--count", "4", "--cell", "16", "--crop", "16", "--no-jitter",
         "--no-scramble", "--no-mean-subtract", "--kind", "synth-blobs"],
        "af834b4faf0f4c48fb73811c5929bca8a002b066131b8cccc7893ab3ed210ac5",
    ),
    # Scrambled 2D with no flip draw: recorded before the 2D and 3D makers
    # came to share one body, which skips that draw here.
    "3x3-unflipped": (
        ["--grid", "3x3", "--count", "4", "--cell", "16", "--crop", "12", "--mirror-p", "0"],
        "9679464e95e99405d93b540e71bc318c7739216c01ed6bb1eb01f1c8d5342dbb",
    ),
    "2x2x2": (
        ["--grid", "2x2x2", "--count", "2"],
        "cc120c49b7d7957d50eec70046d537786c7ba2e0088f8da514777b38b27c9c87",
    ),
    # 3D grids ignore --mean-scope: each patch still subtracts its own mean.
    "3x3x3-centred-image-scope": (
        ["--grid", "3x3x3", "--count", "2", "--no-jitter", "--mean-scope", "image"],
        "2715f3b1cb61be94b8fa1fef3a7e897965421c4115c2d1a80efe26fe5da186e5",
    ),
    "2x2x2-raw-gradient": (
        ["--grid", "2x2x2", "--count", "2", "--no-mean-subtract", "--volume-kind",
         "synth-gradient"],
        "64629907813acea2ad62b115cae492cbb2f7197944bab7b9a975460ad16b703f",
    ),
}

# train --epochs 2 on the "2x2" corpus: the model and the --log
MODEL_PIN = "b818caa7fd3a24e3b76498332c13f40f62e8c9e412d987a96ce2cb370ff43bda"
LOG_PIN = "88e88d512555c58de3b84e01d0f4b8d8cbd6318fa4cf657601d5ecaef9e18e09"

# train --epochs 2 on more corpora: (flags, model, --log)
TRAIN_PINS = {
    # 3D: no pair head, so every binary gradient is zero
    "2x2x2": (
        [],
        "b8a3e1aab7fc11aa43509a8a93194fcf7d8121f03e4e978ce88a01fc86c26c9d",
        "3ce2f7f638081852ba3de906cc79890ae79467c4bc67530bda16d715dca5b73e",
    ),
    # 4 samples in batches of 3: the last batch holds one
    "3x3-cell-crop": (
        ["--no-binary", "--batch-size", "3", "--train-rounds", "2", "--radius", "2"],
        "a2f383b10606eff53a4ab87e44cf873730a0cd2f6135bca99f1591c7fab98dc7",
        "0198d851f3032c16101c0101ca1cf408c32ab7a5ea935be8b2bffa137eb8936e",
    ),
}

# solve --corpus <2x2> --model model.jsw1, the MODEL_PIN model
SOLVE_MODEL_PIN = "e0e1669a4f14e3148eb353edc29e595a76f3b4c3cf362fa1810d8a5ea53ca445"


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    for case, (flags, _) in GEN_PINS.items():
        assert main(["gen", *flags, "--seed", "3", "--out", str(root / case)]) == EXIT_OK
    return root


@pytest.mark.parametrize("case", sorted(GEN_PINS))
def test_corpus_bytes_are_pinned(case, corpora):
    assert dir_digest(corpora / case) == GEN_PINS[case][1]


@pytest.mark.parametrize("case", sorted(GEN_PINS))
def test_regenerate_reproduces_pinned_corpus(case, corpora):
    for inst in load_corpus(corpora / case):
        again = regenerate(inst.meta)
        assert again.patches.dtype == inst.patches.dtype
        assert again.patches.tobytes() == inst.patches.tobytes()
        assert (again.truth == inst.truth).all()


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_digests(corpus, out_dir, flags) -> tuple[str, str]:
    """``train --epochs 2`` into ``out_dir/model.jsw1``: the model's and the log's sha256."""
    model, log = out_dir / "model.jsw1", out_dir / "train.log"
    argv = ["train", "--corpus", str(corpus), "--out", str(model), "--epochs", "2",
            "--log", str(log), *flags]
    assert main(argv) == EXIT_OK
    return sha256(model), sha256(log)


def test_model_bytes_are_pinned(corpora, tmp_path):
    assert train_digests(corpora / "2x2", tmp_path, []) == (MODEL_PIN, LOG_PIN)


@pytest.mark.parametrize("case", sorted(TRAIN_PINS))
def test_train_bytes_are_pinned(case, corpora, tmp_path):
    flags, model, log = TRAIN_PINS[case]
    assert train_digests(corpora / case, tmp_path, flags) == (model, log)


def test_model_solve_report_is_pinned(corpora, tmp_path, monkeypatch):
    # The report embeds the --model string, so the model is named relative
    # to the working directory, not by its temporary absolute path.
    train_digests(corpora / "2x2", tmp_path, [])
    monkeypatch.chdir(tmp_path)
    argv = ["solve", "--corpus", str(corpora / "2x2"), "--model", "model.jsw1",
            "--report", "report.jsonl"]
    assert main(argv) == EXIT_OK
    assert sha256(tmp_path / "report.jsonl") == SOLVE_MODEL_PIN
