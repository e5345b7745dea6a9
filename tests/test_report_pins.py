"""Report pins: small CLI runs whose report bytes must never change.

A speedup must leave every report byte-identical.  Each case below runs one
small ``solve`` or multi-cap ``bench`` and compares its report's sha256 with
a hash recorded before a rewrite (the ``solve`` pins before the ball kernel
took its cached gather plan, the ``bench`` pins before ``bench`` cut every
round cap from one solve), so a change that moves a single decision fails
here, not only in the benchmark's seed-0 pins.
"""

import hashlib

import pytest

from jigsolve.cli import EXIT_OK, main

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
