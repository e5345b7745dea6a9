"""Report pins: small CLI solves whose report bytes must never change.

A speedup must leave every report byte-identical.  Each case below runs one
small ``solve`` and compares its report's sha256 with the hash recorded
before the ball kernel took its cached gather plan, so a change that moves
a single decision fails here, not only in the benchmark's seed-0 pins.
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
