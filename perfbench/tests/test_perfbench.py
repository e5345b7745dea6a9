"""Tests of the benchmark's own arithmetic and checks.

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root.
"""

import json
import struct
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from checks import check_model, check_report  # noqa: E402
from measure import (MARGIN_NS, REF_NS, ball_size, batch_timings, calibrated,  # noqa: E402
                     layer_metrics)
from run import _cross_batch, _puzzles_per_s  # noqa: E402
from spans import Tracer, self_times, tail, wrap_call, wrap_iter  # noqa: E402


def span(name, start, end, parent=-1, extra=None):
    return [name, start, end, parent, None, extra]


# -- solve_tail_ms -----------------------------------------------------------


@pytest.mark.parametrize("n, p", [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
                                  (400, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_picks_highest_percentile_with_ten_beyond(n, p):
    out = tail(list(range(n)))
    assert out["p"] == p and out["n"] == n and "short" not in out
    beyond = sum(1 for v in range(n) if v > out["value"])
    assert beyond >= 10


def test_tail_with_too_few_samples_falls_back_to_median():
    out = tail([5.0, 1.0, 3.0])
    assert out == {"value": 3.0, "p": 50.0, "n": 3, "short": True}


# -- self time ---------------------------------------------------------------


def test_self_time_of_refine_with_ball_and_validation_children():
    spans = [
        span("search.predict", 0, 200),
        span("search.refine_with_binary", 50, 150, parent=0),
        span("grid.enumerate_hamming_ball", 60, 110, parent=1, extra=205),
        span("cost.validate_unary", 110, 120, parent=1),
        span("cost.validate_binary", 130, 140, parent=1),
        span("cost.validate_unary", 0, 10, parent=0),
    ]
    assert self_times(spans) == [200 - 100 - 10, 100 - 50 - 10 - 10, 50, 10, 10, 10]


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0, 100), span("b", 10, 50, 0), span("c", 40, 70, 0), span("d", 90, 120, 0)]
    assert self_times(spans)[0] == 100 - 60 - 10


def test_traced_generator_span_covers_its_iteration():
    tracer = Tracer()

    def items():
        for i in range(3):
            time.sleep(0.01)
            yield i

    outer = wrap_call(tracer, "refine", lambda: list(wrap_iter(tracer, "ball", items)()))
    assert outer() == [0, 1, 2]
    refine, ball = tracer.spans
    assert ball[3] == 0 and ball[5] == 3
    assert ball[2] - ball[1] >= 30_000_000
    assert self_times(tracer.spans)[0] < 0.5 * (refine[2] - refine[1])


def test_setup_is_time_before_each_timed_phase():
    spans = [
        span("cli.main", 10, 40),
        span("scorer.train_sgd", 20, 40, 0),
        span("cli.main", 45, 100),
        span("search.solve_iterative", 60, 70, 2),
        span("search.solve_iterative", 71, 80, 2),
    ]
    t = batch_timings(spans, t_spawn=0)
    assert t["setup_ns"] == 20 + 20
    assert t["solve_ns"] == [[10, 9]] and t["solve_phase_ns"] == [20] and t["train_ns"] == 20


def test_each_solve_command_is_its_own_phase():
    spans = [
        span("cli.main", 0, 30),
        span("search.solve_iterative", 10, 20, 0),
        span("cli.main", 30, 60),
        span("search.solve_iterative", 40, 55, 2),
    ]
    t = batch_timings(spans, t_spawn=0)
    assert t["solve_ns"] == [[10], [15]] and t["solve_phase_ns"] == [10, 15]
    assert t["setup_ns"] == 10 + 20


# -- speed calibration -------------------------------------------------------


def test_calibrated_window_without_samples_is_its_length():
    assert calibrated(100, 350, []) == 250


def test_calibrated_window_drops_kernel_time_and_scales_by_speed():
    # Two kernel runs, each twice the reference time: the machine runs at
    # half the reference speed, so the busy time is halved.
    k = 2 * REF_NS
    samples = [(1_000, 1_000 + k), (10 * k, 11 * k)]
    start, end = 0, 20 * k
    assert calibrated(start, end, samples) == (end - start - 2 * k) / 2


def test_calibrated_window_uses_nearby_samples_only():
    slow = [(0, 4 * REF_NS)]
    far = 10 * MARGIN_NS
    fast = [(far + i * REF_NS * 3, far + i * REF_NS * 3 + REF_NS) for i in range(3)]
    window = (far + 20 * REF_NS, far + 30 * REF_NS)
    assert calibrated(*window, slow + fast) == 10 * REF_NS
    # With no sample near a window, the nearest ones stand in for it.
    assert calibrated(far + 100 * MARGIN_NS, far + 100 * MARGIN_NS + 1000, slow + fast) == 1000


def test_batch_timings_calibrates_every_window():
    k = 2 * REF_NS
    spans = [span("cli.main", 0, 100 * k), span("search.solve_iterative", 40 * k, 60 * k, 0)]
    samples = [(i * k, (i + 1) * k) for i in range(0, 100, 10)]
    t = batch_timings(spans, t_spawn=0, samples=samples)
    assert t["solve_phase_ns"] == [(20 - 2) * k / 2] and t["setup_ns"] == (40 - 4) * k / 2


def test_puzzles_per_s_weighs_each_part_alike():
    def batch(part, seconds):
        return {"part": part, "solve_ns": [[0] * 10], "solve_phase_ns": [seconds * 1e9]}

    # Part 0 ran twice (mean 2 s), part 1 once (4 s): 20 puzzles in 6 s.
    assert _puzzles_per_s([batch(0, 1), batch(0, 3), batch(1, 4)]) == 20 / 6


def test_ball_cross_check_flags_a_wrong_candidate_count():
    assert [ball_size(9, 3), ball_size(4, 3), ball_size(4, 9)] == [205, 15, 24]
    good = [span("search.refine_with_binary", 0, 10, extra=[9, True]),
            span("grid.enumerate_hamming_ball", 1, 5, 0, extra=205)]
    metrics, failures = layer_metrics(good, 9, 3)
    assert failures == [] and metrics["search.cand_gather_bytes"] == 205 * 9 * 8 * 8
    bad = [good[0], span("grid.enumerate_hamming_ball", 1, 5, 0, extra=204)]
    assert layer_metrics(bad, 9, 3)[1]


# -- output checks -----------------------------------------------------------


def report(hams, n=9):
    lines = [json.dumps({"type": "puzzle", "index": i, "final_hamming": h, "solved": h == 0},
                        sort_keys=True) for i, h in enumerate(hams)]
    exact = sum(1 for h in hams if h == 0) / len(hams)
    lines.append(json.dumps({"type": "aggregate", "n_puzzles": len(hams), "exact_rate": exact},
                            sort_keys=True))
    return ("\n".join(lines) + "\n").encode()


def test_report_check_passes_a_good_report():
    failed, info = check_report(report([0, 3, 0]), 3, 9)
    assert failed == 0 and info["exact_rate"] == 2 / 3


@pytest.mark.parametrize("old, new", [(b'"final_hamming": 0', b'"final_hamming": 1'),
                                      (b'"final_hamming": 3', b'"final_hamming": 99'),
                                      (b'"index": 1', b'"index": 0'),
                                      (b'"type": "puzzle"', b'"type": "puzzlf"')])
def test_tampered_report_counts_failed_puzzles(old, new):
    blob = report([0, 3, 0]).replace(old, new, 1)
    failed, info = check_report(blob, 3, 9)
    assert failed > 0


def test_pinned_or_unreadable_report_fails_every_puzzle_without_raising():
    good = report([0, 3, 0])
    assert check_report(good, 3, 9, pin="0" * 64)[0] == 3
    assert check_report(b"\xff" + good[1:], 3, 9)[0] == 3
    assert check_report(b"", 3, 9)[0] == 3


def model(d=3, extents=(2, 2)):
    n = 4
    floats = n * n * n * d + n * n + 9 * 2 * d + 9
    head = b"JSW1" + struct.pack("<II", 1, len(extents)) + struct.pack("<2I", *extents)
    return head + struct.pack("<II", d, 1) + struct.pack(f"<{floats}f", *([0.25] * floats))


def test_model_check():
    blob = model()
    assert check_model(blob, (2, 2))[0]
    assert not check_model(b"JSW2" + blob[4:], (2, 2))[0]
    assert not check_model(blob[:-1], (2, 2))[0]
    assert not check_model(blob[:10], (2, 2))[0]
    assert not check_model(blob[:-4] + struct.pack("<f", float("nan")), (2, 2))[0]
    assert not check_model(blob, (3, 3))[0]
    assert not check_model(blob, (2, 2), pin="0" * 64)[0]


def test_a_batch_with_tampered_output_is_counted_not_fatal():
    def batch(sha):
        return {"solve_ns": [[1]], "ops": 801, "failed": 0, "errors": [], "traced": False,
                "reports": [{"sha256": "a"}], "model": {"sha256": sha}}

    batches = [batch("m"), batch("m"), batch("tampered")]
    _cross_batch(batches)
    assert [b["failed"] for b in batches] == [0, 0, 801]
    assert batches[2]["errors"]


def test_batches_are_compared_within_their_part():
    def batch(part, sha):
        return {"part": part, "solve_ns": [[1]], "ops": 4, "failed": 0, "errors": [],
                "traced": False, "reports": [{"sha256": sha}]}

    batches = [batch(0, "a"), batch(1, "b"), batch(0, "a"), batch(1, "c")]
    _cross_batch(batches)
    assert [b["failed"] for b in batches] == [0, 0, 0, 4]
