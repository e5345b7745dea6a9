"""Metrics derived from one batch's spans.

``batch_timings`` gives the end-to-end figures of any batch, traced or not.
``layer_metrics`` gives the per-layer figures of a traced batch, with the
counted-versus-computed cross-checks.  Times are in seconds per batch.
"""

from __future__ import annotations

import bisect
import math
import statistics

from spans import END, EXTRA, NAME, PARENT, START, self_times

SOLVE = "search.solve_iterative"
TRAIN = "scorer.train_sgd"
ROOT = "cli.main"
BALL = "grid.enumerate_hamming_ball"
REFINE = "search.refine_with_binary"
PREDICT = "search.predict"
SEED = "assign.unary_argmin"
LSAP = "assign.linear_sum_assignment"
VALIDATE = ("cost.validate_unary", "cost.validate_binary")
SCORE = ("scorer.OracleScorer.score", "scorer.LinearScorer.score")


# About the median time of ``speed.kernel`` in untraced batches on the
# reference machine.  It only sets the scale: a calibrated time is in
# seconds of that machine running at that speed.
REF_NS = 1_400_000
MARGIN_NS = 250_000_000  # speed samples this close to a window speak for it
MIN_SAMPLES = 3


def calibrated(start: int, end: int, samples, starts=None) -> float:
    """Busy time of the window ``[start, end]`` at the reference speed (ns).

    ``samples`` are the batch's ``(start, end)`` kernel runs (``speed.py``),
    in time order, and ``starts`` their start times.  Their time inside the
    window is removed; what is left is scaled by ``REF_NS`` over the mean kernel time of the samples within
    ``MARGIN_NS`` of the window, or of the ``MIN_SAMPLES`` nearest ones when
    fewer are that close.  Without samples this is the window's length.
    """
    if not samples:
        return float(end - start)
    if starts is None:
        starts = [s for s, _ in samples]
    lo = bisect.bisect_left(starts, start - MARGIN_NS)
    hi = bisect.bisect_right(starts, end + MARGIN_NS)
    busy = end - start
    for s, e in samples[max(lo - 1, 0):hi]:
        busy -= max(0, min(e, end) - max(s, start))
    near = samples[lo:hi]
    if len(near) < MIN_SAMPLES:
        mid = (start + end) / 2
        near = sorted(samples, key=lambda x: abs((x[0] + x[1]) / 2 - mid))[:MIN_SAMPLES]
    mean = sum(e - s for s, e in near) / len(near)
    return busy * REF_NS / mean


def batch_timings(spans, t_spawn: int, samples=()) -> dict:
    """Set-up, solve and train times of one batch (ns).

    Timed calls are ``solve_iterative`` and ``train_sgd``.  A phase is the
    timed calls of one kind inside one ``jigsolve`` command.  Set-up is the
    time before the first phase plus the gaps between phases: imports,
    corpus generation and loading, model saving and loading.  Every window
    is measured with :func:`calibrated`, so with speed ``samples`` the
    times are at the reference speed, and without them they are raw.
    """
    samples = sorted(samples)
    starts = [s for s, _ in samples]

    def took(start, end):
        return calibrated(start, end, samples, starts)

    phases: list[list] = []
    train_ns = 0.0
    for span in spans:
        if span[NAME] not in (SOLVE, TRAIN):
            continue
        key = (span[NAME], span[PARENT])
        if phases and phases[-1][0] == key:
            phases[-1][2] = span[END]
        else:
            phases.append([key, span[START], span[END], []])
        if span[NAME] == SOLVE:
            phases[-1][3].append(took(span[START], span[END]))
        else:
            train_ns += took(span[START], span[END])
    setup_ns = 0.0
    prev_end = t_spawn
    for _, start, end, _ in phases:
        setup_ns += took(prev_end, start)
        prev_end = end
    solve_phases = [p for p in phases if p[0][0] == SOLVE]
    return {
        "setup_ns": setup_ns,
        "solve_ns": [p[3] for p in solve_phases],
        "solve_phase_ns": [took(p[1], p[2]) for p in solve_phases],
        "train_ns": train_ns,
    }


def derangements(k: int) -> int:
    d = [1, 0]
    for i in range(2, k + 1):
        d.append((i - 1) * (d[-1] + d[-2]))
    return d[k]


def ball_size(n: int, radius: int) -> int:
    """``1 + sum_{k=2..r} C(n, k) D_k``, computed here independently of the program."""
    return 1 + sum(math.comb(n, k) * derangements(k) for k in range(2, min(radius, n) + 1))


def layer_metrics(spans, n: int, radius: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced batch and the cross-checks that failed."""
    selfs = self_times(spans)
    count: dict[str, int] = {}
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    for span, s in zip(spans, selfs):
        name = span[NAME]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0) + span[END] - span[START]
        own[name] = own.get(name, 0) + s

    def secs(names, table=total):
        names = (names,) if isinstance(names, str) else names
        return sum(table.get(x, 0) for x in names) / 1e9

    def calls(names):
        names = (names,) if isinstance(names, str) else names
        return sum(count.get(x, 0) for x in names)

    failures = []
    refine_idx = {i for i, sp in enumerate(spans) if sp[NAME] == REFINE}
    solve_idx = {i for i, sp in enumerate(spans) if sp[NAME] == SOLVE}
    cands_per_refine: dict[int, int] = {i: 0 for i in refine_idx}
    for sp in spans:
        if sp[NAME] == BALL and sp[PARENT] in refine_idx:
            cands_per_refine[sp[PARENT]] += sp[EXTRA] or 0
    expected = ball_size(n, radius)
    wrong = sum(1 for c in cands_per_refine.values() if c != expected)
    if wrong:
        failures.append(f"{wrong} refinements scanned a ball other than {expected} candidates")
    gathered = sum(cands_per_refine.values())

    refines = [spans[i] for i in refine_idx]
    solves = [spans[i] for i in solve_idx]
    rounds = sum(1 for sp in spans if sp[NAME] == PREDICT and sp[PARENT] in solve_idx)
    reported_rounds = sum(sp[EXTRA][0] for sp in solves if sp[EXTRA])
    if rounds != reported_rounds:
        failures.append(f"counted {rounds} solve rounds, the traces report {reported_rounds}")
    predict_us = [(sp[END] - sp[START]) / 1e3 for sp in spans if sp[NAME] == PREDICT]
    seed_calls = calls(SEED)

    metrics = {
        "grid.ball_calls": calls(BALL),
        "grid.ball_candidates": sum(sp[EXTRA] or 0 for sp in spans if sp[NAME] == BALL),
        "grid.ball_s": secs(BALL),
        "search.refine_self_s": secs(REFINE, own),
        "search.cand_gather_bytes": gathered * n * (n - 1) * 8,
        "assign.seed_calls": seed_calls,
        "assign.seed_s": secs(SEED),
        "assign.lsap_solves": calls(LSAP),
        "assign.lsap_per_seed": calls(LSAP) / seed_calls if seed_calls else 0.0,
        "assign.lsap_s": secs(LSAP),
        "cost.validate_calls": calls(VALIDATE),
        "cost.validate_s": secs(VALIDATE),
        "cost.total_cost_s": secs("cost.total_cost"),
        "scorer.score_calls": calls(SCORE),
        "scorer.score_s": secs(SCORE),
        "scorer.features_s": secs("scorer.features_of"),
        "scorer.grad_s": secs("scorer.loss_and_grad"),
        "scorer.train_self_s": secs(TRAIN, own),
        "search.rounds": rounds,
        "search.rounds_per_puzzle": rounds / len(solves) if solves else 0.0,
        "search.predict_p50_us": statistics.median(predict_us) if predict_us else 0.0,
        "search.predict_self_s": secs(PREDICT, own),
        "search.refine_changed_frac":
            sum(1 for sp in refines if sp[EXTRA][1]) / len(refines) if refines else 0.0,
        "search.converged_frac":
            sum(1 for sp in solves if sp[EXTRA][1]) / len(solves) if solves else 0.0,
        "puzzlegen.gen_s": secs("puzzlegen.generate_corpus"),
        "puzzlegen.save_s": secs("puzzlegen.save_corpus"),
        "puzzlegen.load_s": secs("puzzlegen.load_corpus"),
        "puzzlegen.reorg_s": secs("puzzlegen.PuzzleInstance.apply_prediction"),
        "cli.self_s": secs(ROOT, own),
        "trace.spans": len(spans),
    }
    return metrics, failures


# Counts that must repeat exactly on the same inputs.  They are counts of
# work, not speed-ups.
EXACT_COUNTS = (
    "grid.ball_calls", "grid.ball_candidates", "search.cand_gather_bytes",
    "assign.seed_calls", "assign.lsap_solves", "cost.validate_calls", "scorer.score_calls",
    "search.rounds", "trace.spans",
)

# Layer times also reported as shares of the traced batch's wall time in
# cli.main.  A layer that a workload never enters has a share of 0; its time
# in seconds stays in the detail line only, because a time that reads 0 on
# every run looks like a constant rather than a measurement.
SHARE_OF = (
    "grid.ball_s", "search.refine_self_s", "assign.seed_s", "cost.validate_s",
    "cost.total_cost_s", "scorer.score_s", "scorer.features_s", "scorer.grad_s",
    "scorer.train_self_s", "search.predict_self_s", "puzzlegen.gen_s", "puzzlegen.save_s",
    "puzzlegen.load_s", "puzzlegen.reorg_s", "cli.self_s",
)
SHARES = tuple(k[: -len("_s")] + "_share" for k in SHARE_OF)


def add_shares(metrics: dict, spans) -> None:
    root_s = sum(sp[END] - sp[START] for sp in spans if sp[NAME] == ROOT) / 1e9
    for k, share in zip(SHARE_OF, SHARES):
        metrics[share] = metrics[k] / root_s
