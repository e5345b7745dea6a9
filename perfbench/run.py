"""jigsolve benchmark: ``python3 perfbench/run.py --workload NAME [--seed N]
[--seconds S] [--trace 0|1]``, from the root of a checkout.

A run repeats batches of the workload (see ``workloads.py``), each in a
fresh child process and one at a time, until ``--seconds`` have passed, and
at least once per part.  Each batch runs the program through
``jigsolve.cli.main`` with ``--threads 1``.  Every output is checked
(``checks.py``); a failed check counts failed operations and the run goes on.

``--trace 0`` reports the end-to-end metrics, measured with only the timed
calls wrapped and scaled to the reference speed by the speed samples that
each batch takes (``speed.py``).  ``--trace 1`` alternates traced and
untraced batches: the per-layer metrics are medians over the traced ones,
and the tracing overhead is the difference between the two kinds.  ``--workload all`` runs every
workload in turn.  The last line of stdout is the result as JSON; a detail
line before it holds provenance, tails, shares and cross-checks, and the same
is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_model, check_report, pinned
from measure import EXACT_COUNTS, REF_NS, SHARES, add_shares, batch_timings, layer_metrics
from spans import tail
from workloads import MODEL, PARTS, RADIUS, WORKLOADS, program_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0  # a run must end within 180 s
MIN_BATCHES = PARTS  # every part once; medians need a middle value, traced runs one of each kind
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _read(path: Path):
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _speed(samples) -> dict:
    """How many speed samples a batch took, and their mean over ``REF_NS``."""
    mean = statistics.fmean(e - s for s, e in samples) if samples else REF_NS
    return {"samples": len(samples), "slowdown": mean / REF_NS}


def run_batch(wl, seed: int, traced: bool, index: int, time_left: float, part: int = 0) -> dict:
    """Run one batch of one part in a child process and check everything it wrote."""
    wdir = WORK / f"{wl.name}-{os.getpid()}-{index}"
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    cfg = {
        "src": str(ROOT / "src"),
        "workdir": str(wdir),
        "steps": wl.steps(seed, part),
        "traced": traced,
        "train_shape": [wl.train[0], wl.train[2]] if wl.train else None,
    }
    pin_seed = program_seed(seed, part)
    batch = {"part": part, "traced": traced, "ops": wl.ops_per_batch, "failed": wl.ops_per_batch,
             "errors": []}
    with open(wdir / "child.log", "wb") as log:
        t_spawn = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
                stdout=log, stderr=subprocess.STDOUT, env={**os.environ, **CHILD_ENV},
                timeout=max(1.0, time_left),
            )
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
    try:
        result = json.loads((wdir / "result.json").read_text())
    except (OSError, ValueError):
        result = None
    if rc != 0 or result is None:
        batch["errors"].append(f"child exited with {rc}")
    elif result["codes"] != [0] * len(cfg["steps"]):
        batch["errors"].append(f"jigsolve exit codes {result['codes']}")
    else:
        spans = json.loads((wdir / "spans.json").read_text())
        samples = [tuple(x) for x in result["speed_samples"]]
        batch.update(batch_timings(spans, t_spawn, samples), peak_rss_kb=result["peak_rss_kb"],
                     raw=batch_timings(spans, t_spawn), speed=_speed(samples))
        failed = 0
        batch["reports"] = []
        for name in wl.reports:
            f, info = check_report(_read(wdir / name) or b"", wl.puzzles, wl.n,
                                   pinned("report_sha256", wl.name, pin_seed))
            failed += f
            batch["reports"].append(info)
        batch["report_bytes"] = len(_read(wdir / wl.reports[0]) or b"")
        if wl.train:
            ok, batch["model"] = check_model(
                _read(wdir / MODEL) or b"", wl.extents,
                pinned("model_sha256", wl.name, pin_seed),
            )
            failed += 0 if ok else 1
            batch["corpus_bytes"] = _tree_bytes(wdir / "train") + _tree_bytes(wdir / "held")
        batch["failed"] = failed
        if traced:
            batch["layer"], problems = layer_metrics(spans, wl.n, RADIUS)
            batch["layer"]["puzzlegen.corpus_bytes"] = batch.get("corpus_bytes", 0)
            batch["layer"]["cli.report_bytes"] = batch["report_bytes"]
            add_shares(batch["layer"], spans)
            batch["errors"] += problems
            batch["missing"] = result["missing"]
            if index == 0:
                OUT.mkdir(exist_ok=True)
                shutil.copyfile(wdir / "spans.json", OUT / f"{wl.name}-seed{seed}-spans.json")
    if batch["errors"]:
        sys.stderr.write(f"batch {index} of {wl.name}: {batch['errors']}\n")
        sys.stderr.write((_read(wdir / "child.log") or b"").decode(errors="replace")[-2000:])
    shutil.rmtree(wdir, ignore_errors=True)
    return batch


def _cross_batch(batches: list[dict]) -> None:
    """Identical inputs must give identical outputs and counts in every batch."""
    good = [b for b in batches if "solve_ns" in b]
    if not good:
        return
    first = {}
    for b in good:
        ref = first.setdefault(b.get("part", 0), b)
        shas = {r["sha256"] for r in b["reports"]} | {ref["reports"][0]["sha256"]}
        if len(shas) > 1 or b.get("model", {}).get("sha256") != ref.get("model", {}).get("sha256"):
            b["errors"].append("outputs differ from the first batch of the part")
            b["failed"] = b["ops"]
    traced = [b for b in good if "layer" in b]
    for name in EXACT_COUNTS:
        values = {b["layer"][name] for b in traced}
        if len(values) > 1:
            traced[0]["errors"].append(f"count {name} differs between batches: {sorted(values)}")


def _puzzles_per_s(times: list[dict]) -> float:
    """Puzzles of one batch per part over the sum of each part's mean solve time."""
    parts: dict[int, list] = {}
    for b in times:
        parts.setdefault(b.get("part", 0), []).append(
            (sum(len(s) for s in b["solve_ns"]), sum(b["solve_phase_ns"]) / 1e9))
    return (sum(runs[0][0] for runs in parts.values())
            / sum(statistics.fmean(t for _, t in runs) for runs in parts.values()))


def end_to_end(batches: list[dict], wl, raw: bool = False) -> dict:
    """Each end-to-end metric is the median of its per-sample values.

    A sample is one solve command for the solve metrics and one batch for
    the rest.  ``puzzles_per_s`` is instead the puzzles of one batch of
    each part over the mean solve time of each part's batches, which
    averages over the whole run and weighs the parts alike.  Times are at
    the reference speed (``speed.py``), or as the clock read them if
    ``raw``.
    """
    times = [dict(b["raw"], part=b.get("part", 0)) if raw else b for b in batches]
    solves = [([ns / 1e6 for ns in s], p / 1e9)
              for b in times for s, p in zip(b["solve_ns"], b["solve_phase_ns"])]
    tails = [tail(ms) for ms, _ in solves]
    out = {
        "puzzles_per_s": _puzzles_per_s(times),
        "solve_p50_ms": statistics.median(statistics.median(ms) for ms, _ in solves),
        "solve_tail_ms": {**tails[0], "value": statistics.median(t["value"] for t in tails)},
        "setup_s": statistics.median(b["setup_ns"] / 1e9 for b in times),
        "peak_rss_mb": statistics.median(b["peak_rss_kb"] / 1024 for b in batches),
    }
    if wl.train:
        samples = wl.train[0] * wl.train[1]
        out["train_samples_per_s"] = statistics.median(
            samples / (b["train_ns"] / 1e9) for b in times)
    return out


def provenance(seed: int) -> dict:
    info = {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            info[pkg] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    return info


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: int) -> dict:
    wl = WORKLOADS[name]
    start = time.monotonic()
    batches: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        traced = trace == 1 and len(batches) % 2 == 0
        part = 0 if trace == 1 else len(batches) % PARTS
        batches.append(run_batch(wl, seed, traced, len(batches), DEADLINE_S - elapsed, part))
        elapsed = time.monotonic() - start
        per_batch = elapsed / len(batches)
        short = len(batches) < MIN_BATCHES
        if (elapsed + per_batch > seconds and not short) or elapsed + per_batch > DEADLINE_S:
            break
    _cross_batch(batches)

    attempted = sum(b["ops"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    errors = [e for b in batches for e in b["errors"]]
    good = [b for b in batches if "solve_ns" in b]
    plain = [b for b in good if not b["traced"]]
    detail = {
        "workload": name, "trace": trace, "seconds": seconds, "batches": len(batches),
        "parts": [b["part"] for b in batches],
        "provenance": provenance(seed), "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted, "errors": errors,
    }
    if good:
        detail["exact_rate"] = good[0]["reports"][0].get("exact_rate")
        detail["report_sha256"] = good[0]["reports"][0]["sha256"]
        if "model" in good[0]:
            detail["model_sha256"] = good[0]["model"]["sha256"]
    metrics = {}
    units = {}
    if trace == 0 and plain:
        e2e = end_to_end(plain, wl)
        detail["end_to_end"] = e2e
        detail["end_to_end_raw"] = end_to_end(plain, wl, raw=True)
        detail["speed"] = {
            "samples": sum(b["speed"]["samples"] for b in plain),
            "slowdown_median": statistics.median(b["speed"]["slowdown"] for b in plain),
            "slowdown_per_batch": [b["speed"]["slowdown"] for b in plain],
        }
        for m in spec["end_to_end"]:
            value = e2e[m["name"]]
            metrics[m["name"]] = value["value"] if isinstance(value, dict) else value
            units[m["name"]] = m["unit"]
    traced = [b for b in good if b["traced"]]
    if trace == 1 and traced and plain:
        layer = {k: statistics.median(b["layer"][k] for b in traced) for k in traced[0]["layer"]}
        # Traced batches take no speed samples, so both sides are raw.
        on, off = end_to_end(traced, wl, raw=True), end_to_end(plain, wl, raw=True)
        layer["trace.overhead_frac"] = off["puzzles_per_s"] / on["puzzles_per_s"] - 1.0
        detail["tracing_overhead"] = {
            k: on[k]["value"] - off[k]["value"] if isinstance(on[k], dict) else on[k] - off[k]
            for k in on
        }
        detail["largest_share"] = max(SHARES, key=layer.get)
        detail["missing_wrappers"] = traced[0]["missing"]
        detail["exact_counts"] = {
            "names": list(EXACT_COUNTS),
            "note": "counts of work done per batch; they repeat exactly at a seed and are not speed-ups",
        }
        detail["per_layer"] = layer
        for m in spec["per_layer"]:
            metrics[m["name"]] = layer[m["name"]]
            units[m["name"]] = m["unit"]
    if not metrics:
        raise RuntimeError(f"{name}: no batch completed, nothing to report")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"detail": detail, "result": result}


E2E_UNITS = {"puzzles_per_s": "1/s", "solve_p50_ms": "ms", "solve_tail_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB", "train_samples_per_s": "1/s"}


def _print(out: dict) -> None:
    d = out["detail"]
    rows = [(k, m["value"], m["unit"]) for k, m in out["result"]["metrics"].items()]
    if "end_to_end" in d:
        rows = []
        for key, value in d["end_to_end"].items():
            if key == "solve_tail_ms":
                rows.append((key, value["value"], f"ms  (p{value['p']:g} of n={value['n']})"))
            else:
                rows.append((key, value, E2E_UNITS[key]))
    rows.append(("exact_rate", d.get("exact_rate"), "ratio"))
    rows.append(("ops_failed_frac", d["ops_failed_frac"], f"ratio of {d['attempted']} attempted"))
    for key, value, unit in rows:
        print(f"{d['workload']:<14} {key:<28} {value!s:<20} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=_nonneg_int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills the
    # running child and waits for it before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "jigsolve" / "cli.py").is_file():
        print(f"error: no jigsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outs = []
    for name in names:
        try:
            out = run_workload(spec, name, args.seed, seconds, args.trace)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        OUT.mkdir(exist_ok=True)
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(out, indent=1))
        _print(out)
        print(json.dumps(out["detail"], sort_keys=True))
        outs.append(out)
    if len(outs) == 1:
        print(json.dumps(outs[0]["result"]))
    else:
        print(json.dumps({
            "correct": all(o["result"]["correct"] for o in outs),
            "attempted": sum(o["result"]["attempted"] for o in outs),
            "failed": sum(o["result"]["failed"] for o in outs),
            "metrics": {f"{o['detail']['workload']}/{k}": v
                        for o in outs for k, v in o["result"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
