"""One batch of a workload, in a fresh process: ``child.py CONFIG_JSON``.

The config names the checkout's ``src`` directory, the working directory,
the ``jigsolve`` command lines to run through ``jigsolve.cli.main``, the
parent's spawn time and whether to trace.  Untraced, only the timed calls
(``search.solve_iterative`` and ``scorer.train_sgd``) are wrapped; traced,
every layer boundary below is.  Each wrapper is installed at the name a
caller looks up, so the program itself is not modified.

An untraced child also takes speed samples (``speed.py``) from just after
it imports the program until its last command ends.  On exit it writes
``spans.json`` (all spans) and ``result.json`` (exit codes, ``ru_maxrss``
and the speed samples) into the working directory.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback

from spans import Tracer, wrap_call, wrap_iter


def _solve_extra(args, kwargs, trace):
    return [int(trace.rounds_used), bool(trace.converged)]


def _refine_extra(args, kwargs, out):
    seed = kwargs["seed"] if "seed" in kwargs else args[2]
    seed = list(map(int, seed))
    return [len(seed), list(map(int, out)) != seed]


# (owner, attribute, span name, kind, extra).  An owner is a module of the
# program or a class in one; a name missing from the program is skipped.
TIMED = [
    ("search", "solve_iterative", "search.solve_iterative", "solve", _solve_extra),
    ("scorer", "train_sgd", "scorer.train_sgd", "call", None),
]
LAYERS = [
    ("search", "predict", "search.predict", "call", None),
    # train_sgd's replay loop reaches the same predictor through scorer.
    ("scorer", "predict", "search.predict", "call", None),
    ("search", "refine_with_binary", "search.refine_with_binary", "call", _refine_extra),
    ("search", "enumerate_hamming_ball", "grid.enumerate_hamming_ball", "iter", None),
    ("search", "unary_argmin", "assign.unary_argmin", "call", None),
    ("assign", "linear_sum_assignment", "assign.linear_sum_assignment", "call", None),
    ("search", "validate_unary", "cost.validate_unary", "call", None),
    ("search", "validate_binary", "cost.validate_binary", "call", None),
    ("assign", "validate_unary", "cost.validate_unary", "call", None),
    ("search", "total_cost", "cost.total_cost", "call", None),
    ("scorer.OracleScorer", "score", "scorer.OracleScorer.score", "call", None),
    ("scorer.LinearScorer", "score", "scorer.LinearScorer.score", "call", None),
    ("scorer", "features_of", "scorer.features_of", "call", None),
    ("scorer", "linear_score", "scorer.linear_score", "call", None),
    ("scorer", "loss_and_grad", "scorer.loss_and_grad", "call", None),
    ("scorer", "_sample_pass", None, "sample", None),
    ("puzzlegen", "generate_corpus", "puzzlegen.generate_corpus", "call", None),
    ("puzzlegen", "save_corpus", "puzzlegen.save_corpus", "call", None),
    ("puzzlegen", "load_corpus", "puzzlegen.load_corpus", "call", None),
    ("puzzlegen.PuzzleInstance", "scrambled", "puzzlegen.PuzzleInstance.scrambled", "classmethod", None),
    ("puzzlegen.PuzzleInstance", "apply_prediction", "puzzlegen.PuzzleInstance.apply_prediction", "call", None),
]


def _owner(package, dotted: str):
    obj = getattr(package, dotted.split(".")[0])
    for part in dotted.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def install(tracer: Tracer, package, targets, train_shape=None) -> list[str]:
    """Install wrappers for ``targets``; returns the names that were missing."""
    missing = []
    puzzle_counter = iter(range(1 << 62))
    sample_counter = iter(range(1 << 62))
    for owner_name, attr, name, kind, extra in targets:
        try:
            owner = _owner(package, owner_name)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            missing.append(f"{owner_name}.{attr}")
            continue
        if kind == "iter":
            wrapped = wrap_iter(tracer, name, fn)
        elif kind == "classmethod":
            wrapped = classmethod(wrap_call(tracer, name, fn.__func__))
        elif kind == "solve":
            wrapped = _with_trace(tracer, wrap_call(tracer, name, fn, extra),
                                  lambda: next(puzzle_counter))
        elif kind == "sample":
            if train_shape is None:
                continue
            # Not a span: it only sets the trace id to the SGD batch that
            # the sample belongs to, for the spans inside the sample.
            corpus, batch = train_shape
            per_epoch = -(-corpus // batch)

            def batch_of(k):
                return (k // corpus) * per_epoch + (k % corpus) // batch

            wrapped = _with_trace(tracer, fn, lambda: batch_of(next(sample_counter)))
        else:
            wrapped = wrap_call(tracer, name, fn, extra)
        setattr(owner, attr, wrapped)
    return missing


def _with_trace(tracer: Tracer, fn, next_id):
    def wrapper(*args, **kwargs):
        tracer.trace = next_id()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.trace = None

    return wrapper


def main(argv) -> int:
    cfg = json.loads(argv[1])
    os.chdir(cfg["workdir"])
    sys.path.insert(0, cfg["src"])
    import jigsolve
    from jigsolve import cli

    sampler = None
    if not cfg["traced"]:
        # Imported after the program, so that the numpy and scipy imports
        # the program makes are timed as its own.
        from speed import Sampler

        sampler = Sampler()
        sampler.start()

    tracer = Tracer()
    targets = TIMED + (LAYERS if cfg["traced"] else [])
    missing = install(tracer, jigsolve, targets, cfg.get("train_shape"))
    codes = []
    for step in cfg["steps"]:
        root = tracer.begin("cli.main")
        try:
            code = cli.main(step)
        except Exception:
            traceback.print_exc()
            code = "exception"
        tracer.end(root)
        tracer.trace = None
        codes.append(code)
        if code != 0:
            break
    if sampler:
        sampler.stop()
    tracer.dump("spans.json")
    with open("result.json", "w") as fh:
        json.dump({
            "codes": codes,
            "missing": missing,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "speed_samples": sampler.samples if sampler else [],
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
