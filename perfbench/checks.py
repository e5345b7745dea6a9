"""Output checks.  A failed check counts failed operations; it never raises.

At the pinned seed (``pins.json``) a report and a model file must match
their sha256 exactly.  At any seed a report must hold one well-formed record
per puzzle, every ``final_hamming`` in [0, n], and an aggregate whose
``exact_rate`` equals a recount of the records; a model file must be a
well-formed JSW1 file for the workload's grid with finite weights.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
from array import array
from pathlib import Path

PINS = json.loads((Path(__file__).with_name("pins.json")).read_text())
NUM_REL_CLASSES = 9


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def pinned(kind: str, workload: str, seed: int):
    """The pinned sha256 of ``kind`` for this workload and seed, if any."""
    if seed != PINS["seed"]:
        return None
    return PINS[kind].get(workload)


def check_report(blob: bytes, puzzles: int, n: int, pin=None) -> tuple[int, dict]:
    """Number of failed puzzles in a ``--report`` file, and what it found."""
    info = {"sha256": sha256(blob)}
    if pin is not None and info["sha256"] != pin:
        info["error"] = "report differs from the pinned sha256"
        return puzzles, info
    try:
        lines = blob.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        info["error"] = "report is not UTF-8"
        return puzzles, info
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except ValueError:
            records.append(None)
    hams = {}
    for rec in records[:-1]:
        if not isinstance(rec, dict) or rec.get("type") != "puzzle":
            continue
        idx, ham = rec.get("index"), rec.get("final_hamming")
        if (type(idx) is int and 0 <= idx < puzzles and idx not in hams
                and type(ham) is int and 0 <= ham <= n):
            hams[idx] = ham
    agg = records[-1] if records else None
    exact = sum(1 for h in hams.values() if h == 0) / puzzles
    if (not isinstance(agg, dict) or agg.get("type") != "aggregate"
            or agg.get("n_puzzles") != puzzles or agg.get("exact_rate") != exact):
        info["error"] = "aggregate missing or disagrees with a recount of the records"
        return puzzles, info
    info["exact_rate"] = exact
    return puzzles - len(hams), info


def check_model(blob: bytes, extents: tuple[int, ...], pin=None) -> tuple[bool, dict]:
    """Whether a JSW1 model file is well formed for the grid (or pinned)."""
    info = {"sha256": sha256(blob)}
    if pin is not None:
        ok = info["sha256"] == pin
        if not ok:
            info["error"] = "model differs from the pinned sha256"
        return ok, info
    try:
        magic = blob[:4]
        version, rank = struct.unpack_from("<II", blob, 4)
        ext = struct.unpack_from(f"<{rank}I", blob, 12) if rank in (2, 3) else None
        d, _recipe = struct.unpack_from("<II", blob, 12 + 4 * rank)
    except struct.error:
        info["error"] = "truncated model header"
        return False, info
    n = math.prod(extents)
    header = 20 + 4 * rank
    floats = n * n * n * d + n * n + NUM_REL_CLASSES * 2 * d + NUM_REL_CLASSES
    if (magic != b"JSW1" or version != 1 or ext != tuple(extents)
            or len(blob) != header + 4 * floats):
        info["error"] = "model header or size does not match the grid"
        return False, info
    weights = array("f", blob[header:])
    if sys.byteorder == "big":
        weights.byteswap()
    if not all(math.isfinite(w) for w in weights):
        info["error"] = "model has non-finite weights"
        return False, info
    return True, info
