"""Committed output references: one file per workload and input seed.

Exact outputs are stored as the sha256 of their canonical JSON (floats
round-trip exactly through ``repr``).  Temperatures are stored as values
and compared within ``tolerance_c``; values derived from temperatures
(the coupled loop's V/f, power and performance traces) are stored as
values and compared within ``rel_tolerance``.  Each file records both.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Temperature tolerance, Celsius.  CG-first solves land about 3e-10 C
#: from LU, so this leaves a solver change room and nothing more.
TOLERANCE_C = 1e-6
#: Relative tolerance of values derived from temperatures.  A 3e-10 C
#: change of a ~100 C peak is a few parts in 1e12; the closed loop is
#: stable, so it stays that small in V/f and power.
REL_TOLERANCE = 1e-6
REF_DIR = Path(__file__).resolve().parent / "reference"


def digest(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def record(op: Dict[str, Any]) -> Dict[str, Any]:
    """What the reference keeps of one operation's outputs."""
    return {"exact_sha256": digest(op["exact"]), "temps_c": op["temps_c"],
            "derived": op["derived"]}


def path(workload: str, seed: int) -> Path:
    return REF_DIR / workload / f"seed-{seed}.json"


def load(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    try:
        with open(path(workload, seed), encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def write(workload: str, seed: int, units: Dict[str, List[Dict[str, Any]]]) -> Path:
    """Record every operation's outputs of one run as the reference."""
    target = path(workload, seed)
    target.parent.mkdir(parents=True, exist_ok=True)
    data = {
        "workload": workload,
        "seed": seed,
        "tolerance_c": TOLERANCE_C,
        "rel_tolerance": REL_TOLERANCE,
        "units": {
            unit: {op["name"]: record(op) for op in ops}
            for unit, ops in units.items()
        },
    }
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return target


def mismatch(op: Dict[str, Any], expected: Optional[Dict[str, Any]],
             tolerance_c: float, rel_tolerance: float) -> Optional[str]:
    """Why *op* differs from its reference record, or None if it matches."""
    if expected is None:
        return "no reference for this operation"
    if digest(op["exact"]) != expected["exact_sha256"]:
        return "exact outputs differ from the reference"
    got, want = op["temps_c"], expected["temps_c"]
    if set(got) != set(want):
        return "temperature keys differ from the reference"
    worst = max((abs(got[k] - want[k]) for k in want), default=0.0)
    if not worst <= tolerance_c:
        return f"temperatures differ by up to {worst:.3g} C (tolerance {tolerance_c:g} C)"
    got, want = _flatten(op["derived"]), _flatten(expected["derived"])
    if set(got) != set(want):
        return "derived value keys differ from the reference"
    off = sorted(k for k in want
                 if not math.isclose(got[k], want[k], rel_tol=rel_tolerance))
    if off:
        return (f"{len(off)} derived value(s) differ beyond relative tolerance "
                f"{rel_tolerance:g}, first {off[0]}")
    return None


def _flatten(values: Dict[str, Any]) -> Dict[str, float]:
    """Scalars as they are, each list element as ``name[i]``."""
    flat: Dict[str, float] = {}
    for key, value in values.items():
        if isinstance(value, list):
            flat.update((f"{key}[{i}]", v) for i, v in enumerate(value))
        else:
            flat[key] = value
    return flat


def identical(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Bit-identical outputs, temperatures and derived values included."""
    parts = ("exact", "temps_c", "derived")
    return digest([a[k] for k in parts]) == digest([b[k] for k in parts])
