"""Pure invariant predicates shared by the per-engine oracle hooks.

Each function returns a list of problem strings (empty when the
invariant holds) so callers can decide how to record/act; none of them
raises.  The physics/bookkeeping they encode:

* **Thermal** (paper Section 2.3): at steady state every watt injected
  by the power map must leave through the boundary faces, and no cell
  can sit below ambient or above the silicon damage ceiling.
* **Memsim** (Sections 3–4): cache sets can never exceed their
  associativity, the coherence directory only names lines actually
  resident in an L1, MSHR/ROB occupancy is bounded by the config, and
  all replay counters advance monotonically chunk over chunk.
* **Uarch** (Table 1): IPC is bounded by the machine width and CPMA by
  loose per-kernel sanity bands around the published behaviour.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

#: Silicon damage ceiling, Celsius: a die melts far below this, so a
#: hotter cell is solver garbage, not physics.
TEMP_MAX_C = 400.0

#: Lowest CPMA the replay's issue model allows (``memsim.replay``).
#: Issue slots advance one per cpu per cycle, but a reference may start
#: after its slot, so slots fall behind real time during stalls; as
#: ``measure_start`` is the latest retire at the warmup boundary, the
#: measured region spends that lag and can beat one reference per
#: cycle.  The reorder window bounds it instead: a reference holds one
#: of a cpu's 48 window slots from issue to retirement, at least a
#: 4-cycle L1 hit, so a cpu retires at most 48 references per 4 cycles.
CPMA_FLOOR = 4 / 48

#: Loose CPMA sanity bands per Table 1 RMS kernel, (lo, hi) cycles per
#: memory access: the issue-model floor, and ceilings wide enough to
#: hold across all four memory configurations, scales, and trace
#: lengths (golden baseline CPMAs span ~1.4-11); tripping one means
#: bookkeeping corruption, not a modelling regression.
CPMA_BANDS: Dict[str, Tuple[float, float]] = {
    "conj": (CPMA_FLOOR, 120.0),
    "dsym": (CPMA_FLOOR, 120.0),
    "gauss": (CPMA_FLOOR, 120.0),
    "pcg": (CPMA_FLOOR, 200.0),
    "smvm": (CPMA_FLOOR, 150.0),
    "ssym": (CPMA_FLOOR, 120.0),
    "strans": (CPMA_FLOOR, 120.0),
    "savdf": (CPMA_FLOOR, 150.0),
    "savif": (CPMA_FLOOR, 150.0),
    "sus": (CPMA_FLOOR, 150.0),
    "svd": (CPMA_FLOOR, 100.0),
    "svm": (CPMA_FLOOR, 120.0),
}

#: Fallback band for kernels outside Table 1 (extensions).
DEFAULT_CPMA_BAND: Tuple[float, float] = (CPMA_FLOOR, 500.0)


def check_energy_conservation(
    boundary_w: float, power_w: float, rtol: float = 1e-5
) -> List[str]:
    """Steady-state balance: boundary heat flow == injected power."""
    tol = max(rtol * abs(power_w), 1e-6)
    gap = abs(boundary_w - power_w)
    if gap > tol:
        return [
            "energy conservation violated: boundary flow "
            f"{boundary_w:.6g} W vs injected {power_w:.6g} W "
            f"(gap {gap:.3g} > tol {tol:.3g})"
        ]
    return []


def check_temperature_bounds(
    t_min_c: float,
    t_max_c: float,
    ambient_c: float,
    slack_c: float = 1e-6,
) -> List[str]:
    """No steady-state cell below ambient or above the damage ceiling."""
    problems: List[str] = []
    if not (t_min_c == t_min_c and t_max_c == t_max_c):  # NaN check
        problems.append("temperature field contains NaN")
        return problems
    if t_min_c < ambient_c - slack_c:
        problems.append(
            f"temperature {t_min_c:.3f} C below ambient {ambient_c:.3f} C"
        )
    if t_max_c > TEMP_MAX_C:
        problems.append(
            f"temperature {t_max_c:.1f} C above ceiling {TEMP_MAX_C:.1f} C"
        )
    return problems


def check_cache_sets(
    sets: Iterable[Mapping[int, bool]], assoc: int, name: str
) -> List[str]:
    """LRU-set well-formedness: no set may exceed its associativity."""
    problems: List[str] = []
    for idx, lru in enumerate(sets):
        if len(lru) > assoc:
            problems.append(
                f"{name} set {idx} holds {len(lru)} lines "
                f"(associativity {assoc})"
            )
    return problems


def check_directory_consistency(hierarchy) -> List[str]:
    """Every directory bit must name a line resident in that cpu's L1."""
    problems: List[str] = []
    for line, mask in hierarchy._directory.items():
        if mask == 0:
            problems.append(f"directory holds line {line:#x} with empty mask")
            continue
        for cpu in range(hierarchy.config.n_cpus):
            if mask & (1 << cpu) and not hierarchy.l1s[cpu].contains(line):
                problems.append(
                    f"directory says cpu {cpu} caches line {line:#x} "
                    "but its L1 does not"
                )
        if len(problems) >= 4:  # cap the detail noise; one trip suffices
            break
    return problems


def check_counter_deltas(
    before: Mapping[str, float], after: Mapping[str, float]
) -> List[str]:
    """Monotone counters: nothing replay counts may ever decrease."""
    problems: List[str] = []
    for key, prev in before.items():
        now = after.get(key, prev)
        if now < prev:
            problems.append(
                f"counter {key} went backwards: {prev:.6g} -> {now:.6g}"
            )
    return problems


def check_rob_occupancy(
    occupancies: Iterable[int], window: int, name: str = "rob"
) -> List[str]:
    """Reorder-window conservation: occupancy can never exceed the window."""
    problems: List[str] = []
    for cpu, occ in enumerate(occupancies):
        if occ > window or occ < 0:
            problems.append(
                f"{name}[{cpu}] occupancy {occ} outside [0, {window}]"
            )
    return problems


def check_cpi_band(
    ipc: float, width: int, floor: float = 0.01
) -> List[str]:
    """IPC must sit in (floor, machine width] — CPI sanity band."""
    if not (ipc == ipc) or ipc <= floor or ipc > width:
        return [f"IPC {ipc:.4g} outside sanity band ({floor}, {width}]"]
    return []


def check_cpma_band(kernel: str, cpma: float) -> List[str]:
    """CPMA within the loose per-Table-1-kernel sanity band."""
    lo, hi = CPMA_BANDS.get(kernel, DEFAULT_CPMA_BAND)
    if not (cpma == cpma) or cpma < lo or cpma > hi:
        return [
            f"kernel {kernel!r} CPMA {cpma:.4g} outside band [{lo}, {hi}]"
        ]
    return []
