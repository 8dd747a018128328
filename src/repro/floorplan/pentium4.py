"""Pentium 4-family planar and 3D floorplans for the Logic+Logic study.

Section 4 of the paper takes a deeply pipelined microprocessor from the
Intel Pentium 4 family (147 W skew, Table 5), builds a 3D floorplan on 50%
of the planar footprint (Figure 10), and reports a ~1.3x peak power-density
increase after iterative hotspot repair, versus a 2x worst case with no
power savings (Figure 11).

The planar floorplan here reproduces the structural constraints of
Figure 9: the SIMD unit sits between the FP unit and the FP register file
(RF), the data cache (D$) is across the die from the farthest functional
unit (F), and the hottest power density is over the instruction scheduler.
The 3D floorplan reproduces Figure 10: D$ overlaps F, and FP overlaps the
SIMD/RF area, with the higher-power die placed closest to the heat sink.

The die outline (~200 mm^2) and block powers were calibrated against the
published thermal operating points: 147 W planar peaks at ~98.6 C under
the desktop package model, and the compressed worst-case stack at ~125 C
(Figure 11).
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.floorplan.blocks import Block, Floorplan

#: Total power of the Pentium 4 skew used in Section 4 / Table 5.
P4_TOTAL_POWER_W = 147.0

#: Power saving of the 3D floorplan at constant frequency (Section 4).
P4_3D_POWER_FACTOR = 0.85

#: Geometric calibration scale applied to the unit layouts below.  The
#: resulting planar die is 14.85 x 13.5 mm (~200 mm^2), consistent with a
#: large 130/90 nm-class Pentium 4 derivative carrying a 147 W skew.
GEOM_SCALE = 1.35

#: Planar die outline before scaling, mm.
_UNIT_PLANAR_W = 11.0
_UNIT_PLANAR_H = 10.0

#: 3D die outline before scaling, mm.  7.5 x 7.5 scaled = ~102.5 mm^2,
#: i.e. ~51% of the planar footprint ("a new 3D floorplan ... requires
#: only 50% of the original footprint").
_UNIT_STACKED_W = 7.5
_UNIT_STACKED_H = 7.5

# Planar block powers (W), totalling 147 W, with the hottest density over
# the instruction scheduler as the paper states.
_PLANAR_POWERS: Dict[str, float] = {
    "L2": 15.0,
    "FP": 14.5,
    "SIMD": 12.0,
    "RF": 9.0,
    "Sched": 15.5,
    "IntRF": 8.0,
    "F": 17.0,
    "D$": 8.0,
    "MOB": 7.0,
    "Retire": 6.0,
    "Rename": 8.0,
    "TC": 7.0,
    "BPU": 6.0,
    "FE": 7.0,
    "Ucode": 2.0,
    "BusIF": 5.0,
}


def pentium4_planar_floorplan() -> Floorplan:
    """The planar (2D) floorplan of Figure 9, totalling 147 W.

    Structural constraints reproduced from the paper:

    * ``SIMD`` is placed between ``FP`` and ``RF`` (the planar layout is
      optimized for SIMD at the cost of two cycles of FP wire latency).
    * ``D$`` and the integer functional units ``F`` are in different rows,
      so worst-case load data crosses the whole D$ plus the whole F array.
    * The instruction scheduler ``Sched`` has the highest power density.
    """
    p = _PLANAR_POWERS
    plan = Floorplan(
        "Pentium 4 (2D baseline)", _UNIT_PLANAR_W, _UNIT_PLANAR_H
    )
    plan.add(Block("L2", 0.0, 0.0, 4.0, 10.0, p["L2"]))
    # Bottom row: FP | SIMD | RF (Figure 9).
    plan.add(Block("FP", 4.0, 0.0, 2.2, 2.2, p["FP"]))
    plan.add(Block("SIMD", 6.2, 0.0, 2.4, 2.2, p["SIMD"]))
    plan.add(Block("RF", 8.6, 0.0, 2.4, 2.2, p["RF"]))
    # Execution row: scheduler (hottest), integer RF, functional units.
    plan.add(Block("Sched", 4.0, 2.2, 2.2, 2.2, p["Sched"]))
    plan.add(Block("IntRF", 6.2, 2.2, 1.6, 2.2, p["IntRF"]))
    plan.add(Block("F", 7.8, 2.2, 3.2, 2.2, p["F"]))
    # Memory row: data cache, memory-order buffer, retirement.
    plan.add(Block("D$", 4.0, 4.4, 3.4, 2.2, p["D$"]))
    plan.add(Block("MOB", 7.4, 4.4, 1.8, 2.2, p["MOB"]))
    plan.add(Block("Retire", 9.2, 4.4, 1.8, 2.2, p["Retire"]))
    # Front-end row: rename/alloc, trace cache, branch predictor.
    plan.add(Block("Rename", 4.0, 6.6, 2.4, 1.8, p["Rename"]))
    plan.add(Block("TC", 6.4, 6.6, 2.8, 1.8, p["TC"]))
    plan.add(Block("BPU", 9.2, 6.6, 1.8, 1.8, p["BPU"]))
    # Top strip: fetch/decode, microcode ROM, bus interface.
    plan.add(Block("FE", 4.0, 8.4, 3.6, 1.6, p["FE"]))
    plan.add(Block("Ucode", 7.6, 8.4, 1.8, 1.6, p["Ucode"]))
    plan.add(Block("BusIF", 9.4, 8.4, 1.6, 1.6, p["BusIF"]))
    return plan.scaled_geometry(GEOM_SCALE)


def pentium4_3d_floorplans(
    power_factor: float = P4_3D_POWER_FACTOR,
) -> Tuple[Floorplan, Floorplan]:
    """The two-die 3D floorplan of Figure 10.

    Blocks keep (approximately) their planar areas but are distributed
    across two dies on roughly half the planar footprint; the shared L2 is
    split between the dies (intra-block splitting, which the paper applies
    to caches).  Block powers are scaled by *power_factor* (default 0.85:
    the paper's 15% power reduction from removed repeaters, latches, and
    clock-grid metal).

    Overlap structure reproduced from the paper:

    * ``D$`` (top die, low power) overlaps ``F`` (bottom die), halving the
      load-to-use wire path.
    * ``FP`` (top die) overlaps the ``SIMD``/``RF`` area (bottom die),
      removing the two cycles of FP wire latency without hurting SIMD.
    * The execution cluster (Sched/Rename overlap) sits adjacent to the
      FP/SIMD overlap, matching the planar layout's hot execution core.
    * The higher-power die is the bottom die, placed closest to the heat
      sink.

    The combined through-stack peak power density of this floorplan is
    ~1.3-1.45x the planar peak — the outcome of the paper's iterative
    hotspot-repair process (see
    :func:`repro.floorplan.stacking.repair_hotspots`).

    Returns:
        ``(bottom_die, top_die)`` floorplans; bottom is heat-sink side.
    """
    p = {name: power * power_factor for name, power in _PLANAR_POWERS.items()}
    w, h = _UNIT_STACKED_W, _UNIT_STACKED_H

    bottom = Floorplan("Pentium 4 3D (bottom die)", w, h)
    bottom.add(Block("L2b", 0.0, 0.0, 7.5, 2.2, p["L2"] / 2))
    bottom.add(Block("SIMD", 0.0, 2.2, 2.4, 2.2, p["SIMD"]))
    bottom.add(Block("RF", 2.4, 2.2, 2.0, 2.2, p["RF"]))
    bottom.add(Block("F", 4.4, 2.2, 3.1, 2.2, p["F"]))
    bottom.add(Block("Sched", 0.0, 4.4, 2.2, 2.2, p["Sched"]))
    bottom.add(Block("IntRF", 2.2, 4.4, 1.6, 2.2, p["IntRF"]))
    bottom.add(Block("Retire", 3.8, 4.4, 1.8, 2.2, p["Retire"]))
    bottom.add(Block("BusIF", 5.6, 4.4, 1.9, 2.2, p["BusIF"]))

    top = Floorplan("Pentium 4 3D (top die)", w, h)
    top.add(Block("L2t", 0.0, 0.0, 7.5, 2.2, p["L2"] / 2))
    top.add(Block("FP", 0.0, 2.2, 2.3, 2.2, p["FP"]))
    top.add(Block("MOB", 2.4, 2.2, 2.0, 2.2, p["MOB"]))
    top.add(Block("D$", 4.4, 2.2, 3.1, 2.2, p["D$"]))
    top.add(Block("Rename", 0.0, 4.4, 2.2, 2.2, p["Rename"]))
    top.add(Block("TC", 2.2, 4.4, 2.8, 2.2, p["TC"]))
    top.add(Block("BPU", 5.0, 4.4, 1.6, 2.2, p["BPU"]))
    top.add(Block("FE", 0.0, 6.6, 3.6, 0.9, p["FE"]))
    top.add(Block("Ucode", 3.6, 6.6, 1.8, 0.9, p["Ucode"]))
    return (
        bottom.scaled_geometry(GEOM_SCALE),
        top.scaled_geometry(GEOM_SCALE),
    )


def pentium4_worstcase_3d() -> Tuple[Floorplan, Floorplan]:
    """The "3D Worstcase" configuration of Figure 11.

    No power savings (full 147 W) and an exact 2x power-density increase:
    the planar floorplan is compressed geometrically by 1/sqrt(2) per axis
    onto each of the two dies, with half of each block's power per die, so
    each die alone matches the planar density and the stack doubles it —
    hot spots land exactly on hot spots.

    Returns:
        ``(bottom_die, top_die)``; both dies are identical by construction.
    """
    planar = pentium4_planar_floorplan()
    scale = 1.0 / math.sqrt(2.0)

    def compressed(name: str) -> Floorplan:
        plan = Floorplan(
            name,
            planar.die_width * scale,
            planar.die_height * scale,
        )
        for block in planar.blocks:
            plan.add(
                Block(
                    block.name,
                    block.x * scale,
                    block.y * scale,
                    block.width * scale,
                    block.height * scale,
                    block.power / 2.0,
                )
            )
        return plan

    return (
        compressed("Pentium 4 3D worst case (bottom die)"),
        compressed("Pentium 4 3D worst case (top die)"),
    )
