"""High-level thermal simulation entry points.

Thin convenience wrappers tying floorplans, stack builders, and the solver
together — these are the calls the experiment harnesses use.
"""

from __future__ import annotations

from typing import Optional

from repro.floorplan.blocks import Floorplan
from repro.thermal.solver import SolverConfig, ThermalSolution, solve_steady_state
from repro.thermal.stack import build_3d_stack, build_planar_stack


def simulate_planar(
    die: Floorplan, config: Optional[SolverConfig] = None
) -> ThermalSolution:
    """Solve a single-die (2D) configuration in the desktop package."""
    return solve_steady_state(build_planar_stack(die), config)


def simulate_stack(
    die_near_sink: Floorplan,
    die_near_bumps: Floorplan,
    die2_metal: str = "cu",
    config: Optional[SolverConfig] = None,
) -> ThermalSolution:
    """Solve a face-to-face two-die (3D) configuration.

    ``die_near_sink`` should be the higher-power die ("In all cases the
    highest power die is placed closest to the heat sink", Section 3);
    ``die2_metal`` should be ``"al"`` when die #2 is a DRAM die.
    """
    stack = build_3d_stack(die_near_sink, die_near_bumps, die2_metal=die2_metal)
    return solve_steady_state(stack, config)
