"""3D die-stack thermal simulation.

Implements the paper's Section 2.3 modeling environment: steady-state heat
conduction (Equation 1 with the time derivative dropped) through the full
stacked-die / package / motherboard system of Figures 1 and 2, with
convective boundary conditions (Equation 2) on the heat-sink and
motherboard faces, solved by a structured-grid finite-volume method.
Material constants follow Table 2.
"""

from repro.thermal.materials import (
    AMBIENT_C,
    MATERIALS,
    TABLE2_CONSTANTS,
    Material,
)
from repro.thermal.stack import (
    DieSpec,
    Layer,
    ThermalStack,
    build_3d_stack,
    build_multi_stack,
    build_planar_stack,
)
from repro.thermal.solver import (
    DiscreteSystem,
    SolverConfig,
    ThermalOperator,
    ThermalSolution,
    assemble_system,
    clear_operator_cache,
    geometry_key,
    operator_cache_stats,
    solve_steady_state,
)
from repro.thermal.transient import TransientResult, solve_transient
from repro.thermal.model import (
    simulate_planar,
    simulate_stack,
)

__all__ = [
    "AMBIENT_C",
    "MATERIALS",
    "TABLE2_CONSTANTS",
    "Material",
    "DieSpec",
    "Layer",
    "ThermalStack",
    "build_multi_stack",
    "build_planar_stack",
    "build_3d_stack",
    "DiscreteSystem",
    "SolverConfig",
    "ThermalOperator",
    "ThermalSolution",
    "TransientResult",
    "assemble_system",
    "clear_operator_cache",
    "geometry_key",
    "operator_cache_stats",
    "solve_steady_state",
    "solve_transient",
    "simulate_planar",
    "simulate_stack",
]
