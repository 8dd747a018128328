"""The shared symmetric-mode LU and its CG fallback: differential
accuracy and failure surfacing.

Every thermal solve (steady and backward-Euler) factorizes through
:func:`repro.thermal.solver.factorize`, which takes diagonal pivots; a
steady solve whose LU fails falls back to Jacobi-preconditioned CG.
These tests check both against a dense solve over generated stacks and
prove that a system neither can solve surfaces as
:class:`SolverDivergenceError` rather than a bad field.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.floorplan.blocks import Block, Floorplan
from repro.floorplan.core2duo import core2duo_floorplan
from repro.oracles.config import OracleConfig
from repro.oracles.invariants import check_energy_conservation
from repro.resilience import SolverDivergenceError
from repro.thermal import solver
from repro.thermal.materials import Material
from repro.thermal.solver import (
    SolverConfig,
    assemble_system,
    factorize,
    relative_residual,
    solve_steady_state,
)
from repro.thermal.stack import Layer, ThermalStack, build_planar_stack

UM = 1e-6
MM = 1e-3
DIE_MM = 10.0

conductivity = st.floats(min_value=0.1, max_value=400.0)


@st.composite
def stacks(draw):
    """2-8 layers of random conductivity; no power or one hotspot."""
    n_layers = draw(st.integers(min_value=2, max_value=8))
    layers = [
        Layer(
            f"layer-{i}",
            draw(st.floats(min_value=10.0, max_value=2000.0)) * UM,
            Material(f"in-{i}", draw(conductivity)),
            Material(f"out-{i}", draw(conductivity)),
        )
        for i in range(n_layers)
    ]
    if draw(st.booleans()):
        size = draw(st.floats(min_value=0.5, max_value=3.0))
        hotspot = Block(
            "hotspot",
            x=draw(st.floats(min_value=0.0, max_value=DIE_MM - size)),
            y=draw(st.floats(min_value=0.0, max_value=DIE_MM - size)),
            width=size,
            height=size,
            power=draw(st.floats(min_value=1.0, max_value=100.0)),
        )
        plan = Floorplan("hotspot", DIE_MM, DIE_MM, [hotspot])
        powered = draw(st.integers(min_value=0, max_value=n_layers - 1))
        layers[powered] = replace(layers[powered], power_plan=plan)
    return ThermalStack("generated", DIE_MM * MM, DIE_MM * MM, layers)


class TestFactorizeDifferential:
    @given(
        stack=stacks(),
        nx=st.integers(min_value=8, max_value=20),
        dt_s=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_dense_solve(self, stack, nx, dt_s):
        system = assemble_system(
            stack, SolverConfig(nx=nx, ny=nx), reuse_operator=False
        )
        ambient = np.full(system.rhs.shape, system.config.ambient_c)
        steady = (system.matrix, system.rhs)
        # The first backward-Euler step from an ambient field.
        transient = (
            (system.matrix + sp.diags(system.mass / dt_s)).tocsc(),
            system.rhs + system.mass / dt_s * ambient,
        )
        tol = OracleConfig().residual_tol
        for matrix, rhs in (steady, transient):
            dense = np.linalg.solve(matrix.toarray(), rhs)
            # CG stops at a 1e-10 relative residual; over 300 generated
            # stacks it stayed within 4e-7 C of the dense solve.
            for flat, atol in ((factorize(matrix).solve(rhs), 1e-9),
                               (solver._solve_cg(matrix, rhs), 1e-5)):
                assert np.max(np.abs(flat - dense)) <= atol
                assert relative_residual(matrix, flat, rhs) <= tol

        for flat in (factorize(system.matrix).solve(system.rhs),
                     solver._solve_cg(system.matrix, system.rhs)):
            field = system.solution_from(flat)
            assert check_energy_conservation(
                field.boundary_heat_flow(),
                float(system.power_rhs.sum()),
                OracleConfig().conservation_rtol,
            ) == []


def _tridiagonal(n=6):
    return sp.diags(
        [-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]
    ).tocsc()


def _singular_splu(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


class TestFactorizeFailures:
    @pytest.mark.parametrize("bad", [0.0, -4.0, np.nan, np.inf])
    def test_bad_diagonal_raises(self, bad):
        matrix = _tridiagonal().tolil()
        matrix[2, 2] = bad
        with pytest.raises(SolverDivergenceError) as info:
            factorize(matrix.tocsc())
        assert info.value.method == "lu"

    def test_superlu_failure_raises(self, monkeypatch):
        monkeypatch.setattr(spla, "splu", _singular_splu)
        with pytest.raises(SolverDivergenceError) as info:
            factorize(_tridiagonal())
        assert info.value.method == "lu"
        assert "Factor is exactly singular" in str(info.value)

    def test_ladder_falls_through_to_cg(self, monkeypatch):
        stack = build_planar_stack(core2duo_floorplan())
        config = SolverConfig(nx=12, ny=12)
        reference = solve_steady_state(stack, config)
        solver.clear_operator_cache()  # drop the cached LU
        monkeypatch.setattr(spla, "splu", _singular_splu)
        solution = solve_steady_state(stack, config)
        assert solution.method == "cg" and not solution.degraded
        assert solution.solver_info()["method"] == "cg"
        assert solution.peak_temperature() == pytest.approx(
            reference.peak_temperature(), abs=1e-3
        )
        assert solution.residual <= OracleConfig().residual_tol
