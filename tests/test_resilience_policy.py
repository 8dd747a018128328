"""Solver failure policy: the steady LU falls back to CG, bad input and
diverging transients raise instead of returning a garbage field."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.floorplan.core2duo import core2duo_floorplan
from repro.oracles.config import OracleConfig
from repro.resilience import GuardViolation, SolverDivergenceError
from repro.thermal import solver
from repro.thermal.solver import SolverConfig, solve_steady_state
from repro.thermal.stack import build_planar_stack
from repro.thermal.transient import solve_transient


@pytest.fixture(scope="module")
def stack():
    return build_planar_stack(core2duo_floorplan())


CFG = SolverConfig(nx=12, ny=12)


class _NanLU:
    """A factor whose solve returns garbage, as a corrupt LU would."""

    def __init__(self):
        self.solves = 0

    def solve(self, rhs):
        self.solves += 1
        return np.full_like(rhs, np.nan)


class TestSteadyLadder:
    def test_healthy_run_uses_lu(self, stack):
        solution = solve_steady_state(stack, CFG)
        assert solution.method == "lu"
        assert not solution.degraded
        assert solution.residual < 1e-8

    def test_forced_lu_failure_falls_back_to_cg(self, stack, monkeypatch):
        reference = solve_steady_state(stack, CFG)
        solver.clear_operator_cache()
        monkeypatch.setattr(solver, "factorize", lambda matrix: _NanLU())
        solution = solve_steady_state(stack, CFG)
        assert solution.method == "cg"
        assert not solution.degraded
        # CG solves the same discrete system: temperatures must agree.
        assert solution.peak_temperature() == pytest.approx(
            reference.peak_temperature(), abs=1e-3
        )

    def test_bad_factor_is_dropped_not_rerun(self, stack, monkeypatch):
        # A factor that returned a non-finite field is dropped from the
        # cached operator: the next solve of the geometry refactorizes
        # instead of re-running it and falling back to CG again.
        bad = _NanLU()
        factors = iter([bad])
        real_factorize = solver.factorize
        monkeypatch.setattr(
            solver, "factorize",
            lambda matrix: next(factors, None) or real_factorize(matrix),
        )
        solver.clear_operator_cache()
        first = solve_steady_state(stack, CFG)
        second = solve_steady_state(stack, CFG)
        assert (first.method, second.method) == ("cg", "lu")
        assert bad.solves == 1
        assert second.peak_temperature() == pytest.approx(
            first.peak_temperature(), abs=1e-3
        )

    def test_every_rung_failing_raises_with_attempt_log(
        self, stack, monkeypatch
    ):
        # LU cannot factorize and CG runs out of iterations: the error
        # names the CG failure and chains the LU one as its context.
        def singular_splu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spla, "splu", singular_splu)
        monkeypatch.setattr(solver, "_CG_MAXITER", 2)
        solver.clear_operator_cache()
        with pytest.raises(SolverDivergenceError) as info:
            solve_steady_state(stack, CFG)
        assert info.value.method == "cg"
        assert info.value.residual > OracleConfig().residual_tol
        assert "did not converge" in str(info.value)
        assert info.value.__context__.method == "lu"
        assert "Factor is exactly singular" in str(info.value.__context__)

    def test_nan_power_is_rejected_not_repaired(self, stack):
        # A NaN power injection is bad input; no solver can fix it.
        # (Before the guard, NaN power silently became *zero* power.)
        bad_plan = core2duo_floorplan().scaled_power(float("nan"))
        bad_stack = build_planar_stack(bad_plan)
        with pytest.raises(GuardViolation) as info:
            solve_steady_state(bad_stack, CFG)
        assert info.value.guard == "power-map"


class TestSolverGuardsWired:
    def test_steady_state_records_residual(self, stack):
        solution = solve_steady_state(stack, CFG)
        assert 0.0 <= solution.residual < 1e-8
        assert solution.method == "lu"
        assert solution.degraded is False


class TestTransientResilience:
    def test_nonfinite_initial_raises(self, stack):
        from repro.thermal.solver import assemble_system

        n = assemble_system(stack, CFG).matrix.shape[0]
        with pytest.raises(SolverDivergenceError, match="non-finite"):
            solve_transient(
                stack, CFG, duration_s=0.2, dt_s=0.1,
                initial=np.full(n, np.nan),
            )

    def test_healthy_transient_not_degraded(self, stack):
        result = solve_transient(stack, CFG, duration_s=0.2, dt_s=0.1)
        assert result.final.degraded is False
        assert len(result.times_s) == 3
