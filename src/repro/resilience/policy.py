"""Retry/degradation ladders for the thermal engines.

Steady state (:func:`solve_steady_state_resilient`) walks a three-rung
ladder until one rung produces a guarded solution:

1. **Direct LU** — the fast path (identical to
   :func:`repro.thermal.solver.solve_steady_state`).
2. **Preconditioned CG** — Jacobi-preconditioned conjugate gradients on
   the same system; the operator is SPD, so CG converges even where an
   LU factorization hits pathological pivoting.
3. **Coarser grid** — re-discretize at ``nx/coarsen_factor`` and solve
   that; the answer is legitimate physics at lower resolution and is
   flagged ``degraded=True`` so downstream consumers know.

Every rung's output must pass the run guards (finite values, relative
residual below tolerance, plausible temperature bounds) before it is
accepted.  A :class:`~repro.resilience.faults.FaultInjector` can force
individual rungs to fail, which is how tests prove each fallback
actually engages.

The transient integrator gets a **step-halving retry**
(:func:`solve_transient_resilient`): if an integration diverges, it is
re-run with half the time step, up to ``max_halvings`` times.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.resilience.errors import GuardViolation, SolverDivergenceError
from repro.resilience.faults import FaultInjector
from repro.resilience.guards import (
    RESIDUAL_TOL,
    check_finite,
    check_residual,
    check_temperature_bounds,
)
from repro.thermal.solver import (
    DiscreteSystem,
    SolverConfig,
    ThermalSolution,
    assemble_system,
    factorize,
)
from repro.thermal.stack import ThermalStack
from repro.thermal.transient import TransientResult, solve_transient

#: CG iteration cap; the Jacobi-preconditioned FV system converges in a
#: few hundred iterations even at nx=64 — far below this.
_CG_MAXITER = 20_000


@dataclass
class LadderReport:
    """How a resilient solve got its answer.

    Attributes:
        method: Rung that produced the accepted solution (``"lu"``,
            ``"cg"``, ``"lu-coarse"``, ``"cg-coarse"``).
        residual: Relative residual of the accepted solution.
        degraded: True if the answer came from the coarse-grid rung.
        attempts: Human-readable log of every rung tried.
    """

    method: str = ""
    residual: float = float("nan")
    degraded: bool = False
    attempts: List[str] = field(default_factory=list)


def _solve_lu(system: DiscreteSystem) -> np.ndarray:
    return factorize(system.matrix).solve(system.rhs)


def _solve_cg(system: DiscreteSystem, tol: float) -> np.ndarray:
    diagonal = system.matrix.diagonal()
    if np.any(diagonal <= 0) or not np.all(np.isfinite(diagonal)):
        raise SolverDivergenceError(
            "system diagonal is not positive; CG preconditioner undefined",
            method="cg",
        )
    precond = sp.diags(1.0 / diagonal)
    solution, info = spla.cg(
        system.matrix,
        system.rhs,
        rtol=min(tol, 1e-8),
        atol=0.0,
        maxiter=_CG_MAXITER,
        M=precond,
    )
    if info != 0:
        raise SolverDivergenceError(
            f"CG did not converge (info={info})", method="cg"
        )
    return solution


def _guarded_solution(
    system: DiscreteSystem,
    flat: np.ndarray,
    method: str,
    tol: float,
    degraded: bool,
) -> ThermalSolution:
    residual = check_residual(
        system.matrix, flat, system.rhs, tol=tol, method=method
    )
    solution = system.solution_from(flat)
    check_temperature_bounds(solution.temperature)
    solution.residual = residual
    solution.method = method
    solution.degraded = degraded
    return solution


def solve_steady_state_resilient(
    stack: ThermalStack,
    config: Optional[SolverConfig] = None,
    residual_tol: float = RESIDUAL_TOL,
    coarsen_factor: int = 2,
    injector: Optional[FaultInjector] = None,
    report: Optional[LadderReport] = None,
) -> ThermalSolution:
    """Steady-state solve with the LU -> CG -> coarse-grid fallback ladder.

    Args:
        stack: Configuration to solve.
        config: Discretization parameters.
        residual_tol: Relative-residual acceptance threshold.
        coarsen_factor: Grid reduction for the last rung.
        injector: Optional fault injector; rungs named ``"lu"``,
            ``"cg"``, ``"coarse"`` can be forced to fail.
        report: Optional ladder report, filled in as rungs are tried.

    Returns:
        A :class:`ThermalSolution` with ``residual``, ``method``, and
        ``degraded`` populated.

    Raises:
        SolverDivergenceError: every rung failed.
        GuardViolation: the assembled system itself is invalid (e.g. a
            non-finite or negative power injection) — no ladder rung can
            repair bad input.
    """
    config = config or SolverConfig()
    report = report if report is not None else LadderReport()
    system = assemble_system(stack, config)
    # Bad input is not recoverable by switching solvers: reject it here.
    if not np.all(np.isfinite(system.rhs)):
        raise GuardViolation(
            "assembled source vector contains non-finite power",
            guard="power-map",
        )
    check_finite(system.matrix.data, "system matrix")

    # Rung 1: direct LU.
    try:
        if injector is not None and injector.should_fail("lu"):
            raise SolverDivergenceError("fault injection: LU", method="lu")
        flat = _solve_lu(system)
        solution = _guarded_solution(system, flat, "lu", residual_tol, False)
        report.method, report.residual = "lu", solution.residual
        report.attempts.append(f"lu: ok (residual {solution.residual:.2e})")
        return solution
    except (SolverDivergenceError, GuardViolation) as exc:
        report.attempts.append(f"lu: {exc}")

    # Rung 2: Jacobi-preconditioned CG on the same system.
    try:
        if injector is not None and injector.should_fail("cg"):
            raise SolverDivergenceError("fault injection: CG", method="cg")
        flat = _solve_cg(system, residual_tol)
        solution = _guarded_solution(system, flat, "cg", residual_tol, False)
        report.method, report.residual = "cg", solution.residual
        report.attempts.append(f"cg: ok (residual {solution.residual:.2e})")
        return solution
    except (SolverDivergenceError, GuardViolation) as exc:
        report.attempts.append(f"cg: {exc}")

    # Rung 3: coarser grid, explicitly degraded.
    coarse = replace(
        config,
        nx=max(4, config.nx // coarsen_factor),
        ny=max(4, config.ny // coarsen_factor),
    )
    coarse_system = assemble_system(stack, coarse)
    last_error: Exception
    for method, solver in (("lu-coarse", _solve_lu),
                           ("cg-coarse", lambda s: _solve_cg(s, residual_tol))):
        try:
            if injector is not None and injector.should_fail("coarse"):
                raise SolverDivergenceError(
                    f"fault injection: {method}", method=method
                )
            flat = solver(coarse_system)
            solution = _guarded_solution(
                coarse_system, flat, method, residual_tol, True
            )
            report.method, report.residual = method, solution.residual
            report.degraded = True
            report.attempts.append(
                f"{method}: ok at nx={coarse.nx} (residual {solution.residual:.2e})"
            )
            return solution
        except (SolverDivergenceError, GuardViolation) as exc:
            report.attempts.append(f"{method}: {exc}")
            last_error = exc

    raise SolverDivergenceError(
        "all fallback rungs failed: " + "; ".join(report.attempts),
        method="ladder",
        partial={"attempts": list(report.attempts)},
    ) from last_error


def solve_transient_resilient(
    stack: ThermalStack,
    config: Optional[SolverConfig] = None,
    duration_s: float = 10.0,
    dt_s: float = 0.05,
    max_halvings: int = 3,
    injector: Optional[FaultInjector] = None,
    report: Optional[LadderReport] = None,
    **kwargs,
) -> TransientResult:
    """Transient integration with step-halving retry.

    Runs :func:`repro.thermal.transient.solve_transient`; if the
    integration diverges, retries with the time step halved, up to
    *max_halvings* times.  Extra keyword arguments are forwarded to the
    integrator (initial field, power schedule, checkpointing).

    Raises:
        SolverDivergenceError: still diverging at the smallest step.
    """
    report = report if report is not None else LadderReport()
    dt = dt_s
    last: Optional[SolverDivergenceError] = None
    for halving in range(max_halvings + 1):
        try:
            if injector is not None and injector.should_fail("transient"):
                raise SolverDivergenceError(
                    f"fault injection: transient dt={dt}", method="transient"
                )
            result = solve_transient(
                stack, config, duration_s=duration_s, dt_s=dt, **kwargs
            )
            report.method = f"transient-dt={dt:g}"
            report.degraded = halving > 0
            report.attempts.append(f"dt={dt:g}: ok after {halving} halving(s)")
            return result
        except SolverDivergenceError as exc:
            report.attempts.append(f"dt={dt:g}: {exc}")
            last = exc
            dt /= 2.0
    raise SolverDivergenceError(
        f"transient integration diverged even at dt={dt * 2:g} "
        f"after {max_halvings} halvings",
        method="transient",
        partial={"attempts": list(report.attempts)},
    ) from last
