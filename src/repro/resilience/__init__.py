"""Resilience subsystem: error taxonomy, checkpoints, fault injection.

The bottom layer under the repository's three long-running engines —
trace replay (Section 3), the interval performance model (Section 4),
and the finite-volume thermal solver (Section 2.3).  It imports nothing
else from ``repro`` and provides:

* a structured exception taxonomy (:mod:`repro.resilience.errors`),
* checkpoint/resume for interruptible runs
  (:mod:`repro.resilience.checkpoint`), and
* a seeded fault-injection harness proving every degradation path
  engages (:mod:`repro.resilience.faults`).

The guards and fallbacks built on these live with the engines they
protect: the trace-stream guard in :mod:`repro.traces.guard`, the
LU→CG fallback in :func:`repro.thermal.solver.solve_steady_state`.
"""

from repro.resilience.checkpoint import (
    load_checkpoint,
    quarantine_file,
    save_checkpoint,
    verify_checkpoint,
)
from repro.resilience.errors import (
    CheckpointError,
    GuardViolation,
    OracleError,
    ReproError,
    SolverDivergenceError,
    StateIntegrityError,
    TraceCorruptionError,
)
from repro.resilience.faults import WORKER_FAULT_MODES, FaultInjector

__all__ = [
    "ReproError",
    "SolverDivergenceError",
    "TraceCorruptionError",
    "CheckpointError",
    "StateIntegrityError",
    "OracleError",
    "GuardViolation",
    "save_checkpoint",
    "load_checkpoint",
    "verify_checkpoint",
    "quarantine_file",
    "FaultInjector",
    "WORKER_FAULT_MODES",
]
