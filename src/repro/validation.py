"""Acceptance harness: run every experiment and grade it against the paper.

Produces the machine-readable counterpart of EXPERIMENTS.md: one
:class:`Check` per :class:`~repro.core.experiments.Target` of each
registered experiment, graded ``pass`` (within tolerance), ``shape``
(ordering/direction reproduced but the absolute value deviates —
acceptable per DESIGN.md's reproduction contract), or ``fail``.  The
published values, tolerances and rules all live in the registry.
Driven by ``python -m repro validate`` and by the integration test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.experiments import (
    FAIL,
    PASS,
    SHAPE,
    get_experiment,
    list_experiments,
)
from repro.thermal.solver import SolverConfig


@dataclass(frozen=True)
class Check:
    """One graded quantity.

    Attributes:
        experiment: Paper artifact id (e.g. ``figure-8``).
        name: Quantity label.
        paper: Published value (None for pure-shape checks).
        measured: Our value.
        grade: ``pass`` / ``shape`` / ``fail``.
        note: Human-readable context.
    """

    experiment: str
    name: str
    paper: Optional[float]
    measured: float
    grade: str
    note: str = ""

    def render(self) -> str:
        paper = "-" if self.paper is None else f"{self.paper:8.2f}"
        marker = {PASS: "PASS ", SHAPE: "SHAPE", FAIL: "FAIL "}[self.grade]
        note = f"  ({self.note})" if self.note else ""
        return (
            f"[{marker}] {self.experiment:10} {self.name:38} "
            f"paper {paper}  measured {self.measured:8.2f}{note}"
        )


@dataclass
class ValidationReport:
    """All checks from one validation run."""

    checks: List[Check] = field(default_factory=list)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    @property
    def failures(self) -> List[Check]:
        return [c for c in self.checks if c.grade == FAIL]

    @property
    def counts(self) -> Dict[str, int]:
        counts = {PASS: 0, SHAPE: 0, FAIL: 0}
        for check in self.checks:
            counts[check.grade] += 1
        return counts

    def render(self) -> str:
        lines = [check.render() for check in self.checks]
        counts = self.counts
        lines.append(
            f"\n{counts[PASS]} pass, {counts[SHAPE]} shape-only, "
            f"{counts[FAIL]} fail over {len(self.checks)} checks"
        )
        return "\n".join(lines)


def validate_experiment(
    report: ValidationReport, experiment_id: str, **kwargs: Any
) -> None:
    """Run one registered experiment and grade it against its targets."""
    experiment = get_experiment(experiment_id)
    result = experiment.run(**kwargs)
    for target in experiment.targets:
        paper, measured, grade = experiment.grade(target, result)
        report.add(Check(
            experiment_id, target.name, paper, measured, grade, target.note,
        ))


def run_validation(
    grid: Optional[SolverConfig] = None,
    scale: int = 16,
    length_factor: float = 0.5,
    include_memory: bool = True,
) -> ValidationReport:
    """Grade every registered experiment that declares targets.

    Thermal experiments run on *grid*; figure 5 runs a representative
    workload subset at *scale* and *length_factor* (skipped unless
    *include_memory*); the headlines skip their thermal solve.
    """
    grid = grid or SolverConfig(nx=48, ny=48)
    kwargs: Dict[str, Dict[str, Any]] = {
        "figure-5": dict(
            workloads=["gauss", "sus", "svm", "ssym", "savdf"],
            scale=scale,
            length_factor=length_factor,
        ),
        "headlines": dict(thermal=False),
    }
    report = ValidationReport()
    for experiment_id in list_experiments():
        if experiment_id == "figure-5" and not include_memory:
            continue
        if get_experiment(experiment_id).targets:
            validate_experiment(
                report, experiment_id,
                **kwargs.get(experiment_id, {"nx": grid.nx}),
            )
    return report
