"""Shared configuration for the benchmark/reproduction harness.

Each file under ``benchmarks/`` regenerates one table or figure of the
paper and checks it against the published values, tolerances and rules
that the experiment registry (``repro.core.experiments``) carries.  Run
with::

    pytest benchmarks/ --benchmark-only

Benchmarks use ``benchmark.pedantic(..., rounds=1)`` — the experiments
are deterministic, and a single round keeps the full harness to a few
minutes.  Regenerated rows are attached to ``benchmark.extra_info`` and
printed, so the harness output stands in for the paper's figures.
"""

import dataclasses

import pytest

from repro.core.experiments import get_experiment
from repro.thermal.solver import SolverConfig

#: Grid used for benchmark-quality thermal solves (the calibration grid).
BENCH_GRID = SolverConfig(nx=48, ny=48)


@pytest.fixture(scope="session")
def bench_grid():
    return BENCH_GRID


def run_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def assert_targets(experiment, result, targets=None):
    """Every (or each given) registry target accepts *result*."""
    for target in targets or experiment.targets:
        paper, measured, grade = experiment.grade(target, result)
        assert experiment.accepts(target, result), (
            f"{experiment.id} {target.name}: measured {measured:.3f}, "
            f"paper {paper}, {grade}"
        )


def accepts(experiment_id, target_name, measured):
    """Does the number *measured* satisfy a registry target's rule?"""
    experiment = get_experiment(experiment_id)
    target = dataclasses.replace(
        experiment.target(target_name), measured=lambda _result: measured
    )
    return experiment.accepts(target, {})
