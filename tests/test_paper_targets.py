"""The experiment registry is the one home of the paper's targets."""

import pytest

from repro.analysis import render_all_figures
from repro.cli import main
from repro.core import memory_on_logic
from repro.core.experiments import (
    FAIL,
    PASS,
    SHAPE,
    Experiment,
    Target,
    get_experiment,
)
from repro.thermal.solver import SolverConfig
from repro.validation import run_validation

FAKE_PEAKS = {"2D 4MB": 88.0, "3D 12MB": 93.0, "3D 32MB": 88.0,
              "3D 64MB": 90.0}


def test_one_patched_target_reaches_every_reader(
    monkeypatch, tmp_path, capsys
):
    monkeypatch.setitem(
        get_experiment("figure-8").paper_values, "3D 12MB", 42.0
    )
    monkeypatch.setattr(
        memory_on_logic, "run_thermal_study",
        lambda *args, **kwargs: dict(FAKE_PEAKS),
    )

    report = run_validation(
        grid=SolverConfig(nx=12, ny=12), include_memory=False
    )
    check = next(c for c in report.checks if c.name == "3D 12MB peak (C)")
    assert (check.paper, check.measured, check.grade) == (42.0, 93.0, SHAPE)

    assert main([
        "memory", "--workloads", "svd", "--scale", "16",
        "--length-factor", "0.2",
    ]) == 0
    row = next(
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("3D 12MB")
    )
    assert "paper    42.00" in row

    render_all_figures(
        tmp_path, scale=16, length_factor=0.2, nx=12, workloads=["svd"]
    )
    assert "3D 12MB — paper: 42.00" in (tmp_path / "figure8.svg").read_text()


def _experiment(*targets):
    return Experiment(
        "x", "t", {"v": 10.0, "row": {"w": 2.0}}, lambda **kw: {},
        targets=targets,
    )


class TestTargetRules:
    def test_pass_then_shape_without_a_bound(self):
        target = Target("v", ("v",), tol=1.0)
        experiment = _experiment(target)
        assert experiment.grade(target, {"v": 10.5}) == (10.0, 10.5, PASS)
        assert experiment.grade(target, {"v": 15.0})[2] == SHAPE
        assert experiment.accepts(target, {"v": 10.5})
        assert not experiment.accepts(target, {"v": 15.0})

    def test_hard_bound_fails_beyond_it(self):
        target = Target("v", ("v",), tol=1.0, bound=3.0)
        experiment = _experiment(target)
        assert experiment.grade(target, {"v": 12.0})[2] == SHAPE
        assert experiment.accepts(target, {"v": 12.0})
        assert experiment.grade(target, {"v": 13.5})[2] == FAIL
        assert not experiment.accepts(target, {"v": 13.5})

    def test_relative_tolerance_and_nested_path(self):
        target = Target("w", ("row", "w"), tol=0.1, rel=0.5,
                        measured=lambda result: result["w"])
        experiment = _experiment(target)
        assert experiment.grade(target, {"w": 2.9})[2] == PASS
        assert experiment.grade(target, {"w": 3.1})[2] == SHAPE

    def test_scale_and_source(self):
        target = Target("bus", ("memory_bus_power_reduction_pct",),
                        source="headlines", scale=0.01, tol=0.05)
        paper, _, grade = _experiment(target).grade(
            target, {"memory_bus_power_reduction_pct": 0.7}
        )
        assert paper == pytest.approx(0.66)
        assert grade == PASS

    def test_shape_only_rule(self):
        target = Target("rises", measured=lambda result: result["b"],
                        holds=lambda result: result["a"] < result["b"])
        experiment = _experiment(target)
        assert experiment.grade(target, {"a": 1, "b": 2}) == (None, 2.0, PASS)
        assert experiment.grade(target, {"a": 3, "b": 2})[2] == FAIL

    def test_lookup_by_name(self):
        experiment = get_experiment("figure-11")
        target = experiment.target("3D floorplan (C)")
        assert (target.tol, target.bound) == (3.0, 6.0)
        with pytest.raises(KeyError):
            experiment.target("no such check")
