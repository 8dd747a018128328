"""Tests for the experiment registry API and the guarded runner."""

import pytest

from repro.core.experiments import (
    Experiment,
    ExperimentOutcome,
    ExperimentRegistry,
    REGISTRY,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.resilience import SolverDivergenceError


class TestRegistryApi:
    def test_list_names_every_paper_artifact(self):
        ids = REGISTRY.list()
        assert ids == list_experiments()
        for expected in ("figure-3", "figure-5", "figure-6", "figure-8",
                         "figure-11", "table-4", "table-5", "headlines"):
            assert expected in ids

    def test_get_returns_experiment(self):
        experiment = REGISTRY.get("figure-6")
        assert experiment is get_experiment("figure-6")
        assert experiment.id == "figure-6"

    def test_unknown_id_names_valid_ids(self):
        with pytest.raises(KeyError) as info:
            REGISTRY.get("figure-99")
        message = str(info.value)
        assert "figure-99" in message
        assert "figure-5" in message  # the error lists what *is* valid

    def test_container_protocols(self):
        assert "table-4" in REGISTRY
        assert len(REGISTRY) == len(list_experiments())
        assert all(isinstance(e, Experiment) for e in REGISTRY)

    def test_duplicate_registration_rejected(self):
        registry = ExperimentRegistry()
        experiment = Experiment("x", "t", {}, lambda **kw: {})
        registry.register(experiment)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(experiment)


class TestGuardedRunner:
    def test_success_outcome(self):
        outcome = run_experiment("figure-6", nx=12)
        assert isinstance(outcome, ExperimentOutcome)
        assert outcome.ok
        assert outcome.error is None
        assert outcome.result["peak_c"] > 50.0
        assert outcome.elapsed_s > 0.0

    def test_unknown_id_always_raises(self):
        with pytest.raises(KeyError):
            run_experiment("nope")

    def test_failure_captured_with_taxonomy_and_partial(self):
        registry = ExperimentRegistry()

        def explode(**kwargs):
            raise SolverDivergenceError(
                "diverged", residual=2.0, method="lu",
                partial={"completed_rows": 3},
            )

        registry.register(Experiment("boom", "t", {}, explode))
        outcome = run_experiment("boom", registry=registry)
        assert not outcome.ok
        assert outcome.error_type == "SolverDivergenceError"
        assert "diverged" in outcome.error
        assert outcome.partial == {"completed_rows": 3}

    def test_strict_reraises(self):
        registry = ExperimentRegistry()

        def explode(**kwargs):
            raise SolverDivergenceError("diverged")

        registry.register(Experiment("boom", "t", {}, explode))
        with pytest.raises(SolverDivergenceError):
            run_experiment("boom", strict=True, registry=registry)
        with pytest.raises(KeyError):
            run_experiment("missing", strict=True)
