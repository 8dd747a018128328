"""Tests of the benchmark itself: names, percentiles, checks, wrappers, smoke."""

from __future__ import annotations

import json
import sys

import pytest

from perfbench import metrics, reference, run, tracing, workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_benchmark_json():
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    layers = [m["name"] for m in BENCHMARK["per_layer"]]
    for name in e2e + layers:
        assert metrics.NAME_RE.fullmatch(name), name
    assert len(set(e2e + layers)) == len(e2e + layers)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == list(metrics.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("n, pct", [
    (0, 0.0), (19, 0.0), (20, 50.0), (39, 50.0), (40, 75.0), (48, 75.0),
    (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert tracing.tail_percentile(n) == pct


def test_latency_summary_uses_nearest_rank_and_reports_n():
    samples = [float(i) for i in range(1, 49)]  # 1..48
    summary = tracing.latency_summary(samples)
    assert summary == {"p50_s": 24.0, "tail_s": 36.0, "tail_pct": 75.0, "n": 48}
    assert sum(1 for s in samples if s > summary["tail_s"]) == 12
    assert tracing.latency_summary([0.5] * 5)["tail_pct"] == 0.0


def _unit(ops):
    return {"ops": ops, "oracle_checks": 4, "oracle_violations": 1,
            "body_s": 1.0, "peak_rss_mb": 100.0}


def _ok_op(name, value):
    return {"name": name, "ok": True, "error": None, "exact": {"v": value},
            "temps_c": {"peak_c": 80.0}, "derived": {"vcc": [0.9, 0.95]},
            "paper": [[1.1, 1.0]]}


def test_forced_mismatch_counts_as_failed_operation():
    good, bad = _ok_op("a", 1), _ok_op("b", 2)
    expected = {"tolerance_c": 1e-6, "rel_tolerance": 1e-6, "units": {"u": {
        "a": reference.record(good),
        "b": reference.record(dict(bad, exact={"v": 3})),
    }}}
    drifted = dict(_ok_op("c", 4), temps_c={"peak_c": 80.0 + 2e-6})
    expected["units"]["u"]["c"] = reference.record(_ok_op("c", 4))
    throttled = dict(_ok_op("d", 5), derived={"vcc": [0.9, 0.95 * (1 + 2e-6)]})
    expected["units"]["u"]["d"] = reference.record(_ok_op("d", 5))
    unit = _unit([good, bad, drifted, throttled])
    problems = run.check([unit], expected, ["u"])
    assert [op["ok"] for op in unit["ops"]] == [True, False, False, False]
    assert len(problems) == 3
    assert "vcc[1]" in problems[2]
    e2e = metrics.end_to_end([[unit]], [0.4])
    assert e2e["error_rate"] == pytest.approx(3 / 4)
    assert e2e["ok_rate"] == pytest.approx(1 / 4)
    assert e2e["oracle_pass_rate"] == pytest.approx(0.75)
    assert e2e["paper_err_pct"] == pytest.approx(10.0)


def test_values_within_tolerance_match():
    op = _ok_op("a", 1)
    moved = dict(op, temps_c={"peak_c": 80.0 + 5e-7},
                 derived={"vcc": [0.9 * (1 + 5e-7), 0.95]})
    assert reference.mismatch(moved, reference.record(op), 1e-6, 1e-6) is None
    assert not reference.identical(op, moved)


def _bound(name):
    return next(m[3] for m in metrics.END_TO_END if m[0] == name)


def test_one_more_failure_or_violation_per_run_trips_the_pass_rate_bounds():
    # memory-sweep makes the most oracle checks per run (2588) and
    # records 2 violations; campaign has the most operations (21).
    def pass_rates(violations, failed):
        ops = [dict(_ok_op(str(i), i), ok=i >= failed) for i in range(21)]
        unit = dict(_unit(ops), oracle_checks=2588, oracle_violations=violations)
        return metrics.end_to_end([[unit]], [0.4])

    before, after = pass_rates(2, 0), pass_rates(3, 1)
    for name in ("oracle_pass_rate", "ok_rate"):
        assert (before[name] - after[name]) / before[name] > _bound(name)


def _repro_bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
        for attr, value in list(vars(module).items())
    }


def test_install_patches_every_binding_site_and_uninstall_restores():
    import scipy.sparse.linalg as spla

    import repro.core.memory_on_logic as mol
    import repro.coupled.engine as engine
    import repro.memsim.replay as replay
    import repro.thermal.model as model
    import repro.thermal.solver as solver
    from repro.coupled import PidDtm

    tracing.targets()  # import everything the targets name
    before = _repro_bindings()
    original_splu, original_decide = spla.splu, vars(PidDtm)["decide"]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        for module, attr, owner in [
            (mol, "replay_trace", replay),
            (model, "solve_steady_state", solver),
            (engine, "solve_transient", sys.modules["repro.thermal.transient"]),
        ]:
            assert getattr(module, attr) is not before[(owner.__name__, attr)]
            assert getattr(module, attr) is getattr(owner, attr)
        assert spla.splu is not original_splu
        assert vars(PidDtm)["decide"] is not original_decide
    finally:
        tracing.uninstall(undo)
    after = _repro_bindings()
    assert {k: v for k, v in after.items() if k in before} == before
    assert spla.splu is original_splu
    assert vars(PidDtm)["decide"] is original_decide


def test_self_time_subtracts_direct_children():
    spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
             ["inner", 5.0, 6.0, 0], ["leaf", 1.5, 2.0, 1]]
    self_s, calls = tracing.self_times(spans)
    assert self_s == pytest.approx({"outer": 6.0, "inner": 3.5, "leaf": 0.5})
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}
    events = tracing.chrome_trace([("p", spans)])["traceEvents"]
    assert [e["name"] for e in events if e["ph"] == "X"] == ["outer", "inner", "inner", "leaf"]


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Every workload at its smallest useful size."""
    monkeypatch.setattr(workloads, "LENGTH_FACTOR", 0.001)
    monkeypatch.setattr(workloads, "THERMAL_NX", 10)
    monkeypatch.setattr(workloads, "COUPLED_CONFIG", dict(
        nx=8, n_epochs=3, epoch_s=1.0, dt_s=0.5, start="steady"))
    monkeypatch.setattr(workloads, "CAMPAIGN_TASKS", 4)
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)


def _run_units(workload, traced):
    from repro.thermal import clear_operator_cache

    results = []
    for unit in workload.units:
        clear_operator_cache()  # as a fresh process would start
        body = workloads.SETUPS[unit]()
        tracer = tracing.Tracer() if traced else None
        undo = tracing.install(tracer) if traced else []
        try:
            result = body(3, traced)
        finally:
            tracing.uninstall(undo)
        result.update(body_s=1.0, cpu_s=1.0, peak_rss_mb=1.0)
        if traced:
            result["trace"] = tracer.export()
        results.append(result)
    return results


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_every_workload(name, small):
    workload = workloads.WORKLOADS[name]
    plain = _run_units(workload, traced=False)
    traced = _run_units(workload, traced=True)
    for a_unit, b_unit in zip(plain, traced):
        assert [op["ok"] for op in a_unit["ops"]] == [True] * len(a_unit["ops"])
        for a, b in zip(a_unit["ops"], b_unit["ops"]):
            assert reference.identical(a, b), a["name"]
    layers = metrics.per_layer(traced, untraced_wall_s=1.0)
    assert set(layers) == {m[0] for m in metrics.PER_LAYER}
    assert metrics.expectation_failures(name, layers) == []


def test_every_input_seed_has_one_reference():
    for workload in workloads.WORKLOADS.values():
        files = sorted(p.name for p in (reference.REF_DIR / workload.name).iterdir())
        assert files == sorted(f"seed-{n}.json" for n in range(workload.ref_seeds))
        for seed in range(workload.ref_seeds):
            ref = reference.load(workload.name, seed)
            assert ref["tolerance_c"] == reference.TOLERANCE_C
            assert ref["rel_tolerance"] == reference.REL_TOLERANCE
            assert set(ref["units"]) == set(workload.units)
    assert workloads.input_seed(workloads.WORKLOADS["memory-sweep"], 33) == 1
    assert workloads.input_seed(workloads.WORKLOADS["campaign"], 33) == 0
