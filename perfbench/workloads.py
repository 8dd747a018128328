"""The benchmark's workloads: what one child process runs, and its outputs.

A workload is a sequence of *units*; each unit runs in a fresh Python
process (as ``repro run`` does), so imports, the thermal operator cache
and the oracle scoreboard start cold every time.  A unit performs one or
more *operations* (one study call, or one campaign task) and returns, per
operation, its outputs split in three: ``exact`` values, which must match
the reference bit for bit, ``temps_c`` temperatures, and ``derived``
values that follow from temperatures; the last two must match within the
tolerances stored beside the reference.

Workload bodies call ``repro`` through module attributes (``mol.run_...``),
never through names bound at import time, so the traced run's wrappers
are the functions they reach.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Trace-length multiplier for memory-sweep: the shortest at which the
#: sweep still trips the ``uarch.cpma-band`` floor, as the full-length
#: figure does (at 0.15 it no longer does).
LENGTH_FACTOR = 0.2
#: Grid of the thermal-cold figures: their default.
THERMAL_NX = 48
#: The dtm_load_spike experiment's closed-loop config.
COUPLED_CONFIG: Dict[str, Any] = dict(
    nx=20, n_epochs=64, epoch_s=1.0, dt_s=0.5, start="steady")
#: Campaign tasks per run: half table-4, half headlines(nx=16).  Twenty
#: claim-to-outcome samples are the fewest that give a median with ten
#: samples beyond it.
CAMPAIGN_TASKS = 20
CAMPAIGN_WORKERS = 2

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    units: Tuple[str, ...]
    #: Input seeds with a committed reference; ``--seed`` folds into them.
    #: 1 where no output depends on the seed.  The last one is held out:
    #: no tuning run used it, so a later claim can be checked on it.
    ref_seeds: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("memory-sweep", ("figure-5",), ref_seeds=32),
        Workload("thermal-cold", ("figure-8", "figure-11"), ref_seeds=1),
        # Each reference holds the loop's V/f and power traces as values.
        Workload("coupled-warm", ("dtm-load-spike",), ref_seeds=16),
        # table-4 and headlines take no seeded input.
        Workload("campaign", ("campaign",), ref_seeds=1),
    )
}


def input_seed(workload: Workload, seed: int) -> int:
    """The seed the program receives: folded into the reference pool."""
    return seed % workload.ref_seeds


def _op(name: str) -> Dict[str, Any]:
    return {"name": name, "ok": False, "error": None, "exact": {},
            "temps_c": {}, "derived": {}, "paper": []}


def _paper_pairs(measured: Dict[str, float], published: Dict[str, Any]) -> List[List[float]]:
    """``[measured, published]`` for every numeric published value."""
    return [
        [float(measured[key]), float(value)]
        for key, value in published.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
        and key in measured
    ]


# -- memory-sweep ------------------------------------------------------------


def _setup_figure5() -> Callable[..., Dict[str, Any]]:
    import repro.core.experiments as experiments
    import repro.core.memory_on_logic as mol
    import repro.oracles.report as oracles

    def body(seed: int, traced: bool) -> Dict[str, Any]:
        oracles.reset_oracles()
        op = _op("figure-5")
        try:
            result = mol.run_performance_study(length_factor=LENGTH_FACTOR, seed=seed)
        except Exception as exc:  # a failed operation is data, not a crash
            op["error"] = f"{type(exc).__name__}: {exc}"
        else:
            figure = {
                "avg_cpma_reduction_32mb": result.cpma_reduction("3D 32MB"),
                "max_cpma_reduction_32mb": result.max_cpma_reduction("3D 32MB"),
                "bus_power_reduction_32mb": result.bus_power_reduction("3D 32MB"),
            }
            op["exact"] = {
                "figure": figure,
                "replay": {
                    kernel: {cfg: asdict(stats) for cfg, stats in row.items()}
                    for kernel, row in result.replay.items()
                },
            }
            op["paper"] = _paper_pairs(
                figure, experiments.get_experiment("figure-5").paper_values
            )
            op["ok"] = True
        return _unit_result([op], *_oracle_counts(oracles.oracle_report().to_dict()))

    return body


# -- thermal-cold -------------------------------------------------------------


def _setup_thermal(experiment_id: str) -> Callable[..., Dict[str, Any]]:
    import repro.core.experiments as experiments

    def body(seed: int, traced: bool) -> Dict[str, Any]:
        outcome = experiments.run_experiment(experiment_id, nx=THERMAL_NX)
        op = _op(experiment_id)
        op["ok"], op["error"] = outcome.ok, outcome.error
        if outcome.ok:
            solver = outcome.result["solver"]
            temps = {k: v for k, v in outcome.result.items() if k != "solver"}
            op["temps_c"] = temps
            op["exact"] = {"degraded": {k: m["degraded"] for k, m in solver.items()}}
            op["paper"] = _paper_pairs(
                temps, experiments.get_experiment(experiment_id).paper_values
            )
        return _unit_result([op], *_oracle_counts(outcome.oracles))

    return body


# -- coupled-warm -------------------------------------------------------------


#: Closed-loop epoch fields that follow continuously from temperatures.
COUPLED_DERIVED_EPOCH = ("vcc", "power_w", "perf_pct")
#: Closed-loop summary fields that do.
COUPLED_DERIVED_SUMMARY = (
    "tau_s", "final_vcc", "final_power_w", "avg_perf_pct", "energy_j")


def _split_coupled(result: Any) -> Tuple[Dict[str, Any], Dict[str, float], Dict[str, Any]]:
    """Exact fields, temperatures and values derived from them of one
    closed-loop run.  Only the discrete fields and the inputs stay exact:
    the loop's calibration and every V/f decision read temperatures, so a
    solver that moves a peak by 3e-10 C moves the last bits of the rest.
    """
    full = result.to_dict()
    temps = {key: full.pop(key) for key in ("ceiling_c", "final_peak_c", "max_peak_c")}
    derived: Dict[str, Any] = {key: full.pop(key) for key in COUPLED_DERIVED_SUMMARY}
    series: Dict[str, List[float]] = defaultdict(list)
    for epoch in full["epochs"]:
        temps[f"epoch.{epoch['epoch']}.peak_c"] = epoch.pop("peak_c")
        for key in COUPLED_DERIVED_EPOCH:
            series[f"epoch.{key}"].append(epoch.pop(key))
        for part, watts in sorted(epoch.pop("power_breakdown_w").items()):
            series[f"epoch.power_breakdown_w.{part}"].append(watts)
    derived.update(series)
    return full, temps, derived


def _setup_coupled() -> Callable[..., Dict[str, Any]]:
    import repro.core.experiments as experiments
    import repro.coupled as coupled
    import repro.oracles.report as oracles

    def body(seed: int, traced: bool) -> Dict[str, Any]:
        oracles.reset_oracles()
        # The dtm_load_spike experiment's config and policies; its own
        # seed kwarg is consumed by run_experiment, so the load seed is
        # passed here instead.
        config = coupled.CoupledConfig(**COUPLED_CONFIG)
        load = coupled.bursty_load_spikes(seed=seed)
        # The loop's default ceiling is the planar baseline's peak, which
        # Table 5 publishes as its Baseline row's temperature.
        baseline_c = experiments.get_experiment("table-5").paper_values[
            "Baseline"]["temp_c"]
        ops = []
        for policy in (
            coupled.NoDtm(),
            coupled.ThresholdDtm(vcc_step=0.03),
            coupled.PidDtm(guard_c=6.0),
            coupled.PredictiveDtm(),
        ):
            op = _op(f"policy-{policy.name}")
            try:
                result = coupled.run_coupled_loop(policy, load, config)
            except Exception as exc:  # a failed operation is data, not a crash
                op["error"] = f"{type(exc).__name__}: {exc}"
            else:
                op["exact"], op["temps_c"], op["derived"] = _split_coupled(result)
                op["paper"] = [[result.ceiling_c, float(baseline_c)]]
                op["ok"] = True
            ops.append(op)
        return _unit_result(ops, *_oracle_counts(oracles.oracle_report().to_dict()))

    return body


# -- campaign -----------------------------------------------------------------


def campaign_tasks(seed: int, registry_spec: Optional[str] = None) -> List[Any]:
    """Alternating cheap table-4 and headlines(nx=16) tasks, seeds seed+i."""
    import repro.runner as runner

    tasks = []
    for i in range(CAMPAIGN_TASKS):
        experiment_id, kwargs = (
            ("table-4", {}) if i % 2 == 0 else ("headlines", {"nx": 16})
        )
        tasks.append(runner.CampaignTask(
            task_id=f"{experiment_id}#{i}", experiment_id=experiment_id,
            kwargs=kwargs, seed=seed + i,
            registry_spec=registry_spec or runner.DEFAULT_REGISTRY_SPEC,
        ))
    return tasks


def _task_outputs(entry: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, float]]:
    result = dict(entry.get("result") or {})
    temps = {}
    if "baseline_peak_c" in result:
        temps["baseline_peak_c"] = result.pop("baseline_peak_c")
    solver = result.pop("thermal_solver", None)
    if solver is not None:
        result["thermal_degraded"] = solver["degraded"]
    return result, temps


def _task_paper(experiment_id: str, result: Dict[str, Any], published: Dict[str, Any]) -> List[List[float]]:
    if experiment_id == "table-4":
        measured = dict(result["per_row_gains_pct"])
        measured["total"] = result["total_gain_pct"]
        measured["stages_eliminated"] = result["stages_eliminated_pct"]
        return _paper_pairs(measured, published)
    return _paper_pairs(result, published)


def _setup_campaign() -> Callable[..., Dict[str, Any]]:
    # Set-up imports what the body calls; repro.runner alone loads lazily.
    import repro.core.experiments  # noqa: F401
    import repro.runner.scheduler  # noqa: F401

    def body(seed: int, traced: bool) -> Dict[str, Any]:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="campaign-", dir=OUT_DIR))
        try:
            return _run_campaign(seed, traced, workdir)
        finally:
            os.environ.pop("PERFBENCH_SPAN_DIR", None)
            shutil.rmtree(workdir, ignore_errors=True)

    return body


def _run_campaign(seed: int, traced: bool, workdir: Path) -> Dict[str, Any]:
    import repro.core.experiments as experiments
    import repro.runner as runner

    events: List[Tuple[float, str, Dict[str, Any]]] = []
    spans_dir = workdir / "spans"
    registry_spec = None
    if traced:
        spans_dir.mkdir()
        # The workers inherit this environment; worker_registry writes here.
        os.environ["PERFBENCH_SPAN_DIR"] = str(spans_dir)
        registry_spec = "perfbench.worker_registry:REGISTRY"
    tasks = campaign_tasks(seed, registry_spec)

    def config(resume: bool) -> Any:
        return runner.CampaignConfig(
            workers=CAMPAIGN_WORKERS, backend="local", resume=resume,
            journal_path=str(workdir / "journal.jsonl"),
            scratch_dir=str(workdir / "scratch"),
            event_hook=(
                (lambda kind, payload: events.append((time.monotonic(), kind, payload)))
                if traced else None
            ),
        )

    report = runner.run_campaign(tasks, config(resume=False))
    first_pass_events = len(events)
    resume_start = time.perf_counter()
    resumed = runner.run_campaign(tasks, config(resume=True))
    resume_wall_s = time.perf_counter() - resume_start

    ops = []
    by_task = {entry["task_id"]: entry for entry in report.tasks}
    for task in tasks:
        op = _op(task.task_id)
        entry = by_task.get(task.task_id, {})
        op["ok"] = entry.get("status") == "ok"
        op["error"] = entry.get("error")
        if op["ok"]:
            op["exact"], op["temps_c"] = _task_outputs(entry)
            op["paper"] = _task_paper(
                task.experiment_id, entry["result"],
                experiments.get_experiment(task.experiment_id).paper_values,
            )
        ops.append(op)
    resume_op = _op("resume")
    resume_op["exact"] = {"resumed_ok": resumed.resumed_ok, "counts": resumed.counts}
    resume_op["ok"] = resumed.resumed_ok == len(tasks) and not resumed.degraded
    ops.append(resume_op)

    unit = _unit_result(ops, report.oracle_checks, report.oracle_violations)
    if traced:
        unit["workers"] = [
            _load_json(path) for path in sorted(spans_dir.glob("*.json"))
        ]
        exec_s = sum(w["counters"].get("runner.task.exec_s", 0.0) for w in unit["workers"])
        unit["runner"] = runner_metrics(
            report, events[:first_pass_events], workdir / "journal.jsonl",
            resume_wall_s, resumed.resumed_ok, exec_s,
        )
    return unit


def runner_metrics(report: Any, events: List[Tuple[float, str, Dict[str, Any]]],
                   journal: Path, resume_wall_s: float, resumed_ok: int,
                   exec_s: float) -> Dict[str, Any]:
    """Runner-layer figures from the report and the scheduler's event hook.

    *exec_s* is the time the workers spent inside experiment code; the
    rest of each task's claim-to-outcome latency is dispatch overhead:
    process start, imports, result files and polling.
    """
    claimed: Dict[str, float] = {}
    latencies: List[float] = []
    appends = 0
    for t, kind, payload in events:
        if kind == "claim":
            claimed[payload["fingerprint"]] = t
        elif kind in ("completed", "failed") and payload["fingerprint"] in claimed:
            latencies.append(t - claimed.pop(payload["fingerprint"]))
        elif kind == "journal":
            appends += 1
    wall = report.wall_clock_s
    return {
        "attempted": sum(1 for _, kind, _ in events if kind == "claim"),
        "ok": report.counts.get("ok", 0),
        "failed": report.counts.get("failed", 0),
        "retries": report.retries_used,
        "exec_s": exec_s,
        "claim_to_outcome_s": latencies,
        "dispatch_overhead_s": sum(latencies) - exec_s,
        "busy_fraction": exec_s / (CAMPAIGN_WORKERS * wall) if wall else 0.0,
        "journal_appends": appends,
        "journal_bytes": journal.stat().st_size if journal.exists() else 0,
        "resume_wall_s": resume_wall_s,
        "resumed_ok": resumed_ok,
    }


def _load_json(path: Path) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# -- shared -------------------------------------------------------------------


def _unit_result(ops: List[Dict[str, Any]], checks: int, violations: int) -> Dict[str, Any]:
    return {"ops": ops, "oracle_checks": checks, "oracle_violations": violations}


def _oracle_counts(report: Dict[str, Any]) -> Tuple[int, int]:
    """(checks, violations) of an oracle report dict; (0, 0) when off."""
    return int(report.get("total_checks", 0)), len(report.get("violations", []))


SETUPS: Dict[str, Callable[[], Callable[..., Dict[str, Any]]]] = {
    "figure-5": _setup_figure5,
    "figure-8": lambda: _setup_thermal("figure-8"),
    "figure-11": lambda: _setup_thermal("figure-11"),
    "dtm-load-spike": _setup_coupled,
    "campaign": _setup_campaign,
}
