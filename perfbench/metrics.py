"""Metric definitions and how each is computed from child results.

End-to-end metrics come from untraced runs; per-layer metrics from the
one traced run.  ``BENCHMARK.json`` lists exactly the names defined here
(the benchmark's tests check that).
"""

from __future__ import annotations

import re
import statistics
from collections import Counter, defaultdict
from typing import Any, Dict, List, Sequence, Tuple

from perfbench.tracing import latency_summary, self_times

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: (name, unit, better, bound).  error_rate and oracle_violations are 0
#: on a healthy tree, where a bound relative to the median means nothing,
#: so they are gated as pass rates (1 - error_rate, and 1 - violations
#: per oracle check); the printed table shows both raw figures too.  The
#: pass rates do not vary between runs, so their bound sits below one
#: more failure or violation per run: 1 in 2588 oracle checks (the most
#: any workload makes) is 3.9e-4.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_rate", "ratio", "higher", 1e-4),
    ("oracle_pass_rate", "ratio", "higher", 1e-4),
    ("paper_err_pct", "%", "lower", 0.20),
)

#: Layers timed by spans, in the order the table prints them.
SPAN_LAYERS: Tuple[str, ...] = (
    "traces.gen", "memsim.replay",
    "thermal.steady", "thermal.transient", "thermal.assemble",
    "thermal.factor", "thermal.iterative", "thermal.lusolve",
    "floorplan.build", "uarch.eval", "uarch.dvfs",
    "coupled.loop", "coupled.policy", "core.experiment",
)
MEMORY_LEVELS: Tuple[str, ...] = ("l1", "l2", "stacked", "memory")
THERMAL_METHODS: Tuple[str, ...] = ("lu", "cg", "other")


def _per_layer_spec() -> List[Tuple[str, str, str]]:
    spec: List[Tuple[str, str, str]] = []
    for layer in SPAN_LAYERS:
        spec += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    spec += [
        ("traces.gen.records", "count", "lower"),
        ("traces.gen.records_per_s", "1/s", "higher"),
        ("memsim.replay.refs", "count", "lower"),
        ("memsim.replay.refs_per_s", "1/s", "higher"),
        ("memsim.replay.call_p50_s", "s", "lower"),
        ("memsim.replay.call_tail_s", "s", "lower"),
        ("memsim.replay.call_tail_pct", "%", "higher"),
        ("memsim.replay.call_n", "count", "higher"),
        ("memsim.replay.degraded", "count", "lower"),
        ("memsim.sim.offchip_fraction", "ratio", "lower"),
    ]
    spec += [(f"memsim.sim.level_counts.{lvl}", "count", "lower") for lvl in MEMORY_LEVELS]
    spec += [
        ("thermal.transient.steps", "count", "lower"),
        ("thermal.opcache.hits", "count", "higher"),
        ("thermal.opcache.misses", "count", "lower"),
        ("thermal.opcache.hit_ratio", "ratio", "higher"),
    ]
    spec += [(f"thermal.method.{m}", "count", "lower") for m in THERMAL_METHODS]
    spec += [
        ("thermal.degraded_solves", "count", "lower"),
        ("coupled.epochs", "count", "lower"),
        ("coupled.exceeded_epochs", "count", "lower"),
        ("oracles.checks", "count", "lower"),
        ("oracles.violations", "count", "lower"),
        ("runner.tasks.attempted", "count", "lower"),
        ("runner.tasks.ok", "count", "higher"),
        ("runner.tasks.failed", "count", "lower"),
        ("runner.retries", "count", "lower"),
        ("runner.task.exec_s", "s", "lower"),
        ("runner.task.claim_to_outcome_p50_s", "s", "lower"),
        ("runner.task.claim_to_outcome_tail_s", "s", "lower"),
        ("runner.task.claim_to_outcome_tail_pct", "%", "higher"),
        ("runner.task.claim_to_outcome_n", "count", "higher"),
        ("runner.dispatch_overhead_s", "s", "lower"),
        ("runner.busy_fraction", "ratio", "higher"),
        ("runner.journal.appends", "count", "lower"),
        ("runner.journal.bytes", "B", "lower"),
        ("runner.resume.wall_s", "s", "lower"),
        ("runner.resume.resumed_ok", "count", "higher"),
        ("run.cpu_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return spec


#: (name, unit, better) of every per-layer metric.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(_per_layer_spec())

#: Which layers each workload must reach (nonzero) and must bypass (zero).
EXPECTED_CALLS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "memory-sweep": {
        "nonzero": ("traces.gen.calls", "memsim.replay.calls", "core.experiment.calls"),
        "zero": ("thermal.factor.calls", "thermal.steady.calls",
                 "coupled.loop.calls", "runner.tasks.attempted"),
    },
    "thermal-cold": {
        "nonzero": ("thermal.steady.calls", "thermal.assemble.calls",
                    "thermal.factor.calls", "floorplan.build.calls",
                    "core.experiment.calls"),
        "zero": ("memsim.replay.calls", "traces.gen.calls",
                 "thermal.transient.calls", "coupled.loop.calls"),
    },
    "coupled-warm": {
        "nonzero": ("coupled.loop.calls", "coupled.policy.calls",
                    "thermal.transient.calls", "thermal.factor.calls",
                    "thermal.lusolve.calls", "uarch.eval.calls"),
        "zero": ("memsim.replay.calls", "traces.gen.calls", "core.experiment.calls",
                 "runner.tasks.attempted"),
    },
    "campaign": {
        "nonzero": ("runner.tasks.attempted", "runner.journal.appends",
                    "core.experiment.calls", "uarch.eval.calls",
                    "thermal.steady.calls"),
        "zero": ("memsim.replay.calls", "traces.gen.calls",
                 "thermal.transient.calls", "coupled.loop.calls"),
    },
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_counts(units: Sequence[Dict[str, Any]]) -> Tuple[int, int]:
    """(attempted, failed) over the operations of some unit results."""
    ops = [op for unit in units for op in unit["ops"]]
    return len(ops), sum(1 for op in ops if not op["ok"])


def end_to_end(iterations: Sequence[Sequence[Dict[str, Any]]],
               setups: Sequence[float]) -> Dict[str, float]:
    """Gated metrics over untraced iterations (each a list of unit results).

    Operations must already carry their reference verdict in ``ok``.
    """
    units = [unit for iteration in iterations for unit in iteration]
    attempted, failed = op_counts(units)
    checks = sum(unit["oracle_checks"] for unit in units)
    violations = sum(unit["oracle_violations"] for unit in units)
    pairs = [pair for unit in iterations[0] for op in unit["ops"] for pair in op["paper"]]
    return {
        "wall_s": statistics.median(
            sum(unit["body_s"] for unit in it) for it in iterations),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(
            max(unit["peak_rss_mb"] for unit in it) for it in iterations),
        "ok_rate": 1.0 - failed / attempted,
        "oracle_pass_rate": 1.0 - _ratio(violations, checks),
        "paper_err_pct": statistics.fmean(
            100.0 * abs(m - p) / abs(p) for m, p in pairs) if pairs else 0.0,
        # Diagnostics, printed but not gated.
        "error_rate": failed / attempted,
        "oracle_violations": violations / len(iterations),
    }


def per_layer(units: Sequence[Dict[str, Any]], untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration (a list of unit results)."""
    processes = []
    for unit in units:
        processes.append(unit["trace"])
        processes.extend(unit.get("workers", []))
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counters: Counter = Counter()
    replay_calls: List[float] = []
    for proc in processes:
        s, c = self_times(proc["spans"])
        for name, value in s.items():
            self_s[name] += value
        for name, value in c.items():
            calls[name] += value
        counters.update(proc["counters"])
        replay_calls += [end - start for name, start, end, _ in proc["spans"]
                         if name == "memsim.replay"]

    m: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["traces.gen.records"] = counters["traces.gen.records"]
    m["traces.gen.records_per_s"] = _ratio(counters["traces.gen.records"], self_s["traces.gen"])
    m["memsim.replay.refs"] = counters["memsim.replay.refs"]
    m["memsim.replay.refs_per_s"] = _ratio(counters["memsim.replay.refs"], self_s["memsim.replay"])
    for key, value in latency_summary(replay_calls).items():
        m[f"memsim.replay.call_{key}"] = value
    m["memsim.replay.degraded"] = counters["memsim.replay.degraded"]
    m["memsim.sim.offchip_fraction"] = _ratio(
        counters["memsim.sim.offchip_refs"], counters["memsim.sim.accesses"])
    for level in MEMORY_LEVELS:
        m[f"memsim.sim.level_counts.{level}"] = counters[f"memsim.sim.level_counts.{level}"]
    m["thermal.transient.steps"] = counters["thermal.transient.steps"]
    hits, misses = counters["thermal.opcache.hits"], counters["thermal.opcache.misses"]
    m["thermal.opcache.hits"], m["thermal.opcache.misses"] = hits, misses
    m["thermal.opcache.hit_ratio"] = _ratio(hits, hits + misses)
    for method in THERMAL_METHODS:
        m[f"thermal.method.{method}"] = counters[f"thermal.method.{method}"]
    for key in ("thermal.degraded_solves", "coupled.epochs", "coupled.exceeded_epochs"):
        m[key] = counters[key]
    m["oracles.checks"] = sum(unit["oracle_checks"] for unit in units)
    m["oracles.violations"] = sum(unit["oracle_violations"] for unit in units)
    m.update(_runner_metrics(next((u["runner"] for u in units if "runner" in u), {})))
    m["run.cpu_s"] = sum(unit["cpu_s"] for unit in units)
    m["trace.overhead_s"] = sum(unit["body_s"] for unit in units) - untraced_wall_s
    return m


def _runner_metrics(r: Dict[str, Any]) -> Dict[str, float]:
    """Runner metrics of the campaign unit; zeros for other workloads."""
    latency = latency_summary(r.get("claim_to_outcome_s", []))
    return {
        "runner.tasks.attempted": r.get("attempted", 0),
        "runner.tasks.ok": r.get("ok", 0),
        "runner.tasks.failed": r.get("failed", 0),
        "runner.retries": r.get("retries", 0),
        "runner.task.exec_s": r.get("exec_s", 0.0),
        **{f"runner.task.claim_to_outcome_{k}": v for k, v in latency.items()},
        "runner.dispatch_overhead_s": r.get("dispatch_overhead_s", 0.0),
        "runner.busy_fraction": r.get("busy_fraction", 0.0),
        "runner.journal.appends": r.get("journal_appends", 0),
        "runner.journal.bytes": r.get("journal_bytes", 0),
        "runner.resume.wall_s": r.get("resume_wall_s", 0.0),
        "runner.resume.resumed_ok": r.get("resumed_ok", 0),
    }


def expectation_failures(workload: str, layers: Dict[str, float]) -> List[str]:
    """Layers the traced run reached or bypassed contrary to expectation."""
    expected = EXPECTED_CALLS[workload]
    return (
        [f"{name} is 0; this workload must reach it" for name in expected["nonzero"]
         if not layers[name]]
        + [f"{name} is {layers[name]:g}; this workload must bypass it"
           for name in expected["zero"] if layers[name]]
    )
