"""Spans around the public entry points of each ``repro`` layer.

The traced run installs wrappers from here, in its own process, before
it first calls into a workload.  Each wrapper records one span (name,
start, end, parent span) on ``time.perf_counter``; spans stay in memory and
are written out at the end as Chrome trace-event JSON.  Per-layer self
time is a span's duration minus the durations of its direct children.

A name imported with ``from module import name`` is a second binding of
the same object, looked up in the importing module's globals, so
:func:`install` patches every module attribute that *is* the target, not
only the defining one.  Methods are looked up through their class, so a
class attribute is patched once.  The tracer assumes the traced code
calls into ``repro`` from one thread, which holds for every workload.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Percentiles a latency tail may be reported at, lowest first.
PERCENTILES: Tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank; exact arithmetic, so 99.9% of 10000 is 9990."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile by the nearest-rank rule."""
    return sorted(samples)[_rank(pct, len(samples)) - 1]


def tail_percentile(n: int) -> float:
    """Highest percentile in :data:`PERCENTILES` with ten samples beyond it.

    Beyond means ranked strictly above the nearest-rank sample, so with
    n = 48 the 75th percentile qualifies (12 beyond) and the 90th does
    not (4 beyond).  Returns 0.0 when no percentile qualifies (n < 20).
    """
    best = 0.0
    for pct in PERCENTILES:
        if n - _rank(pct, n) >= 10:
            best = pct
    return best


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median, the tail percentile the sample count supports, and n."""
    n = len(samples)
    if n == 0:
        return {"p50_s": 0.0, "tail_s": 0.0, "tail_pct": 0.0, "n": 0}
    pct = tail_percentile(n)
    return {
        "p50_s": nearest_rank(samples, 50.0),
        "tail_s": nearest_rank(samples, pct) if pct else 0.0,
        "tail_pct": pct,
        "n": n,
    }


#: Post-call hook: (tracer, bound arguments, result) -> result to return.
Post = Callable[["Tracer", inspect.BoundArguments, Any], Any]


class Tracer:
    """In-memory span recorder plus named counters for one process."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per span.
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._open: List[int] = []

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn: Callable, name: str, post: Optional[Post] = None) -> Callable:
        """A function that calls *fn* inside a span, then runs *post*."""
        signature = inspect.signature(fn) if post is not None else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            if post is not None:
                result = post(self, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def export(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the spans and counters, plus the thermal
        operator cache's hit and miss counts in this process."""
        from repro.thermal import operator_cache_stats

        counters = dict(self.counters)
        stats = operator_cache_stats()
        counters["thermal.opcache.hits"] = stats["hits"]
        counters["thermal.opcache.misses"] = stats["misses"]
        return {"spans": [list(span) for span in self.spans], "counters": counters}


def self_times(spans: Sequence[Sequence[Any]]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-name self time and call count of one process's spans."""
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for index, (name, start, end, _parent) in enumerate(spans):
        self_s[name] += (end - start) - child_time[index]
        calls[name] += 1
    return dict(self_s), dict(calls)


def chrome_trace(processes: Sequence[Tuple[str, Sequence[Sequence[Any]]]]) -> Dict[str, Any]:
    """Chrome trace-event JSON (complete events, microseconds)."""
    events: List[Dict[str, Any]] = []
    for pid, (label, spans) in enumerate(processes, start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 1, "args": {"name": label}})
        for index, (name, start, end, parent) in enumerate(spans):
            events.append({
                "ph": "X", "name": name, "cat": name.split(".")[0],
                "pid": pid, "tid": 1,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": index, "parent": parent},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- wrap targets -------------------------------------------------------------


def _count_records(tracer: Tracer, bound: inspect.BoundArguments, result: Any) -> Any:
    tracer.counters["traces.gen.records"] += len(result)
    return result


def _count_replay(tracer: Tracer, bound: inspect.BoundArguments, result: Any) -> Any:
    counters = tracer.counters
    counters["memsim.replay.refs"] += len(bound.arguments["records"])
    counters["memsim.replay.degraded"] += int(result.degraded)
    counters["memsim.sim.accesses"] += result.n_accesses
    counters["memsim.sim.offchip_refs"] += result.offchip_fraction * result.n_accesses
    for level, count in result.level_counts.items():
        counters[f"memsim.sim.level_counts.{level}"] += count
    return result


def _count_steady(tracer: Tracer, bound: inspect.BoundArguments, result: Any) -> Any:
    counters = tracer.counters
    info = result.solver_info()
    method = info["method"] if info["method"] in ("lu", "cg") else "other"
    counters[f"thermal.method.{method}"] += 1
    counters["thermal.degraded_solves"] += int(info["degraded"])
    return result


def _count_steps(tracer: Tracer, bound: inspect.BoundArguments, result: Any) -> Any:
    tracer.counters["thermal.transient.steps"] += len(result.times_s) - 1
    return result


def _count_epochs(tracer: Tracer, bound: inspect.BoundArguments, result: Any) -> Any:
    counters = tracer.counters
    counters["coupled.epochs"] += len(result.epochs)
    counters["coupled.exceeded_epochs"] += result.exceeded_epochs
    return result


class _TracedLU:
    """A SuperLU factor whose ``solve`` calls are spans of their own."""

    def __init__(self, lu: Any, tracer: Tracer) -> None:
        self._lu = lu
        self.solve = tracer.wrap(lu.solve, "thermal.lusolve")

    def __getattr__(self, name: str) -> Any:
        return getattr(self._lu, name)


def _trace_lu(tracer: Tracer, bound: inspect.BoundArguments, result: Any) -> _TracedLU:
    return _TracedLU(result, tracer)


@dataclass(frozen=True)
class Target:
    """One entry point: ``owner`` is ``module`` or ``module:Class``."""

    owner: str
    attr: str
    span: str
    post: Optional[Post] = None


def targets() -> List[Target]:
    """Every wrapped entry point, with the span name it records."""
    from repro.coupled import DtmPolicy

    policies = [
        Target(f"{cls.__module__}:{cls.__name__}", "decide", "coupled.policy")
        for cls in _subclasses(DtmPolicy)
        if "decide" in vars(cls) and not inspect.isabstract(cls)
    ]
    return [
        Target("repro.traces.generator:TraceGenerator", "arrays",
               "traces.gen", _count_records),
        Target("repro.memsim.replay", "replay_trace", "memsim.replay", _count_replay),
        Target("repro.thermal.solver", "solve_steady_state", "thermal.steady",
               _count_steady),
        Target("repro.thermal.transient", "solve_transient", "thermal.transient",
               _count_steps),
        Target("repro.thermal.solver", "assemble_system", "thermal.assemble"),
        Target("scipy.sparse.linalg", "splu", "thermal.factor", _trace_lu),
        Target("scipy.sparse.linalg", "cg", "thermal.iterative"),
        Target("repro.floorplan.core2duo", "core2duo_floorplan", "floorplan.build"),
        Target("repro.floorplan.core2duo", "stacked_cache_die", "floorplan.build"),
        Target("repro.floorplan.pentium4", "pentium4_planar_floorplan",
               "floorplan.build"),
        Target("repro.floorplan.pentium4", "pentium4_3d_floorplans",
               "floorplan.build"),
        Target("repro.floorplan.pentium4", "pentium4_worstcase_3d", "floorplan.build"),
        Target("repro.uarch.interval", "speedup", "uarch.eval"),
        Target("repro.uarch.interval", "geomean_ipc", "uarch.eval"),
        Target("repro.uarch.dvfs", "table5_points", "uarch.dvfs"),
        Target("repro.uarch.dvfs", "power_3d_w", "uarch.dvfs"),
        Target("repro.coupled.engine", "run_coupled_loop", "coupled.loop",
               _count_epochs),
        *policies,
        Target("repro.core.memory_on_logic", "run_performance_study",
               "core.experiment"),
        Target("repro.core.memory_on_logic", "run_thermal_study", "core.experiment"),
        Target("repro.core.logic_on_logic", "run_performance_study",
               "core.experiment"),
        Target("repro.core.logic_on_logic", "run_thermal_study", "core.experiment"),
        Target("repro.core.logic_on_logic", "run_logic_study", "core.experiment"),
    ]


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


Undo = List[Tuple[Any, str, Any]]


def install(tracer: Tracer) -> Undo:
    """Wrap every binding site of each target; returns what to restore.

    Import everything the workload will call before installing: a module
    first imported afterwards binds whatever its source module holds at
    that moment, and :func:`uninstall` does not know about it.
    """
    resolved = [(target, _resolve(target.owner)) for target in targets()]
    undo: Undo = []
    for target, owner in resolved:
        original = vars(owner)[target.attr]
        if not callable(original):
            raise TypeError(f"{target.owner}.{target.attr} is not callable")
        wrapper = tracer.wrap(original, target.span, target.post)
        sites = [owner] if isinstance(owner, type) else _binding_modules(owner)
        for site in sites:
            for name, value in list(vars(site).items()):
                if value is original:
                    setattr(site, name, wrapper)
                    undo.append((site, name, original))
    return undo


def _binding_modules(owner: Any) -> List[Any]:
    """The defining module plus every loaded ``repro`` module."""
    return [owner] + [
        module for name, module in list(sys.modules.items())
        if module is not None and module is not owner
        and (name == "repro" or name.startswith("repro."))
    ]


def uninstall(undo: Undo) -> None:
    """Put back every attribute :func:`install` replaced."""
    for site, name, original in reversed(undo):
        setattr(site, name, original)
    undo.clear()
