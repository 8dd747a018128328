"""Experiment registry that traces the campaign worker it is imported in.

A traced campaign names this module as its tasks' ``registry_spec``; the
worker imports it to resolve the experiment id, which installs the span
wrappers in the worker process.  Each experiment run then writes the
worker's spans and counters to ``$PERFBENCH_SPAN_DIR/<pid>.json``, before
the worker reports its result, so nothing is lost when the worker exits.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict

import repro.core.experiments as experiments

from perfbench import tracing

TRACER = tracing.Tracer()
tracing.install(TRACER)


def _dump() -> None:
    path = os.path.join(os.environ["PERFBENCH_SPAN_DIR"], f"{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(TRACER.export(), handle)


def _dumping(run: Callable[..., Dict[str, Any]]) -> Callable[..., Dict[str, Any]]:
    def run_and_dump(**kwargs: Any) -> Dict[str, Any]:
        start = time.perf_counter()
        try:
            return run(**kwargs)
        finally:
            TRACER.counters["runner.task.exec_s"] += time.perf_counter() - start
            _dump()

    return run_and_dump


REGISTRY = experiments.ExperimentRegistry()
for _experiment in experiments.REGISTRY:
    REGISTRY.register(experiments.Experiment(
        id=_experiment.id,
        title=_experiment.title,
        paper_values=_experiment.paper_values,
        run=_dumping(_experiment.run),
    ))
