"""Worker process entry point: ``python -m repro.runner.worker``.

One worker process serves one :class:`~repro.runner.pool.WorkerPool`
slot for as long as it stays healthy: it reads task spec paths from
stdin, one per line, runs each task in turn, and exits at EOF.  The
interpreter start and the numpy/scipy/repro imports are paid once per
slot, not once per task.

The supervisor never shares memory with a worker.  Everything crosses
the boundary through three files named in each spec:

* **spec** (read) — the task: experiment id, kwargs, seed, registry
  import spec, chaos directive.
* **heartbeat** (written) — touched every ``heartbeat_every_s`` by a
  daemon thread started *before* the heavy simulation imports, so the
  supervisor's watchdog can tell "still importing scipy" from "dead".
  The thread follows the current task's heartbeat file and touches
  nothing between tasks.
* **result** (written once) — the JSON-serialized
  :class:`~repro.core.experiments.ExperimentOutcome`, written to a temp
  file and renamed, so the supervisor either sees a complete result or
  none at all.  Its appearance is what tells the supervisor the task
  is finished.

Before each task the worker restores the state a fresh process would
have: it clears the thermal operator cache (so memory stays bounded by
one task's LU fill), disarms the operator-corruption hook, and restores
the oracle config it started with.  ``run_experiment`` resets the
oracle scoreboard and seeds the RNGs as it does for any run.

Module-level imports are stdlib-only on purpose: heartbeats must start
within milliseconds of process launch, long before ``repro.core`` pulls
in numpy/scipy.

Chaos directives (from :meth:`repro.resilience.faults.FaultInjector
.worker_fault`) make the worker misbehave on demand so campaign tests
can prove the supervisor survives it.  Each costs only its own attempt:
the supervisor kills or retires the worker and the slot's next task
runs on a fresh one.

* ``crash`` — exit abruptly with no result, like a segfault or OOM kill.
* ``hang`` — spin forever *with* heartbeats: only the wall-clock
  timeout can end it.
* ``stall`` — spin forever *without* heartbeats: the watchdog should
  kill it long before the wall-clock budget.
* ``corrupt-result`` — report success but write garbage where the
  result should be.
* ``flip-operator`` — flip one bit in the next cached thermal operator
  the experiment reuses; the run *completes* but the oracle layer must
  detect it and mark the result degraded.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Dict, Iterable, Optional

#: Exit code for an injected crash (distinctive in supervisor logs).
CRASH_EXIT_CODE = 23


class Heartbeat:
    """Daemon thread touching the current task's heartbeat file."""

    def __init__(self) -> None:
        self.path: Optional[str] = None
        self.every_s = 0.2
        self._wake = threading.Event()
        threading.Thread(
            target=self._run, name="heartbeat", daemon=True
        ).start()

    def follow(self, path: Optional[str], every_s: float = 0.2) -> None:
        """Beat on *path* from now on (None: stop beating)."""
        self.every_s = every_s
        self.path = path
        self._wake.set()

    def _run(self) -> None:
        while True:
            self._wake.clear()  # before reading path: no follow() is lost
            path = self.path
            if path is not None:
                try:
                    with open(path, "a"):
                        os.utime(path, None)
                except OSError:
                    pass  # scratch dir vanished; the supervisor will notice
            self._wake.wait(self.every_s)


def _write_atomic(path: str, text: str) -> None:
    """Write *text* atomically: temp file + fsync + rename."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _resolve_registry(registry_spec: str):
    module_name, _, attribute = registry_spec.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attribute)


class FreshState:
    """Puts back, before each task, the state a new process would have."""

    def __init__(self) -> None:
        #: Oracle config the process had before its first task.
        self.startup_oracles: Any = None

    def restore(self) -> None:
        from repro.oracles.config import get_oracle_config, set_oracle_mode

        if self.startup_oracles is None:
            self.startup_oracles = get_oracle_config()
        set_oracle_mode(self.startup_oracles)
        # A process that never imported the solver has nothing to reset.
        thermal_solver = sys.modules.get("repro.thermal.solver")
        if thermal_solver is not None:
            thermal_solver.clear_operator_cache()
            thermal_solver.arm_operator_corruption(None)


def run_spec(
    spec: Dict[str, Any], heartbeat: Heartbeat, fresh: FreshState
) -> None:
    """Execute one task spec and write its result file."""
    for extra in spec.get("sys_path", []):
        if extra not in sys.path:
            sys.path.insert(0, extra)

    heartbeat.follow(
        spec["heartbeat_path"], float(spec.get("heartbeat_every_s", 0.2))
    )

    chaos = spec.get("chaos")
    if chaos == "crash":
        os._exit(CRASH_EXIT_CODE)
    if chaos in ("hang", "stall"):
        if chaos == "stall":
            heartbeat.follow(None)
        while True:  # killed by the supervisor (timeout or watchdog)
            time.sleep(0.1)
    if chaos == "corrupt-result":
        heartbeat.follow(None)
        # Torn JSON, as a dying disk writes it.
        _write_atomic(spec["result_path"], '{"ok": tru')
        return

    # Heavy imports only now, with heartbeats already flowing.
    from repro.core.experiments import run_experiment
    from repro.oracles.config import set_oracle_mode

    fresh.restore()
    if spec.get("oracle_mode"):
        set_oracle_mode(spec["oracle_mode"])
    if chaos == "flip-operator":
        # Arm a one-shot bit flip against the next cached thermal
        # operator this task reuses: the strict/sample oracle must
        # catch it (detection is what the chaos CI job asserts).
        from repro.resilience.faults import FaultInjector
        from repro.thermal import solver as thermal_solver

        injector = FaultInjector(seed=int(spec.get("chaos_seed", 0)))
        thermal_solver.arm_operator_corruption(
            lambda op: injector.flip_array_bits(op.matrix.data, n_flips=1)
        )

    registry = _resolve_registry(
        spec.get("registry_spec", "repro.core.experiments:REGISTRY")
    )
    outcome = run_experiment(
        spec["experiment_id"],
        strict=False,
        registry=registry,
        seed=spec.get("seed"),
        **spec.get("kwargs", {}),
    )
    heartbeat.follow(None)
    _write_atomic(
        spec["result_path"],
        json.dumps(
            {
                "schema": 1,
                "task_id": spec.get("task_id", spec["experiment_id"]),
                "ok": outcome.ok,
                "result": outcome.result,
                "error": outcome.error,
                "error_type": outcome.error_type,
                "partial": outcome.partial,
                "elapsed_s": outcome.elapsed_s,
                "seed": outcome.seed,
                "fingerprint": outcome.fingerprint,
                "oracles": outcome.oracles,
            },
            default=str,
        ),
    )


def serve(lines: Iterable[str]) -> int:
    """Run the task spec named on each line of *lines* until EOF."""
    heartbeat = Heartbeat()
    fresh = FreshState()
    for line in lines:
        path = line.strip()
        if not path:
            continue
        with open(path, encoding="utf-8") as handle:
            spec = json.load(handle)
        run_spec(spec, heartbeat, fresh)
    return 0


def main(argv) -> int:
    if argv:
        print("usage: python -m repro.runner.worker < spec-paths",
              file=sys.stderr)
        return 2
    return serve(sys.stdin)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main(sys.argv[1:]))
