"""Supervised campaign runner: crash-isolated, resumable batch execution.

The paper's evaluation is a campaign of independent artifacts; this
package runs them under a lease-based scheduler over a pluggable
executor backend (``local`` | ``inproc`` | ``nodes:N``), with wall-clock
timeouts, heartbeat watchdogs, bounded retry with deterministic jitter,
and an append-only JSONL journal that makes a killed campaign resumable
(``repro sweep --resume``) — even when the thing that was killed is one
of the executors.

* :mod:`repro.runner.tasks` — task model + glob selection/fingerprints.
* :mod:`repro.runner.journal` — torn-line-tolerant JSONL journal.
* :mod:`repro.runner.worker` — the long-lived worker process entry point.
* :mod:`repro.runner.pool` — supervised pool of worker subprocesses.
* :mod:`repro.runner.supervisor` — campaign config + report model.
* :mod:`repro.runner.scheduler` — the campaign loop: queue, leases,
  retries, journal authority, idempotent completion.
* :mod:`repro.runner.leases` — the clock-free lease table.
* :mod:`repro.runner.backends` — executor backends (mechanism).
* :mod:`repro.runner.node` — node-process entry point (``nodes:N``).
"""

import importlib

#: Lazy re-exports (PEP 562): each long-lived worker process imports this
#: package when it starts (``python -m repro.runner.worker``), and must
#: not pay for the supervisor's imports before its heartbeat starts.
_EXPORTS = {
    "CampaignTask": "tasks",
    "select_tasks": "tasks",
    "DEFAULT_REGISTRY_SPEC": "tasks",
    "Journal": "journal",
    "read_journal": "journal",
    "completed_fingerprints": "journal",
    "make_entry": "journal",
    "JOURNAL_VERSION": "journal",
    "CampaignConfig": "supervisor",
    "CampaignReport": "supervisor",
    "RetryPolicy": "supervisor",
    "run_campaign": "scheduler",
    "Scheduler": "scheduler",
    "Lease": "leases",
    "LeaseTable": "leases",
    "WorkerPool": "pool",
    "Assignment": "backends",
    "BackendEvent": "backends",
    "ExecutorBackend": "backends",
    "make_backend": "backends",
    "parse_backend_spec": "backends",
}


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    module = importlib.import_module(f"repro.runner.{module_name}")
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = list(_EXPORTS)
