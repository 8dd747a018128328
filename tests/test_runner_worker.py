"""Long-lived worker processes: one per pool slot, isolated per task.

These drive :class:`repro.runner.pool.WorkerPool` directly, so each test
can see which worker process served which task.  A worker serves task
after task, but every task must see the state a fresh process would
have, and every chaos mode must cost only its own attempt.
"""

import itertools
import json
import os
import signal
import sys
import time

import pytest

from repro.runner.pool import WorkerPool
from repro.runner.tasks import DEFAULT_REGISTRY_SPEC, CampaignTask

from tests.campaign_fixtures import FAST_REGISTRY_SPEC

_IDS = itertools.count()


def _spec(experiment_id, registry_spec=FAST_REGISTRY_SPEC, kwargs=None,
          **extra):
    task = CampaignTask(
        task_id=f"{experiment_id}#{next(_IDS)}",
        experiment_id=experiment_id,
        kwargs=kwargs or {},
        registry_spec=registry_spec,
    )
    spec = dict(
        task.to_spec(),
        attempt=0,
        heartbeat_every_s=0.05,
        sys_path=[p for p in sys.path if p],
    )
    spec.update(extra)
    return spec


def _run(pool, spec, timeout_s=60.0):
    """Launch *spec* and poll to its outcome; returns (outcome, pid)."""
    handle = pool.launch(spec, timeout_s)
    deadline = time.monotonic() + timeout_s + 30.0
    while time.monotonic() < deadline:
        outcomes, _beats = pool.poll()
        if outcomes:
            return outcomes[0], handle.proc.pid
        time.sleep(0.02)
    raise AssertionError(f"no outcome for {spec['task_id']}")


@pytest.fixture
def pool(tmp_path):
    pool = WorkerPool(tmp_path / "scratch", heartbeat_timeout_s=1.0,
                      kill_grace_s=0.5)
    yield pool
    pool.kill_all()


def _headlines():
    return _spec("headlines", DEFAULT_REGISTRY_SPEC, {"nx": 16})


def _canonical(outcome):
    return (json.dumps(outcome["result"], sort_keys=True),
            json.dumps(outcome["oracles"], sort_keys=True))


class TestFreshStatePerTask:
    def test_task_repeats_byte_identically_after_another(self, tmp_path,
                                                         pool):
        first, pid = _run(pool, _headlines())
        # B fills the operator cache with other geometries under strict
        # oracles; A must not see either afterwards.
        other, pid_b = _run(pool, _spec(
            "table-5", DEFAULT_REGISTRY_SPEC, {"nx": 16},
            oracle_mode="strict",
        ))
        again, pid_again = _run(pool, _headlines())
        assert pid == pid_b == pid_again  # one process served all three
        assert [o["status"] for o in (first, other, again)] == ["ok"] * 3
        assert _canonical(first) == _canonical(again)

        lone_pool = WorkerPool(tmp_path / "lone")
        try:
            lone, _pid = _run(lone_pool, _headlines())
        finally:
            lone_pool.kill_all()
        assert _canonical(lone) == _canonical(first)

    def test_flip_operator_hook_does_not_outlive_its_task(self, pool):
        table5 = ("table-5", DEFAULT_REGISTRY_SPEC, {"nx": 16})
        # The hook fires inside its own task: strict oracles see it.
        flipped, pid = _run(pool, _spec(
            *table5, oracle_mode="strict", chaos="flip-operator",
        ))
        assert flipped["oracles"]["violations"]
        # Armed in a task that never reuses an operator, it must be
        # disarmed before the next task, which does.
        armed, pid_armed = _run(pool, _spec("quick", chaos="flip-operator"))
        clean, pid_clean = _run(pool, _spec(*table5, oracle_mode="strict"))
        assert pid == pid_armed == pid_clean
        assert armed["status"] == clean["status"] == "ok"
        assert clean["oracles"]["total_checks"] > 0
        assert clean["oracles"]["violations"] == []


class TestChaosCostsOneAttempt:
    @pytest.mark.parametrize("chaos, status", [
        ("crash", "crash"),
        ("hang", "timeout"),
        ("stall", "worker-dead"),
        ("corrupt-result", "corrupt-result"),
    ])
    def test_next_task_runs_on_a_fresh_worker(self, pool, chaos, status):
        warm, pid = _run(pool, _spec("quick"))
        assert warm["status"] == "ok"
        faulted, pid_faulted = _run(
            pool, _spec("quick", chaos=chaos), timeout_s=3.0
        )
        assert pid_faulted == pid  # the chaos landed on the warm worker
        assert faulted["status"] == status
        after, pid_after = _run(pool, _spec("quick"))
        assert after["status"] == "ok"
        assert pid_after != pid

    def test_experiment_error_keeps_the_worker(self, pool):
        failed, pid = _run(pool, _spec("boom"))
        assert failed["status"] == "error"
        after, pid_after = _run(pool, _spec("quick"))
        assert after["status"] == "ok" and pid_after == pid


class TestIdleWorkers:
    def test_sigkilled_idle_worker_is_replaced(self, pool):
        _first, pid = _run(pool, _spec("quick"))
        os.kill(pid, signal.SIGKILL)
        # Wait for the death without reaping: the pool must find it.
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        after, pid_after = _run(pool, _spec("quick"))
        assert after["status"] == "ok"
        assert after["attempt"] == 0
        assert pid_after != pid

    def test_shutdown_closes_stdin_and_reaps(self, pool):
        _first, pid = _run(pool, _spec("quick"))
        [idle] = pool._idle
        assert idle.pid == pid
        started = time.monotonic()
        pool.kill_all(grace_s=30.0)
        assert time.monotonic() - started < 10.0
        assert idle.returncode == 0  # exited on EOF, not killed
