"""End-to-end tests of the simulation service over real sockets.

Each test boots a :class:`ServiceThread` on a free port with the fast
fixture registry and the synchronous ``inproc`` backend, then speaks
plain HTTP at it.  These are the acceptance tests of the robustness
claims: single-flight coalescing, byte-identical serving, rate-limit
and watermark shedding, the circuit breaker under a backend partition,
verify-before-serve re-runs of corrupted artifacts, and slow-client
timeouts — with the hard invariant that chaos traffic only ever sees
200/400/404/408/429/503, never a 500.
"""

import http.client
import json
import socket
import threading
import time

from repro.resilience.faults import FaultInjector
from repro.service.server import ServiceConfig, ServiceThread

from tests.campaign_fixtures import FAST_REGISTRY_SPEC

POLL_DEADLINE_S = 60.0


def request(port, method, path, body=None, client="t", timeout=15.0):
    """One HTTP exchange; returns ``(status, headers, raw_body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            method,
            path,
            body=json.dumps(body) if body is not None else None,
            headers={"X-Client-Id": client},
        )
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def submit(port, experiment, seed=None, kwargs=None, client="t"):
    return request(
        port, "POST", "/jobs",
        {"experiment": experiment, "seed": seed, "kwargs": kwargs or {}},
        client=client,
    )


def poll_until(port, job_id, states=("done", "failed"), client="t"):
    """Poll GET /jobs/{id} until a terminal state; returns last body."""
    deadline = time.monotonic() + POLL_DEADLINE_S
    while time.monotonic() < deadline:
        status, _headers, raw = request(
            port, "GET", f"/jobs/{job_id}", client=client
        )
        if status == 200 and json.loads(raw).get("status") in states:
            return json.loads(raw), raw
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached {states}")


def service(tmp_path, **overrides):
    defaults = dict(
        port=0,
        data_dir=str(tmp_path / "svc"),
        registry_spec=FAST_REGISTRY_SPEC,
        backend="inproc",
        job_timeout_s=30.0,
        rate_per_s=500.0,
        burst=500.0,
    )
    defaults.update(overrides)
    return ServiceThread(ServiceConfig(**defaults))


class TestRoundtrip:
    def test_submit_poll_serve_byte_identical(self, tmp_path):
        with service(tmp_path) as svc:
            status, _h, raw = submit(svc.port, "quick", seed=7)
            assert status == 200
            job_id = json.loads(raw)["job_id"]
            view, first = poll_until(svc.port, job_id)
            assert view["status"] == "done"
            assert view["result"]["value"] == 42
            assert view["cached"] is True
            # Two requests for the same fingerprint: byte-identical.
            _s, _h, second = request(svc.port, "GET", f"/jobs/{job_id}")
            assert first == second
            # Re-POSTing the same triple is a cache hit, same bytes.
            status, _h, third = submit(svc.port, "quick", seed=7)
            assert status == 200 and third == first

    def test_different_seeds_are_different_jobs(self, tmp_path):
        with service(tmp_path) as svc:
            _s, _h, a = submit(svc.port, "quick", seed=1)
            _s, _h, b = submit(svc.port, "quick", seed=2)
            assert json.loads(a)["job_id"] != json.loads(b)["job_id"]

    def test_experiment_error_fails_cleanly(self, tmp_path):
        with service(tmp_path) as svc:
            _s, _h, raw = submit(svc.port, "boom")
            view, _raw = poll_until(svc.port, json.loads(raw)["job_id"])
            assert view["status"] == "failed"
            assert view["error"]
            # An experiment bug is not a backend fault: breaker closed.
            _s, _h, stats = request(svc.port, "GET", "/stats")
            assert json.loads(stats)["breaker"]["state"] == "closed"

    def test_bad_requests_and_unknown_routes(self, tmp_path):
        with service(tmp_path) as svc:
            status, _h, raw = submit(svc.port, "no-such-experiment")
            assert status == 400 and b"unknown experiment" in raw
            status, _h, _raw = request(
                svc.port, "POST", "/jobs", {"experiment": "quick",
                                            "kwargs": "not-a-dict"}
            )
            assert status == 400
            status, _h, _raw = request(svc.port, "GET", "/jobs/ffffffff")
            assert status == 404
            status, _h, _raw = request(svc.port, "GET", "/nope")
            assert status == 404

    def test_healthz_and_stats_shapes(self, tmp_path):
        with service(tmp_path) as svc:
            _s, _h, raw = request(svc.port, "GET", "/healthz")
            health = json.loads(raw)
            assert health["ok"] is True
            assert health["breaker"]["state"] == "closed"
            _s, _h, raw = request(svc.port, "GET", "/stats")
            stats = json.loads(raw)
            assert stats["backend"]["spec"] == "inproc"
            # The lease-table/backend tallies scripts consume.
            for key in ("executors_lost", "leases_reclaimed",
                        "work_stolen", "duplicates_discarded"):
                assert key in stats["backend"]
            assert stats["queue"]["capacity"] == 64


class TestSingleFlight:
    def test_concurrent_submissions_one_simulation(self, tmp_path):
        with service(tmp_path, parallel_jobs=2) as svc:
            n_clients = 8
            results = [None] * n_clients

            def one(i):
                results[i] = submit(
                    svc.port, "slow", seed=5,
                    kwargs={"sleep_s": 0.8}, client=f"c{i}",
                )

            threads = [
                threading.Thread(target=one, args=(i,))
                for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(status == 200 for status, _h, _r in results)
            job_ids = {json.loads(raw)["job_id"] for _s, _h, raw in results}
            assert len(job_ids) == 1  # content-addressed: one job
            job_id = job_ids.pop()
            _view, first = poll_until(svc.port, job_id)
            _s, _h, stats = request(svc.port, "GET", "/stats")
            jobs = json.loads(stats)["jobs"]
            # The acceptance criterion: N submissions, ONE simulation.
            assert jobs["simulations"] == 1
            assert jobs["coalesced"] >= 1
            # And everyone reads back the identical bytes.
            _s, _h, second = request(svc.port, "GET", f"/jobs/{job_id}")
            assert first == second


class TestShedding:
    def test_rate_limit_429_with_retry_after(self, tmp_path):
        with service(tmp_path, rate_per_s=1.0, burst=2.0) as svc:
            statuses, retry_after = [], None
            for i in range(6):
                status, headers, _raw = submit(
                    svc.port, "quick", seed=100 + i, client="greedy"
                )
                statuses.append(status)
                if status == 429:
                    retry_after = headers.get("retry-after")
            assert 429 in statuses
            assert retry_after is not None and int(retry_after) >= 1
            # Another client is not collateral damage.
            status, _h, _raw = submit(
                svc.port, "quick", seed=999, client="innocent"
            )
            assert status == 200

    def test_healthz_unmetered_under_rate_limit(self, tmp_path):
        with service(tmp_path, rate_per_s=1.0, burst=1.0) as svc:
            submit(svc.port, "quick", seed=1, client="x")
            for _ in range(5):
                status, _h, _raw = request(
                    svc.port, "GET", "/healthz", client="x"
                )
                assert status == 200

    def test_queue_watermark_sheds_503(self, tmp_path):
        with service(
            tmp_path,
            parallel_jobs=1,
            queue_depth=2,
            shed_watermark=1,
        ) as svc:
            statuses = []
            for i in range(6):
                status, _h, _raw = submit(
                    svc.port, "slow", seed=i, kwargs={"sleep_s": 1.5},
                    client=f"c{i}",
                )
                statuses.append(status)
            assert 503 in statuses  # over the watermark: shed
            assert set(statuses) <= {200, 503}  # bounded, never an error

    def test_shed_submission_leaves_no_ghost_job(self, tmp_path):
        from repro.core.experiments import task_fingerprint

        with service(
            tmp_path,
            parallel_jobs=1,
            queue_depth=2,
            shed_watermark=1,
        ) as svc:
            shed_seed = None
            for i in range(6):
                status, _h, _raw = submit(
                    svc.port, "slow", seed=i, kwargs={"sleep_s": 1.0}
                )
                if status == 503:
                    shed_seed = i
                    break
            assert shed_seed is not None
            fp = task_fingerprint("slow", {"sleep_s": 1.0}, shed_seed)
            # A shed submission was never admitted: no ghost record
            # that a later coalesce could wait on forever.
            status, _h, _raw = request(svc.port, "GET", f"/jobs/{fp}")
            assert status == 404
            # Once load drains, the same triple is admissible again
            # and runs to completion.
            deadline = time.monotonic() + POLL_DEADLINE_S
            while time.monotonic() < deadline:
                status, _h, raw = submit(
                    svc.port, "slow", seed=shed_seed,
                    kwargs={"sleep_s": 1.0},
                )
                if status == 200:
                    break
                time.sleep(0.1)
            assert status == 200
            view, _raw = poll_until(svc.port, fp)
            assert view["status"] == "done"


class TestChaos:
    def test_backend_partition_breaker_opens_then_heals(self, tmp_path):
        injector = FaultInjector(
            seed=0, forced_failures={"backend-partition": 3}
        )
        with service(
            tmp_path,
            injector=injector,
            breaker_threshold=2,
            breaker_reset_s=0.2,
            max_job_attempts=6,
        ) as svc:
            codes = []
            status, _h, raw = submit(svc.port, "quick", seed=50)
            codes.append(status)
            job_id = json.loads(raw)["job_id"]
            # Keep poking while the partition plays out; some POSTs for
            # new work should shed 503 off the open breaker.
            for i in range(40):
                status, _h, _raw = submit(svc.port, "quick", seed=200 + i)
                codes.append(status)
                time.sleep(0.03)
            assert set(codes) <= {200, 429, 503}
            view, _raw = poll_until(svc.port, job_id)
            assert view["status"] == "done"  # healed: partition budget ran dry
            _s, _h, raw = request(svc.port, "GET", "/stats")
            stats = json.loads(raw)
            assert stats["breaker"]["opens"] >= 1
            assert stats["service"].get("partition_injected", 0) == 3
            assert not any(k.startswith("http_5") and k != "http_503"
                           for k in stats["service"])

    def test_request_flood_shed_then_recovery(self, tmp_path):
        injector = FaultInjector(
            seed=0, forced_failures={"request-flood": 2}
        )
        with service(
            tmp_path, injector=injector, rate_per_s=200.0, burst=20.0
        ) as svc:
            codes = []
            for i in range(8):
                status, _h, _raw = submit(
                    svc.port, "quick", seed=300 + i, client="flooder"
                )
                codes.append(status)
            # The amplified requests drain the bucket: some 429s, but
            # only the shed codes, and the service stays up.
            assert 429 in codes
            assert set(codes) <= {200, 429}
            _view, _raw = poll_until(
                svc.port,
                json.loads(submit(svc.port, "quick", seed=300)[2])["job_id"],
            )

    def test_corrupt_cached_result_requeued_and_rerun(self, tmp_path):
        injector = FaultInjector(
            seed=0, forced_failures={"corrupt-cached-result": 1}
        )
        with service(tmp_path, injector=injector) as svc:
            _s, _h, raw = submit(svc.port, "quick", seed=77)
            job_id = json.loads(raw)["job_id"]
            # The first completion's artifact is rotted post-store; the
            # serve path must quarantine it and re-run, then serve a
            # clean result.  Polling rides through the requeue.
            view, _raw = poll_until(svc.port, job_id)
            assert view["status"] == "done"
            assert view["result"]["value"] == 42
            _s, _h, raw = request(svc.port, "GET", "/stats")
            stats = json.loads(raw)
            # Exactly one extra simulation: corrupt, re-run, serve.
            assert stats["jobs"]["simulations"] == 2
            assert stats["cache"]["quarantined"] == 1
            assert stats["service"]["corruption_injected"] == 1
            quarantined = list(
                (tmp_path / "svc" / "results").glob("*.quarantined")
            )
            assert len(quarantined) == 1

    def test_injected_slow_client_408(self, tmp_path):
        injector = FaultInjector(
            seed=0, forced_failures={"slow-client": 1}
        )
        with service(tmp_path, injector=injector) as svc:
            status, _h, _raw = request(svc.port, "GET", "/healthz")
            assert status == 408
            status, _h, _raw = request(svc.port, "GET", "/healthz")
            assert status == 200  # budget consumed; service healthy


class TestSlowClientReal:
    def test_dribbled_headers_time_out_408(self, tmp_path):
        with service(tmp_path, header_timeout_s=0.3) as svc:
            with socket.create_connection(
                ("127.0.0.1", svc.port), timeout=10.0
            ) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x")
                # ...and never finish the headers.
                data = sock.recv(4096)
            assert b"408" in data.split(b"\r\n", 1)[0]
            # The stalled socket did not wedge the service.
            status, _h, _raw = request(svc.port, "GET", "/healthz")
            assert status == 200


class TestWarmRestart:
    def test_cache_survives_restart_and_serves_identically(self, tmp_path):
        with service(tmp_path) as svc:
            _s, _h, raw = submit(svc.port, "quick", seed=31)
            job_id = json.loads(raw)["job_id"]
            _view, first = poll_until(svc.port, job_id)
        # Fresh process state, same data dir: the content-addressed
        # artifact alone is authoritative.
        with service(tmp_path) as svc:
            status, _h, second = request(svc.port, "GET", f"/jobs/{job_id}")
            assert status == 200
            assert second == first
            _s, _h, stats = request(svc.port, "GET", "/stats")
            assert json.loads(stats)["jobs"]["simulations"] == 0


class TestDispatcherRevalidation:
    """_process must re-check job state after parking on the breaker.

    While a dispatcher sleeps on an open circuit, the job it holds can
    be failed, shed, or completed by someone else; marking it running
    afterwards would silently overwrite that transition (and burn an
    attempt).  Regression test for the RPL602 finding.
    """

    def test_breaker_park_revalidates_job_state(self, tmp_path):
        import asyncio

        from repro.service.jobstore import FAILED
        from repro.service.server import ReproService, ServiceConfig

        config = ServiceConfig(
            port=0,
            data_dir=str(tmp_path / "svc"),
            registry_spec=FAST_REGISTRY_SPEC,
            backend="inproc",
            breaker_threshold=1,
            breaker_reset_s=0.3,
        )
        svc = ReproService(config)
        try:
            job, created = svc.jobs.get_or_create(
                "fp-reval", "quick", {}, 7, FAST_REGISTRY_SPEC
            )
            assert created
            svc.breaker.record_failure(svc.now())  # threshold=1: opens

            async def run():
                task = asyncio.create_task(svc._process("fp-reval"))
                await asyncio.sleep(0.05)  # parked on the open breaker
                svc.jobs.mark_failed(job, "shed by operator", "Shed")
                await asyncio.wait_for(task, timeout=10.0)

            asyncio.run(run())
            # the dispatcher observed the transition and backed off:
            # no mark_running (which would flip state and bump attempts)
            assert job.state == FAILED
            assert job.attempts == 0
        finally:
            svc.jobs.close()
            svc._pool.shutdown(wait=False)


class TestShutdown:
    """Stopping with jobs in flight must end the service thread promptly.

    On Python 3.11 ``asyncio.wait_for`` can swallow the cancel that
    ``stop()`` sends a dispatcher whose executor job is just finishing;
    a dispatcher that relied on that cancel went back to waiting on the
    queue and the thread join ran out its timeout.
    """

    def test_stop_with_jobs_in_flight_never_hangs(self, tmp_path):
        for i in range(24):
            svc = service(tmp_path / f"run{i}", parallel_jobs=2)
            with svc:
                for seed in range(4):
                    submit(svc.port, "quick", seed=100 * i + seed)
                started = time.monotonic()
            assert not svc._thread.is_alive(), f"iteration {i} hung"
            assert time.monotonic() - started < 10.0, f"iteration {i}"
