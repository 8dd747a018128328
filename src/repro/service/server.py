"""The asyncio HTTP server and job dispatcher (``repro serve``).

This is the only service module that reads a clock (``time.monotonic``;
it is on the RPL103 determinism allowlist) and the only one that speaks
sockets.  Everything else — rate limiting, admission, breaking, the job
table, the verify-before-serve cache — is clock-explicit and tested
without a single socket.

Shape of the service::

    accept loop ──HTTP/1.1──> ProtectionPipeline ──> handlers
                                                        │ enqueue
                                       bounded asyncio.Queue (capacity
                                       = AdmissionPolicy.depth)
                                                        │
    dispatcher coroutines (config.parallel_jobs of them) ──┤
        breaker gate ──> thread pool ──> run_campaign() ──> scan the
        run's CRC'd journal ──> verify ──> ResultCache.store

Stdlib only (``asyncio.start_server`` plus a ~40-line HTTP/1.1 reader);
the framework is the absence of one.  Connections are one-shot
(``Connection: close``) — clients poll, they do not stream.

Chaos hooks (:data:`repro.resilience.faults.SERVICE_FAULT_MODES`):

* ``slow-client`` — the connection is treated as a dribbler: ``408``
  and close, same as a real client that trickles its headers past
  ``header_timeout_s``.
* ``request-flood`` — handled in the middleware (token-cost
  amplification).
* ``backend-partition`` — the dispatcher records a synthetic executor
  loss instead of submitting, which is what drives the circuit breaker
  open in the chaos suite.
* ``corrupt-cached-result`` — bits are flipped in the just-stored
  artifact; the *next* serve quarantines it and re-runs the simulation
  (the verify-before-serve path, exercised end to end).
"""

from __future__ import annotations

import asyncio
import importlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.resilience.faults import FaultInjector
from repro.runner.journal import completed_fingerprints, scan_journal
from repro.runner.scheduler import run_campaign
from repro.runner.supervisor import CampaignConfig, RetryPolicy
from repro.runner.tasks import DEFAULT_REGISTRY_SPEC, CampaignTask
from repro.service import handlers
from repro.service.jobstore import QUEUED, RUNNING, Job, JobStore
from repro.service.middleware import ProtectionPipeline, Request, Response
from repro.service.protection import (
    AdmissionPolicy,
    CircuitBreaker,
    RateLimiter,
)
from repro.service.resultcache import ResultCache, entry_unservable_reason

#: Largest request body the service will read (a job submission is a
#: few hundred bytes; anything near this is abuse, not a job).
MAX_BODY_BYTES = 1 << 20

#: Largest request head (request line + headers) we will buffer.
MAX_HEAD_BYTES = 1 << 14


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: pick a free port (tests); CLI default is 8642
    data_dir: str = "service-data"
    registry_spec: str = DEFAULT_REGISTRY_SPEC
    backend: str = "inproc"
    #: Worker concurrency inside each job's campaign run.
    workers: int = 1
    #: Dispatcher coroutines = jobs simulated concurrently.
    parallel_jobs: int = 2
    #: Wall-clock budget for one job run (service-level timeout).
    job_timeout_s: float = 60.0
    #: Service-level dispatch attempts per job (requeues after backend
    #: losses); each attempt may wrap scheduler-level retries too.
    max_job_attempts: int = 3
    #: Scheduler-level retry budget inside one attempt.
    scheduler_retries: int = 1
    rate_per_s: float = 20.0
    burst: float = 40.0
    max_clients: int = 1024
    queue_depth: int = 64
    shed_watermark: int = 48
    breaker_threshold: int = 3
    breaker_reset_s: float = 2.0
    #: Retry-After hint for queue sheds (breaker sheds compute theirs).
    retry_after_s: float = 1.0
    header_timeout_s: float = 5.0
    body_timeout_s: float = 5.0
    oracle_mode: str = "sample"
    injector: Optional[FaultInjector] = None
    retry_policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_retries=0, backoff_base_s=0.05)
    )

    def __post_init__(self) -> None:
        # Fail on a bad configuration at config time (the CLI maps
        # ValueError to exit 2), not after the listener is up.
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_reset_s <= 0:
            raise ValueError("breaker_reset_s must be positive")
        if self.rate_per_s <= 0 or self.burst < 1:
            raise ValueError("rate_per_s must be > 0 and burst >= 1")
        if not 1 <= self.shed_watermark <= self.queue_depth:
            raise ValueError("shed_watermark must be in [1, queue_depth]")
        if self.parallel_jobs < 1 or self.workers < 1:
            raise ValueError("parallel_jobs and workers must be >= 1")
        if self.job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be positive")
        if self.max_job_attempts < 1:
            raise ValueError("max_job_attempts must be >= 1")
        from repro.runner.backends import parse_backend_spec

        parse_backend_spec(self.backend)

    @property
    def cache_dir(self) -> Path:
        return Path(self.data_dir) / "results"

    @property
    def spool_dir(self) -> Path:
        return Path(self.data_dir) / "spool"

    @property
    def journal_path(self) -> Path:
        return Path(self.data_dir) / "service-journal.jsonl"


def _resolve_registry(spec: str) -> Any:
    """Import ``module.path:ATTRIBUTE`` (same convention as workers)."""
    module_path, _, attr = spec.partition(":")
    if not module_path or not attr:
        raise ValueError(f"registry spec must be 'module:ATTR', got {spec!r}")
    return getattr(importlib.import_module(module_path), attr)


class ReproService:
    """The running service: HTTP front end + job dispatcher back end."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.registry = _resolve_registry(config.registry_spec)
        self.registry_spec = config.registry_spec
        config.spool_dir.mkdir(parents=True, exist_ok=True)
        self.jobs = JobStore(journal_path=str(config.journal_path))
        self.cache = ResultCache(config.cache_dir)
        self.limiter = RateLimiter(
            config.rate_per_s, config.burst, config.max_clients
        )
        self.policy = AdmissionPolicy(
            depth=config.queue_depth, watermark=config.shed_watermark
        )
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            reset_after_s=config.breaker_reset_s,
        )
        self.stats: Dict[str, int] = {}
        self.pipeline = ProtectionPipeline(
            self.limiter, self.stats, injector=config.injector,
            flood_cost_factor=1.0,
        )
        #: Aggregated backend tallies across every campaign this
        #: service ran — the numbers ``repro sweep --json`` reports per
        #: campaign, summed for ``/stats``.
        self.backend_totals: Dict[str, int] = {
            "campaigns": 0,
            "executors_lost": 0,
            "leases_reclaimed": 0,
            "work_stolen": 0,
            "duplicates_discarded": 0,
            "retries_used": 0,
        }
        self._queue: "asyncio.Queue[str]" = asyncio.Queue(
            maxsize=config.queue_depth
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, config.parallel_jobs),
            thread_name_prefix="repro-job",
        )
        self._dispatchers: list[asyncio.Task] = []
        #: Set by :meth:`stop`; every dispatcher exits at its next turn.
        self._stopping = False
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: int = 0

    # The service's single clock.  Everything below threads this value
    # through the clock-explicit protection primitives.
    def now(self) -> float:
        return time.monotonic()

    # -- duck-typed surface the handlers use ---------------------------------

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def enqueue(self, job: Job) -> bool:
        """Admit *job* to the bounded queue; False when full (shed)."""
        try:
            self._queue.put_nowait(job.fingerprint)
        except asyncio.QueueFull:
            return False
        return True

    def note_done_from_cache(
        self, fingerprint: str, entry: Dict[str, Any]
    ) -> None:
        """Reconcile the job table with a verified artifact.

        A warm cache outlives job records (service restart), so a hit
        for an unknown fingerprint materializes a ``done`` job; a hit
        for a queued/running job is left alone — the dispatcher will
        see the artifact and finish the job without re-running it.
        """
        job = self.jobs.get(fingerprint)
        if job is None:
            job, created = self.jobs.get_or_create(
                fingerprint,
                str(entry.get("experiment_id")),
                entry.get("kwargs") or {},
                entry.get("seed"),
                self.registry_spec,
            )
            if created:
                self.jobs.mark_done(job)

    def stats_snapshot(self, now: float) -> Dict[str, Any]:
        depth = self.queue_depth()
        return {
            "service": {k: self.stats[k] for k in sorted(self.stats)},
            "jobs": self.jobs.counts(),
            "cache": self.cache.snapshot(),
            "breaker": self.breaker.snapshot(),
            "limiter": {"clients": len(self.limiter)},
            "queue": {
                "depth": depth,
                "capacity": self.config.queue_depth,
                "watermark": self.config.shed_watermark,
                "shedding": not self.policy.admit(depth),
            },
            "backend": dict(
                self.backend_totals, spec=self.config.backend
            ),
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatchers = [
            asyncio.get_running_loop().create_task(self._dispatch_loop())
            for _ in range(max(1, self.config.parallel_jobs))
        ]

    async def stop(self) -> None:
        # The cancel interrupts whatever a dispatcher is awaiting, but
        # on 3.11 ``asyncio.wait_for`` in ``_process`` swallows a cancel
        # that lands as its executor future completes; the stop flag is
        # what guarantees the dispatcher loop ends either way.
        self._stopping = True
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._dispatchers = []
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=False, cancel_futures=True)
        self.jobs.close()

    # -- HTTP front end ------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            response = await self._serve_one(reader, writer)
            writer.write(response.serialize())
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception as exc:  # last-ditch guard: still never a 500
            try:
                writer.write(self.pipeline.guard(exc).serialize())
                await writer.drain()
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Response:
        peername = writer.get_extra_info("peername") or ("?",)
        peer = str(peername[0])
        injector = self.config.injector
        if injector is not None and injector.service_fault(
            "slow-client", peer
        ):
            # Chaos: pretend this client dribbled its request past the
            # header deadline — same observable outcome as the real
            # timeout below, without tying up a socket for seconds.
            self._count_status(408)
            self.stats["slow_clients"] = self.stats.get("slow_clients", 0) + 1
            return Response(408, {"error": "request header read timed out"})
        try:
            request = await self._read_request(reader, peer)
        except asyncio.TimeoutError:
            self._count_status(408)
            self.stats["slow_clients"] = self.stats.get("slow_clients", 0) + 1
            return Response(408, {"error": "request read timed out"})
        except ValueError as exc:
            self._count_status(400)
            return Response(400, {"error": str(exc)})
        now = self.now()
        response = self.pipeline.before(request, now)
        if response is None:
            try:
                response = handlers.route(self, request, now)
            except Exception as exc:
                response = self.pipeline.guard(exc)
        self._count_status(response.status)
        return response

    async def _read_request(
        self, reader: asyncio.StreamReader, peer: str
    ) -> Request:
        """Minimal HTTP/1.1 request reader (one request per connection)."""
        cfg = self.config
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=cfg.header_timeout_s
            )
        except asyncio.IncompleteReadError as exc:
            raise ValueError("connection closed mid-request") from exc
        except asyncio.LimitOverrunError as exc:
            raise ValueError("request head too large") from exc
        if len(head) > MAX_HEAD_BYTES:
            raise ValueError("request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise ValueError(f"malformed request line: {lines[0]!r}")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError as exc:
            raise ValueError("malformed content-length") from exc
        if not 0 <= length <= MAX_BODY_BYTES:
            raise ValueError("content-length out of range")
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=cfg.body_timeout_s
                )
            except asyncio.IncompleteReadError as exc:
                raise ValueError("connection closed mid-body") from exc
        return Request(
            method=method, path=path, headers=headers, body=body, peer=peer
        )

    def _count_status(self, status: int) -> None:
        key = f"http_{status}"
        self.stats[key] = self.stats.get(key, 0) + 1

    # -- dispatcher back end -------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while not self._stopping:
            fingerprint = await self._queue.get()
            try:
                await self._process(fingerprint)
            except asyncio.CancelledError:
                raise
            except Exception:
                # A dispatcher must never die: the job is marked failed
                # and the loop keeps draining the queue.
                job = self.jobs.get(fingerprint)
                if job is not None and job.state == QUEUED:
                    self.jobs.mark_failed(
                        job, "dispatcher error", "DispatchError"
                    )
            finally:
                self._queue.task_done()

    async def _process(self, fingerprint: str) -> None:
        job = self.jobs.get(fingerprint)
        if job is None or job.state != QUEUED:
            return  # stale queue token (job already handled elsewhere)
        entry, _why = self.cache.load_verified(fingerprint)
        if entry is not None:
            # Someone (a previous attempt, a sibling service) already
            # produced a verified artifact: finish without simulating.
            self.jobs.mark_done(job)
            return
        # Breaker gate: while the circuit is open, dispatchers idle and
        # the queue backs up — which is exactly what pushes admission
        # over its watermark and turns backend failure into 503s at the
        # front door instead of a pile-up here.
        while not self.breaker.allow(self.now()):
            await asyncio.sleep(
                min(0.05, self.config.breaker_reset_s / 4)
            )
        if job.state != QUEUED:
            # Re-validate after parking on the breaker: while this
            # coroutine slept, the job may have been shed, failed by a
            # sibling dispatcher, or completed from cache.  Marking it
            # running anyway would overwrite that transition.
            return
        self.jobs.mark_running(job)
        injector = self.config.injector
        if injector is not None and injector.service_fault(
            "backend-partition", fingerprint
        ):
            self.stats["partition_injected"] = (
                self.stats.get("partition_injected", 0) + 1
            )
            self._job_failed(
                job,
                "injected backend partition: executor unreachable",
                "ExecutorLost",
                backend_fault=True,
            )
            return
        self.jobs.mark_simulated(job)
        loop = asyncio.get_running_loop()
        try:
            report = await asyncio.wait_for(
                loop.run_in_executor(self._pool, self._run_job_sync, job),
                timeout=self.config.job_timeout_s,
            )
        except asyncio.TimeoutError:
            self.stats["job_timeouts"] = self.stats.get("job_timeouts", 0) + 1
            self._job_failed(
                job,
                f"job exceeded its {self.config.job_timeout_s:g}s "
                f"wall-clock budget",
                "Timeout",
                backend_fault=True,
            )
            return
        except Exception as exc:
            self._job_failed(job, str(exc), type(exc).__name__,
                             backend_fault=True)
            return
        self._absorb_report(report)
        if job.state != RUNNING:
            # Re-validate after the executor await: only a job still
            # in this dispatcher's custody may be completed or failed
            # here (a resubmission could already have re-queued it).
            return
        entry = self._winning_entry(job)
        if entry is None:
            error, error_type, backend_fault = self._classify_failure(report)
            self._job_failed(job, error, error_type,
                             backend_fault=backend_fault)
            return
        reason = entry_unservable_reason(fingerprint, entry)
        if reason is not None:
            # The backend worked; the *result* is unservable (oracle
            # violations, tampered line).  Not a breaker event.
            self.breaker.record_success()
            self.jobs.mark_failed(job, reason, "Unservable")
            return
        path = self.cache.store(fingerprint, entry)
        if injector is not None and injector.service_fault(
            "corrupt-cached-result", fingerprint
        ):
            # Chaos: rot the artifact *after* the store.  Nothing here
            # notices — the point is that the next serve must.
            self.stats["corruption_injected"] = (
                self.stats.get("corruption_injected", 0) + 1
            )
            injector.flip_file_bits(path, n_flips=8, offset_min=16)
        self.breaker.record_success()
        self.jobs.mark_done(job)

    def _run_job_sync(self, job: Job) -> Any:
        """One campaign run for one job (thread-pool side; no service
        state is touched here — the result flows back as the report)."""
        cfg = self.config
        task = CampaignTask(
            task_id=job.fingerprint,
            experiment_id=job.experiment_id,
            kwargs=dict(job.kwargs),
            seed=job.seed,
            registry_spec=job.registry_spec,
        )
        campaign = CampaignConfig(
            workers=max(1, cfg.workers),
            task_timeout_s=cfg.job_timeout_s,
            retry=RetryPolicy(max_retries=cfg.scheduler_retries),
            journal_path=str(self._attempt_journal(job)),
            backend=cfg.backend,
            oracle_mode=cfg.oracle_mode,
        )
        return run_campaign([task], campaign)

    def _attempt_journal(self, job: Job) -> Path:
        """Per-attempt spool journal (attempts never share a file, so a
        torn journal from a timed-out attempt cannot shadow a clean
        later one)."""
        return (
            self.config.spool_dir
            / f"{job.fingerprint}.a{job.attempts}.jsonl"
        )

    def _winning_entry(self, job: Job) -> Optional[Dict[str, Any]]:
        """The CRC'd ``ok`` journal entry of the attempt, if any."""
        entries, _torn, _crc_failed = scan_journal(
            self._attempt_journal(job)
        )
        return completed_fingerprints(entries).get(job.fingerprint)

    def _absorb_report(self, report: Any) -> None:
        """Fold one campaign's backend tallies into the service totals."""
        tallies = report.backend_tallies()
        self.backend_totals["campaigns"] += 1
        self.backend_totals["executors_lost"] += tallies["executors_lost"]
        self.backend_totals["leases_reclaimed"] += tallies["leases_reclaimed"]
        self.backend_totals["work_stolen"] += tallies["work_stolen"]
        self.backend_totals["duplicates_discarded"] += (
            tallies["duplicates_discarded"]
        )
        self.backend_totals["retries_used"] += report.retries_used

    def _classify_failure(self, report: Any) -> tuple[str, str, bool]:
        """``(error, error_type, backend_fault)`` for a failed run.

        Executor losses are backend faults (they feed the breaker);
        experiment errors are the task's own problem and must not open
        the circuit — a dead backend and a bad input are different
        failures with different remedies.
        """
        error, error_type = "task did not complete", "Unknown"
        for task_entry in getattr(report, "tasks", []):
            if task_entry.get("status") != "ok":
                error = str(task_entry.get("error") or error)
                error_type = str(task_entry.get("error_type") or "TaskFailed")
        backend_fault = (
            getattr(report, "executors_lost", 0) > 0
            or error_type == "ExecutorLost"
        )
        return error, error_type, backend_fault

    def _job_failed(
        self, job: Job, error: str, error_type: str, backend_fault: bool
    ) -> None:
        """Record one failed attempt: breaker, then retry-or-fail."""
        if backend_fault:
            self.breaker.record_failure(self.now())
        if backend_fault and job.attempts < self.config.max_job_attempts:
            self.jobs.mark_requeued(job, f"{error_type}: {error}")
            delay_s = self.config.retry_policy.delay_s(
                job.fingerprint, job.attempts
            )
            loop = asyncio.get_running_loop()
            loop.create_task(self._requeue_later(job, delay_s))
            return
        self.jobs.mark_failed(job, error, error_type)

    async def _requeue_later(self, job: Job, delay_s: float) -> None:
        """Backoff, then re-admit; a full queue finalizes the failure
        (never an unbounded wait — the queue's bound is the contract)."""
        await asyncio.sleep(delay_s)
        if job.state != QUEUED:
            return
        if not self.enqueue(job):
            self.jobs.mark_failed(
                job, "re-run queue full after backend loss", "Shed"
            )


class ServiceThread:
    """Run a :class:`ReproService` on a background thread (tests, CI).

    Context manager::

        with ServiceThread(ServiceConfig(port=0, ...)) as svc:
            http_post(f"http://127.0.0.1:{svc.port}/jobs", ...)
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.service: Optional[ReproService] = None
        self.port: int = 0
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced to the starting thread
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.service = ReproService(self.config)
        await self.service.start()
        self.port = self.service.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.service.stop()

    def __enter__(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service did not start within 30s")
        if self._error is not None:
            raise RuntimeError(
                f"service failed to start: {self._error!r}"
            ) from self._error
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def stop(self) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        self._thread.join(timeout=30.0)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop within 30s")


def run_service(config: ServiceConfig) -> int:
    """Blocking entry point for ``repro serve`` (Ctrl-C to stop)."""

    async def _serve() -> None:
        service = ReproService(config)
        await service.start()
        print(
            f"repro service on http://{config.host}:{service.port} "
            f"(backend={config.backend}, registry={config.registry_spec})",
            flush=True,
        )
        try:
            await asyncio.Event().wait()  # until cancelled
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0
