"""Two-thread SMP trace generation: kernels -> dependency-annotated records.

Mirrors the paper's trace-generation flow (Section 2.1): the workload runs
on a two-processor SMP (here: two kernel generator instances partitioning
the shared data), and the trace generator emits one record per memory
instruction, annotated with the uid of the earlier record it depends on.
Records from the two cpus are interleaved the way a free-running SMP would
interleave them (round-robin with small random jitter), and uids increase
monotonically over the merged stream.

Two equivalent output forms are produced from one shared stream:
:meth:`TraceGenerator.records` yields validated :class:`TraceRecord`
objects (the original API), and :meth:`TraceGenerator.arrays` packs the
same stream into a :data:`TRACE_DTYPE` numpy structured array — the
batch form consumed by the chunked replay fast path
(:meth:`repro.memsim.replay.TraceReplayer.feed_array`).  Both forms
consume the RNG identically, so a spec maps to one trace regardless of
representation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.traces.deps import DependencyTracker
from repro.traces.kernels.base import KernelParams
from repro.traces.kernels.registry import default_params, get_kernel
from repro.traces.record import AccessType, NO_DEP, TraceRecord

#: Synthetic code region for instruction pointers, one page per kernel site.
_IP_BASE = 0x0040_0000

#: Structured-array layout of a batched trace: one row per record, same
#: fields as :class:`TraceRecord`.  All-int64 keeps row -> record exact.
TRACE_DTYPE = np.dtype(
    [
        ("uid", np.int64),
        ("cpu", np.int64),
        ("kind", np.int64),
        ("address", np.int64),
        ("ip", np.int64),
        ("dep_uid", np.int64),
    ]
)

#: One trace row as a plain tuple: (uid, cpu, kind, address, ip, dep_uid).
TraceRow = Tuple[int, int, int, int, int, int]


def records_to_array(records: Iterable[TraceRecord]) -> np.ndarray:
    """Pack :class:`TraceRecord` objects into a :data:`TRACE_DTYPE` array."""
    rows = [
        (r.uid, r.cpu, int(r.kind), r.address, r.ip, r.dep_uid)
        for r in records
    ]
    if not rows:
        return np.empty(0, dtype=TRACE_DTYPE)
    return np.array(rows, dtype=TRACE_DTYPE)


def array_to_records(array: np.ndarray) -> Iterator[TraceRecord]:
    """Unpack a :data:`TRACE_DTYPE` array into validated records."""
    for uid, cpu, kind, address, ip, dep_uid in array.tolist():
        yield TraceRecord(
            uid=uid,
            cpu=cpu,
            kind=AccessType(kind),
            address=address,
            ip=ip,
            dep_uid=dep_uid,
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """A fully-specified trace-generation request.

    Attributes:
        name: RMS kernel name (see Table 1 / the kernel registry).
        n_records: Total records in the merged trace.
        n_threads: Number of SMP cpus (the paper uses 2).
        params: Kernel sizing; defaults to the registry footprint.
        seed: RNG seed — traces are deterministic given a spec.
        ifetch_every: If > 0, interleave one instruction-fetch record
            (at the current kernel site's instruction pointer) every N
            data references per cpu, exercising the L1I path of
            Figure 4.  RMS kernels are small loops, so these fetches are
            L1I-resident almost always.
    """

    name: str
    n_records: int = 100_000
    n_threads: int = 2
    params: Optional[KernelParams] = None
    seed: int = 1234
    ifetch_every: int = 0

    def __post_init__(self) -> None:
        if self.n_records <= 0:
            raise ValueError("n_records must be positive")
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")

    def resolved_params(self, scale: int = 1) -> KernelParams:
        """The kernel params to use (default footprint unless overridden)."""
        if self.params is not None:
            return self.params
        return default_params(self.name, scale=scale)


class TraceGenerator:
    """Generates a merged, dependency-annotated trace for one workload."""

    def __init__(self, spec: WorkloadSpec, scale: int = 1) -> None:
        self.spec = spec
        self.scale = scale
        self._entry = get_kernel(spec.name)

    def _stream(self) -> Iterator[TraceRow]:
        """Stream the merged trace as plain int tuples.

        This is the single source of truth for trace content; both
        :meth:`records` and :meth:`arrays` wrap it, so the two output
        forms consume the RNGs identically and describe the same trace.
        """
        spec = self.spec
        params = spec.resolved_params(self.scale)
        master_rng = random.Random(spec.seed)
        threads: List[Iterator] = []
        trackers: List[DependencyTracker] = []
        for cpu in range(spec.n_threads):
            rng = random.Random(spec.seed + 1000 * (cpu + 1))
            threads.append(
                iter(self._entry.fn(cpu, spec.n_threads, params, rng))
            )
            trackers.append(DependencyTracker())

        ifetch_kind = int(AccessType.IFETCH)
        uid = 0
        live = list(range(spec.n_threads))
        while uid < spec.n_records and live:
            for cpu in list(live):
                # Small random burst per turn: SMP interleaving is not
                # perfectly alternating.
                burst = master_rng.randint(1, 4)
                for _ in range(burst):
                    if uid >= spec.n_records:
                        return
                    try:
                        kind, address, site, read_reg, write_reg = next(
                            threads[cpu]
                        )
                    except StopIteration:
                        live.remove(cpu)
                        break
                    tracker = trackers[cpu]
                    ip = _IP_BASE + site * 4
                    if (
                        spec.ifetch_every > 0
                        and uid % spec.ifetch_every == spec.ifetch_every - 1
                        and uid < spec.n_records - 1
                    ):
                        # Fetch the instruction line feeding this site.
                        yield (uid, cpu, ifetch_kind, ip, ip, NO_DEP)
                        uid += 1
                    dep = tracker.dependency_on(read_reg)
                    row = (uid, cpu, int(kind), address, ip, dep)
                    if write_reg is not None and kind == 0:
                        tracker.produce(write_reg, uid)
                    yield row
                    uid += 1

    def records(self) -> Iterator[TraceRecord]:
        """Stream the merged trace, truncated at ``spec.n_records``."""
        for uid, cpu, kind, address, ip, dep_uid in self._stream():
            yield TraceRecord(
                uid=uid,
                cpu=cpu,
                kind=AccessType(kind),
                address=address,
                ip=ip,
                dep_uid=dep_uid,
            )

    def arrays(self) -> "np.ndarray":
        """The full trace as one :data:`TRACE_DTYPE` structured array.

        Row *i* equals the *i*-th record from :meth:`records` field for
        field; building the batch form skips per-record ``TraceRecord``
        construction, which dominates generation time at scale.
        """
        rows = list(self._stream())
        if not rows:
            return np.empty(0, dtype=TRACE_DTYPE)
        return np.array(rows, dtype=TRACE_DTYPE)


def generate_trace(
    name: str,
    n_records: int = 100_000,
    n_threads: int = 2,
    scale: int = 1,
    seed: int = 1234,
    params: Optional[KernelParams] = None,
) -> List[TraceRecord]:
    """Generate a complete trace as a list (convenience wrapper)."""
    spec = WorkloadSpec(
        name=name,
        n_records=n_records,
        n_threads=n_threads,
        seed=seed,
        params=params,
    )
    return list(TraceGenerator(spec, scale=scale).records())
