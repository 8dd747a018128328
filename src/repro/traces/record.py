"""The trace record format of the paper's trace generator (Section 2.1).

Each record carries a unique identification number, the cpu id, the access
type, the memory access address, the instruction pointer address, and the
unique id of an earlier record this record depends upon (or ``NO_DEP``).
The memory hierarchy simulator honors these dependencies: a dependent
access may not issue until the record it names has completed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from repro.resilience.errors import TraceCorruptionError

#: Sentinel dependency id for records with no dependency.
NO_DEP = -1


class AccessType(enum.IntEnum):
    """Kind of memory access a trace record describes."""

    LOAD = 0
    STORE = 1
    IFETCH = 2


@dataclass(frozen=True)
class TraceRecord:
    """One memory reference in a trace.

    Attributes:
        uid: Unique identification number (monotonically increasing over
            the whole trace, across cpus).
        cpu: Id of the cpu that executed the access.
        kind: Load or store.
        address: Byte address of the access.
        ip: Instruction pointer of the memory instruction.
        dep_uid: Uid of an earlier record this record depends upon, or
            ``NO_DEP``.
    """

    uid: int
    cpu: int
    kind: AccessType
    address: int
    ip: int
    dep_uid: int = NO_DEP

    def __post_init__(self) -> None:
        # Eager validation: a malformed record quietly entering the
        # replayer can deadlock or corrupt a multi-million-record run,
        # so reject it at construction.  TraceCorruptionError subclasses
        # ValueError, preserving older ``except ValueError`` callers.
        if self.uid < 0:
            raise TraceCorruptionError(
                f"uid must be non-negative, got {self.uid}",
                uid=self.uid,
                reason="bad-uid",
            )
        if self.cpu < 0:
            raise TraceCorruptionError(
                f"record {self.uid}: cpu id must be non-negative, got {self.cpu}",
                uid=self.uid,
                reason="bad-cpu",
            )
        if not isinstance(self.kind, AccessType):
            raise TraceCorruptionError(
                f"record {self.uid}: unknown access kind {self.kind!r}",
                uid=self.uid,
                reason="bad-kind",
            )
        if self.address < 0:
            raise TraceCorruptionError(
                f"address must be non-negative, got {self.address}",
                uid=self.uid,
                reason="bad-address",
            )
        if self.dep_uid != NO_DEP and not 0 <= self.dep_uid < self.uid:
            if self.dep_uid == self.uid:
                reason = "self-dep"
            elif self.dep_uid > self.uid:
                reason = "forward-dep"
            else:
                reason = "bad-dep"
            raise TraceCorruptionError(
                f"record {self.uid} depends on {self.dep_uid}, which is not "
                "an earlier record",
                uid=self.uid,
                reason=reason,
            )

    @property
    def is_load(self) -> bool:
        return self.kind == AccessType.LOAD

    @property
    def has_dependency(self) -> bool:
        return self.dep_uid != NO_DEP


def make_raw_record(
    uid: int,
    cpu: int,
    kind: AccessType,
    address: int,
    ip: int,
    dep_uid: int = NO_DEP,
) -> TraceRecord:
    """Build a TraceRecord bypassing ``__post_init__`` validation.

    Only for fault injection and tests: this is how invalid records
    "from disk" are modeled now that construction validates eagerly.
    """
    record = object.__new__(TraceRecord)
    object.__setattr__(record, "uid", uid)
    object.__setattr__(record, "cpu", cpu)
    object.__setattr__(record, "kind", kind)
    object.__setattr__(record, "address", address)
    object.__setattr__(record, "ip", ip)
    object.__setattr__(record, "dep_uid", dep_uid)
    return record


def write_trace(records: Iterable[TraceRecord], path: Union[str, Path]) -> int:
    """Write records to a text trace file; returns the record count.

    Format: one record per line, ``uid cpu kind address ip dep_uid`` with
    hexadecimal addresses, matching the paper's per-instruction record
    layout.  The format is deliberately simple and diff-friendly.
    """
    count = 0
    with open(path, "w") as handle:
        for record in records:
            handle.write(
                f"{record.uid} {record.cpu} {int(record.kind)} "
                f"{record.address:x} {record.ip:x} {record.dep_uid}\n"
            )
            count += 1
    return count


def read_trace(
    path: Union[str, Path], strict: bool = True
) -> Iterator[TraceRecord]:
    """Stream records back from a file written by :func:`write_trace`.

    Args:
        path: Trace file to read.
        strict: If True (default), a malformed line raises
            :class:`~repro.resilience.errors.TraceCorruptionError`
            naming the file and line.  If False, malformed lines are
            skipped (the replayer's lenient guard counts them a second
            time if they parse but violate stream invariants).
    """
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            parts = line.split()
            try:
                if len(parts) != 6:
                    raise TraceCorruptionError(
                        f"malformed trace line {line!r}", reason="bad-line"
                    )
                uid, cpu, kind, address, ip, dep = parts
                record = TraceRecord(
                    uid=int(uid),
                    cpu=int(cpu),
                    kind=AccessType(int(kind)),
                    address=int(address, 16),
                    ip=int(ip, 16),
                    dep_uid=int(dep),
                )
            except (TraceCorruptionError, ValueError) as exc:
                if strict:
                    reason = getattr(exc, "reason", "bad-line")
                    raise TraceCorruptionError(
                        f"{path}:{line_number}: {exc}", reason=reason
                    ) from exc
                continue
            yield record


def validate_trace(
    records: List[TraceRecord], n_cpus: Optional[int] = None
) -> None:
    """Check global trace invariants; raises TraceCorruptionError (a
    ValueError subclass) on violation.

    Invariants: uids strictly increase, every dependency names an
    earlier record that exists in the trace, and — when *n_cpus* is
    given — every record names a cpu within the simulated machine.
    """
    seen = set()
    last_uid = -1
    for record in records:
        if record.uid <= last_uid:
            raise TraceCorruptionError(
                f"uid {record.uid} does not increase after {last_uid}",
                uid=record.uid,
                reason="non-monotonic-uid",
            )
        if record.has_dependency and record.dep_uid not in seen:
            raise TraceCorruptionError(
                f"record {record.uid} depends on missing uid {record.dep_uid}",
                uid=record.uid,
                reason="missing-dep",
            )
        if n_cpus is not None and not 0 <= record.cpu < n_cpus:
            raise TraceCorruptionError(
                f"record {record.uid} names cpu {record.cpu}, machine has "
                f"{n_cpus}",
                uid=record.uid,
                reason="bad-cpu",
            )
        seen.add(record.uid)
        last_uid = record.uid
