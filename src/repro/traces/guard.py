"""TraceGuard: a stateful per-stream validator for trace replay.

In ``strict`` mode the first bad record raises
:class:`~repro.resilience.errors.TraceCorruptionError`; in ``lenient``
mode bad records are quarantined (skipped) and counted by violation
reason, so a multi-million-record run survives isolated corruption and
reports exactly what it dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.resilience.errors import TraceCorruptionError
from repro.traces.record import AccessType, NO_DEP, TraceRecord

_VALID_KINDS = frozenset(int(k) for k in AccessType)


@dataclass
class TraceGuard:
    """Stateful validator for one replayed trace stream.

    Checks per record: uid strictly increases over the stream, the
    dependency (if any) names a strictly earlier record, the cpu id is
    within the simulated machine, the access kind is known, and the
    address is non-negative.

    Attributes:
        n_cpus: Number of cpus in the target hierarchy; records naming
            other cpus are invalid.
        strict: If True, the first violation raises
            :class:`TraceCorruptionError`.  If False (lenient), bad
            records are quarantined: :meth:`admit` returns False and the
            violation is tallied in :attr:`quarantined_by_reason`.
        checked: Records inspected so far.
        quarantined: Records rejected so far (lenient mode only).
    """

    n_cpus: int
    strict: bool = True
    checked: int = 0
    quarantined: int = 0
    last_uid: int = -1
    quarantined_by_reason: Dict[str, int] = field(default_factory=dict)

    def admit(self, record: TraceRecord) -> bool:
        """Validate one record; True to replay it, False to quarantine."""
        self.checked += 1
        reason = self._violation(record)
        if reason is None:
            self.last_uid = record.uid
            return True
        if self.strict:
            raise TraceCorruptionError(
                f"record uid={record.uid}: {reason} "
                f"(cpu={record.cpu}, dep_uid={record.dep_uid})",
                uid=record.uid,
                reason=reason,
            )
        self.quarantined += 1
        self.quarantined_by_reason[reason] = (
            self.quarantined_by_reason.get(reason, 0) + 1
        )
        return False

    def _violation(self, record: TraceRecord) -> Optional[str]:
        if record.uid < 0 or record.uid <= self.last_uid:
            return "non-monotonic-uid"
        if not 0 <= record.cpu < self.n_cpus:
            return "bad-cpu"
        if int(record.kind) not in _VALID_KINDS:
            return "bad-kind"
        if record.address < 0:
            return "bad-address"
        if record.dep_uid != NO_DEP:
            if record.dep_uid == record.uid:
                return "self-dep"
            if record.dep_uid > record.uid:
                return "forward-dep"
            if record.dep_uid < 0:
                return "bad-dep"
        return None

    def report(self) -> Dict[str, int]:
        """Summary counts, suitable for logging or ReplayStats."""
        return {
            "checked": self.checked,
            "quarantined": self.quarantined,
            **{f"quarantined:{r}": n for r, n in self.quarantined_by_reason.items()},
        }
