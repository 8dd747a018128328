"""Dependency-honoring trace replay and the CPMA metric.

Section 2.1: "The memory hierarchy simulator ... honors all the
dependencies specified in the trace and issues memory accesses
accordingly.  For instance, if a load address Ld2 is dependent on an
earlier load Ld1, then Ld1 is first issued to the memory hierarchy to
obtain the memory access completion time of Ld1.  Then Ld2 is issued to
the memory hierarchy only after Ld1 is completed."

Each cpu issues at most one reference per cycle; a reference additionally
waits for (a) the completion of the record it depends on and (b) a free
MSHR if it misses the L1 while the cpu already has its maximum number of
misses outstanding.  CPMA — cycles per memory access — is the paper's
metric: total elapsed cycles divided by references retired per cpu.

The engine is the stateful :class:`TraceReplayer`: records are fed one
at a time, the full replay state (hierarchy, queues, completion table,
statistics) can be checkpointed to disk at any record boundary, and a
fresh replayer restored from that checkpoint continues the run
bit-identically.  An optional
:class:`~repro.traces.guard.TraceGuard` validates the stream as it
flows: strict mode raises
:class:`~repro.resilience.errors.TraceCorruptionError` on the first bad
record, lenient mode quarantines bad records and reports counts.
:func:`replay_trace` remains the one-shot convenience wrapper.
"""

from __future__ import annotations

import itertools
import pickle
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.memsim.config import HierarchyConfig
from repro.memsim.hierarchy import L1, L2, MemoryHierarchy
from repro.oracles.config import get_oracle_config
from repro.oracles.invariants import (
    check_cache_sets,
    check_directory_consistency,
)
from repro.oracles.report import record_check, record_violation
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.traces.generator import TRACE_DTYPE, array_to_records
from repro.traces.guard import TraceGuard
from repro.traces.record import AccessType, TraceRecord

#: Completion-table pruning: drop entries this many uids behind the head.
_PRUNE_WINDOW = 65536
_PRUNE_EVERY = 131072


@dataclass
class ReplayStats:
    """Results of replaying one trace against one hierarchy configuration.

    Attributes:
        n_accesses: References measured (post-warmup).
        cpma: Cycles per memory access — elapsed cycles divided by
            per-cpu references (the Figure 5 primary axis).
        avg_latency: Mean individual reference latency, cycles.
        wall_cycles: Elapsed cycles over the measured region.
        bandwidth_gbps: Average off-die bus bandwidth, GB/s (the Figure 5
            secondary axis).
        bus_power_w: Average bus power at 20 mW/Gb/s (Section 3).
        level_counts: References satisfied per hierarchy level.
        level_latency: Mean reference latency per satisfying level,
            cycles (where the cycles per access actually go).
        offchip_fraction: Fraction of references that crossed the bus.
        invalidations: Coherence invalidations between the private L1s.
        quarantined: Records rejected by a lenient trace guard (0 when
            no guard was active or the stream was clean).
        quarantined_by_reason: Rejection counts keyed by violation tag.
        degraded: True when a replay oracle detected a fast-path
            divergence and the run fell back to the reference path (the
            numbers are correct, the fast path was not trusted).
    """

    n_accesses: int
    cpma: float
    avg_latency: float
    wall_cycles: float
    bandwidth_gbps: float
    bus_power_w: float
    level_counts: Dict[str, int] = field(default_factory=dict)
    level_latency: Dict[str, float] = field(default_factory=dict)
    offchip_fraction: float = 0.0
    invalidations: int = 0
    quarantined: int = 0
    quarantined_by_reason: Dict[str, int] = field(default_factory=dict)
    degraded: bool = False


class TraceReplayer:
    """Incremental, checkpointable replay of one trace.

    Feed records with :meth:`feed` (or :meth:`feed_many`), then call
    :meth:`stats` to finalize.  The replayer's entire state is plain
    Python/numpy data, so :meth:`checkpoint` can serialize it mid-run
    and :meth:`restore` continues exactly where the snapshot was taken.

    Args:
        config: Hierarchy configuration (Table 3 baseline by default).
        hierarchy: A pre-built hierarchy to use instead of *config*.
        warmup_until: Number of leading records whose statistics are
            discarded (cache warmup); 0 disables warmup.
        guard: Optional trace-stream validator; in lenient mode rejected
            records are skipped and tallied.
    """

    def __init__(
        self,
        config: Optional[HierarchyConfig] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        warmup_until: int = 0,
        guard: Optional[TraceGuard] = None,
    ) -> None:
        self.hierarchy = hierarchy or MemoryHierarchy(
            config or HierarchyConfig()
        )
        self.warmup_until = warmup_until
        self.guard = guard
        n_cpus = self.hierarchy.config.n_cpus
        self.index = 0  # records consumed (fed), including quarantined
        self._next_free = [0.0] * n_cpus
        self._outstanding: List[List[float]] = [[] for _ in range(n_cpus)]
        self._robs: List[deque] = [deque() for _ in range(n_cpus)]
        self._completion: Dict[int, float] = {}
        self._measured = 0
        self._latency_sum = 0.0
        self._level_latency_sum: Dict[str, float] = {}
        self._level_latency_n: Dict[str, int] = {}
        self._measure_start: Optional[float] = None
        self._end_time = 0.0
        # Oracle bookkeeping (see feed_array): chunks replayed so far,
        # whether a differential check ever diverged, and whether the
        # rest of the run is pinned to the reference per-record path.
        self._chunk_counter = 0
        self._oracle_fallback = False
        self._oracle_degraded = False

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Unpickle, defaulting oracle fields absent from old snapshots."""
        self.__dict__.update(state)
        self.__dict__.setdefault("_chunk_counter", 0)
        self.__dict__.setdefault("_oracle_fallback", False)
        self.__dict__.setdefault("_oracle_degraded", False)

    # -- the per-record hot path ---------------------------------------------

    def feed(self, record: TraceRecord) -> None:
        """Replay one record (skips it if the guard quarantines it)."""
        self.index += 1
        if self.guard is not None and not self.guard.admit(record):
            self._maybe_end_warmup()
            return
        hierarchy = self.hierarchy
        mshrs = hierarchy.config.mshrs_per_cpu
        window = hierarchy.config.reorder_window
        cpu = record.cpu
        # Issue slots advance at one reference per cpu per cycle; a
        # reference may *start* later than its slot if its producer has
        # not completed, but it does not hold later independent
        # references back (the paper's replay honors dependencies, not
        # program order).
        slot = self._next_free[cpu]
        self._next_free[cpu] = slot + 1.0
        t = slot
        # Finite reorder window: a reference needs a free window slot, so
        # it cannot start until the oldest in-flight reference retires.
        rob = self._robs[cpu]
        if len(rob) >= window:
            oldest = rob.popleft()
            if oldest > t:
                t = oldest
        dep = record.dep_uid
        # Dependent *loads* wait for their producer (the paper's Ld1/Ld2
        # rule).  Dependent stores drain through the store buffer instead
        # of stalling.
        if dep >= 0 and record.kind == AccessType.LOAD:
            dep_done = self._completion.get(dep)
            if dep_done is not None and dep_done > t:
                t = dep_done

        misses = self._outstanding[cpu]
        line_present = hierarchy.l1s[cpu].contains(
            record.address >> hierarchy._line_shift
        )
        if not line_present and misses:
            if len(misses) >= mshrs and misses[0] > t:
                t = misses[0]
            # Retire completed misses from the MSHR window.
            done = 0
            for value in misses:
                if value <= t:
                    done += 1
                else:
                    break
            if done:
                del misses[:done]

        if record.kind == AccessType.IFETCH:
            result = hierarchy.ifetch(cpu, record.address, t)
        else:
            result = hierarchy.access(
                cpu, record.kind == AccessType.STORE, record.address, t
            )
        if result.level != L1:
            insort(misses, result.completion)
        if record.kind == AccessType.LOAD:
            self._completion[record.uid] = result.completion
            if len(self._completion) > _PRUNE_EVERY:
                cutoff = record.uid - _PRUNE_WINDOW
                self._completion = {
                    uid: done
                    for uid, done in self._completion.items()
                    if uid >= cutoff
                }

        # In-order retirement: a reference retires no earlier than its
        # predecessors.
        retire = result.completion
        if rob and rob[-1] > retire:
            retire = rob[-1]
        rob.append(retire)
        if retire > self._end_time:
            self._end_time = retire

        if not self._maybe_end_warmup():
            self._measured += 1
            latency = result.completion - t
            self._latency_sum += latency
            level = result.level
            self._level_latency_sum[level] = (
                self._level_latency_sum.get(level, 0.0) + latency
            )
            self._level_latency_n[level] = (
                self._level_latency_n.get(level, 0) + 1
            )

    def _maybe_end_warmup(self) -> bool:
        """Handle the warmup boundary; True while still inside warmup."""
        if not self.warmup_until:
            return False
        if self.index == self.warmup_until:
            self.hierarchy.reset_stats()
            self._measure_start = max(
                max(self._next_free),
                max((r[-1] for r in self._robs if r), default=0.0),
            )
            self._measured = 0
            self._latency_sum = 0.0
            self._level_latency_sum.clear()
            self._level_latency_n.clear()
            return True
        return self.index < self.warmup_until

    def feed_many(
        self,
        records: Iterable[TraceRecord],
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        stop_after: Optional[int] = None,
    ) -> int:
        """Feed a stream of records; returns how many were consumed.

        Args:
            records: The stream (must start at this replayer's current
                position — use :func:`itertools.islice` or re-read the
                trace file when resuming).
            checkpoint_every: Snapshot state every this many records.
            checkpoint_path: Where snapshots go (required with
                *checkpoint_every*).
            stop_after: Stop after consuming this many records from
                *records* (simulates an interruption; used by tests).
        """
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1")
            if checkpoint_path is None:
                raise ValueError("checkpoint_every requires checkpoint_path")
        consumed = 0
        for record in records:
            self.feed(record)
            consumed += 1
            if checkpoint_every and consumed % checkpoint_every == 0:
                self.checkpoint(checkpoint_path)
            if stop_after is not None and consumed >= stop_after:
                break
        return consumed

    # -- the chunked (batched) hot path --------------------------------------

    def feed_array(
        self,
        array: np.ndarray,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        stop_after: Optional[int] = None,
    ) -> int:
        """Replay a :data:`~repro.traces.generator.TRACE_DTYPE` batch.

        Bit-identical to calling :meth:`feed` on each row in order — the
        L1-hit path (the vast majority of references) is inlined against
        the raw cache dicts (:meth:`MemoryHierarchy.fastpath_state`),
        everything else falls back to the per-record hierarchy walk, and
        bypassed hit tallies are flushed back at span boundaries.  The
        batch path trusts the array's producer: rows skip the
        construction-time :class:`TraceRecord` validation (a malformed
        row fails with an ordinary IndexError/KeyError, not
        ``TraceCorruptionError``) unless a guard is installed, in which
        case rows are validated and replayed one record at a time.

        With oracles enabled (:mod:`repro.oracles`), the batch is split
        into fixed-size chunks; every chunk runs cheap conservation
        invariants, and sampled chunks are re-executed on the reference
        :meth:`feed` path against a cloned replayer and compared state
        field for state field.  A divergence records a violation, adopts
        the reference state, and pins the rest of the run to the
        reference path — the run completes ``degraded`` rather than
        crashing or silently trusting the fast path.

        Args/returns as :meth:`feed_many`.
        """
        if array.dtype != TRACE_DTYPE:
            raise ValueError(
                f"feed_array needs a TRACE_DTYPE array, got {array.dtype}"
            )
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1")
            if checkpoint_path is None:
                raise ValueError("checkpoint_every requires checkpoint_path")
        n = len(array)
        if stop_after is not None:
            n = min(n, stop_after)
        if self.guard is not None:
            # Guard admission needs validated records; take the exact
            # per-record path so quarantine accounting stays identical.
            return self.feed_many(
                array_to_records(array[:n]),
                checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path,
            )
        cfg = get_oracle_config()
        consumed = 0
        while consumed < n:
            stop = n
            if checkpoint_every:
                stop = min(
                    n, (consumed // checkpoint_every + 1) * checkpoint_every
                )
            if cfg.enabled:
                stop = min(stop, consumed + cfg.replay_chunk)
            if self._oracle_fallback:
                # A prior differential diverged: the fast path is not
                # trusted for the rest of this run.
                self.feed_many(array_to_records(array[consumed:stop]))
            elif cfg.enabled:
                counter = self._chunk_counter
                self._chunk_counter = counter + 1
                crosses_warmup = bool(
                    self.warmup_until
                    and self.index < self.warmup_until <= self.index
                    + (stop - consumed)
                )
                before = self._counter_snapshot()
                if cfg.strict or (
                    counter > 0 and counter % cfg.sample_stride == 0
                ):
                    self._differential_chunk(array, consumed, stop)
                    self._structure_invariants()
                else:
                    self._feed_rows(array, consumed, stop)
                self._chunk_invariants(before, stop - consumed, crosses_warmup)
            else:
                self._feed_rows(array, consumed, stop)
            consumed = stop
            if checkpoint_every and consumed % checkpoint_every == 0:
                self.checkpoint(checkpoint_path)
        return consumed

    def _feed_rows(self, array: np.ndarray, start: int, stop: int) -> None:
        """Feed ``array[start:stop]``, splitting at the warmup boundary."""
        warmup_until = self.warmup_until
        if warmup_until and self.index < warmup_until:
            boundary = start + (warmup_until - self.index)
            if boundary > stop:
                self._feed_span(array, start, stop, measure=False)
                return
            self._feed_span(array, start, boundary, measure=False)
            # The warmup boundary, exactly as _maybe_end_warmup does it:
            # discard warmup statistics, then measure from the cycle the
            # warmed pipeline has actually reached.
            self.hierarchy.reset_stats()
            self._measure_start = max(
                max(self._next_free),
                max((r[-1] for r in self._robs if r), default=0.0),
            )
            self._measured = 0
            self._latency_sum = 0.0
            self._level_latency_sum.clear()
            self._level_latency_n.clear()
            start = boundary
        if start < stop:
            self._feed_span(array, start, stop, measure=True)

    def _feed_span(
        self, array: np.ndarray, start: int, stop: int, measure: bool
    ) -> None:
        """The chunk inner loop: replay ``array[start:stop]`` inlined.

        Two walks are inlined against the raw cache dicts — the L1 hit
        and the L1-miss/L2-hit continuation (together the vast majority
        of references); everything else, including the rare
        sequential-miss prefetch trigger, falls back to the per-record
        hierarchy walk.  Per-record issue slots and the dependent-load
        predicate are precomputed with numpy (both are exact: slots are
        integral doubles, the predicate is pure integer logic).  Every
        state mutation lands in the same order as :meth:`feed`, so
        counters, timing, and float accumulation match the per-record
        path bit for bit.
        """
        if start >= stop:
            return
        hierarchy = self.hierarchy
        fp = hierarchy.fastpath_state()
        d_sets = fp.d_sets
        d_mask = fp.d_mask
        i_sets = fp.i_sets
        i_mask = fp.i_mask
        l2_sets = fp.l2_sets
        l2_mask = fp.l2_mask
        miss_history = fp.miss_history
        line_shift = fp.line_shift
        lat_l1d = fp.lat_l1d
        lat_l1i = fp.lat_l1i
        lat_l2 = fp.lat_l2
        invalidate_other = fp.invalidate_other_copies
        fill_l1 = fp.fill_l1
        mshrs = hierarchy.config.mshrs_per_cpu
        window = hierarchy.config.reorder_window
        access = hierarchy.access
        ifetch = hierarchy.ifetch
        next_free = self._next_free
        outstanding = self._outstanding
        robs = self._robs
        completion_table = self._completion
        completion_get = completion_table.get
        level_latency_sum = self._level_latency_sum
        level_latency_n = self._level_latency_n
        end_time = self._end_time
        latency_sum = self._latency_sum
        measured = self._measured
        n_cpus = len(next_free)
        d_hits = [0] * n_cpus
        d_misses = [0] * n_cpus
        i_hits = [0] * n_cpus
        l2_fast_hits = 0
        # Level-latency buckets for the two inlined levels stay in
        # locals (sequential accumulation from the current dict values,
        # written back below — same additions in the same order).
        l1_lat_sum = level_latency_sum.get(L1, 0.0)
        l1_lat_n0 = level_latency_n.get(L1, 0)
        l1_lat_n = l1_lat_n0
        l2_lat_sum = level_latency_sum.get(L2, 0.0)
        l2_lat_n0 = level_latency_n.get(L2, 0)
        l2_lat_n = l2_lat_n0

        span = array[start:stop]
        cpu_col = span["cpu"]
        kind_col = span["kind"]
        dep_col = span["dep_uid"]
        # Issue slots advance at one reference per cpu per cycle; the
        # whole slot sequence for the span is known up front.  The
        # values are integral doubles, so base + arange reproduces the
        # sequential base + 1.0 + 1.0 + ... additions exactly.
        slot_col = np.empty(len(span), dtype=np.float64)
        for c in range(n_cpus):
            taken = cpu_col == c
            count = int(taken.sum())
            if count:
                base = next_free[c]
                slot_col[taken] = base + np.arange(count, dtype=np.float64)
                next_free[c] = base + float(count)
        # Fold the dependent-LOAD predicate into the dep column: -1
        # means "no wait", matching feed()'s dep>=0-and-LOAD test.
        dep_col = np.where((dep_col >= 0) & (kind_col == 0), dep_col, -1)

        for uid, cpu, kind, address, dep, t in zip(
            span["uid"].tolist(),
            cpu_col.tolist(),
            kind_col.tolist(),
            span["address"].tolist(),
            dep_col.tolist(),
            slot_col.tolist(),
        ):
            rob = robs[cpu]
            if len(rob) >= window:
                oldest = rob.popleft()
                if oldest > t:
                    t = oldest

            if kind == 2:  # IFETCH (MSHR presence checks the L1D, as feed does)
                line = address >> line_shift
                if line not in d_sets[cpu][line & d_mask]:
                    misses = outstanding[cpu]
                    if misses:
                        if len(misses) >= mshrs and misses[0] > t:
                            t = misses[0]
                        done = 0
                        for value in misses:
                            if value <= t:
                                done += 1
                            else:
                                break
                        if done:
                            del misses[:done]
                i_entries = i_sets[cpu][line & i_mask]
                previous = i_entries.pop(line, None)
                if previous is not None:
                    i_entries[line] = previous
                    i_hits[cpu] += 1
                    comp = t + lat_l1i
                    level = L1
                else:
                    result = ifetch(cpu, address, t)
                    comp = result.completion
                    level = result.level
                    insort(outstanding[cpu], comp)
            else:
                if dep >= 0:  # dependent LOAD (predicate folded above)
                    dep_done = completion_get(dep)
                    if dep_done is not None and dep_done > t:
                        t = dep_done
                line = address >> line_shift
                d_entries = d_sets[cpu][line & d_mask]
                previous = d_entries.pop(line, None)
                if previous is not None:  # L1D hit
                    if kind == 1:  # STORE write hit
                        d_entries[line] = True
                        invalidate_other(cpu, line)
                    else:
                        d_entries[line] = previous
                    d_hits[cpu] += 1
                    comp = t + lat_l1d
                    level = L1
                else:
                    misses = outstanding[cpu]
                    if misses:
                        if len(misses) >= mshrs and misses[0] > t:
                            t = misses[0]
                        done = 0
                        for value in misses:
                            if value <= t:
                                done += 1
                            else:
                                break
                        if done:
                            del misses[:done]
                    history = miss_history[cpu]
                    if (
                        l2_sets is not None
                        and line in l2_sets[line & l2_mask]
                        and (line - 1) not in history
                        and (line - 2) not in history
                    ):
                        # Inlined L1-miss -> L2-hit walk, mirroring
                        # access(): miss accounting, write-invalidate,
                        # miss-history append (the stream detector did
                        # not fire — sequential misses take the slow
                        # path so the prefetcher runs for real), L2
                        # LRU touch, L1 install.
                        d_misses[cpu] += 1
                        write = kind == 1
                        if write:
                            invalidate_other(cpu, line)
                        history.append(line)
                        l2_entries = l2_sets[line & l2_mask]
                        l2_entries[line] = l2_entries.pop(line) or write
                        l2_fast_hits += 1
                        fill_l1(cpu, line, write)
                        comp = (t + lat_l1d) + lat_l2
                        level = L2
                    else:
                        result = access(cpu, kind == 1, address, t)
                        comp = result.completion
                        level = result.level
                    insort(misses, comp)

            if kind == 0:  # LOAD
                completion_table[uid] = comp
                if len(completion_table) > _PRUNE_EVERY:
                    cutoff = uid - _PRUNE_WINDOW
                    completion_table = {
                        u: done
                        for u, done in completion_table.items()
                        if u >= cutoff
                    }
                    completion_get = completion_table.get
                    self._completion = completion_table

            retire = comp
            if rob and rob[-1] > retire:
                retire = rob[-1]
            rob.append(retire)
            if retire > end_time:
                end_time = retire

            if measure:
                latency = comp - t
                latency_sum += latency
                if level == L1:
                    l1_lat_sum += latency
                    l1_lat_n += 1
                elif level == L2:
                    l2_lat_sum += latency
                    l2_lat_n += 1
                else:
                    level_latency_sum[level] = (
                        level_latency_sum.get(level, 0.0) + latency
                    )
                    level_latency_n[level] = level_latency_n.get(level, 0) + 1

        self.index += stop - start
        self._end_time = end_time
        self._latency_sum = latency_sum
        if measure:
            measured += stop - start
        self._measured = measured
        if l1_lat_n != l1_lat_n0:
            level_latency_sum[L1] = l1_lat_sum
            level_latency_n[L1] = l1_lat_n
        if l2_lat_n != l2_lat_n0:
            level_latency_sum[L2] = l2_lat_sum
            level_latency_n[L2] = l2_lat_n
        hierarchy.flush_fast_counts(
            d_hits,
            i_hits,
            sum(d_hits) + sum(i_hits),
            d_misses,
            l2_fast_hits,
            l2_fast_hits,
        )

    # -- oracles -------------------------------------------------------------

    @staticmethod
    def _cache_fingerprint(cache: Any) -> Optional[Dict[str, Any]]:
        if cache is None:
            return None
        return {
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "writebacks": cache.writebacks,
            # Dict order IS the LRU order, so == checks it too.
            "sets": [list(entries.items()) for entries in cache._sets],
        }

    @staticmethod
    def _dram_cache_fingerprint(dc: Any) -> Optional[Dict[str, Any]]:
        if dc is None:
            return None
        return {
            "sector_hits": dc.sector_hits,
            "sector_misses": dc.sector_misses,
            "page_misses": dc.page_misses,
            "page_evictions": dc.page_evictions,
            "dirty_sector_writebacks": dc.dirty_sector_writebacks,
            "sets": [list(entries.items()) for entries in dc._sets],
            "dirty": [list(entries.items()) for entries in dc._dirty],
            "bank_free": list(dc.banks._bank_free),
            "open_pages": list(dc.banks._open_page),
        }

    def state_fingerprint(self) -> Dict[str, Any]:
        """Everything observable about the replay, for exact comparison.

        Covers cache contents *and* LRU order (dict order), the
        coherence directory, prefetch history, DRAM bank/page state, bus
        accounting, ROBs, completion tables, and every timing
        accumulator — the same surface the fast-path equivalence tests
        compare, so a differential mismatch pinpoints the diverged
        field.
        """
        h = self.hierarchy
        return {
            "l1d": [self._cache_fingerprint(c) for c in h.l1s],
            "l1i": [self._cache_fingerprint(c) for c in h.l1is],
            "l2": self._cache_fingerprint(h.l2),
            "stacked_sram": self._cache_fingerprint(h.stacked_sram),
            "stacked_dram": self._dram_cache_fingerprint(h.stacked_dram),
            "directory": dict(h._directory),
            "miss_history": [list(d) for d in h._miss_history],
            "level_counts": dict(h.level_counts),
            "offchip_accesses": h.offchip_accesses,
            "invalidations": h.invalidations,
            "prefetches": h.prefetches,
            "ddr_open_pages": list(h.ddr._open_page),
            "ddr_bank_free": list(h.ddr._bank_free),
            "ddr_page_hits": h.ddr.page_hits,
            "ddr_page_empties": h.ddr.page_empties,
            "ddr_page_conflicts": h.ddr.page_conflicts,
            "bus_free_at": h.bus._free_at,
            "bus_total_bytes": h.bus.total_bytes,
            "bus_transfers": h.bus.transfers,
            "bus_wait_cycles": h.bus.total_wait_cycles,
            "index": self.index,
            "next_free": list(self._next_free),
            "outstanding": [list(o) for o in self._outstanding],
            "robs": [list(r) for r in self._robs],
            "completion": dict(self._completion),
            "measured": self._measured,
            "latency_sum": self._latency_sum,
            "level_latency_sum": dict(self._level_latency_sum),
            "level_latency_n": dict(self._level_latency_n),
            "measure_start": self._measure_start,
            "end_time": self._end_time,
        }

    def _counter_snapshot(self) -> Dict[str, float]:
        """Cheap monotone-counter snapshot taken around every chunk."""
        h = self.hierarchy
        return {
            "index": self.index,
            "measured": self._measured,
            "latency_sum": self._latency_sum,
            "end_time": self._end_time,
            "total_accesses": h.total_accesses,
            "offchip_accesses": h.offchip_accesses,
            "invalidations": h.invalidations,
            "bus_total_bytes": h.bus.total_bytes,
        }

    def _record_replay_violation(self, detail: str, action: str) -> None:
        self._oracle_degraded = True
        record_violation("memsim.replay", "memsim", detail, action)

    def _chunk_invariants(
        self, before: Dict[str, float], rows: int, crosses_warmup: bool
    ) -> None:
        """O(1)-ish invariants run after *every* oracle-mode chunk."""
        record_check("memsim.replay-chunk")
        problems: List[str] = []
        after = self._counter_snapshot()
        if after["index"] != before["index"] + rows:
            problems.append(
                f"index advanced {after['index'] - before['index']} "
                f"for a {rows}-row chunk"
            )
        if not crosses_warmup:
            # reset_stats() at the warmup boundary legitimately rewinds
            # these; any other decrease is corruption.
            for key, value in before.items():
                if after[key] < value:
                    problems.append(
                        f"monotone counter {key} decreased: "
                        f"{value} -> {after[key]}"
                    )
        window = self.hierarchy.config.reorder_window
        for cpu, rob in enumerate(self._robs):
            if len(rob) > window:
                problems.append(
                    f"cpu{cpu} ROB holds {len(rob)} > window {window}"
                )
        mshrs = self.hierarchy.config.mshrs_per_cpu
        for cpu, misses in enumerate(self._outstanding):
            if len(misses) > mshrs:
                problems.append(
                    f"cpu{cpu} tracks {len(misses)} outstanding misses "
                    f"> {mshrs} MSHRs"
                )
            if any(a > b for a, b in zip(misses, misses[1:])):
                problems.append(f"cpu{cpu} MSHR completions out of order")
        for problem in problems:
            self._record_replay_violation(problem, "degraded")

    def _structure_invariants(self) -> None:
        """Cache/directory well-formedness (sampled chunks + stats())."""
        record_check("memsim.replay-structure")
        h = self.hierarchy
        problems: List[str] = []
        for cpu, cache in enumerate(h.l1s):
            problems += check_cache_sets(
                cache._sets, cache.config.ways, f"l1d{cpu}"
            )
        for cpu, cache in enumerate(h.l1is):
            problems += check_cache_sets(
                cache._sets, cache.config.ways, f"l1i{cpu}"
            )
        if h.l2 is not None:
            problems += check_cache_sets(h.l2._sets, h.l2.config.ways, "l2")
        if h.stacked_sram is not None:
            problems += check_cache_sets(
                h.stacked_sram._sets, h.stacked_sram.config.ways, "stacked-sram"
            )
        problems += check_directory_consistency(h)
        for problem in problems:
            self._record_replay_violation(problem, "degraded")

    def _differential_chunk(
        self, array: np.ndarray, start: int, stop: int
    ) -> None:
        """Replay one chunk on both paths and compare state exactly.

        The reference replayer is a pickle clone taken *before* the fast
        path touches anything, fed the same rows through the per-record
        :meth:`feed` path.  On mismatch the reference state is adopted
        (it is the trusted semantics) and the rest of the run is pinned
        to the reference path.
        """
        record_check("memsim.replay-differential")
        reference = pickle.loads(pickle.dumps(self))
        reference.guard = None
        self._feed_rows(array, start, stop)
        for record in array_to_records(array[start:stop]):
            reference.feed(record)
        mine = self.state_fingerprint()
        theirs = reference.state_fingerprint()
        if mine == theirs:
            return
        diverged = sorted(
            key for key in mine if mine[key] != theirs.get(key)
        )
        self._record_replay_violation(
            "fast path diverged from reference replay at record "
            f"{self.index} (fields: {', '.join(diverged[:6])})",
            "fallback-reference",
        )
        # Adopt the reference state wholesale and stop trusting the
        # fast path: correctness beats speed once an oracle fires.
        degraded = self._oracle_degraded
        self.__dict__.update(reference.__dict__)
        self._oracle_degraded = degraded
        self._oracle_fallback = True

    # -- finalization --------------------------------------------------------

    def stats(self) -> ReplayStats:
        """Finalize the replay into a :class:`ReplayStats`."""
        if self._measured == 0:
            raise ValueError("trace produced no measured references")
        if get_oracle_config().enabled:
            # Final well-formedness sweep: per-record (feed_many) runs
            # get at least this one structural check even though they
            # never pass through the chunk loop.
            self._structure_invariants()
        hierarchy = self.hierarchy
        start = self._measure_start or 0.0
        wall = max(self._end_time - start, 1.0)
        per_cpu_refs = self._measured / hierarchy.config.n_cpus
        clock = hierarchy.config.core_clock_ghz
        return ReplayStats(
            n_accesses=self._measured,
            cpma=wall / per_cpu_refs,
            avg_latency=self._latency_sum / self._measured,
            wall_cycles=wall,
            bandwidth_gbps=hierarchy.bus.bandwidth_gbps(wall, clock),
            bus_power_w=hierarchy.bus.power_w(wall, clock),
            level_counts=dict(hierarchy.level_counts),
            level_latency={
                level: self._level_latency_sum[level] / count
                for level, count in self._level_latency_n.items()
            },
            offchip_fraction=hierarchy.offchip_fraction(),
            invalidations=hierarchy.invalidations,
            quarantined=self.guard.quarantined if self.guard else 0,
            quarantined_by_reason=(
                dict(self.guard.quarantined_by_reason) if self.guard else {}
            ),
            degraded=self._oracle_degraded,
        )

    # -- checkpoint/resume ---------------------------------------------------

    def checkpoint(self, path: Union[str, Path]) -> Path:
        """Snapshot the full replay state to *path* (atomic write)."""
        return save_checkpoint(
            "replay", {"replayer": self, "index": self.index}, path
        )

    @classmethod
    def restore(cls, path: Union[str, Path]) -> "TraceReplayer":
        """Rebuild a replayer from a :meth:`checkpoint` snapshot.

        The caller must re-feed the trace starting at record
        ``replayer.index`` (earlier records are already accounted for).
        """
        state = load_checkpoint(path, kind="replay")
        return state["replayer"]


def replay_trace(
    records: Union[Iterable[TraceRecord], np.ndarray],
    config: Optional[HierarchyConfig] = None,
    hierarchy: Optional[MemoryHierarchy] = None,
    warmup_fraction: float = 0.3,
    n_records_hint: Optional[int] = None,
    mode: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    resume_from: Optional[Union[str, Path]] = None,
) -> ReplayStats:
    """Replay a trace and measure CPMA, bandwidth, and bus power.

    Args:
        records: The trace — any iterable of :class:`TraceRecord`, or a
            :data:`~repro.traces.generator.TRACE_DTYPE` structured array
            (the batched form; replayed through the chunked fast path
            with identical results).
        config: Hierarchy configuration (Table 3 baseline by default).
        hierarchy: A pre-built hierarchy to use instead of *config*
            (useful for warmed or instrumented instances).
        warmup_fraction: Leading fraction of the trace used to warm the
            caches; its statistics are discarded, mirroring the paper's
            skipping of each benchmark's initialization phase.
        n_records_hint: Length of *records* if it is a generator (needed
            to place the warmup boundary; ignored for sized iterables).
        mode: ``"strict"`` validates every record and raises
            :class:`~repro.resilience.errors.TraceCorruptionError` on
            the first violation; ``"lenient"`` quarantines bad records
            and reports counts in the stats; ``None`` (default) replays
            unvalidated, trusting construction-time checks.
        checkpoint_every: Snapshot replay state every this many records
            (requires *checkpoint_path*).
        checkpoint_path: Snapshot destination.
        resume_from: Resume from a snapshot written by an earlier
            (interrupted) run over the same *records* stream.

    Returns:
        A :class:`ReplayStats`.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    if mode not in (None, "strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")

    is_array = isinstance(records, np.ndarray)
    if resume_from is not None:
        replayer = TraceReplayer.restore(resume_from)
        if is_array:
            records = records[replayer.index :]
        else:
            records = itertools.islice(iter(records), replayer.index, None)
    else:
        try:
            total = len(records)  # type: ignore[arg-type]
        except TypeError:
            total = n_records_hint
        warmup_until = int(total * warmup_fraction) if total else 0
        if hierarchy is None:
            hierarchy = MemoryHierarchy(config or HierarchyConfig())
        guard = (
            TraceGuard(n_cpus=hierarchy.config.n_cpus, strict=mode == "strict")
            if mode is not None
            else None
        )
        replayer = TraceReplayer(
            hierarchy=hierarchy, warmup_until=warmup_until, guard=guard
        )
    if is_array:
        replayer.feed_array(
            records,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
    else:
        replayer.feed_many(
            records,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
    return replayer.stats()
