"""Integrity-checked state: checkpoint envelopes, journal CRCs, resume.

The corruption contract end to end: a flipped bit in any persisted
artifact (checkpoint payload, journal line) or any stale journal entry
is *detected* — quarantined, re-run, or reported via ``repro verify`` —
never silently resumed from.
"""

import json

import numpy as np
import pytest

from repro.oracles.config import get_oracle_config, set_oracle_mode
from repro.oracles.report import reset_oracles
from repro.resilience import (
    CheckpointError,
    FaultInjector,
    StateIntegrityError,
    load_checkpoint,
    quarantine_file,
    save_checkpoint,
    verify_checkpoint,
)
from repro.runner.journal import Journal, make_entry, scan_journal
from repro.runner.scheduler import run_campaign
from repro.runner.supervisor import CampaignConfig, RetryPolicy
from repro.runner.tasks import CampaignTask

from tests.campaign_fixtures import FAST_REGISTRY_SPEC


@pytest.fixture(autouse=True)
def _clean_oracles():
    previous = get_oracle_config()
    reset_oracles()
    yield
    set_oracle_mode(previous)
    reset_oracles()


class TestCheckpointIntegrity:
    STATE = {"index": 7, "temps": [311.0, 305.5]}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint("replay", self.STATE, path)
        assert load_checkpoint(path, "replay") == self.STATE

    def test_bit_flip_detected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint("replay", self.STATE, path)
        FaultInjector(seed=5).flip_file_bits(path, n_flips=1, offset_min=96)
        with pytest.raises(StateIntegrityError, match="sha256"):
            load_checkpoint(path, "replay")

    def test_quarantine_moves_corrupt_file_aside(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint("replay", self.STATE, path)
        FaultInjector(seed=5).flip_file_bits(path, n_flips=1, offset_min=96)
        with pytest.raises(StateIntegrityError):
            load_checkpoint(path, "replay", quarantine=True)
        assert not path.exists()
        assert (tmp_path / "state.ckpt.quarantined").exists()

    def test_verify_is_read_only(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint("transient", self.STATE, path)
        summary = verify_checkpoint(path)
        assert summary["kind"] == "transient"
        assert summary["nbytes"] > 0
        FaultInjector(seed=5).flip_file_bits(path, n_flips=1, offset_min=96)
        with pytest.raises(CheckpointError):
            verify_checkpoint(path)
        assert path.exists()  # verify never quarantines

    def test_quarantine_file_helper(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"garbage")
        target = quarantine_file(path)
        assert target.name == "junk.bin.quarantined"
        assert target.read_bytes() == b"garbage"


def _entry(task, status="ok", **overrides):
    fields = dict(
        task_id=task.task_id,
        experiment_id=task.experiment_id,
        fingerprint=task.fingerprint,
        status=status,
        attempt=0,
        final=True,
        seed=task.seed,
        kwargs=task.kwargs,
        result={"value": 42},
    )
    fields.update(overrides)
    return make_entry(**fields)


def _task(task_id, **kwargs):
    return CampaignTask(
        task_id=task_id,
        experiment_id="quick",
        kwargs=kwargs,
        seed=7,
        registry_spec=FAST_REGISTRY_SPEC,
    )


def _resume(tasks, journal_path):
    return run_campaign(tasks, CampaignConfig(
        workers=1,
        task_timeout_s=60.0,
        retry=RetryPolicy(max_retries=0, backoff_base_s=0.05),
        journal_path=str(journal_path),
        resume=True,
    ))


class TestJournalCrc:
    def test_appended_lines_carry_crc(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append(_entry(_task("t")))
        line = json.loads(path.read_text().strip())
        assert len(line["crc"]) == 8
        entries, torn, crc_failed = scan_journal(path)
        assert (len(entries), torn, crc_failed) == (1, 0, 0)

    def test_tampered_line_dropped_and_counted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append(_entry(_task("t")))
        path.write_text(path.read_text().replace('"value": 42', '"value": 43'))
        entries, torn, crc_failed = scan_journal(path)
        assert (len(entries), torn, crc_failed) == (0, 0, 1)

    def test_legacy_line_without_crc_accepted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        entry = _entry(_task("t"))  # no crc key: pre-oracles journal
        path.write_text(json.dumps(entry, sort_keys=True, default=str) + "\n")
        entries, torn, crc_failed = scan_journal(path)
        assert (len(entries), torn, crc_failed) == (1, 0, 0)

    def test_invalid_utf8_line_is_torn_not_fatal(self, tmp_path):
        # Regression: a bit flip can leave bytes that do not decode;
        # the scan must count the line, not die in the codec.
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append(_entry(_task("t")))
            journal.append(_entry(_task("u")))
        raw = bytearray(path.read_bytes())
        raw[5] = 0xF0
        path.write_bytes(bytes(raw))
        entries, torn, crc_failed = scan_journal(path)
        assert len(entries) == 1
        assert torn + crc_failed == 1


class TestStaleResume:
    def test_clean_entry_is_skipped(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        task = _task("healthy")
        with Journal(journal_path) as journal:
            journal.append(_entry(task))
        report = _resume([task], journal_path)
        assert report.counts["skipped"] == 1
        assert report.stale_resume == 0
        assert not report.degraded

    def test_stale_fingerprint_forces_rerun(self, tmp_path):
        # The stored fingerprint matches the task (so resume finds it)
        # but the line's own recorded kwargs were tampered after
        # writing: recomputation belies the fingerprint, so the entry
        # must not be trusted.
        journal_path = tmp_path / "journal.jsonl"
        task = _task("healthy")
        with Journal(journal_path) as journal:
            journal.append(_entry(task, kwargs={"value": 99}))
        report = _resume([task], journal_path)
        assert report.stale_resume == 1
        assert report.counts["skipped"] == 0
        assert report.counts["ok"] == 1  # re-run fresh, trustworthy
        assert not report.degraded

    def test_crc_failed_entry_forces_rerun(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        task = _task("healthy")
        with Journal(journal_path) as journal:
            journal.append(_entry(task))
        tampered = journal_path.read_text().replace(
            '"value": 42', '"value": 43'
        )
        journal_path.write_text(tampered)
        report = _resume([task], journal_path)
        assert report.corrupt_journal_lines == 1
        assert report.counts["skipped"] == 0
        assert report.counts["ok"] == 1
        assert not report.degraded


class TestVerifyCli:
    def _main(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_checkpoint_ok_and_corrupt(self, tmp_path, capsys):
        path = tmp_path / "state.ckpt"
        save_checkpoint("replay", {"x": np.arange(8)}, path)
        assert self._main("verify", str(path)) == 0
        assert "checkpoint OK" in capsys.readouterr().out
        FaultInjector(seed=5).flip_file_bits(path, n_flips=1, offset_min=96)
        assert self._main("verify", str(path)) == 1

    def test_journal_ok_and_corrupt(self, tmp_path, capsys):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append(_entry(_task("t")))
        assert self._main("verify", str(path)) == 0
        assert "journal with 1 verifiable" in capsys.readouterr().out
        path.write_text(path.read_text().replace('"value": 42', '"value": 43'))
        assert self._main("verify", str(path)) == 1

    def test_missing_artifact_is_usage_error(self, tmp_path):
        assert self._main("verify", str(tmp_path / "nope.bin")) == 2


class TestRunOraclesExit:
    def test_detected_corruption_exits_three(self, capsys):
        from repro.cli import main
        from repro.thermal import solver as thermal_solver
        from repro.thermal.solver import clear_operator_cache

        clear_operator_cache()
        thermal_solver.arm_operator_corruption(
            lambda op: FaultInjector(seed=11).flip_array_bits(
                op.matrix.data, n_flips=1
            )
        )
        try:
            code = main(["run", "table-5", "--oracles", "strict", "--nx", "16"])
        finally:
            thermal_solver.arm_operator_corruption(None)
            clear_operator_cache()
        assert code == 3
        out = capsys.readouterr().out
        assert "DEGRADED [thermal.operator-crc]" in out
