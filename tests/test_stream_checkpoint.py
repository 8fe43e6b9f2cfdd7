"""Acceptance criterion: kill at an arbitrary day + resume == uninterrupted.

A replay killed mid-stream and resumed from its checkpoint must converge to
the identical findings set (and matching statistics) as an uninterrupted
run — which itself equals the batch pipeline. Also covers the checkpoint
store itself: atomicity, format versioning, and bundle-mismatch detection.
"""

import gzip
import io
import json
import os

import pytest

from repro.stream import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointStore,
    StreamEngine,
    build_event_stream,
    canonical_findings,
    verify_equivalence,
)
from repro.stream.checkpoint import CHECKPOINT_FORMAT_VERSION
from repro.util.storage import dump_json, load_json


@pytest.fixture(scope="module")
def small_bundle(small_world):
    return small_world.to_bundle()


@pytest.fixture(scope="module")
def cutoff(small_world):
    return small_world.config.timeline.revocation_cutoff


@pytest.fixture(scope="module")
def uninterrupted(small_bundle, cutoff):
    return StreamEngine(small_bundle, revocation_cutoff_day=cutoff).replay()


def _kill_and_resume(bundle, cutoff, tmp_path, kill_after_days, every=25):
    store = CheckpointStore(str(tmp_path))
    partial = StreamEngine(
        bundle,
        revocation_cutoff_day=cutoff,
        checkpoint_store=store,
        checkpoint_every_days=every,
    ).replay(max_days=kill_after_days)
    assert not partial.complete
    resumed = StreamEngine(
        bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
    ).replay(resume=True)
    assert resumed.complete
    return partial, resumed


class TestKillResume:
    @pytest.mark.parametrize("kill_after_days", [1, 200, 1400])
    def test_resume_converges_to_uninterrupted(
        self, small_bundle, cutoff, tmp_path, uninterrupted, kill_after_days
    ):
        partial, resumed = _kill_and_resume(
            small_bundle, cutoff, tmp_path, kill_after_days
        )
        assert canonical_findings(resumed.findings) == canonical_findings(
            uninterrupted.findings
        )
        assert resumed.revocation_stats == uninterrupted.revocation_stats
        assert resumed.stats.resumed_from_day == partial.cursor_day

    def test_resume_equals_batch(self, small_bundle, cutoff, tmp_path):
        _, resumed = _kill_and_resume(small_bundle, cutoff, tmp_path, 700)
        ok, _ = verify_equivalence(
            small_bundle, resumed.findings, revocation_cutoff_day=cutoff
        )
        assert ok

    def test_double_kill_double_resume(self, small_bundle, cutoff, tmp_path, uninterrupted):
        store = CheckpointStore(str(tmp_path))
        StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        ).replay(max_days=300)
        second = StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        ).replay(max_days=400, resume=True)
        assert not second.complete
        final = StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        ).replay(resume=True)
        assert final.complete
        assert canonical_findings(final.findings) == canonical_findings(
            uninterrupted.findings
        )

    def test_cumulative_day_count_survives_resume(self, small_bundle, cutoff, tmp_path, uninterrupted):
        _, resumed = _kill_and_resume(small_bundle, cutoff, tmp_path, 500)
        assert resumed.stats.days_processed == uninterrupted.stats.days_processed

    def test_resume_without_checkpoint_is_fresh_run(self, small_bundle, cutoff, tmp_path, uninterrupted):
        store = CheckpointStore(str(tmp_path / "empty"))
        result = StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        ).replay(resume=True)
        assert result.complete
        assert result.stats.resumed_from_day is None
        assert canonical_findings(result.findings) == canonical_findings(
            uninterrupted.findings
        )

    def test_mismatched_bundle_rejected(self, small_bundle, cutoff, tmp_path):
        from repro.core.pipeline import DatasetBundle

        store = CheckpointStore(str(tmp_path))
        StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        ).replay(max_days=100)
        other = DatasetBundle(corpus=small_bundle.corpus)  # different datasets
        with pytest.raises(CheckpointMismatchError):
            StreamEngine(
                other, revocation_cutoff_day=cutoff, checkpoint_store=store
            ).replay(resume=True)


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        assert store.load() is None
        store.save({"cursor_day": 42, "detectors": {}})
        loaded = store.load()
        assert loaded["cursor_day"] == 42
        assert loaded["format_version"] == CHECKPOINT_FORMAT_VERSION

    def test_save_is_atomic(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save({"cursor_day": 1})
        assert not os.path.exists(store.path + ".tmp")

    def test_clear(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save({"cursor_day": 1})
        store.clear()
        assert store.load() is None

    def test_unknown_format_version_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        dump_json(store.path, {"format_version": 999})
        with pytest.raises(CheckpointMismatchError, match="v999"):
            store.load()


class TestCorruptCheckpoints:
    """Regression: unreadable checkpoints raised raw gzip/JSON tracebacks
    (``BadGzipFile`` / ``EOFError`` / ``JSONDecodeError``) instead of a
    checkpoint-layer error naming the file and the remedy."""

    def test_garbage_bytes_raise_corrupt_error(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        os.makedirs(store.directory, exist_ok=True)
        with open(store.path, "wb") as handle:
            handle.write(b"this is not a gzip stream")
        with pytest.raises(CheckpointCorruptError, match="truncated or corrupt"):
            store.load()

    def test_truncated_gzip_raises_corrupt_error(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save({"cursor_day": 42, "detectors": {}})
        with open(store.path, "rb") as handle:
            payload = handle.read()
        assert len(payload) > 12
        with open(store.path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])  # deliberate truncation
        with pytest.raises(CheckpointCorruptError) as excinfo:
            store.load()
        assert store.path in str(excinfo.value)

    def test_non_document_payload_raises_corrupt_error(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        dump_json(store.path, [1, 2, 3])
        with pytest.raises(CheckpointCorruptError, match="checkpoint document"):
            store.load()

    def test_corrupt_error_is_a_checkpoint_error(self):
        # The CLI catches the base class to cover mismatch AND corruption.
        assert issubclass(CheckpointCorruptError, CheckpointError)
        assert issubclass(CheckpointMismatchError, CheckpointError)

    def test_resume_against_corrupt_checkpoint_raises(
        self, small_bundle, cutoff, tmp_path
    ):
        store = CheckpointStore(str(tmp_path))
        engine = StreamEngine(
            small_bundle,
            revocation_cutoff_day=cutoff,
            checkpoint_store=store,
            checkpoint_every_days=5,
        )
        engine.replay(max_days=10)
        with open(store.path, "rb") as handle:
            payload = handle.read()
        with open(store.path, "wb") as handle:
            handle.write(payload[: len(payload) // 3])
        with pytest.raises(CheckpointCorruptError):
            StreamEngine(
                small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
            ).replay(resume=True)


def _managed_tls_batch_stats(bundle):
    from repro.core.detectors.managed_tls import ManagedTlsDetector

    detector = ManagedTlsDetector(bundle.corpus)
    detector.detect(bundle.dns_snapshots)
    return detector.stats


class TestManagedTlsStatsAcrossResume:
    """Regression: restore_state reset the managed-TLS departure counter,
    so after a resume the stream stats undercounted the batch detector's."""

    @pytest.mark.parametrize("window_fraction", [0.3, 0.7])
    def test_stats_equal_uninterrupted_and_batch(
        self, small_bundle, cutoff, tmp_path, window_fraction
    ):
        # Kill inside the DNS scan window, so departures fall on both sides.
        event_days = sorted({event.day for event in build_event_stream(small_bundle)})
        scan_days = small_bundle.dns_snapshots.days()
        kill_day = scan_days[int(len(scan_days) * window_fraction)]
        store = CheckpointStore(str(tmp_path))
        killed = StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        )
        killed.replay(max_days=event_days.index(kill_day) + 1)
        assert killed._mt.stats.departures_detected > 0
        resumed = StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        )
        assert resumed.replay(resume=True).complete
        uninterrupted = StreamEngine(small_bundle, revocation_cutoff_day=cutoff)
        uninterrupted.replay()
        batch = _managed_tls_batch_stats(small_bundle)
        assert batch.departures_detected > killed._mt.stats.departures_detected
        assert resumed._mt.stats == uninterrupted._mt.stats == batch


def _json_dump_bytes(obj) -> bytes:
    """What ``json.dump`` wrote for dump_json before it used ``json.dumps``."""
    buffer = io.StringIO()
    json.dump(obj, buffer, separators=(",", ":"), sort_keys=True)
    return buffer.getvalue().encode("utf-8")


class TestCheckpointFormatV2:
    def _write_v1(self, small_bundle, cutoff, directory):
        """A real checkpoint, rewritten in the v1 layout (split NS/CNAME
        ``last_view``, no departure counter)."""
        store = CheckpointStore(directory)
        StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        ).replay(max_days=60)
        document = store.load()
        managed_tls = document["detectors"]["managed_tls"]
        managed_tls["last_view"] = {
            apex: {"ns": targets, "cname": []}
            for apex, targets in managed_tls["last_view"].items()
        }
        managed_tls["have_snapshot"] = True
        del managed_tls["departures_detected"]
        document["format_version"] = 1
        dump_json(store.path, document)
        return store

    def test_v1_checkpoint_refused(self, small_bundle, cutoff, tmp_path):
        store = self._write_v1(small_bundle, cutoff, str(tmp_path))
        with pytest.raises(CheckpointMismatchError, match="v1"):
            store.load()
        with pytest.raises(CheckpointMismatchError):
            StreamEngine(
                small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
            ).replay(resume=True)

    def test_watch_resume_on_v1_checkpoint_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        args = ["--scale", "0.02", "--seed", "7"]
        ckpt = str(tmp_path / "ckpt")
        assert main(args + ["watch", "--days", "60", "--checkpoint-dir", ckpt]) == 0
        document = CheckpointStore(ckpt).load()
        document["format_version"] = 1
        dump_json(CheckpointStore(ckpt).path, document)
        capsys.readouterr()
        assert main(args + ["watch", "--checkpoint-dir", ckpt, "--resume"]) == 2
        assert "format v1" in capsys.readouterr().err

    def test_last_view_holds_only_cloudflare_apexes(self, small_bundle, cutoff, tmp_path):
        from repro.core.detectors.managed_tls import is_cloudflare_delegation

        store = CheckpointStore(str(tmp_path))
        StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        ).replay()
        last_view = store.load()["detectors"]["managed_tls"]["last_view"]
        last_day, view = small_bundle.dns_snapshots.delegation_views()[-1]
        expected = {
            apex: sorted(t for t in targets if is_cloudflare_delegation(t))
            for apex, targets in view.items()
            if any(is_cloudflare_delegation(t) for t in targets)
        }
        assert last_view and len(last_view) < len(view)
        assert last_view == expected

    def test_dump_json_bytes_unchanged_for_checkpoint(self, small_bundle, cutoff, tmp_path):
        store = CheckpointStore(str(tmp_path))
        StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        ).replay(max_days=200)
        document = store.load()
        with gzip.open(store.path, "rb") as handle:
            written = handle.read()
        assert written == _json_dump_bytes(document)
        path = dump_json(str(tmp_path / "again.json.gz"), document)
        assert load_json(path) == document

    def test_dump_json_bytes_unchanged_for_pipeline_result(self, small_bundle, cutoff, tmp_path):
        from repro.core.pipeline import MeasurementPipeline, PipelineResult

        result = MeasurementPipeline(small_bundle, revocation_cutoff_day=cutoff).run()
        for name in ("findings.json", "findings.json.gz"):
            path = result.to_json(str(tmp_path / name))
            with (gzip.open if name.endswith(".gz") else open)(path, "rb") as handle:
                written = handle.read()
            payload = load_json(path)
            assert written == _json_dump_bytes(payload)
            assert canonical_findings(PipelineResult.from_json(path).findings) == (
                canonical_findings(result.findings)
            )
