"""Acceptance criterion: streaming replay == batch pipeline, exactly.

The streaming engine must produce a StaleFindings set identical to
``MeasurementPipeline.run()`` over the same world — same certificates, same
classes, same invalidation days, same details — plus identical revocation
join statistics. Runs against the session-scoped small world (a full
2013–2023 simulation) and a few reduced bundles that exercise the
detector-skipping edges of the batch pipeline.
"""

import pytest

from repro import MeasurementPipeline
from repro.core.pipeline import DETECTOR_REGISTRY, DatasetBundle, PipelineConfig
from repro.core.stale import StalenessClass
from repro.stream import (
    CheckpointStore,
    StreamEngine,
    build_event_stream,
    canonical_findings,
    verify_equivalence,
)


@pytest.fixture(scope="module")
def small_bundle(small_world):
    return small_world.to_bundle()


@pytest.fixture(scope="module")
def cutoff(small_world):
    return small_world.config.timeline.revocation_cutoff


@pytest.fixture(scope="module")
def stream_result(small_bundle, cutoff):
    return StreamEngine(small_bundle, revocation_cutoff_day=cutoff).replay()


class TestFullWorldEquivalence:
    def test_replay_completes(self, stream_result):
        assert stream_result.complete
        assert stream_result.stats.days_processed > 0

    def test_findings_identical_to_batch(self, small_bundle, cutoff, stream_result):
        ok, batch = verify_equivalence(
            small_bundle, stream_result.findings, revocation_cutoff_day=cutoff
        )
        assert ok, "streaming findings diverge from the batch pipeline"
        # Non-trivial: the world actually produces findings in every class.
        produced = {f.staleness_class for f in batch.findings.all_findings()}
        assert StalenessClass.REVOKED_ALL in produced
        assert StalenessClass.REGISTRANT_CHANGE in produced
        assert StalenessClass.MANAGED_TLS_DEPARTURE in produced

    def test_revocation_stats_identical(self, small_bundle, cutoff, stream_result):
        batch = MeasurementPipeline(
            small_bundle, revocation_cutoff_day=cutoff
        ).run()
        assert stream_result.revocation_stats == batch.revocation_stats

    def test_to_pipeline_result_feeds_report_layer(self, stream_result):
        from repro.analysis.aggregate import build_table4

        rows = build_table4(stream_result.to_pipeline_result())
        assert rows  # Table 4 renders from the streaming result

    def test_stats_count_every_finding_emission(self, stream_result):
        # Emission count >= converged count (revisions re-emit), and every
        # converged class appears in the stats.
        converged = {}
        for finding in stream_result.findings.all_findings():
            key = finding.staleness_class.value
            converged[key] = converged.get(key, 0) + 1
        for class_value, count in converged.items():
            assert stream_result.stats.findings_by_class.get(class_value, 0) >= count


class TestReducedBundles:
    """The batch pipeline skips detectors for absent datasets; streaming
    must land in exactly the same place."""

    def _equivalent(self, bundle, cutoff):
        result = StreamEngine(bundle, revocation_cutoff_day=cutoff).replay()
        ok, batch = verify_equivalence(
            bundle, result.findings, revocation_cutoff_day=cutoff
        )
        assert ok
        return result, batch

    def test_ct_only(self, small_bundle, cutoff):
        bundle = DatasetBundle(corpus=small_bundle.corpus)
        result, _ = self._equivalent(bundle, cutoff)
        assert canonical_findings(result.findings) == []
        assert result.revocation_stats is None

    def test_no_dns(self, small_bundle, cutoff):
        bundle = DatasetBundle(
            corpus=small_bundle.corpus,
            crls=small_bundle.crls,
            whois_creation_pairs=small_bundle.whois_creation_pairs,
        )
        result, batch = self._equivalent(bundle, cutoff)
        classes = {f.staleness_class for f in result.findings.all_findings()}
        assert StalenessClass.MANAGED_TLS_DEPARTURE not in classes

    def test_no_whois_tlds(self, small_bundle, cutoff):
        result = StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, whois_tlds=()
        ).replay()
        ok, _ = verify_equivalence(
            small_bundle, result.findings, revocation_cutoff_day=cutoff, whois_tlds=()
        )
        assert ok
        classes = {f.staleness_class for f in result.findings.all_findings()}
        assert StalenessClass.REGISTRANT_CHANGE not in classes


def _batch_stats(bundle, cutoff):
    """Join stats of each registry detector run alone over *bundle*."""
    config = PipelineConfig(revocation_cutoff_day=cutoff)
    stats = {}
    for spec in DETECTOR_REGISTRY:
        detector = spec.build(bundle, config)
        detector.detect(spec.inputs(bundle))
        stats[spec.key] = detector.stats
    return stats


def _stream_stats(engine):
    return {detector.name: detector.stats for detector in engine._detectors}


class TestJoinStatsAcrossEngines:
    """Every class's join accounting agrees between the batch detector, an
    uninterrupted replay, a killed-and-resumed replay and (key compromise)
    the sharded engine."""

    @pytest.fixture(scope="class")
    def batch_stats(self, small_bundle, cutoff):
        return _batch_stats(small_bundle, cutoff)

    def test_uninterrupted_replay(self, small_bundle, cutoff, batch_stats):
        engine = StreamEngine(small_bundle, revocation_cutoff_day=cutoff)
        assert engine.replay().complete
        assert _stream_stats(engine) == batch_stats
        assert batch_stats["key_compromise"].survivors > 0
        assert batch_stats["registrant_change"].findings > 0
        assert batch_stats["managed_tls"].departures_detected > 0

    @pytest.mark.parametrize("window", ["crl", "dns"])
    def test_killed_and_resumed_replay(
        self, small_bundle, cutoff, batch_stats, tmp_path, window
    ):
        if window == "crl":
            window_days = sorted({crl.this_update for crl in small_bundle.crls})
        else:
            window_days = small_bundle.dns_snapshots.days()
        kill_day = window_days[len(window_days) // 2]
        event_days = sorted({event.day for event in build_event_stream(small_bundle)})
        store = CheckpointStore(str(tmp_path))
        killed = StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        )
        assert not killed.replay(max_days=event_days.index(kill_day) + 1).complete
        resumed = StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        )
        assert resumed.replay(resume=True).complete
        assert _stream_stats(resumed) == batch_stats

    def test_sharded_revocation_stats(self, small_bundle, cutoff, batch_stats):
        result = MeasurementPipeline.run_bundle(
            small_bundle, revocation_cutoff_day=cutoff, workers=2
        )
        assert result.revocation_stats == batch_stats["key_compromise"]
