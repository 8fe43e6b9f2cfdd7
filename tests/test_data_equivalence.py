"""Columnar bundle vs in-memory bundle equivalence across every consumer.

The acceptance bar for the columnar data plane: the batch pipeline, the
sharded parallel pipeline (real process pool), the streaming replay,
and the serving index must produce *identical* findings whether they
read the saved columnar segments or the in-memory
:class:`~repro.core.pipeline.DatasetBundle` they were written from — and
no internal path may emit a DeprecationWarning.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import MeasurementPipeline, ParallelMeasurementPipeline
from repro.data import open_bundle, write_dataset
from repro.serve import FindingsIndex
from repro.stream import StreamEngine, canonical_findings


@pytest.fixture(scope="module")
def cutoff(small_world):
    return small_world.config.timeline.revocation_cutoff


@pytest.fixture(scope="module")
def columnar_dir(small_world, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("eq-columnar"))
    write_dataset(small_world.to_bundle(), directory)
    return directory


@pytest.fixture(scope="module")
def reference_findings(pipeline_result):
    """Findings of the batch pipeline over the in-memory bundle."""
    return canonical_findings(pipeline_result.findings)


class TestConsumerEquivalence:
    def test_batch_findings_identical(self, columnar_dir, cutoff, reference_findings):
        bundle = open_bundle(columnar_dir)
        result = MeasurementPipeline(bundle, revocation_cutoff_day=cutoff).run()
        assert canonical_findings(result.findings) == reference_findings

    def test_parallel_process_pool_identical(
        self, columnar_dir, cutoff, reference_findings
    ):
        bundle = open_bundle(columnar_dir)
        result = ParallelMeasurementPipeline(
            bundle, workers=4, revocation_cutoff_day=cutoff
        ).run()
        assert canonical_findings(result.findings) == reference_findings
        assert result.shard_stats.executor == "process"

    def test_stream_replay_identical(self, columnar_dir, cutoff, reference_findings):
        bundle = open_bundle(columnar_dir)
        result = StreamEngine(bundle, revocation_cutoff_day=cutoff).replay()
        assert result.complete
        assert canonical_findings(result.findings) == reference_findings

    def test_serve_index_identical(self, columnar_dir, cutoff, pipeline_result):
        columnar = FindingsIndex.from_bundle(
            columnar_dir, revocation_cutoff_day=cutoff
        )
        reference = FindingsIndex(pipeline_result)
        assert len(columnar) == len(reference)
        assert columnar.domains() == reference.domains()
        assert columnar.aggregates("class") == reference.aggregates("class")
        assert columnar.aggregates("issuer") == reference.aggregates("issuer")


class TestForkSafety:
    def test_mmap_survives_process_pool_fork_and_closes(
        self, columnar_dir, cutoff, reference_findings
    ):
        """A forked worker inherits the parent's mapped segments; runs
        must still merge correctly and the parent must close cleanly."""
        bundle = open_bundle(columnar_dir)
        with ProcessPoolExecutor(max_workers=2):
            pass  # prove fork itself is safe with segments already mapped
        result = ParallelMeasurementPipeline(
            bundle, workers=2, revocation_cutoff_day=cutoff
        ).run()
        assert canonical_findings(result.findings) == reference_findings
        bundle.close()
        # Reopen and run again: closing released the maps, nothing leaked.
        reopened = open_bundle(columnar_dir)
        again = MeasurementPipeline(
            reopened, revocation_cutoff_day=cutoff
        ).run()
        assert canonical_findings(again.findings) == reference_findings
        reopened.close()


class TestNoDeprecationWarnings:
    def test_internal_paths_never_touch_the_shim(
        self, small_world, columnar_dir, cutoff, tmp_path
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            destination = str(tmp_path / "fresh")
            write_dataset(small_world.to_bundle(), destination)
            bundle = open_bundle(destination)
            MeasurementPipeline(bundle, revocation_cutoff_day=cutoff).run()
            FindingsIndex.from_bundle(
                columnar_dir, revocation_cutoff_day=cutoff
            )
