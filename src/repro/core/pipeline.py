"""End-to-end measurement pipeline.

Binds the three detectors to the dataset bundle (CT corpus, CRL series,
WHOIS creation pairs, DNS snapshots) and returns a single
:class:`PipelineResult` from which every table and figure is derived. This
is the programmatic equivalent of the paper's Section 4 methodology run
end-to-end.

The pipeline iterates :data:`DETECTOR_REGISTRY` — an ordered list of
:class:`DetectorSpec` entries describing how to build each
:class:`~repro.core.detectors.base.Detector`, which bundle dataset it
consumes, and when it applies — so adding a staleness class means adding a
registry entry, not editing ``run()``. The sharded parallel engine
(:mod:`repro.parallel`) reuses the same registry inside worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.detectors.base import Detector
from repro.core.detectors.key_compromise import KeyCompromiseDetector, RevocationJoinStats
from repro.obs import get_registry, names, phase_progress, span
from repro.core.detectors.managed_tls import ManagedTlsDetector
from repro.core.detectors.registrant_change import RegistrantChangeDetector
from repro.core.stale import ClassAggregate, StaleCertificate, StalenessClass, StaleFindings
from repro.ct.dedup import CertificateCorpus
from repro.dns.snapshots import SnapshotStore
from repro.revocation.crl import CertificateRevocationList
from repro.util.dates import Day

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (parallel -> core)
    from repro.parallel.stats import ShardStats


@dataclass
class DatasetBundle:
    """The four datasets of paper Table 3."""

    corpus: CertificateCorpus
    crls: List[CertificateRevocationList] = field(default_factory=list)
    whois_creation_pairs: List[Tuple[str, Day]] = field(default_factory=list)
    dns_snapshots: Optional[SnapshotStore] = None
    #: Observation windows per staleness class, (first_day, last_day);
    #: used for the daily-rate denominators in Table 4.
    windows: Dict[StalenessClass, Tuple[Day, Day]] = field(default_factory=dict)


@dataclass
class PipelineResult:
    """Everything one measurement run produces."""

    findings: StaleFindings
    revocation_stats: Optional[RevocationJoinStats] = None
    windows: Dict[StalenessClass, Tuple[Day, Day]] = field(default_factory=dict)
    #: Per-shard sizes/timings when the result came from the sharded
    #: parallel engine (:mod:`repro.parallel`); ``None`` for batch runs.
    shard_stats: Optional["ShardStats"] = None

    def aggregate_table(self) -> List[ClassAggregate]:
        """Table 4 rows (in the paper's order), skipping empty classes."""
        order = (
            StalenessClass.REVOKED_ALL,
            StalenessClass.KEY_COMPROMISE,
            StalenessClass.REGISTRANT_CHANGE,
            StalenessClass.MANAGED_TLS_DEPARTURE,
        )
        rows: List[ClassAggregate] = []
        for cls in order:
            aggregate = self.findings.aggregate(cls, self.windows.get(cls))
            if aggregate is not None:
                rows.append(aggregate)
        return rows

    # -- persistence ---------------------------------------------------------

    def to_json(self, path: str) -> str:
        """Write the result as one (optionally gzipped) JSON document.

        Round-trips through :meth:`from_json`; CLI subcommands and
        checkpoints share this format instead of rebuilding results ad hoc.
        """
        from dataclasses import asdict

        from repro.util.storage import dump_json

        payload = {
            "findings": [f.to_record() for f in self.findings.all_findings()],
            "revocation_stats": (
                asdict(self.revocation_stats)
                if self.revocation_stats is not None
                else None
            ),
            "windows": {
                cls.value: [window[0], window[1]]
                for cls, window in self.windows.items()
            },
            "shard_stats": (
                self.shard_stats.to_record() if self.shard_stats is not None else None
            ),
        }
        return dump_json(path, payload)

    @classmethod
    def from_json(cls, path: str) -> "PipelineResult":
        """Rebuild a result written by :meth:`to_json`."""
        from repro.util.storage import load_json

        payload = load_json(path)
        findings = StaleFindings()
        findings.extend(
            StaleCertificate.from_record(record) for record in payload["findings"]
        )
        revocation_stats = None
        if payload.get("revocation_stats") is not None:
            revocation_stats = RevocationJoinStats(**payload["revocation_stats"])
        shard_stats = None
        if payload.get("shard_stats") is not None:
            from repro.parallel.stats import ShardStats

            shard_stats = ShardStats.from_record(payload["shard_stats"])
        return cls(
            findings=findings,
            revocation_stats=revocation_stats,
            windows={
                StalenessClass(name): (window[0], window[1])
                for name, window in payload.get("windows", {}).items()
            },
            shard_stats=shard_stats,
        )


@dataclass(frozen=True)
class DetectorSpec:
    """One registry entry: how to build and feed a detector.

    ``build`` constructs the detector from the bundle plus pipeline
    configuration; ``inputs`` selects the bundle dataset it consumes;
    ``applies`` gates the detector on that dataset being present (the
    paper runs each method only over its own collection).
    """

    key: str
    build: Callable[[DatasetBundle, "PipelineConfig"], Detector]
    inputs: Callable[[DatasetBundle], Any]
    applies: Callable[[DatasetBundle], bool]


@dataclass(frozen=True)
class PipelineConfig:
    """The non-dataset knobs shared by every pipeline front-end."""

    revocation_cutoff_day: Optional[Day] = None
    whois_tlds: Optional[Tuple[str, ...]] = ("com", "net")


#: The Section 4 methodology as data: one entry per staleness pipeline,
#: in the paper's order. ``MeasurementPipeline``, the stream engine's
#: verification path, and the parallel shard workers all iterate this.
DETECTOR_REGISTRY: Tuple[DetectorSpec, ...] = (
    DetectorSpec(
        key="key_compromise",
        build=lambda bundle, config: KeyCompromiseDetector(
            bundle.corpus, revocation_cutoff_day=config.revocation_cutoff_day
        ),
        inputs=lambda bundle: bundle.crls,
        applies=lambda bundle: bool(bundle.crls),
    ),
    DetectorSpec(
        key="registrant_change",
        build=lambda bundle, config: RegistrantChangeDetector(
            bundle.corpus, tlds=config.whois_tlds
        ),
        inputs=lambda bundle: bundle.whois_creation_pairs,
        applies=lambda bundle: bool(bundle.whois_creation_pairs),
    ),
    DetectorSpec(
        key="managed_tls",
        build=lambda bundle, config: ManagedTlsDetector(bundle.corpus),
        inputs=lambda bundle: bundle.dns_snapshots,
        applies=lambda bundle: (
            bundle.dns_snapshots is not None and len(bundle.dns_snapshots) >= 2
        ),
    ),
)


def merge_revocation_stats(
    parts: Sequence[RevocationJoinStats],
) -> RevocationJoinStats:
    """Sum per-shard join accounting into the global view.

    Valid because shards partition CRL entries by (authority key id,
    serial) ownership: every counter is a disjoint count.
    """
    merged = RevocationJoinStats()
    for part in parts:
        for stat_field in dataclass_fields(RevocationJoinStats):
            setattr(
                merged,
                stat_field.name,
                getattr(merged, stat_field.name) + getattr(part, stat_field.name),
            )
    return merged


class MeasurementPipeline:
    """Runs the Section 4 methodology over a dataset bundle."""

    def __init__(
        self,
        bundle: DatasetBundle,
        revocation_cutoff_day: Optional[Day] = None,
        whois_tlds: Optional[Sequence[str]] = ("com", "net"),
    ) -> None:
        """One single-process run over *bundle*; :meth:`run_bundle` wraps
        this and also routes to the sharded parallel engine via
        ``workers``."""
        self._bundle = bundle
        self._config = PipelineConfig(
            revocation_cutoff_day=revocation_cutoff_day,
            whois_tlds=tuple(whois_tlds) if whois_tlds is not None else None,
        )

    @classmethod
    def run_bundle(
        cls,
        bundle: DatasetBundle,
        revocation_cutoff_day: Optional[Day] = None,
        whois_tlds: Optional[Sequence[str]] = ("com", "net"),
        workers: int = 1,
    ) -> PipelineResult:
        """One-call entry point: run the methodology over *bundle*.

        ``workers > 1`` routes through
        :class:`~repro.parallel.ParallelMeasurementPipeline`, which shards
        the bundle and fans detection out over a process pool while
        producing a findings set identical to the single-process run.
        """
        if workers > 1:
            from repro.parallel import ParallelMeasurementPipeline

            return ParallelMeasurementPipeline(
                bundle,
                workers=workers,
                revocation_cutoff_day=revocation_cutoff_day,
                whois_tlds=whois_tlds,
            ).run()
        return cls(
            bundle,
            revocation_cutoff_day=revocation_cutoff_day,
            whois_tlds=whois_tlds,
        ).run()

    def run(self) -> PipelineResult:
        findings = StaleFindings()
        revocation_stats: Optional[RevocationJoinStats] = None

        with span("pipeline_run"):
            applicable = [
                spec for spec in DETECTOR_REGISTRY if spec.applies(self._bundle)
            ]
            progress = phase_progress("detect_detectors")
            progress.set_total(len(applicable))
            for spec in applicable:
                detector, _ = run_detector(spec, self._bundle, self._config, findings)
                progress.add(1)
                if spec.key == "key_compromise":
                    revocation_stats = detector.stats

        return PipelineResult(
            findings=findings,
            revocation_stats=revocation_stats,
            windows=dict(self._bundle.windows),
        )


def run_detector(
    spec: DetectorSpec,
    bundle: DatasetBundle,
    config: "PipelineConfig",
    findings: StaleFindings,
) -> Tuple[Detector, float]:
    """Build and run one registry detector with shared obs instrumentation.

    Returns ``(detector, elapsed_seconds)``. Records the wall time (build
    + detect) into the ``repro_detector_seconds`` histogram and the
    findings added into ``repro_findings_total`` by staleness class —
    identically for the batch pipeline and the parallel shard workers
    (:func:`repro.parallel.executor.run_shard`), so serial and sharded
    runs report into the same series.
    """
    from time import perf_counter

    registry = get_registry()
    before = {cls: len(findings.of_class(cls)) for cls in StalenessClass}
    with span("detector", detector=spec.key):
        started = perf_counter()
        detector = spec.build(bundle, config)
        detector.detect(spec.inputs(bundle), findings)
        elapsed = perf_counter() - started
    registry.histogram(
        names.DETECTOR_SECONDS, names.DETECTOR_SECONDS_HELP, labels=("detector",)
    ).observe(elapsed, detector=spec.key)
    findings_counter = registry.counter(
        names.FINDINGS_TOTAL, names.FINDINGS_TOTAL_HELP, labels=("staleness_class",)
    )
    for cls in StalenessClass:
        added = len(findings.of_class(cls)) - before[cls]
        if added:
            findings_counter.inc(added, staleness_class=cls.value)
    return detector, elapsed
