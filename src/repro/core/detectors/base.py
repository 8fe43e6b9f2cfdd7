"""Common batch detector protocol.

The three batch pipelines of Sections 4.1–4.3 share one shape: construct
one from the data it joins against, feed it the dataset it consumes via
``detect(inputs, findings)``, and read join accounting from ``stats``.
The batch pipeline iterates a registry of detectors with this shape
instead of hard-coding each class, and the sharded parallel engine
(:mod:`repro.parallel`) relies on detectors being uniformly constructible
and picklable inside worker processes. The stream engine's incremental
wrappers have a shape of their own (see :mod:`repro.stream.detectors`).
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, runtime_checkable

from repro.core.stale import StaleFindings


@runtime_checkable
class Detector(Protocol):
    """The shape shared by the batch staleness detectors.

    ``inputs`` is whatever dataset the detector joins: a CRL series for
    key compromise, (domain, creation day) pairs for registrant change, a
    :class:`~repro.dns.snapshots.SnapshotStore` for managed TLS. ``detect``
    appends to (and returns) *findings*; ``stats`` exposes the detector's
    join accounting (``None`` where a detector keeps no counters).
    """

    def detect(
        self, inputs: Any, findings: Optional[StaleFindings] = None
    ) -> StaleFindings:
        ...

    @property
    def stats(self) -> Any:
        ...
