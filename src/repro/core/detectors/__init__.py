"""The three third-party stale-certificate detection pipelines.

Each detector mirrors one methodology subsection of the paper:

* :class:`KeyCompromiseDetector` — Section 4.1: cross-reference daily CRL
  collections with the CT corpus, filter outliers, split out the
  key-compromise reason.
* :class:`RegistrantChangeDetector` — Section 4.2: intersect registry
  creation dates with certificate validity windows.
* :class:`ManagedTlsDetector` — Section 4.3: day-over-day disappearance of
  Cloudflare NS/CNAME delegation for domains holding Cloudflare-managed
  certificates.

All three satisfy the :class:`Detector` protocol: ``detect(inputs,
findings)`` plus a ``stats`` accounting attribute, which the batch and
sharded pipelines iterate through the detector registry. Each module also
holds its class's join steps as functions; the incremental wrappers in
:mod:`repro.stream.detectors` call the same ones an event at a time.
"""

from repro.core.detectors.base import Detector
from repro.core.detectors.key_compromise import KeyCompromiseDetector, RevocationJoinStats
from repro.core.detectors.registrant_change import (
    RegistrantChangeDetector,
    RegistrantJoinStats,
)
from repro.core.detectors.managed_tls import (
    CLOUDFLARE_MANAGED_SAN_SUFFIX,
    DepartureJoinStats,
    ManagedTlsDetector,
    is_cloudflare_managed_certificate,
)
from repro.core.detectors.first_party import KeyRotationDetector, Rotation

__all__ = [
    "Detector",
    "KeyCompromiseDetector",
    "RevocationJoinStats",
    "RegistrantChangeDetector",
    "RegistrantJoinStats",
    "ManagedTlsDetector",
    "DepartureJoinStats",
    "CLOUDFLARE_MANAGED_SAN_SUFFIX",
    "is_cloudflare_managed_certificate",
    "KeyRotationDetector",
    "Rotation",
]
