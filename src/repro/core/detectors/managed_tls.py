"""Managed-TLS departure via daily DNS diffing (paper §4.3).

A Cloudflare-managed certificate is identifiable by the
``sni*.cloudflaressl.com`` SAN entry accompanying customer domains. A
*departure* is detected when any Cloudflare nameserver or CNAME
(``*.ns.cloudflare.com`` / ``*.cdn.cloudflare.com``) present for a domain on
one scan day is absent on the next. If the departing domain still has an
unexpired Cloudflare-managed certificate, the CDN retains a valid key for a
domain it no longer serves — a third-party stale certificate from the
departure day to notAfter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.ct.dedup import CertificateCorpus
from repro.core.stale import StaleCertificate, StalenessClass, StaleFindings
from repro.dns.snapshots import DelegationView, SnapshotStore
from repro.pki.certificate import Certificate
from repro.util.dates import Day

#: SAN suffix marking Cloudflare-managed certificates.
CLOUDFLARE_MANAGED_SAN_SUFFIX = "cloudflaressl.com"
#: Managed-certificate SAN shape: sni<digits>.cloudflaressl.com.
_SNI_SAN_RE = re.compile(r"^sni\d+\.cloudflaressl\.com$")
#: Delegation names that indicate Cloudflare is serving the domain.
_CLOUDFLARE_DELEGATION_RE = re.compile(
    r"\.(ns|cdn)\.cloudflare\.com$"
)


def is_cloudflare_managed_certificate(certificate: Certificate) -> bool:
    """Whether the certificate is CDN-managed (vs customer-uploaded).

    The sni*.cloudflaressl.com SAN is what distinguishes Cloudflare-managed
    issuance from certificates a customer uploaded themselves (paper §4.3).
    """
    return any(_SNI_SAN_RE.match(san) for san in certificate.san_dns_names)


def has_managed_marker_san(san_dns_names: Iterable[str]) -> bool:
    """Row-level form of :func:`is_cloudflare_managed_certificate`.

    The columnar data plane classifies certificates straight from the
    ``san_dns_names`` cell while building the ``managed`` secondary
    index, without hydrating a :class:`Certificate`.
    """
    return any(_SNI_SAN_RE.match(san) for san in san_dns_names)


def is_cloudflare_delegation(target: str) -> bool:
    return bool(_CLOUDFLARE_DELEGATION_RE.search(target.lower().rstrip(".")))


def _cloudflare_subset(targets: FrozenSet[str]) -> FrozenSet[str]:
    return frozenset(t for t in targets if is_cloudflare_delegation(t))


@dataclass(frozen=True)
class Departure:
    """One detected managed-TLS departure."""

    apex: str
    departure_day: Day
    removed_targets: FrozenSet[str]


@dataclass
class DepartureJoinStats:
    """Accounting for the departure/managed-certificate join."""

    managed_certificates_indexed: int = 0
    departures_detected: int = 0
    findings: int = 0


#: How many later scans to consult before trusting a disappearance.
#: Consecutive lookup failures happen; the first *observation* decides.
DISAPPEARANCE_LOOKAHEAD_SCANS = 3


class DepartureFold:
    """The departure rule, folded one scan day's delegation view at a time.

    An apex departs on scan day N+1 when it had Cloudflare targets on day
    N and, on day N+1, is observed with none left (a shuffle within
    Cloudflare is not a departure) or is not observed at all. Scans suffer
    transient lookup failures, and the paper compares each day "with
    neighboring days": a disappearance stays pending until the first
    observation within the next :data:`DISAPPEARANCE_LOOKAHEAD_SCANS` scans
    decides it (back on Cloudflare: scan loss), and an exhausted lookahead
    confirms it. ``removed_targets`` are day N's Cloudflare targets.

    State: ``last_view`` (Cloudflare-delegated apex -> its Cloudflare
    targets; no other apex can depart), the open ``pending`` records and
    the ``departures_detected`` count.
    """

    def __init__(self) -> None:
        self.last_view: Dict[str, FrozenSet[str]] = {}
        self.pending: List[dict] = []
        self.departures_detected = 0
        # Views share one frozenset per distinct target set, so memoised,
        # each set runs the delegation regex once.
        self._cloudflare = lru_cache(maxsize=None)(_cloudflare_subset)

    def step(self, scan_day: Day, view: DelegationView) -> List[Departure]:
        """Fold one scan day's view; returns the departures it settles:
        pendings it resolves first, then new ones in apex order."""
        cloudflare = self._cloudflare
        departures: List[Departure] = []
        unresolved: List[dict] = []
        for pending in self.pending:  # pendings predate this view
            targets = view.get(pending["apex"])
            if targets is None:
                pending["remaining"] -= 1
                if pending["remaining"] > 0:
                    unresolved.append(pending)
                    continue
            elif cloudflare(targets):
                continue  # back on Cloudflare: transient scan loss
            departures.append(
                self._depart(pending["apex"], pending["departure_day"], pending["removed"])
            )
        self.pending = unresolved
        for apex in sorted(self.last_view):  # hash-seed-free order
            targets = view.get(apex)
            if targets is None:
                self.pending.append({
                    "apex": apex,
                    "departure_day": scan_day,
                    "removed": sorted(self.last_view[apex]),
                    "remaining": DISAPPEARANCE_LOOKAHEAD_SCANS,
                })
            elif not cloudflare(targets):
                departures.append(self._depart(apex, scan_day, self.last_view[apex]))
        self.last_view = {
            apex: subset for apex, targets in view.items() if (subset := cloudflare(targets))
        }
        return departures

    def flush(self) -> List[Departure]:
        """Confirm the pendings the scan window ended before resolving."""
        departures = [
            self._depart(pending["apex"], pending["departure_day"], pending["removed"])
            for pending in self.pending
        ]
        self.pending = []
        return departures

    def _depart(self, apex: str, day: Day, removed: Iterable[str]) -> Departure:
        self.departures_detected += 1
        return Departure(apex, day, frozenset(removed))


def find_departures(store: SnapshotStore) -> List[Departure]:
    """Run a :class:`DepartureFold` over the store's delegation views; the
    result is in (day, apex) order."""
    fold = DepartureFold()
    views = store.delegation_views()
    departures = [found for day, view in views for found in fold.step(day, view)]
    departures += fold.flush()
    departures.sort(key=lambda departure: (departure.departure_day, departure.apex))
    return departures


def index_managed(
    certificates: Iterable[Certificate], index: Dict[str, List[Certificate]]
) -> Dict[str, List[Certificate]]:
    """Add each Cloudflare-managed certificate among *certificates* to
    *index* under every customer domain it covers; returns *index*."""
    for certificate in certificates:
        if not is_cloudflare_managed_certificate(certificate):
            continue
        for san in sorted(certificate.fqdns()):
            if san.endswith("." + CLOUDFLARE_MANAGED_SAN_SUFFIX):
                continue  # the CDN's own marker SAN
            index.setdefault(san, []).append(certificate)
    return index


def indexed_certificate_count(index: Dict[str, List[Certificate]]) -> int:
    """Distinct certificates in a :func:`index_managed` index."""
    return len({c.dedup_fingerprint() for certs in index.values() for c in certs})


def departure_finding(
    certificate: Certificate, domain: str, departure_day: Day, detail: str
) -> StaleCertificate:
    """The stale-certificate finding for one departed domain."""
    return StaleCertificate(
        certificate=certificate,
        staleness_class=StalenessClass.MANAGED_TLS_DEPARTURE,
        invalidation_day=departure_day,
        affected_domain=domain,
        detail=detail,
    )


def departure_findings(
    index: Dict[str, List[Certificate]],
    departure: Departure,
    found: Dict[Tuple[str, str, Day], StaleCertificate],
) -> List[StaleCertificate]:
    """Join one departure against the managed index: each certificate on
    the apex or a name beneath it, valid that day, is stale. New findings
    go into *found* by (fingerprint, domain, day) and are returned."""
    detail = f"left={','.join(sorted(departure.removed_targets))}"
    new: List[StaleCertificate] = []
    for domain, certificates in _domains_under(index, departure.apex):
        for certificate in certificates:
            if not certificate.is_valid_on(departure.departure_day):
                continue
            key = (certificate.dedup_fingerprint(), domain, departure.departure_day)
            if key in found:
                continue
            finding = departure_finding(certificate, domain, departure.departure_day, detail)
            found[key] = finding
            new.append(finding)
    return new


class ManagedTlsDetector:
    """Joins DNS-observed departures against Cloudflare-managed certs."""

    def __init__(self, corpus: CertificateCorpus) -> None:
        self._corpus = corpus
        self.stats = DepartureJoinStats()

    def detect(
        self,
        store: SnapshotStore,
        findings: Optional[StaleFindings] = None,
    ) -> StaleFindings:
        out = findings if findings is not None else StaleFindings()
        # Columnar corpora serve the managed rows from a precomputed index;
        # plain corpora go through every certificate. index_managed
        # re-checks the marker SAN either way.
        managed = getattr(self._corpus, "managed_certificates", None)
        index = index_managed(
            managed() if managed is not None else self._corpus.certificates(), {}
        )
        departures = find_departures(store)
        found: Dict[Tuple[str, str, Day], StaleCertificate] = {}
        for departure in departures:
            departure_findings(index, departure, found)
        self.stats = DepartureJoinStats(
            managed_certificates_indexed=indexed_certificate_count(index),
            departures_detected=len(departures),
            findings=len(found),
        )
        out.extend(found.values())
        return out


def _domains_under(
    index: Dict[str, List[Certificate]], apex: str
) -> Iterable[Tuple[str, List[Certificate]]]:
    """Certificate-covered FQDNs at or beneath a departed apex.

    The scan operates on apexes (e2LDs from zone files); managed
    certificates may cover subdomains (www, mail, ...), all of which become
    stale when the apex leaves the CDN.
    """
    suffix = "." + apex
    for domain, certificates in index.items():
        if domain == apex or domain.endswith(suffix):
            yield domain, certificates
