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
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.ct.dedup import CertificateCorpus
from repro.core.stale import StaleCertificate, StalenessClass, StaleFindings
from repro.dns.snapshots import SnapshotStore
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


def cloudflare_subsets() -> Callable[[FrozenSet[str]], FrozenSet[str]]:
    """A memoised ``targets -> Cloudflare subset`` map.

    Delegation views share one frozenset per distinct target set, so each
    set runs the delegation regex once.
    """
    cloudflare_of: Dict[FrozenSet[str], FrozenSet[str]] = {}

    def cloudflare(targets: FrozenSet[str]) -> FrozenSet[str]:
        subset = cloudflare_of.get(targets)
        if subset is None:
            subset = frozenset(t for t in targets if is_cloudflare_delegation(t))
            cloudflare_of[targets] = subset
        return subset

    return cloudflare


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


def find_departures(store: SnapshotStore) -> List[Departure]:
    """Fold the store's delegation views for Cloudflare delegation loss.

    An apex departs on scan day N+1 when it had Cloudflare targets on day
    N and, on day N+1, is observed with none left (a partial nameserver
    shuffle within Cloudflare is not a departure) or is not observed at
    all. Real daily scans suffer transient lookup failures, and the paper
    compares each day "with neighboring days": a disappearance only counts
    when the first observation within the next
    :data:`DISAPPEARANCE_LOOKAHEAD_SCANS` scans is off Cloudflare, or there
    is none. ``removed_targets`` are day N's Cloudflare targets; the result
    is in (day, apex) order.
    """
    views = store.delegation_views()
    cloudflare = cloudflare_subsets()
    departures: List[Departure] = []
    for position in range(1, len(views)):
        departure_day, after = views[position]
        for apex, targets in views[position - 1][1].items():
            removed = cloudflare(targets)
            if not removed:
                continue
            if apex in after:
                if cloudflare(after[apex]):
                    continue
            else:
                lookahead = views[position + 1 : position + 1 + DISAPPEARANCE_LOOKAHEAD_SCANS]
                first_seen = next((view[apex] for _, view in lookahead if apex in view), None)
                if first_seen is not None and cloudflare(first_seen):
                    continue  # back on Cloudflare: transient scan loss
            departures.append(Departure(apex, departure_day, removed))
    departures.sort(key=lambda departure: (departure.departure_day, departure.apex))
    return departures


class ManagedTlsDetector:
    """Joins DNS-observed departures against Cloudflare-managed certs."""

    def __init__(self, corpus: CertificateCorpus) -> None:
        self._corpus = corpus
        self._managed_by_domain: Optional[Dict[str, List[Certificate]]] = None
        self.stats = DepartureJoinStats()

    def _managed(self) -> "Iterable[Certificate]":
        """The managed certificates, in corpus order.

        Columnar corpora serve these from their precomputed managed-row
        index; plain corpora scan and filter. Both paths re-check the
        marker-SAN predicate so the semantics stay in one place.
        """
        indexed = getattr(self._corpus, "managed_certificates", None)
        source = indexed() if indexed is not None else self._corpus.certificates()
        return (
            certificate
            for certificate in source
            if is_cloudflare_managed_certificate(certificate)
        )

    def _index(self) -> Dict[str, List[Certificate]]:
        """Customer domain -> Cloudflare-managed certificates covering it."""
        if self._managed_by_domain is None:
            index: Dict[str, List[Certificate]] = {}
            for certificate in self._managed():
                for san in sorted(certificate.fqdns()):
                    if san.endswith("." + CLOUDFLARE_MANAGED_SAN_SUFFIX):
                        continue  # the CDN's own marker SAN
                    index.setdefault(san, []).append(certificate)
            self._managed_by_domain = index
        return self._managed_by_domain

    def detect(
        self,
        store: SnapshotStore,
        findings: Optional[StaleFindings] = None,
    ) -> StaleFindings:
        out = findings if findings is not None else StaleFindings()
        index = self._index()
        departures = find_departures(store)
        self.stats = DepartureJoinStats(
            managed_certificates_indexed=len(
                {c.dedup_fingerprint() for certs in index.values() for c in certs}
            ),
            departures_detected=len(departures),
        )
        emitted: Set[Tuple[str, str, Day]] = set()
        for departure in departures:
            for domain, certificates in _domains_under(index, departure.apex):
                for certificate in certificates:
                    if not certificate.is_valid_on(departure.departure_day):
                        continue
                    key = (
                        certificate.dedup_fingerprint(),
                        domain,
                        departure.departure_day,
                    )
                    if key in emitted:
                        continue
                    emitted.add(key)
                    self.stats.findings += 1
                    out.add(
                        StaleCertificate(
                            certificate=certificate,
                            staleness_class=StalenessClass.MANAGED_TLS_DEPARTURE,
                            invalidation_day=departure.departure_day,
                            affected_domain=domain,
                            detail=f"left={','.join(sorted(departure.removed_targets))}",
                        )
                    )
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
