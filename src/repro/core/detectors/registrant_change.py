"""Registrant-change staleness via registry creation dates (paper §4.2).

For every (domain, registry creation date) pair, a creation date that is
*not* the first for that domain signals a deletion followed by
re-registration — a conservative public-re-registration signal. A stale
certificate is any certificate covering the domain whose validity strictly
spans the new creation date::

    notBefore < registryCreationDate < notAfter

The stale period runs from the creation date to notAfter. Transfers and
pre-release re-registrations do not reset the creation date and are missed —
the detector is deliberately a lower bound (the recall ablation quantifies
the gap against simulator ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ct.dedup import CertificateCorpus
from repro.core.stale import StaleCertificate, StalenessClass, StaleFindings
from repro.pki.certificate import Certificate
from repro.psl.registered import e2ld
from repro.util.dates import Day


@dataclass(frozen=True)
class ReRegistration:
    """A detected public re-registration of a domain."""

    domain: str
    creation_day: Day
    previous_creation_day: Day


@dataclass
class RegistrantJoinStats:
    """Accounting for the creation-date/validity join."""

    re_registration_events: int = 0
    events_joining_certificates: int = 0
    findings: int = 0


def find_re_registrations(
    creation_pairs: Iterable[Tuple[str, Day]],
    tlds: Optional[Sequence[str]] = ("com", "net"),
) -> List[ReRegistration]:
    """Reduce raw (domain, creation date) pairs to re-registration events.

    The same pair appears in many WHOIS crawls; only distinct creation dates
    matter, and only the second and later date per domain signal
    re-registration. ``tlds`` restricts to registries whose thin WHOIS the
    paper considers reliable (Verisign's .com/.net); pass None to disable.
    """
    dates_by_domain: Dict[str, set] = {}
    for domain, creation_day in creation_pairs:
        if not in_tlds(domain, tlds):
            continue
        dates_by_domain.setdefault(domain, set()).add(creation_day)
    events: List[ReRegistration] = []
    for domain, dates in dates_by_domain.items():
        ordered = sorted(dates)
        for previous, current in zip(ordered, ordered[1:]):
            events.append(ReRegistration(domain, current, previous))
    events.sort(key=lambda e: (e.creation_day, e.domain))
    return events


def in_tlds(domain: str, tlds: Optional[Sequence[str]]) -> bool:
    """Whether *domain* is under one of *tlds* (``None``: any TLD)."""
    return tlds is None or domain.rsplit(".", 1)[-1] in tlds


class RegistrantChangeDetector:
    """Joins re-registration events against certificate validity windows."""

    def __init__(self, corpus: CertificateCorpus, tlds: Optional[Sequence[str]] = ("com", "net")) -> None:
        self._corpus = corpus
        self._tlds = tlds
        self._certs_by_e2ld: Optional[Dict[str, List[Certificate]]] = None
        self.stats = RegistrantJoinStats()

    def _candidates(self, lookup: str) -> Sequence[Certificate]:
        """Certificates joining *lookup*, in corpus order.

        Columnar corpora answer this from their sorted e2LD index without
        hydrating the rest of the corpus; plain corpora fall back to the
        one-shot full index build.
        """
        indexed = getattr(self._corpus, "certificates_for_e2ld", None)
        if indexed is not None:
            return indexed(lookup)
        if self._certs_by_e2ld is None:
            self._certs_by_e2ld = index_by_e2ld(self._corpus.certificates(), {})
        return self._certs_by_e2ld.get(lookup, ())

    def detect(
        self,
        creation_pairs: Iterable[Tuple[str, Day]],
        findings: Optional[StaleFindings] = None,
    ) -> StaleFindings:
        """Run the full pipeline from raw creation pairs."""
        out = findings if findings is not None else StaleFindings()
        events = find_re_registrations(creation_pairs, self._tlds)
        self.stats = RegistrantJoinStats(re_registration_events=len(events))
        found: Dict[Tuple[str, str, Day], StaleCertificate] = {}
        for event in events:
            candidates = self._candidates(domain_key(event.domain))
            if candidates:
                self.stats.events_joining_certificates += 1
            for finding in re_registration_findings(
                event.domain, event.previous_creation_day, event.creation_day, candidates
            ):
                key = (finding.certificate.dedup_fingerprint(), event.domain, event.creation_day)
                found.setdefault(key, finding)
        self.stats.findings = len(found)
        out.extend(found.values())
        return out


def index_by_e2ld(
    certificates: Iterable[Certificate], index: Dict[str, List[Certificate]]
) -> Dict[str, List[Certificate]]:
    """Add each of *certificates* to *index* under every e2LD it names;
    returns *index*."""
    for certificate in certificates:
        for registrable in certificate.e2lds():
            index.setdefault(registrable, []).append(certificate)
    return index


@lru_cache(maxsize=1 << 17)
def domain_key(name: str) -> str:
    """The registered domain *name* joins certificates under; the sharded
    engine routes the domain axis by the same key.

    Memoized: snapshot apexes repeat on every scan day, so partitioning
    would otherwise re-run the PSL parse hundreds of times per name.
    """
    registrable = e2ld(name)
    return registrable if registrable is not None else name


def re_registration_findings(
    domain: str,
    previous: Day,
    current: Day,
    candidates: Iterable[Certificate],
) -> List[StaleCertificate]:
    """Findings for *domain* re-registered on *current* (its prior creation
    date being *previous*): every candidate whose validity strictly spans
    *current* and which names *domain* or a name beneath it."""
    return [
        StaleCertificate(
            certificate=certificate,
            staleness_class=StalenessClass.REGISTRANT_CHANGE,
            invalidation_day=current,
            affected_domain=domain,
            detail=f"re_registered_after={previous}",
        )
        for certificate in candidates
        if certificate.validity.contains(current, strict=True)
        and _covers_registration(certificate, domain)
    ]


def _covers_registration(certificate: Certificate, domain: str) -> bool:
    """Whether any SAN is at or beneath the re-registered domain."""
    for san in certificate.fqdns():
        if san == domain or san.endswith("." + domain):
            return True
    return False
