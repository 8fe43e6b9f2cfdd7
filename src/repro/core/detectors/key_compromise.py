"""Key-compromise staleness via revocation cross-referencing (paper §4.1).

Pipeline, exactly as the paper describes:

1. Merge the daily CRL collections into one revocation set keyed by
   (authority key id, serial).
2. Cross-reference against the CT corpus to recover certificate content
   (CRLs carry no certificate copy).
3. Filter outliers: revoked before validity began, revoked after expiration,
   and revoked more than 13 months before CRL collection started (stale CRL
   baggage, not contemporary revocation behaviour).
4. Every surviving revocation is a reported invalidation event
   (``REVOKED_ALL``); entries whose reason is keyCompromise form the
   third-party ``KEY_COMPROMISE`` class.

The staleness period conservatively assumes the revocation was issued as
soon as the invalidation occurred: it runs from the revocation day to
notAfter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ct.dedup import CertificateCorpus
from repro.core.stale import StaleCertificate, StalenessClass, StaleFindings
from repro.pki.certificate import Certificate
from repro.revocation.crl import CertificateRevocationList, CrlEntry, merge_crl_series
from repro.revocation.reasons import RevocationReason
from repro.util.dates import Day


@dataclass
class RevocationJoinStats:
    """Accounting mirroring the paper's reported filter counts."""

    crl_entries_merged: int = 0
    matched_in_ct: int = 0
    unmatched: int = 0
    filtered_revoked_before_valid: int = 0
    filtered_revoked_after_expiration: int = 0
    filtered_before_cutoff: int = 0
    survivors: int = 0

    def record(
        self,
        entry: CrlEntry,
        certificate: Optional[Certificate],
        cutoff: Optional[Day],
        apply_filters: bool = True,
    ) -> bool:
        """Count one merged CRL entry and its CT match (``None``: no
        match); returns whether it survives the outlier filters."""
        if certificate is None:
            self.unmatched += 1
            return False
        self.matched_in_ct += 1
        reason = filter_reason(entry, certificate, cutoff) if apply_filters else None
        counter = reason or "survivors"
        setattr(self, counter, getattr(self, counter) + 1)
        return reason is None


class KeyCompromiseDetector:
    """Cross-references a CRL series against a CT corpus."""

    def __init__(
        self,
        corpus: CertificateCorpus,
        revocation_cutoff_day: Optional[Day] = None,
    ) -> None:
        """``revocation_cutoff_day``: drop revocations before this day
        (the paper uses 13 months prior to CRL collection start)."""
        self._corpus = corpus
        self._cutoff = revocation_cutoff_day
        self.stats = RevocationJoinStats()

    def detect(
        self,
        crls: Iterable[CertificateRevocationList],
        findings: Optional[StaleFindings] = None,
        apply_filters: bool = True,
    ) -> StaleFindings:
        """Run the pipeline; appends to (and returns) *findings*.

        ``apply_filters=False`` disables step 3 for the ablation bench that
        quantifies the filters' effect.
        """
        out = findings if findings is not None else StaleFindings()
        merged = merge_crl_series(crls)
        self.stats = RevocationJoinStats(crl_entries_merged=len(merged))
        index = self._corpus.by_revocation_key()
        for key, entry in merged.items():
            certificate = index.get(key)
            if self.stats.record(entry, certificate, self._cutoff, apply_filters):
                out.extend(revocation_findings(entry, certificate))
        return out


def filter_reason(
    entry: CrlEntry, certificate: Certificate, cutoff: Optional[Day]
) -> Optional[str]:
    """The step-3 outlier filter *entry* fails, as the
    :class:`RevocationJoinStats` field that counts it; ``None`` when the
    revocation survives."""
    if entry.revocation_day < certificate.not_before:
        return "filtered_revoked_before_valid"
    if entry.revocation_day > certificate.not_after:
        return "filtered_revoked_after_expiration"
    if cutoff is not None and entry.revocation_day < cutoff:
        return "filtered_before_cutoff"
    return None


def revocation_findings(entry: CrlEntry, certificate: Certificate) -> List[StaleCertificate]:
    """Step 4 for one surviving revocation: its ``REVOKED_ALL`` finding,
    plus a ``KEY_COMPROMISE`` one when that is the reason given."""
    invalidation_day = max(entry.revocation_day, certificate.not_before)
    invalidation_day = min(invalidation_day, certificate.not_after)
    found = [
        StaleCertificate(
            certificate=certificate,
            staleness_class=StalenessClass.REVOKED_ALL,
            invalidation_day=invalidation_day,
            detail=f"reason={entry.reason.name.lower()}",
        )
    ]
    if entry.reason is RevocationReason.KEY_COMPROMISE:
        found.append(
            StaleCertificate(
                certificate=certificate,
                staleness_class=StalenessClass.KEY_COMPROMISE,
                invalidation_day=invalidation_day,
                detail="reason=key_compromise",
            )
        )
    return found


def monthly_key_compromise_by_issuer(
    findings: StaleFindings,
) -> Dict[Tuple[str, str], int]:
    """(month, issuer) -> count of key-compromise revocations (Figure 4)."""
    from repro.util.dates import month_key

    series: Dict[Tuple[str, str], int] = {}
    for finding in findings.of_class(StalenessClass.KEY_COMPROMISE):
        key = (month_key(finding.invalidation_day), finding.certificate.issuer_name)
        series[key] = series.get(key, 0) + 1
    return series
