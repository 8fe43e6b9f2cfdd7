"""Incremental wrappers for the three staleness detectors.

Each wrapper maintains exactly the state its batch counterpart derives per
run — a seen-certificate index, the merged revocation view, per-domain
registry creation dates, the last Cloudflare delegation per apex — and emits
:class:`~repro.core.stale.StaleCertificate` findings *as events arrive*.

Correctness contract (enforced by the equivalence tests): fed a bundle's
events in nondecreasing day order, with CT entries dispatched before other
events of the same day, every wrapper converges to the identical findings
set its batch detector produces on the completed bundle. Revisions are
possible mid-stream (a CRL republication reporting an earlier revocation
day replaces a previously emitted finding), so the converged view is read
from :meth:`findings`, not by accumulating the emission feed.

All wrappers serialize their non-derivable state for checkpointing.
Certificates are referenced by dedup fingerprint; the engine re-ingests the
CT prefix on resume to rebuild the (derivable) indexes.

Each wrapper also presents the uniform registry shape the engine iterates
(see :class:`~repro.core.detectors.base.Detector`): a ``name`` matching its
batch counterpart's registry key, the ``event_type`` it consumes,
``consume(event)`` dispatch, ``finalize()``, a ``stats`` property, a
batch-shaped ``detect(events, findings)`` entry point, and
``restore_state(state, resolve_certificate=None)`` plus an
``after_resume()`` hook with one signature across all three.
"""

from __future__ import annotations

import bisect
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.detectors.key_compromise import RevocationJoinStats
from repro.core.detectors.managed_tls import (
    DISAPPEARANCE_LOOKAHEAD_SCANS,
    DepartureJoinStats,
    _domains_under,
    cloudflare_subsets,
    is_cloudflare_managed_certificate,
    CLOUDFLARE_MANAGED_SAN_SUFFIX,
)
from repro.core.detectors.registrant_change import (
    RegistrantJoinStats,
    _covers_registration,
)
from repro.core.stale import StaleCertificate, StalenessClass, StaleFindings
from repro.dns.snapshots import DelegationView
from repro.pki.certificate import Certificate
from repro.psl.registered import e2ld
from repro.revocation.crl import CrlEntry
from repro.revocation.reasons import RevocationReason
from repro.stream.events import (
    CrlDeltaPublished,
    DnsSnapshotTaken,
    EventType,
    WhoisCreationObserved,
)
from repro.util.dates import Day

RevocationKey = Tuple[str, int]


class IncrementalKeyCompromiseDetector:
    """Streaming revocation cross-referencing (paper §4.1).

    State: the seen-certificate index keyed by (authority key id, serial),
    the earliest-known revocation entry per key (the incremental equivalent
    of :func:`~repro.revocation.crl.merge_crl_series`), and the current
    findings per key. Entries whose certificate has not appeared in CT yet
    stay pending and join retroactively when it does.
    """

    name = "key_compromise"
    event_type = EventType.CRL_DELTA_PUBLISHED

    def __init__(self, revocation_cutoff_day: Optional[Day] = None) -> None:
        self._cutoff = revocation_cutoff_day
        self._certs_by_key: Dict[RevocationKey, Certificate] = {}
        self._best: Dict[RevocationKey, CrlEntry] = {}
        self._findings: Dict[
            RevocationKey, Tuple[StaleCertificate, Optional[StaleCertificate]]
        ] = {}

    # -- event handling -----------------------------------------------------

    def register_certificate(self, certificate: Certificate) -> List[StaleCertificate]:
        key = certificate.revocation_key()
        self._certs_by_key[key] = certificate
        if key in self._best:
            return self._evaluate(key)
        return []

    def handle_crl_delta(self, event: CrlDeltaPublished) -> List[StaleCertificate]:
        emitted: List[StaleCertificate] = []
        for entry in event.entries:
            key = (event.authority_key_id, entry.serial)
            existing = self._best.get(key)
            if existing is not None and entry.revocation_day >= existing.revocation_day:
                continue  # duplicate republication; earliest day wins
            self._best[key] = entry
            if key in self._certs_by_key:
                emitted.extend(self._evaluate(key))
        return emitted

    def consume(self, event: CrlDeltaPublished) -> List[StaleCertificate]:
        """Uniform source-event entry point (registry dispatch)."""
        return self.handle_crl_delta(event)

    def finalize(self) -> List[StaleCertificate]:
        """Nothing buffered: revocations join (or pend) on arrival."""
        return []

    def detect(
        self,
        events: Iterable[CrlDeltaPublished],
        findings: Optional[StaleFindings] = None,
    ) -> StaleFindings:
        """Batch-shaped entry (Detector protocol): consume *events*, then
        report the converged findings. Certificates must have been
        registered beforehand via :meth:`register_certificate`."""
        out = findings if findings is not None else StaleFindings()
        for event in events:
            self.consume(event)
        self.finalize()
        out.extend(self.findings())
        return out

    def _evaluate(self, key: RevocationKey) -> List[StaleCertificate]:
        certificate = self._certs_by_key[key]
        entry = self._best[key]
        if not self._passes_filters(entry, certificate):
            self._findings.pop(key, None)
            return []
        invalidation_day = max(entry.revocation_day, certificate.not_before)
        invalidation_day = min(invalidation_day, certificate.not_after)
        revoked_all = StaleCertificate(
            certificate=certificate,
            staleness_class=StalenessClass.REVOKED_ALL,
            invalidation_day=invalidation_day,
            detail=f"reason={entry.reason.name.lower()}",
        )
        key_compromise = None
        if entry.reason is RevocationReason.KEY_COMPROMISE:
            key_compromise = StaleCertificate(
                certificate=certificate,
                staleness_class=StalenessClass.KEY_COMPROMISE,
                invalidation_day=invalidation_day,
                detail="reason=key_compromise",
            )
        self._findings[key] = (revoked_all, key_compromise)
        return [f for f in (revoked_all, key_compromise) if f is not None]

    def _passes_filters(self, entry: CrlEntry, certificate: Certificate) -> bool:
        if entry.revocation_day < certificate.not_before:
            return False
        if entry.revocation_day > certificate.not_after:
            return False
        if self._cutoff is not None and entry.revocation_day < self._cutoff:
            return False
        return True

    # -- views --------------------------------------------------------------

    def pending_revocations(self) -> Dict[RevocationKey, CrlEntry]:
        """Revocation entries still waiting for their certificate in CT."""
        return {
            key: entry
            for key, entry in self._best.items()
            if key not in self._certs_by_key
        }

    def findings(self) -> List[StaleCertificate]:
        out: List[StaleCertificate] = []
        for revoked_all, key_compromise in self._findings.values():
            out.append(revoked_all)
            if key_compromise is not None:
                out.append(key_compromise)
        return out

    @property
    def stats(self) -> RevocationJoinStats:
        """Join accounting identical to the batch detector's."""
        stats = RevocationJoinStats(crl_entries_merged=len(self._best))
        for key, entry in self._best.items():
            certificate = self._certs_by_key.get(key)
            if certificate is None:
                stats.unmatched += 1
                continue
            stats.matched_in_ct += 1
            if entry.revocation_day < certificate.not_before:
                stats.filtered_revoked_before_valid += 1
            elif entry.revocation_day > certificate.not_after:
                stats.filtered_revoked_after_expiration += 1
            elif self._cutoff is not None and entry.revocation_day < self._cutoff:
                stats.filtered_before_cutoff += 1
            else:
                stats.survivors += 1
        return stats

    # -- checkpointing ------------------------------------------------------

    def checkpoint_state(self) -> dict:
        return {
            "entries": [
                [akid, serial, entry.revocation_day, entry.reason.name]
                for (akid, serial), entry in self._best.items()
            ]
        }

    def restore_state(self, state: dict, resolve_certificate=None) -> None:
        """Restore the merged revocation view; the engine re-ingests the CT
        prefix afterwards, which rebuilds the cert index and findings.
        ``resolve_certificate`` is unused (uniform registry signature)."""
        self._certs_by_key.clear()
        self._findings.clear()
        self._best = {
            (akid, serial): CrlEntry(
                serial=serial,
                revocation_day=revocation_day,
                reason=RevocationReason[reason_name],
            )
            for akid, serial, revocation_day, reason_name in state.get("entries", [])
        }

    def after_resume(self) -> None:
        """Post-CT-reingest hook; nothing extra to rebuild here."""


class IncrementalRegistrantChangeDetector:
    """Streaming registry-creation-date diffing (paper §4.2).

    State: sorted distinct creation dates per domain (eligible TLDs only)
    and the certificate index by e2LD. A creation date later than any seen
    for its domain is a re-registration and joins immediately; an
    out-of-order arrival (possible when feeding the API directly rather
    than through the day-ordered replay driver) triggers a per-domain
    rebuild so the converged pair structure stays identical to the batch
    :func:`~repro.core.detectors.registrant_change.find_re_registrations`.
    """

    name = "registrant_change"
    event_type = EventType.WHOIS_CREATION_OBSERVED

    def __init__(self, tlds: Optional[Sequence[str]] = ("com", "net")) -> None:
        self._tlds = tuple(tlds) if tlds is not None else None
        self._dates_by_domain: Dict[str, List[Day]] = {}
        self._certs_by_e2ld: Dict[str, List[Certificate]] = {}
        self._findings: Dict[Tuple[str, str, Day], StaleCertificate] = {}

    # -- event handling -----------------------------------------------------

    def register_certificate(self, certificate: Certificate) -> List[StaleCertificate]:
        for registrable in certificate.e2lds():
            self._certs_by_e2ld.setdefault(registrable, []).append(certificate)
        return []

    def handle_whois(self, event: WhoisCreationObserved) -> List[StaleCertificate]:
        domain, creation_day = event.domain, event.creation_day
        if self._tlds is not None and domain.rsplit(".", 1)[-1] not in self._tlds:
            return []
        dates = self._dates_by_domain.setdefault(domain, [])
        position = bisect.bisect_left(dates, creation_day)
        if position < len(dates) and dates[position] == creation_day:
            return []  # duplicate crawl observation
        dates.insert(position, creation_day)
        return self._rebuild_domain(domain)

    def consume(self, event: WhoisCreationObserved) -> List[StaleCertificate]:
        """Uniform source-event entry point (registry dispatch)."""
        return self.handle_whois(event)

    def finalize(self) -> List[StaleCertificate]:
        """Nothing buffered: creation dates join on arrival."""
        return []

    def detect(
        self,
        events: Iterable[WhoisCreationObserved],
        findings: Optional[StaleFindings] = None,
    ) -> StaleFindings:
        """Batch-shaped entry (Detector protocol): consume *events*, then
        report the converged findings. Certificates must have been
        registered beforehand via :meth:`register_certificate`."""
        out = findings if findings is not None else StaleFindings()
        for event in events:
            self.consume(event)
        self.finalize()
        out.extend(self.findings())
        return out

    def _rebuild_domain(self, domain: str) -> List[StaleCertificate]:
        """(Re)derive findings for one domain from its date list.

        In-order arrival touches only the newest pair; the rebuild is still
        cheap because domains see a handful of creation dates, and it makes
        out-of-order corrections (revised ``re_registered_after`` details)
        exact.
        """
        dates = self._dates_by_domain[domain]
        registrable = e2ld(domain)
        lookup = registrable if registrable is not None else domain
        candidates = self._certs_by_e2ld.get(lookup, ())
        emitted: List[StaleCertificate] = []
        for previous, current in zip(dates, dates[1:]):
            detail = f"re_registered_after={previous}"
            for certificate in candidates:
                if not certificate.validity.contains(current, strict=True):
                    continue
                if not _covers_registration(certificate, domain):
                    continue
                key = (certificate.dedup_fingerprint(), domain, current)
                existing = self._findings.get(key)
                if existing is not None and existing.detail == detail:
                    continue
                finding = StaleCertificate(
                    certificate=certificate,
                    staleness_class=StalenessClass.REGISTRANT_CHANGE,
                    invalidation_day=current,
                    affected_domain=domain,
                    detail=detail,
                )
                self._findings[key] = finding
                emitted.append(finding)
        return emitted

    # -- views --------------------------------------------------------------

    def findings(self) -> List[StaleCertificate]:
        return list(self._findings.values())

    def re_registration_count(self) -> int:
        return sum(
            max(0, len(dates) - 1) for dates in self._dates_by_domain.values()
        )

    @property
    def stats(self) -> RegistrantJoinStats:
        """Join accounting identical to the batch detector's (derived from
        the converged per-domain date lists, so it matches at any point the
        batch detector could have been run)."""
        stats = RegistrantJoinStats(findings=len(self._findings))
        for domain, dates in self._dates_by_domain.items():
            pairs = max(0, len(dates) - 1)
            if not pairs:
                continue
            stats.re_registration_events += pairs
            registrable = e2ld(domain)
            lookup = registrable if registrable is not None else domain
            if self._certs_by_e2ld.get(lookup):
                stats.events_joining_certificates += pairs
        return stats

    # -- checkpointing ------------------------------------------------------

    def checkpoint_state(self) -> dict:
        return {
            "dates_by_domain": {
                domain: list(dates) for domain, dates in self._dates_by_domain.items()
            }
        }

    def restore_state(self, state: dict, resolve_certificate=None) -> None:
        """``resolve_certificate`` is unused (uniform registry signature)."""
        self._certs_by_e2ld.clear()
        self._findings.clear()
        self._dates_by_domain = {
            domain: sorted(dates)
            for domain, dates in state.get("dates_by_domain", {}).items()
        }

    def rebuild_findings(self) -> None:
        """Call after the engine re-ingested the CT prefix on resume."""
        self._findings.clear()
        for domain in self._dates_by_domain:
            self._rebuild_domain(domain)

    def after_resume(self) -> None:
        """Post-CT-reingest hook: rederive findings from restored dates."""
        self.rebuild_findings()


class IncrementalManagedTlsDetector:
    """Streaming managed-TLS departure detection (paper §4.3).

    State: the Cloudflare-managed certificate index by customer domain, the
    previous scan day's Cloudflare targets per Cloudflare-delegated apex
    (an apex that is not on Cloudflare cannot depart, so it is not kept),
    the emitted departure count, and pending disappearances waiting for the
    batch detector's transient-scan-loss lookahead (up to
    :data:`DISAPPEARANCE_LOOKAHEAD_SCANS` later snapshots; the first actual
    observation decides, and an exhausted lookahead confirms the loss).
    Unresolved pendings are flushed as departures by :meth:`finalize`,
    matching the batch behaviour at the end of the scan window.
    """

    name = "managed_tls"
    event_type = EventType.DNS_SNAPSHOT_TAKEN

    def __init__(self) -> None:
        self._managed_by_domain: Dict[str, List[Certificate]] = {}
        self._last_view: Dict[str, FrozenSet[str]] = {}
        self._cloudflare = cloudflare_subsets()
        self._pending: List[dict] = []
        self._departures_detected = 0
        self._findings: Dict[Tuple[str, str, Day], StaleCertificate] = {}

    # -- event handling -----------------------------------------------------

    def register_certificate(self, certificate: Certificate) -> List[StaleCertificate]:
        if not is_cloudflare_managed_certificate(certificate):
            return []
        for san in sorted(certificate.fqdns()):
            if san.endswith("." + CLOUDFLARE_MANAGED_SAN_SUFFIX):
                continue  # the CDN's own marker SAN
            self._managed_by_domain.setdefault(san, []).append(certificate)
        return []

    def handle_snapshot(self, event: DnsSnapshotTaken) -> List[StaleCertificate]:
        """Fold one scan day's delegation view (the batch
        :func:`~repro.core.detectors.managed_tls.find_departures` step)."""
        view = event.view
        # Pendings predate this view: resolve them against it first.
        emitted = self._resolve_pendings(view)
        for apex in sorted(self._last_view):  # hash-seed-free emission order
            removed = sorted(self._last_view[apex])
            targets = view.get(apex)
            if targets is None:
                self._pending.append(
                    {
                        "apex": apex,
                        "departure_day": event.day,
                        "removed": removed,
                        "remaining": DISAPPEARANCE_LOOKAHEAD_SCANS,
                    }
                )
            elif not self._cloudflare(targets):
                emitted.extend(self._emit_departure(apex, event.day, removed))
        self._last_view = {}
        for apex, targets in view.items():
            subset = self._cloudflare(targets)
            if subset:
                self._last_view[apex] = subset
        return emitted

    def consume(self, event: DnsSnapshotTaken) -> List[StaleCertificate]:
        """Uniform source-event entry point (registry dispatch)."""
        return self.handle_snapshot(event)

    def detect(
        self,
        events: Iterable[DnsSnapshotTaken],
        findings: Optional[StaleFindings] = None,
    ) -> StaleFindings:
        """Batch-shaped entry (Detector protocol): consume *events*, flush
        pendings, then report the converged findings. Certificates must
        have been registered beforehand via :meth:`register_certificate`."""
        out = findings if findings is not None else StaleFindings()
        for event in events:
            self.consume(event)
        self.finalize()
        out.extend(self.findings())
        return out

    def _resolve_pendings(self, view: DelegationView) -> List[StaleCertificate]:
        emitted: List[StaleCertificate] = []
        unresolved: List[dict] = []
        for pending in self._pending:
            apex = pending["apex"]
            if apex in view:
                if self._cloudflare(view[apex]):
                    continue  # back on Cloudflare: transient scan loss
                emitted.extend(
                    self._emit_departure(
                        apex, pending["departure_day"], pending["removed"]
                    )
                )
                continue
            pending["remaining"] -= 1
            if pending["remaining"] <= 0:
                emitted.extend(
                    self._emit_departure(
                        apex, pending["departure_day"], pending["removed"]
                    )
                )
            else:
                unresolved.append(pending)
        self._pending = unresolved
        return emitted

    def _emit_departure(
        self, apex: str, departure_day: Day, removed: Sequence[str]
    ) -> List[StaleCertificate]:
        self._departures_detected += 1
        detail = f"left={','.join(removed)}"
        emitted: List[StaleCertificate] = []
        for domain, certificates in _domains_under(self._managed_by_domain, apex):
            for certificate in certificates:
                if not certificate.is_valid_on(departure_day):
                    continue
                key = (certificate.dedup_fingerprint(), domain, departure_day)
                if key in self._findings:
                    continue
                finding = StaleCertificate(
                    certificate=certificate,
                    staleness_class=StalenessClass.MANAGED_TLS_DEPARTURE,
                    invalidation_day=departure_day,
                    affected_domain=domain,
                    detail=detail,
                )
                self._findings[key] = finding
                emitted.append(finding)
        return emitted

    def finalize(self) -> List[StaleCertificate]:
        """Flush pendings the scan window ended before resolving."""
        emitted: List[StaleCertificate] = []
        for pending in self._pending:
            emitted.extend(
                self._emit_departure(
                    pending["apex"], pending["departure_day"], pending["removed"]
                )
            )
        self._pending = []
        return emitted

    # -- views --------------------------------------------------------------

    def findings(self) -> List[StaleCertificate]:
        return list(self._findings.values())

    def pending_departures(self) -> int:
        return len(self._pending)

    @property
    def stats(self) -> DepartureJoinStats:
        """Join accounting in the batch detector's shape. The departure
        count is the number this stream has *emitted* so far, across
        resumes (the batch detector counts a completed window's departures
        in one shot)."""
        return DepartureJoinStats(
            managed_certificates_indexed=len(
                {
                    certificate.dedup_fingerprint()
                    for certificates in self._managed_by_domain.values()
                    for certificate in certificates
                }
            ),
            departures_detected=self._departures_detected,
            findings=len(self._findings),
        )

    # -- checkpointing ------------------------------------------------------

    def checkpoint_state(self) -> dict:
        return {
            "last_view": {
                apex: sorted(targets) for apex, targets in self._last_view.items()
            },
            "pending": [dict(pending) for pending in self._pending],
            "departures_detected": self._departures_detected,
            "findings": [
                [fingerprint, domain, finding.invalidation_day, finding.detail]
                for (fingerprint, domain, _), finding in self._findings.items()
            ],
        }

    def restore_state(self, state: dict, resolve_certificate=None) -> None:
        """``resolve_certificate(fingerprint) -> Certificate`` maps the
        checkpoint's certificate references back onto the bundle corpus;
        required here (unlike the other detectors) because findings are
        part of the non-derivable state."""
        if resolve_certificate is None:
            raise ValueError("managed-TLS restore requires resolve_certificate")
        self._managed_by_domain.clear()
        self._last_view = {
            apex: frozenset(targets)
            for apex, targets in state.get("last_view", {}).items()
        }
        self._pending = [dict(pending) for pending in state.get("pending", [])]
        self._departures_detected = state.get("departures_detected", 0)
        self._findings = {}
        for fingerprint, domain, departure_day, detail in state.get("findings", []):
            certificate = resolve_certificate(fingerprint)
            self._findings[(fingerprint, domain, departure_day)] = StaleCertificate(
                certificate=certificate,
                staleness_class=StalenessClass.MANAGED_TLS_DEPARTURE,
                invalidation_day=departure_day,
                affected_domain=domain,
                detail=detail,
            )

    def after_resume(self) -> None:
        """Post-CT-reingest hook; findings were restored, nothing to do."""
