"""Incremental wrappers for the three staleness detectors.

Each wrapper keeps only the incremental state its batch counterpart derives
per run (seen-certificate index, merged revocation view, per-domain creation
dates, departure fold) and its checkpoint encoding; the join rules are the
:mod:`repro.core.detectors` modules' own functions, called per event.

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

Each wrapper presents the uniform shape the engine iterates (lint rule
RL402): a ``name`` matching its batch counterpart's registry key, the
``event_type`` it consumes, ``register_certificate(certificate)``,
``consume(event)``, ``finalize()``, ``findings()``, a ``stats`` property,
``checkpoint_state()``, ``restore_state(state, resolve_certificate=None)``
and an ``after_resume()`` hook.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.detectors.key_compromise import (
    RevocationJoinStats,
    filter_reason,
    revocation_findings,
)
from repro.core.detectors.managed_tls import (
    Departure,
    DepartureFold,
    DepartureJoinStats,
    departure_finding,
    departure_findings,
    index_managed,
    indexed_certificate_count,
)
from repro.core.detectors.registrant_change import (
    RegistrantJoinStats,
    domain_key,
    in_tlds,
    index_by_e2ld,
    re_registration_findings,
)
from repro.core.stale import StaleCertificate
from repro.pki.certificate import Certificate
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
        self._findings: Dict[RevocationKey, List[StaleCertificate]] = {}

    # -- event handling -----------------------------------------------------

    def register_certificate(self, certificate: Certificate) -> List[StaleCertificate]:
        key = certificate.revocation_key()
        self._certs_by_key[key] = certificate
        if key in self._best:
            return self._evaluate(key)
        return []

    def consume(self, event: CrlDeltaPublished) -> List[StaleCertificate]:
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

    def finalize(self) -> List[StaleCertificate]:
        """Nothing buffered: revocations join (or pend) on arrival."""
        return []

    def _evaluate(self, key: RevocationKey) -> List[StaleCertificate]:
        certificate = self._certs_by_key[key]
        entry = self._best[key]
        if filter_reason(entry, certificate, self._cutoff) is not None:
            self._findings.pop(key, None)
            return []
        self._findings[key] = revocation_findings(entry, certificate)
        return self._findings[key]

    # -- views --------------------------------------------------------------

    def pending_revocations(self) -> Dict[RevocationKey, CrlEntry]:
        """Revocation entries still waiting for their certificate in CT."""
        return {
            key: entry
            for key, entry in self._best.items()
            if key not in self._certs_by_key
        }

    def findings(self) -> List[StaleCertificate]:
        return [finding for found in self._findings.values() for finding in found]

    @property
    def stats(self) -> RevocationJoinStats:
        """Join accounting identical to the batch detector's."""
        stats = RevocationJoinStats(crl_entries_merged=len(self._best))
        for key, entry in self._best.items():
            stats.record(entry, self._certs_by_key.get(key), self._cutoff)
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
        index_by_e2ld((certificate,), self._certs_by_e2ld)
        return []

    def consume(self, event: WhoisCreationObserved) -> List[StaleCertificate]:
        domain, creation_day = event.domain, event.creation_day
        if not in_tlds(domain, self._tlds):
            return []
        dates = self._dates_by_domain.setdefault(domain, [])
        position = bisect.bisect_left(dates, creation_day)
        if position < len(dates) and dates[position] == creation_day:
            return []  # duplicate crawl observation
        dates.insert(position, creation_day)
        return self._rebuild_domain(domain)

    def finalize(self) -> List[StaleCertificate]:
        """Nothing buffered: creation dates join on arrival."""
        return []

    def _rebuild_domain(self, domain: str) -> List[StaleCertificate]:
        """(Re)derive findings for one domain from its date list.

        In-order arrival touches only the newest pair; the rebuild is still
        cheap because domains see a handful of creation dates, and it makes
        out-of-order corrections (revised ``re_registered_after`` details)
        exact.
        """
        dates = self._dates_by_domain[domain]
        candidates = self._certs_by_e2ld.get(domain_key(domain), ())
        emitted: List[StaleCertificate] = []
        for previous, current in zip(dates, dates[1:]):
            for finding in re_registration_findings(domain, previous, current, candidates):
                key = (finding.certificate.dedup_fingerprint(), domain, current)
                existing = self._findings.get(key)
                if existing is not None and existing.detail == finding.detail:
                    continue
                self._findings[key] = finding
                emitted.append(finding)
        return emitted

    # -- views --------------------------------------------------------------

    def findings(self) -> List[StaleCertificate]:
        return list(self._findings.values())

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
            if self._certs_by_e2ld.get(domain_key(domain)):
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

    def after_resume(self) -> None:
        """Post-CT-reingest hook: rederive findings from restored dates."""
        self._findings.clear()
        for domain in self._dates_by_domain:
            self._rebuild_domain(domain)


class IncrementalManagedTlsDetector:
    """Streaming managed-TLS departure detection (paper §4.3).

    State: the Cloudflare-managed certificate index by customer domain,
    the findings so far, and the batch detector's
    :class:`~repro.core.detectors.managed_tls.DepartureFold`, stepped once
    per scan day; :meth:`finalize` confirms the pendings still open.
    """

    name = "managed_tls"
    event_type = EventType.DNS_SNAPSHOT_TAKEN

    def __init__(self) -> None:
        self._managed_by_domain: Dict[str, List[Certificate]] = {}
        self._fold = DepartureFold()
        self._findings: Dict[Tuple[str, str, Day], StaleCertificate] = {}

    # -- event handling -----------------------------------------------------

    def register_certificate(self, certificate: Certificate) -> List[StaleCertificate]:
        index_managed((certificate,), self._managed_by_domain)
        return []

    def consume(self, event: DnsSnapshotTaken) -> List[StaleCertificate]:
        return self._emit_all(self._fold.step(event.day, event.view))

    def finalize(self) -> List[StaleCertificate]:
        """Confirm the pendings the scan window ended before resolving."""
        return self._emit_all(self._fold.flush())

    def _emit_all(self, departures: List[Departure]) -> List[StaleCertificate]:
        return [found for d in departures for found in self._emit_departure(d)]

    def _emit_departure(self, departure: Departure) -> List[StaleCertificate]:
        return departure_findings(self._managed_by_domain, departure, self._findings)

    # -- views --------------------------------------------------------------

    def findings(self) -> List[StaleCertificate]:
        return list(self._findings.values())

    def pending_departures(self) -> int:
        return len(self._fold.pending)

    @property
    def stats(self) -> DepartureJoinStats:
        """Join accounting in the batch detector's shape. The departure
        count is the number this stream has *emitted* so far, across
        resumes (the batch detector counts a completed window's departures
        in one shot)."""
        return DepartureJoinStats(
            managed_certificates_indexed=indexed_certificate_count(self._managed_by_domain),
            departures_detected=self._fold.departures_detected,
            findings=len(self._findings),
        )

    # -- checkpointing ------------------------------------------------------

    def checkpoint_state(self) -> dict:
        return {
            "last_view": {
                apex: sorted(targets) for apex, targets in self._fold.last_view.items()
            },
            "pending": [dict(pending) for pending in self._fold.pending],
            "departures_detected": self._fold.departures_detected,
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
        self._fold = DepartureFold()
        self._fold.last_view = {
            apex: frozenset(targets)
            for apex, targets in state.get("last_view", {}).items()
        }
        self._fold.pending = [dict(pending) for pending in state.get("pending", [])]
        self._fold.departures_detected = state.get("departures_detected", 0)
        self._findings = {
            (fingerprint, domain, departure_day): departure_finding(
                resolve_certificate(fingerprint), domain, departure_day, detail
            )
            for fingerprint, domain, departure_day, detail in state.get("findings", [])
        }

    def after_resume(self) -> None:
        """Post-CT-reingest hook; findings were restored, nothing to do."""
