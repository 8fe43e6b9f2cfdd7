"""Daily DNS snapshots and day-over-day diffing.

The paper's managed-TLS detector compares "each day's NS and CNAME records
with neighboring days" (Section 4.3). A :class:`DailySnapshot` captures, for
one day, the observed record sets per apex; :func:`diff_days` produces the
per-domain record-set changes between two snapshots.
:meth:`SnapshotStore.delegation_views` projects a store down to what the
managed-TLS departure search reads: per day, each apex's NS/CNAME targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.dns.records import RecordType
from repro.util.dates import Day, day_to_iso

#: The record types captured by the daily scan, per Table 3 of the paper.
SCANNED_TYPES = (RecordType.A, RecordType.AAAA, RecordType.NS, RecordType.CNAME)

#: One scan day's delegation: apex -> NS plus CNAME targets. An apex
#: observed without either record maps to the empty set, so presence
#: stays distinguishable from absence.
DelegationView = Dict[str, FrozenSet[str]]


@dataclass
class DomainObservation:
    """All record data observed for one apex on one day."""

    apex: str
    rdatas: Dict[str, FrozenSet[str]] = field(default_factory=dict)  # rtype value -> rdata set

    def get(self, rtype: RecordType) -> FrozenSet[str]:
        return self.rdatas.get(rtype.value, frozenset())

    def set(self, rtype: RecordType, values: Iterable[str]) -> None:
        self.rdatas[rtype.value] = frozenset(values)

    def delegation_targets(self) -> FrozenSet[str]:
        """NS plus CNAME targets — the names that indicate who serves the domain."""
        return self.get(RecordType.NS) | self.get(RecordType.CNAME)


class DailySnapshot:
    """One day of scan results across all apexes in the zone store."""

    def __init__(self, scan_day: Day) -> None:
        self.day = scan_day
        self._observations: Dict[str, DomainObservation] = {}

    @classmethod
    def from_observations(
        cls, scan_day: Day, observations: Dict[str, DomainObservation]
    ) -> "DailySnapshot":
        """Build a snapshot directly from shared observation objects.

        The world simulator interns unchanged observations across days, so a
        90-day scan window over a mostly-static zone costs one object per
        (domain, change) rather than per (domain, day).
        """
        snapshot = cls(scan_day)
        snapshot._observations = dict(observations)
        return snapshot

    def observe(self, apex: str, rtype: RecordType, rdatas: Iterable[str]) -> None:
        obs = self._observations.setdefault(apex, DomainObservation(apex))
        obs.set(rtype, rdatas)

    def get(self, apex: str) -> Optional[DomainObservation]:
        return self._observations.get(apex)

    def apexes(self) -> Set[str]:
        return set(self._observations)

    def record_count(self) -> int:
        return sum(
            len(values) for obs in self._observations.values() for values in obs.rdatas.values()
        )

    def __len__(self) -> int:
        return len(self._observations)

    def __repr__(self) -> str:
        return f"DailySnapshot({day_to_iso(self.day)}, {len(self)} apexes)"


@dataclass(frozen=True)
class SnapshotDiff:
    """Record-set change for one apex between consecutive scan days."""

    apex: str
    day_before: Day
    day_after: Day
    removed: Dict[str, FrozenSet[str]]
    added: Dict[str, FrozenSet[str]]
    disappeared: bool  # apex present on day_before, absent on day_after

    def removed_of(self, rtype: RecordType) -> FrozenSet[str]:
        return self.removed.get(rtype.value, frozenset())

    def added_of(self, rtype: RecordType) -> FrozenSet[str]:
        return self.added.get(rtype.value, frozenset())


def diff_days(before: DailySnapshot, after: DailySnapshot) -> Iterator[SnapshotDiff]:
    """Yield per-apex diffs between two snapshots (only changed apexes).

    Apexes appearing only in *after* (new registrations) are not yielded —
    the detectors only care about departures and record changes.
    """
    for apex in before.apexes():
        obs_before = before.get(apex)
        obs_after = after.get(apex)
        if obs_after is None:
            yield SnapshotDiff(
                apex=apex,
                day_before=before.day,
                day_after=after.day,
                removed={k: v for k, v in obs_before.rdatas.items() if v},
                added={},
                disappeared=True,
            )
            continue
        removed: Dict[str, FrozenSet[str]] = {}
        added: Dict[str, FrozenSet[str]] = {}
        for key in sorted(set(obs_before.rdatas) | set(obs_after.rdatas)):
            old = obs_before.rdatas.get(key, frozenset())
            new = obs_after.rdatas.get(key, frozenset())
            gone = old - new
            fresh = new - old
            if gone:
                removed[key] = frozenset(gone)
            if fresh:
                added[key] = frozenset(fresh)
        if removed or added:
            yield SnapshotDiff(apex, before.day, after.day, removed, added, False)


class SnapshotStore:
    """Day-indexed snapshot collection with neighbor iteration."""

    def __init__(self) -> None:
        self._by_day: Dict[Day, DailySnapshot] = {}

    def put(self, snapshot: DailySnapshot) -> None:
        self._by_day[snapshot.day] = snapshot

    def get(self, scan_day: Day) -> Optional[DailySnapshot]:
        return self._by_day.get(scan_day)

    def days(self) -> List[Day]:
        return sorted(self._by_day)

    def consecutive_pairs(self) -> Iterator[Tuple[DailySnapshot, DailySnapshot]]:
        """Yield (day N, day N+next-scan) snapshot pairs in day order."""
        ordered = self.days()
        for before_day, after_day in zip(ordered, ordered[1:]):
            yield self._by_day[before_day], self._by_day[after_day]

    def delegation_views(self) -> List[Tuple[Day, DelegationView]]:
        """``(day, apex -> delegation targets)`` for every scan day, in day order."""
        return [
            (
                scan_day,
                {
                    apex: observation.delegation_targets()
                    for apex, observation in self.get(scan_day)._observations.items()
                },
            )
            for scan_day in self.days()
        ]

    def __len__(self) -> int:
        return len(self._by_day)
