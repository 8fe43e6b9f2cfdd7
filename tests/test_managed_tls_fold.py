"""The delegation-view fold behind ``find_departures`` against its oracle.

``find_departures`` folds each store's per-day ``apex -> NS ∪ CNAME``
delegation views. The oracle below is the search it replaced: a full
``diff_days`` record diff per consecutive snapshot pair, with the
disappearance lookahead read from the snapshots. Both must return the
same departures, ``removed_targets`` included, on random small stores and
on simulated worlds. The columnar store's column-kernel views must also
equal the snapshot-derived views of the same world.

The stream detector folds the same views one scan day at a time. It must
give the same departures as ``find_departures`` and as the split NS/CNAME
step it replaced, and a checkpoint taken after any scan day must resume
to the uninterrupted findings and stats.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.detectors.managed_tls import (
    DISAPPEARANCE_LOOKAHEAD_SCANS,
    Departure,
    find_departures,
    is_cloudflare_delegation,
)
from repro.data import open_bundle, write_dataset
from repro.dns.records import RecordType
from repro.dns.snapshots import DailySnapshot, SnapshotStore, diff_days
from repro.ecosystem import streamgen
from repro.ecosystem.workload import WorldConfig
from repro.stream import IncrementalManagedTlsDetector
from repro.stream.events import DnsSnapshotTaken
from repro.util.dates import day
from tests.conftest import make_cert


def oracle_find_departures(store: SnapshotStore) -> List[Departure]:
    """The snapshot-diff departure search ``find_departures`` replaced."""
    departures: List[Departure] = []
    ordered_days = store.days()
    day_index = {d: i for i, d in enumerate(ordered_days)}
    for before, after in store.consecutive_pairs():
        for diff in diff_days(before, after):
            removed = {
                target
                for target in (
                    diff.removed_of(RecordType.NS) | diff.removed_of(RecordType.CNAME)
                )
                if is_cloudflare_delegation(target)
            }
            if not removed:
                continue
            if diff.disappeared:
                if _oracle_reappears_on_cloudflare(
                    store, ordered_days, day_index[after.day] + 1, diff.apex
                ):
                    continue
            else:
                obs_after = after.get(diff.apex)
                if obs_after is not None and any(
                    is_cloudflare_delegation(t) for t in obs_after.delegation_targets()
                ):
                    continue
            departures.append(
                Departure(diff.apex, diff.day_after, frozenset(removed))
            )
    return departures


def _oracle_reappears_on_cloudflare(store, ordered_days, start: int, apex: str) -> bool:
    stop = min(start + DISAPPEARANCE_LOOKAHEAD_SCANS, len(ordered_days))
    for position in range(start, stop):
        obs = store.get(ordered_days[position]).get(apex)
        if obs is None:
            continue
        return any(is_cloudflare_delegation(t) for t in obs.delegation_targets())
    return False


def _in_order(departures: Sequence[Departure]) -> List[Departure]:
    return sorted(departures, key=lambda d: (d.departure_day, d.apex))


# ---------------------------------------------------------------------------
# random small stores
# ---------------------------------------------------------------------------

FIRST_DAY = day(2022, 8, 1)
APEXES = ("alpha.com", "beta.net", "gamma.org", "delta.io")
#: Cloudflare targets, including mixed-case and trailing-dot spellings.
CLOUDFLARE_TARGETS = (
    "ada.ns.cloudflare.com",
    "bob.ns.cloudflare.com",
    "ADA.NS.Cloudflare.COM.",
    "bob.ns.cloudflare.com.",
    "cust.cdn.cloudflare.com",
    "Cust.CDN.cloudflare.com.",
)
#: Look-alikes and other providers, none of which is a Cloudflare delegation.
OTHER_TARGETS = (
    "ns1.other.net",
    "edge.akamai.net.",
    "cloudflare.com",
    "ns.cloudflare.com.example.net",
)
TARGETS = CLOUDFLARE_TARGETS + OTHER_TARGETS

#: One apex on one scan day: ``None`` when unobserved, else (NS, CNAME).
State = Optional[Tuple[frozenset, frozenset]]

_states = st.one_of(
    st.none(),
    st.tuples(
        st.frozensets(st.sampled_from(TARGETS), max_size=3),
        st.frozensets(st.sampled_from(TARGETS), max_size=2),
    ),
)


def build_store(days: Sequence[int], timelines: Dict[str, Sequence[State]]) -> SnapshotStore:
    """A store with one snapshot per day; every observed apex gets an A
    record, so a state with no NS/CNAME is present without delegation."""
    store = SnapshotStore()
    for position, scan_day in enumerate(days):
        snapshot = DailySnapshot(scan_day)
        for apex, states in timelines.items():
            state = states[position]
            if state is None:
                continue
            ns, cname = state
            snapshot.observe(apex, RecordType.A, ("192.0.2.1",))
            snapshot.observe(apex, RecordType.NS, ns)
            snapshot.observe(apex, RecordType.CNAME, cname)
        store.put(snapshot)
    return store


@st.composite
def small_stores(draw) -> SnapshotStore:
    """2–10 scan days (with calendar gaps) over 1–4 apexes.

    Each apex's timeline is a run-length list of states, so absences come
    in runs of 1–5 scans: shorter than, equal to and longer than the
    disappearance lookahead.
    """
    offsets = draw(st.lists(st.integers(0, 40), min_size=2, max_size=10, unique=True))
    days = [FIRST_DAY + offset for offset in sorted(offsets)]
    timelines: Dict[str, List[State]] = {}
    for apex in draw(st.lists(st.sampled_from(APEXES), min_size=1, max_size=4, unique=True)):
        runs = draw(st.lists(st.tuples(_states, st.integers(1, 5)), min_size=1, max_size=6))
        states = [state for state, length in runs for _ in range(length)]
        timelines[apex] = (states * len(days))[: len(days)]
    return build_store(days, timelines)


class TestFoldAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(small_stores())
    def test_same_departures_as_snapshot_diff(self, store):
        departures = find_departures(store)
        assert departures == _in_order(oracle_find_departures(store))

    @settings(max_examples=100, deadline=None)
    @given(small_stores())
    def test_views_match_snapshots(self, store):
        views = store.delegation_views()
        assert [scan_day for scan_day, _ in views] == store.days()
        for scan_day, view in views:
            snapshot = store.get(scan_day)
            assert set(view) == snapshot.apexes()
            for apex, targets in view.items():
                assert targets == snapshot.get(apex).delegation_targets()


CF = frozenset({"ada.ns.cloudflare.com", "bob.ns.cloudflare.com"})
CF_CNAME = frozenset({"cust.cdn.cloudflare.com"})
OTHER = frozenset({"ns1.other.net"})
NONE = frozenset()


def _gap_timeline(absent_scans: int, back: Tuple[frozenset, frozenset]) -> List[State]:
    return [(CF, NONE)] + [None] * absent_scans + [back]


#: name -> (one apex's timeline, expected departure positions and removed targets)
SCENARIOS = {
    "ns_moves_off_cloudflare": ([(CF, NONE), (OTHER, NONE)], [(1, CF)]),
    "ns_to_cname_within_cloudflare": ([(CF, NONE), (NONE, CF_CNAME)], []),
    "cname_to_ns_off_cloudflare": ([(NONE, CF_CNAME), (OTHER, NONE)], [(1, CF_CNAME)]),
    "ns_shuffle_within_cloudflare": (
        [(CF, NONE), (frozenset({"carol.ns.cloudflare.com", "bob.ns.cloudflare.com"}), NONE)],
        [],
    ),
    "mixed_case_trailing_dot_same_provider": (
        [(CF, NONE), (frozenset({"ADA.NS.CLOUDFLARE.COM."}), NONE)],
        [],
    ),
    "present_without_delegation": ([(CF, NONE), (NONE, NONE)], [(1, CF)]),
    "gap_shorter_than_lookahead_back_on_cloudflare": (_gap_timeline(2, (CF, NONE)), []),
    "gap_equal_to_lookahead_back_on_cloudflare": (
        _gap_timeline(DISAPPEARANCE_LOOKAHEAD_SCANS, (CF, NONE)),
        [],
    ),
    "gap_longer_than_lookahead_back_on_cloudflare": (
        _gap_timeline(DISAPPEARANCE_LOOKAHEAD_SCANS + 1, (CF, NONE)),
        [(1, CF)],
    ),
    "gap_back_elsewhere": (_gap_timeline(1, (OTHER, NONE)), [(1, CF)]),
    "disappears_at_window_end": ([(OTHER, NONE), (CF, NONE), None], [(2, CF)]),
}


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario(self, name):
        timeline, expected = SCENARIOS[name]
        days = [FIRST_DAY + position for position in range(len(timeline))]
        store = build_store(days, {"cust.com": timeline})
        departures = find_departures(store)
        assert departures == [
            Departure("cust.com", days[position], removed)
            for position, removed in expected
        ]
        assert departures == _in_order(oracle_find_departures(store))


# ---------------------------------------------------------------------------
# the stream fold
# ---------------------------------------------------------------------------


def split_view_departures(store: SnapshotStore) -> List[Departure]:
    """The split NS/CNAME step the stream detector took before it folded
    delegation views: each apex keeps its (NS, CNAME) pair, a departure
    removes the Cloudflare targets of ``(ns_old - ns_new) | (cname_old -
    cname_new)``, and open lookaheads resolve against each later snapshot
    first. Kept as a second oracle for :class:`IncrementalManagedTlsDetector`.
    """
    departures: List[Departure] = []
    last: Optional[Dict[str, Tuple[frozenset, frozenset]]] = None
    pending: List[Tuple[str, int, frozenset, int]] = []
    for scan_day in store.days():
        snapshot = store.get(scan_day)
        current = {
            apex: (snapshot.get(apex).get(RecordType.NS), snapshot.get(apex).get(RecordType.CNAME))
            for apex in sorted(snapshot.apexes())
        }
        if last is not None:
            unresolved = []
            for apex, departure_day, removed, remaining in pending:
                if apex in current:
                    ns, cname = current[apex]
                    if not any(is_cloudflare_delegation(t) for t in ns | cname):
                        departures.append(Departure(apex, departure_day, removed))
                elif remaining > 1:
                    unresolved.append((apex, departure_day, removed, remaining - 1))
                else:
                    departures.append(Departure(apex, departure_day, removed))
            pending = unresolved
            for apex, (ns_old, cname_old) in last.items():
                if apex not in current:
                    removed = frozenset(t for t in ns_old | cname_old if is_cloudflare_delegation(t))
                    if removed:
                        pending.append((apex, scan_day, removed, DISAPPEARANCE_LOOKAHEAD_SCANS))
                    continue
                ns_new, cname_new = current[apex]
                removed = frozenset(
                    t for t in (ns_old - ns_new) | (cname_old - cname_new)
                    if is_cloudflare_delegation(t)
                )
                if removed and not any(is_cloudflare_delegation(t) for t in ns_new | cname_new):
                    departures.append(Departure(apex, scan_day, removed))
        last = current
    departures.extend(Departure(apex, d, removed) for apex, d, removed, _ in pending)
    return departures


class RecordingDetector(IncrementalManagedTlsDetector):
    """The stream detector, recording each departure it emits."""

    def __init__(self) -> None:
        super().__init__()
        self.departures: List[Departure] = []

    def _emit_departure(self, apex, departure_day, removed):
        self.departures.append(Departure(apex, departure_day, frozenset(removed)))
        return super()._emit_departure(apex, departure_day, removed)


#: One Cloudflare-managed certificate per apex, valid over every drawn day.
MANAGED = tuple(
    make_cert(
        sans=(f"sni{serial}.cloudflaressl.com", apex, f"www.{apex}"),
        serial=serial,
        not_before=FIRST_DAY - 30,
        lifetime=400,
        issuer="CloudFlare ECC CA-2",
    )
    for serial, apex in enumerate(APEXES, start=501)
)
BY_FINGERPRINT = {certificate.dedup_fingerprint(): certificate for certificate in MANAGED}


def view_events(store: SnapshotStore) -> List[DnsSnapshotTaken]:
    return [
        DnsSnapshotTaken(day=scan_day, sequence=sequence, view=view)
        for sequence, (scan_day, view) in enumerate(store.delegation_views())
    ]


def run_fold(events, detector=None) -> RecordingDetector:
    """Feed *events* to a fresh (or restored) detector, then finalize."""
    if detector is None:
        detector = RecordingDetector()
    for certificate in MANAGED:
        detector.register_certificate(certificate)
    for event in events:
        detector.consume(event)
    detector.finalize()
    return detector


def canonical(detector: IncrementalManagedTlsDetector):
    return sorted(
        (f.certificate.dedup_fingerprint(), f.affected_domain, f.invalidation_day, f.detail)
        for f in detector.findings()
    )


def kill_and_resume(events, kill_after: int) -> Tuple[RecordingDetector, RecordingDetector]:
    """Run *kill_after* events, checkpoint through JSON, resume the rest."""
    first = RecordingDetector()
    for certificate in MANAGED:
        first.register_certificate(certificate)
    for event in events[:kill_after]:
        first.consume(event)
    state = json.loads(json.dumps(first.checkpoint_state(), sort_keys=True))
    resumed = RecordingDetector()
    resumed.restore_state(state, BY_FINGERPRINT.__getitem__)
    return first, run_fold(events[kill_after:], resumed)


class TestStreamFold:
    @settings(max_examples=300, deadline=None)
    @given(small_stores())
    def test_same_departures_as_batch_fold(self, store):
        detector = run_fold(view_events(store))
        departures = find_departures(store)
        assert _in_order(detector.departures) == departures
        assert _in_order(split_view_departures(store)) == departures
        assert detector.stats.departures_detected == len(departures)

    @settings(max_examples=100, deadline=None)
    @given(small_stores())
    def test_kill_resume_at_every_scan_day(self, store):
        events = view_events(store)
        uninterrupted = run_fold(events)
        for kill_after in range(1, len(events)):
            first, resumed = kill_and_resume(events, kill_after)
            assert canonical(resumed) == canonical(uninterrupted)
            assert first.departures + resumed.departures == uninterrupted.departures
            assert resumed.stats == uninterrupted.stats

    @pytest.mark.parametrize("name", sorted(n for n in SCENARIOS if n.startswith("gap_")))
    def test_resume_with_open_lookahead(self, name):
        timeline, expected = SCENARIOS[name]
        days = [FIRST_DAY + position for position in range(len(timeline))]
        events = view_events(build_store(days, {"alpha.com": timeline}))
        uninterrupted = run_fold(events)
        assert len(uninterrupted.departures) == len(expected)
        # The gap starts on the second scan; its lookahead stays open for
        # DISAPPEARANCE_LOOKAHEAD_SCANS scans or until the apex is seen.
        for kill_after in range(2, min(len(events), 2 + DISAPPEARANCE_LOOKAHEAD_SCANS)):
            first, resumed = kill_and_resume(events, kill_after)
            assert first.pending_departures() == 1
            assert canonical(resumed) == canonical(uninterrupted)
            assert resumed.stats == uninterrupted.stats

    def test_last_view_keeps_only_cloudflare_apexes(self):
        days = [FIRST_DAY, FIRST_DAY + 1]
        store = build_store(
            days,
            {
                "alpha.com": [(OTHER, NONE), (CF | OTHER, CF_CNAME)],
                "beta.net": [(CF, NONE), (OTHER, NONE)],
                "gamma.org": [(CF, NONE), (NONE, NONE)],
            },
        )
        detector = RecordingDetector()
        for event in view_events(store):
            detector.consume(event)
        assert detector.checkpoint_state()["last_view"] == {
            "alpha.com": sorted(CF | CF_CNAME)
        }


# ---------------------------------------------------------------------------
# simulated worlds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=[7, 20231024])
def streamed_world_dir(request, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp(f"fold-world-{request.param}"))
    streamgen.save_streamed(WorldConfig(seed=request.param).scaled(0.02), directory, shards=1)
    return directory


class TestWorlds:
    def test_columnar_views_equal_snapshot_views(self, streamed_world_dir):
        store = open_bundle(streamed_world_dir).dns_snapshots
        views = store.delegation_views()
        assert views == SnapshotStore.delegation_views(store)

    def test_columnar_fold_matches_oracle(self, streamed_world_dir):
        store = open_bundle(streamed_world_dir).dns_snapshots
        departures = find_departures(store)
        assert departures, "the seed world should contain departures"
        assert departures == _in_order(oracle_find_departures(store))

    def test_stream_fold_matches_batch_fold(self, streamed_world_dir):
        store = open_bundle(streamed_world_dir).dns_snapshots
        detector = RecordingDetector()
        for event in view_events(store):
            detector.consume(event)
        detector.finalize()
        assert _in_order(detector.departures) == find_departures(store)

    def test_multi_segment_store_matches_in_memory(self, small_world, tmp_path):
        memory_store = small_world.to_bundle().dns_snapshots
        write_dataset(small_world.to_bundle(), str(tmp_path), rows_per_segment=97)
        lazy_store = open_bundle(str(tmp_path)).dns_snapshots
        assert lazy_store.days() == memory_store.days()
        assert lazy_store.delegation_views() == memory_store.delegation_views()
        departures = find_departures(memory_store)
        assert find_departures(lazy_store) == departures
        assert departures == _in_order(oracle_find_departures(memory_store))
