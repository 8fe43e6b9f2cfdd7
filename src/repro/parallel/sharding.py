"""Bundle partitioning for the sharded parallel detection engine.

A :class:`~repro.core.pipeline.DatasetBundle` is split into ``num_shards``
independent :class:`BundleShard` pieces such that every detector join stays
*within* a shard — running the detectors per shard and unioning the
findings provably reproduces the batch result. Two shard axes exist
because the three joins use two different keys:

* **Revocation axis** (key compromise, §4.1): the CRL/CT join key is
  (authority key id, serial), so certificates and CRLs are routed by
  ``authority_key_id``. The join is exact — every counter in
  :class:`~repro.core.detectors.key_compromise.RevocationJoinStats` sums
  across shards.
* **Domain axis** (registrant change §4.2, managed TLS §4.3): both joins
  look up certificates by registered domain (``e2ld(name) or name`` — the
  exact lookup the detectors use). A certificate links all of its e2LDs,
  so components are formed with a union-find and each *component* is
  routed to one shard; WHOIS creation pairs and DNS snapshot observations
  follow the component owning their domain key. This assumes zone apexes
  are registrable e2LDs (true for the simulator and for the paper's
  .com/.net zone files); a SAN beneath an apex then shares the apex's
  domain key and can never land in a different shard.

Shard assignment hashes the *minimum member key* of a component with
:func:`stable_hash` (BLAKE2b — Python's builtin ``hash`` is salted per
process and would break cross-process determinism). The Cloudflare marker
SAN (``sni*.cloudflaressl.com``) links every managed certificate into one
component; that skew is accepted — correctness over balance — and visible
in :class:`~repro.parallel.stats.ShardStats`.

Every shard's snapshot store keeps *all* scan days (possibly empty), so
consecutive-pair iteration and the disappearance lookahead behave exactly
as in the unsharded store.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.detectors.registrant_change import domain_key
from repro.core.pipeline import DatasetBundle
from repro.dns.snapshots import DailySnapshot, DomainObservation, SnapshotStore
from repro.pki.certificate import Certificate
from repro.revocation.crl import CertificateRevocationList
from repro.util.dates import Day


def stable_hash(key: str) -> int:
    """Process-stable 64-bit hash (builtin ``hash`` is salted per run)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class _UnionFind:
    """Path-compressed union-find over string keys."""

    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def add(self, key: str) -> str:
        if key not in self._parent:
            self._parent[key] = key
        return key

    def find(self, key: str) -> str:
        self.add(key)
        root = key
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[key] != root:  # compress
            self._parent[key], key = root, self._parent[key]
        return root

    def union(self, left: str, right: str) -> None:
        root_left, root_right = self.find(left), self.find(right)
        if root_left != root_right:
            self._parent[root_right] = root_left

    def keys(self) -> Iterator[str]:
        return iter(self._parent)


class ShardCorpus:
    """Duck-typed stand-in for :class:`~repro.ct.dedup.CertificateCorpus`.

    The detectors only call ``certificates()``, ``by_revocation_key()``
    and ``len()``; rebuilding a real corpus per shard (re-running dedup and
    the anomaly filter) would be wasted work — the parent already did it.
    """

    def __init__(self, certificates: List[Certificate]) -> None:
        self._certificates = certificates

    def certificates(self) -> Iterator[Certificate]:
        return iter(self._certificates)

    def __len__(self) -> int:
        return len(self._certificates)

    def by_revocation_key(self) -> Dict[Tuple[str, int], Certificate]:
        return {cert.revocation_key(): cert for cert in self._certificates}


def _shard_corpus(certificates):
    """The corpus stand-in for a shard's certificate list.

    Columnar row lists carry their own index-backed corpus; plain lists
    (and row lists that crossed a spawn-pickle boundary, which degrade to
    plain lists) get the materialized :class:`ShardCorpus`.
    """
    as_shard_corpus = getattr(certificates, "as_shard_corpus", None)
    if as_shard_corpus is not None:
        return as_shard_corpus()
    return ShardCorpus(certificates)


@dataclass
class BundleShard:
    """One independent slice of a dataset bundle (both axes)."""

    index: int
    revocation_certificates: List[Certificate] = field(default_factory=list)
    crls: List[CertificateRevocationList] = field(default_factory=list)
    domain_certificates: List[Certificate] = field(default_factory=list)
    whois_creation_pairs: List[Tuple[str, Day]] = field(default_factory=list)
    dns_snapshots: Optional[SnapshotStore] = None

    def bundle_view(self, detector_key: str) -> DatasetBundle:
        """A per-detector bundle view over this shard's slice.

        The revocation axis and the domain axis hold different certificate
        sets, so the view picks the corpus matching the detector's join.
        """
        if detector_key == "key_compromise":
            return DatasetBundle(
                corpus=_shard_corpus(self.revocation_certificates),  # type: ignore[arg-type]
                crls=self.crls,
            )
        return DatasetBundle(
            corpus=_shard_corpus(self.domain_certificates),  # type: ignore[arg-type]
            whois_creation_pairs=self.whois_creation_pairs,
            dns_snapshots=self.dns_snapshots,
        )

    def snapshot_observations(self) -> int:
        if self.dns_snapshots is None:
            return 0
        return sum(
            len(snapshot)
            for snapshot in (
                self.dns_snapshots.get(scan_day) for scan_day in self.dns_snapshots.days()
            )
            if snapshot is not None
        )


@dataclass
class ShardPlan:
    """The full partition, with assignment maps for invariant checking."""

    num_shards: int
    shards: List[BundleShard]
    #: authority_key_id -> shard index (revocation axis).
    revocation_assignment: Dict[str, int] = field(default_factory=dict)
    #: domain key -> shard index (domain axis; component-consistent).
    domain_assignment: Dict[str, int] = field(default_factory=dict)
    #: dedup fingerprint -> shard index, per axis.
    certificate_revocation_shard: Dict[str, int] = field(default_factory=dict)
    certificate_domain_shard: Dict[str, int] = field(default_factory=dict)


def partition_bundle(bundle: DatasetBundle, num_shards: int) -> ShardPlan:
    """Split *bundle* into ``num_shards`` join-closed shards."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    plan = ShardPlan(
        num_shards=num_shards,
        shards=[BundleShard(index=i) for i in range(num_shards)],
    )
    plan_columns = getattr(bundle.corpus, "shard_plan_columns", None)
    if plan_columns is not None:
        return _partition_columnar(bundle, plan, *plan_columns())
    certificates = list(bundle.corpus.certificates())

    # -- revocation axis: exact routing by authority key id ------------------
    for certificate in certificates:
        shard_index = plan.revocation_assignment.setdefault(
            certificate.authority_key_id,
            stable_hash(certificate.authority_key_id) % num_shards,
        )
        plan.certificate_revocation_shard[certificate.dedup_fingerprint()] = shard_index
        plan.shards[shard_index].revocation_certificates.append(certificate)
    for crl in bundle.crls:
        shard_index = plan.revocation_assignment.setdefault(
            crl.authority_key_id, stable_hash(crl.authority_key_id) % num_shards
        )
        plan.shards[shard_index].crls.append(crl)

    # -- domain axis: union-find over registered-domain join keys ------------
    components = _UnionFind()
    for certificate in certificates:
        keys = sorted(certificate.e2lds())
        for key in keys:
            components.add(key)
        for other in keys[1:]:
            components.union(keys[0], other)
    snapshot_days = _add_domain_side_keys(components, bundle)
    _assign_components(plan, components)

    for certificate in certificates:
        registrables = certificate.e2lds()
        if registrables:
            shard_index = plan.domain_assignment[min(registrables)]
        else:
            # No registrable SAN: the domain joins can never reach it, so
            # any stable assignment is correct.
            shard_index = stable_hash("cert:" + certificate.dedup_fingerprint()) % num_shards
        plan.certificate_domain_shard[certificate.dedup_fingerprint()] = shard_index
        plan.shards[shard_index].domain_certificates.append(certificate)
    _route_whois_and_dns(plan, bundle, snapshot_days)
    return plan


def _add_domain_side_keys(components: _UnionFind, bundle: DatasetBundle) -> List[Day]:
    """Register WHOIS domains and snapshot apexes; returns the scan days."""
    for domain, _creation_day in bundle.whois_creation_pairs:
        components.add(domain_key(domain))
    snapshot_days: List[Day] = []
    if bundle.dns_snapshots is not None:
        snapshot_days = bundle.dns_snapshots.days()
        for scan_day in snapshot_days:
            snapshot = bundle.dns_snapshots.get(scan_day)
            for apex in snapshot.apexes():
                components.add(domain_key(apex))
    return snapshot_days


def _assign_components(plan: ShardPlan, components: _UnionFind) -> None:
    # Route each component by its canonical (minimum) member key so the
    # assignment is independent of insertion order.
    min_member: Dict[str, str] = {}
    for key in components.keys():
        root = components.find(key)
        if root not in min_member or key < min_member[root]:
            min_member[root] = key
    for key in list(components.keys()):
        plan.domain_assignment[key] = (
            stable_hash(min_member[components.find(key)]) % plan.num_shards
        )


def _route_whois_and_dns(
    plan: ShardPlan, bundle: DatasetBundle, snapshot_days: List[Day]
) -> None:
    for domain, creation_day in bundle.whois_creation_pairs:
        shard_index = plan.domain_assignment[domain_key(domain)]
        plan.shards[shard_index].whois_creation_pairs.append((domain, creation_day))

    if bundle.dns_snapshots is not None:
        # Every shard sees every scan day (even when it owns no apexes that
        # day) so consecutive-pair diffing and the disappearance lookahead
        # keep their unsharded semantics.
        per_shard_observations: List[Dict[Day, Dict[str, DomainObservation]]] = [
            {scan_day: {} for scan_day in snapshot_days}
            for _ in range(plan.num_shards)
        ]
        for scan_day in snapshot_days:
            snapshot = bundle.dns_snapshots.get(scan_day)
            for apex in snapshot.apexes():
                shard_index = plan.domain_assignment[domain_key(apex)]
                per_shard_observations[shard_index][scan_day][apex] = snapshot.get(apex)
        for shard, observations_by_day in zip(plan.shards, per_shard_observations):
            store = SnapshotStore()
            for scan_day in snapshot_days:
                store.put(
                    DailySnapshot.from_observations(
                        scan_day, observations_by_day[scan_day]
                    )
                )
            shard.dns_snapshots = store


def _partition_columnar(
    bundle: DatasetBundle, plan: ShardPlan, akid_column, e2lds_column
) -> ShardPlan:
    """Index-only partition of a columnar bundle.

    Routing reads two columns — authority key id and the precomputed
    sorted e2LD list — so no certificate is hydrated; shards receive lazy
    row lists that hydrate inside the workers. The assignment is
    *identical* to the materialized path (same keys, same hashes), but
    the per-axis fingerprint maps stay empty: filling them is exactly the
    full-corpus hydration this path exists to avoid, and only the
    partition-invariant tests consume them.
    """
    corpus = bundle.corpus
    num_shards = plan.num_shards
    revocation_rows: List[List[int]] = [[] for _ in range(num_shards)]
    domain_rows: List[List[int]] = [[] for _ in range(num_shards)]

    # -- revocation axis: exact routing by authority key id ------------------
    for row, akid in enumerate(akid_column):
        shard_index = plan.revocation_assignment.setdefault(
            akid, stable_hash(akid) % num_shards
        )
        revocation_rows[shard_index].append(row)
    for crl in bundle.crls:
        shard_index = plan.revocation_assignment.setdefault(
            crl.authority_key_id, stable_hash(crl.authority_key_id) % num_shards
        )
        plan.shards[shard_index].crls.append(crl)

    # -- domain axis: union-find over registered-domain join keys ------------
    components = _UnionFind()
    row_e2lds: List[List[str]] = []
    for row in range(len(corpus)):
        keys = e2lds_column[row]  # sorted at write time: keys[0] is the min
        row_e2lds.append(keys)
        for key in keys:
            components.add(key)
        for other in keys[1:]:
            components.union(keys[0], other)
    snapshot_days = _add_domain_side_keys(components, bundle)
    _assign_components(plan, components)

    for row, keys in enumerate(row_e2lds):
        if keys:
            shard_index = plan.domain_assignment[keys[0]]
        else:
            # No registrable SAN: the domain joins can never reach it; route
            # by fingerprint exactly as the materialized path does (this is
            # the one per-row hydration, and such rows are rare).
            certificate = corpus.certificate_rows([row])[0]
            shard_index = (
                stable_hash("cert:" + certificate.dedup_fingerprint()) % num_shards
            )
        domain_rows[shard_index].append(row)
    _route_whois_and_dns(plan, bundle, snapshot_days)

    for shard, revocation, domain in zip(plan.shards, revocation_rows, domain_rows):
        shard.revocation_certificates = corpus.certificate_rows(revocation)
        shard.domain_certificates = corpus.certificate_rows(domain)
    return plan
