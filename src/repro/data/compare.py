"""Field-wise equivalence of two saved bundle directories.

:func:`check_equivalent` re-opens both directories and compares every
reconstructed object the detectors consume, so an empty report means the
two bundles are interchangeable for every engine.
"""

from __future__ import annotations

from typing import List

from repro.data.dataset import open_bundle


def check_equivalent(left_dir: str, right_dir: str) -> List[str]:
    """Compare two bundle directories object-for-object.

    Returns a list of human-readable mismatch descriptions — empty means
    the bundles are equivalent in everything the engines consume.
    """
    left = open_bundle(left_dir)
    right = open_bundle(right_dir)
    problems: List[str] = []

    left_certs = list(left.corpus.certificates())
    right_certs = list(right.corpus.certificates())
    if len(left_certs) != len(right_certs):
        problems.append(
            f"corpus size differs: {len(left_certs)} vs {len(right_certs)}"
        )
    for position, (ours, theirs) in enumerate(zip(left_certs, right_certs)):
        if ours != theirs:
            problems.append(f"certificate {position} differs")
            break

    left_crls = left.crls
    right_crls = right.crls
    if len(left_crls) != len(right_crls):
        problems.append(f"CRL count differs: {len(left_crls)} vs {len(right_crls)}")
    for ours, theirs in zip(left_crls, right_crls):
        if (
            ours.issuer_name != theirs.issuer_name
            or ours.authority_key_id != theirs.authority_key_id
            or ours.this_update != theirs.this_update
            or ours.next_update != theirs.next_update
            or ours.entries != theirs.entries
        ):
            problems.append(
                f"CRL ({ours.issuer_name!r}, {ours.authority_key_id!r}) differs"
            )
            break

    if left.whois_creation_pairs != right.whois_creation_pairs:
        problems.append("WHOIS creation pairs differ")

    problems.extend(_compare_snapshots(left.dns_snapshots, right.dns_snapshots))

    if left.windows != right.windows:
        problems.append("observation windows differ")
    return problems


def _compare_snapshots(left_store, right_store) -> List[str]:
    if left_store is None and right_store is None:
        return []
    if (left_store is None) != (right_store is None):
        return ["one bundle has DNS snapshots, the other does not"]
    if left_store.days() != right_store.days():
        return ["DNS snapshot days differ"]
    for scan_day in left_store.days():
        left_snapshot = left_store.get(scan_day)
        right_snapshot = right_store.get(scan_day)
        if left_snapshot.apexes() != right_snapshot.apexes():
            return [f"DNS apex set differs on day {scan_day}"]
        for apex in sorted(left_snapshot.apexes()):
            if left_snapshot.get(apex).rdatas != right_snapshot.get(apex).rdatas:
                return [f"DNS records differ for {apex!r} on day {scan_day}"]
    return []
