"""The benchmark's four workloads.

Each batch workload exposes ``set_up()`` (timed by the harness,
repeated; each call adds one world), ``reference()`` (untimed, after the
last set-up), ``operation()`` (the timed unit, cycling over the worlds),
``check(output)`` (``None`` when correct, else the reason),
``discard(output)``, ``bundle_bytes(output)``, ``op_counts(output)``
(workload-side per-layer counts) and ``close()``. serve-http drives
requests instead and is measured by its own loop in :mod:`perfbench.serve`.

The program is imported lazily, inside methods, so importing this module
needs nothing but the standard library.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import Dict, List, Optional, Tuple

from perfbench.harness import FINDING_CLASSES, tree_bytes, tree_digest


def findings_digest(findings) -> str:
    """Order-free SHA-256 of a findings set: the sorted canonical JSON of
    every finding record (certificate included)."""
    records = sorted(
        json.dumps(finding.to_record(), sort_keys=True, separators=(",", ":"))
        for finding in findings.all_findings()
    )
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def findings_by_class(findings) -> Dict[str, float]:
    counts = {f"core.findings.{cls}": 0.0 for cls in FINDING_CLASSES}
    for finding in findings.all_findings():
        key = f"core.findings.{finding.staleness_class.value}"
        if key in counts:
            counts[key] += 1
    return counts


#: Seed stride between the worlds of one run.
WORLD_SEED_STRIDE = 7919


class Env:
    """What every workload shares: seed, scale and a private work directory.

    One run's set-ups generate several worlds, ``seed``, ``seed + 7919``,
    ... (see :data:`WORLD_SEED_STRIDE`), and its operations cycle over
    them. Averaging over worlds keeps one seed's world size from setting
    the whole run's time.
    """

    def __init__(self, root: str, workdir: str, seed: int, scale: float) -> None:
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.scale = scale
        self._serial = 0
        #: Per-table row counts of every generated world, by world seed.
        self.rows: Dict[int, Dict[str, int]] = {}

    def fresh_path(self, stem: str) -> str:
        """A new, not yet existing path under the work directory."""
        self._serial += 1
        return os.path.join(self.workdir, f"{stem}-{self._serial:04d}")

    def world_seed(self, world: int) -> int:
        return self.seed + world * WORLD_SEED_STRIDE

    def config(self, world: int = 0):
        from repro.ecosystem.workload import WorldConfig

        return WorldConfig(seed=self.world_seed(world)).scaled(self.scale)

    def generate(self, directory: str, world: int = 0) -> Dict[str, int]:
        """Stream-generate world *world* into *directory*, serially."""
        from repro.ecosystem import streamgen

        rows = dict(streamgen.save_streamed(self.config(world), directory, shards=1))
        self.rows[self.world_seed(world)] = rows
        return rows


def _remove(path: Optional[str]) -> None:
    if path and os.path.isdir(path):
        shutil.rmtree(path)
    elif path and os.path.exists(path):
        os.remove(path)


class _Worlds:
    """Each ``set_up()`` generates the next world's bundle; operations
    cycle over the worlds set up so far."""

    def __init__(self, env: Env) -> None:
        self.env = env
        self.bundles: List[str] = []
        self._next = 0

    @property
    def worlds(self) -> int:
        return len(self.bundles)

    def set_up(self) -> None:
        path = self.env.fresh_path("world")
        self.env.generate(path, len(self.bundles))
        self.bundles.append(path)

    def next_world(self) -> int:
        world = self._next % len(self.bundles)
        self._next += 1
        return world

    def close(self) -> None:
        for path in self.bundles:
            _remove(path)


class GenStream(_Worlds):
    """``save_streamed`` into a fresh directory; output must be
    byte-identical to that world's set-up reference bundle."""

    name = "gen-stream"

    def __init__(self, env: Env) -> None:
        super().__init__(env)
        self.expected: List[Dict[str, str]] = []

    def reference(self) -> None:
        self.expected = [tree_digest(path) for path in self.bundles]

    def operation(self) -> Tuple[int, str]:
        world = self.next_world()
        directory = self.env.fresh_path("bundle")
        self.env.generate(directory, world)
        return world, directory

    def check(self, output: Tuple[int, str]) -> Optional[str]:
        world, directory = output
        actual = tree_digest(directory)
        expected = self.expected[world]
        if actual == expected:
            return None
        differing = sorted(
            name for name in set(actual) | set(expected)
            if actual.get(name) != expected.get(name)
        )
        return f"world {world}: bundle differs from the reference in {differing[:3]}"

    def discard(self, output: Tuple[int, str]) -> None:
        _remove(output[1])

    def bundle_bytes(self, output: Tuple[int, str]) -> int:
        return tree_bytes(output[1])[0]

    def op_counts(self, output: Tuple[int, str]) -> Dict[str, float]:
        total, segments = tree_bytes(output[1])
        return {"data.bytes_written": total, "data.segments_written": segments}


class _ReadWorkload(_Worlds):
    """Shared set-up of the two read-side workloads: generate the bundles,
    then take each world's reference findings from a batch detect."""

    def __init__(self, env: Env) -> None:
        super().__init__(env)
        self.expected_digests: List[str] = []

    def cutoff(self, world: int):
        return self.env.config(world).timeline.revocation_cutoff

    def reference(self) -> None:
        from repro.core.pipeline import MeasurementPipeline
        from repro.data import open_bundle

        self.expected_digests = []
        for world, path in enumerate(self.bundles):
            bundle = open_bundle(path)
            try:
                result = MeasurementPipeline(
                    bundle, revocation_cutoff_day=self.cutoff(world)
                ).run()
            finally:
                bundle.close()
            self.expected_digests.append(findings_digest(result.findings))

    def bundle_bytes(self, output) -> int:
        return tree_bytes(self.bundles[output[0]])[0]


class DetectCold(_ReadWorkload):
    """Open a fresh bundle object, run the batch pipeline, serialise."""

    name = "detect-cold"

    def operation(self):
        from repro.core.pipeline import MeasurementPipeline
        from repro.data import open_bundle

        world = self.next_world()
        path = self.env.fresh_path("findings") + ".json"
        bundle = open_bundle(self.bundles[world])
        result = MeasurementPipeline(
            bundle, revocation_cutoff_day=self.cutoff(world)
        ).run()
        result.to_json(path)
        return world, bundle, result, path

    def check(self, output) -> Optional[str]:
        world, _, result, path = output
        if not os.path.getsize(path):
            return f"world {world}: to_json wrote an empty file"
        if findings_digest(result.findings) != self.expected_digests[world]:
            return f"world {world}: findings digest differs from the set-up reference"
        return None

    def discard(self, output) -> None:
        _, bundle, _, path = output
        bundle.close()
        _remove(path)

    def op_counts(self, output) -> Dict[str, float]:
        return findings_by_class(output[2].findings)


class ReplayCheckpointed(_ReadWorkload):
    """Replay a bundle through the stream engine with checkpoints at the
    engine's default cadence; findings must equal the batch reference."""

    name = "replay-ckpt"

    def operation(self):
        from repro.data import open_bundle
        from repro.stream.checkpoint import CheckpointStore
        from repro.stream.engine import StreamEngine

        world = self.next_world()
        checkpoints = self.env.fresh_path("checkpoints")
        bundle = open_bundle(self.bundles[world])
        engine = StreamEngine(
            bundle, self.cutoff(world), checkpoint_store=CheckpointStore(checkpoints)
        )
        return world, bundle, engine.replay(), checkpoints

    def check(self, output) -> Optional[str]:
        world, _, result, _ = output
        if not result.complete:
            return f"world {world}: replay did not complete"
        if findings_digest(result.findings) != self.expected_digests[world]:
            return f"world {world}: replay findings differ from the batch reference"
        return None

    def discard(self, output) -> None:
        _, bundle, _, checkpoints = output
        bundle.close()
        _remove(checkpoints)

    def op_counts(self, output) -> Dict[str, float]:
        counts = findings_by_class(output[2].findings)
        counts["stream.max_queue_depth"] = output[2].stats.max_queue_depth
        return counts


BATCH_WORKLOADS = {
    GenStream.name: GenStream,
    DetectCold.name: DetectCold,
    ReplayCheckpointed.name: ReplayCheckpointed,
}
