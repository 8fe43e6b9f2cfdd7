"""Findings must not depend on the interpreter's string-hash seed.

``set`` iteration order changes with ``PYTHONHASHSEED``, so a detector
that emits in set order writes a different findings file in every fresh
process. Serial detect (no shard merge re-sorts its output) and a stream
replay run here in fresh interpreters under two hash seeds, and their
findings lists must be byte-identical.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.ecosystem import streamgen
from repro.ecosystem.workload import WorldConfig

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

#: Prints a full stream replay's findings list, one JSON record per line.
_REPLAY = """
import json, sys
from repro.data import open_bundle
from repro.ecosystem.timeline import DEFAULT_TIMELINE
from repro.stream import StreamEngine

bundle = open_bundle(sys.argv[1])
result = StreamEngine(bundle, DEFAULT_TIMELINE.revocation_cutoff).replay()
for finding in result.findings.all_findings():
    print(json.dumps(finding.to_record(), sort_keys=True))
"""


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("hash-seed-bundle"))
    streamgen.save_streamed(WorldConfig(seed=20231024).scaled(0.02), directory, shards=1)
    return directory


def _run(args, hash_seed: int, cwd: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=_SRC)
    completed = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr.decode()[-2000:]
    return completed.stdout


def _managed_tls_records(output: bytes) -> int:
    return output.count(b'"managed_tls_departure"')


class TestHashSeedIndependence:
    def test_serial_detect_findings_file(self, bundle_dir, tmp_path):
        outputs = []
        for hash_seed in (1, 2):
            path = tmp_path / f"findings-{hash_seed}.jsonl"
            _run(
                ["-m", "repro", "detect", "--bundle", bundle_dir, "--workers", "1",
                 "--save-findings", str(path)],
                hash_seed,
                str(tmp_path),
            )
            outputs.append(path.read_bytes())
        assert _managed_tls_records(outputs[0]) >= 2, "world needs departures to order"
        assert outputs[0] == outputs[1]

    def test_stream_replay_findings_list(self, bundle_dir, tmp_path):
        outputs = [
            _run(["-c", _REPLAY, bundle_dir], hash_seed, str(tmp_path))
            for hash_seed in (1, 2)
        ]
        assert _managed_tls_records(outputs[0]) >= 2, "world needs departures to order"
        assert outputs[0] == outputs[1]
