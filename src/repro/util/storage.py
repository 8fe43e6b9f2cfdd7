"""JSON-lines persistence for simulated datasets.

Long-running measurement pipelines checkpoint their intermediate datasets
(certificates seen in CT, daily DNS snapshots, WHOIS records) so analyses can
re-run without re-simulating. Records are plain dicts; dataclass-backed
records expose ``to_record``/``from_record`` hooks.
"""

from __future__ import annotations

import gzip
import json
import os
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional


def dump_jsonl(path: str, records: Iterable[Dict[str, Any]]) -> int:
    """Write records to a (optionally gzipped) JSONL file; returns the count."""
    count = 0
    opener = gzip.open if path.endswith(".gz") else open
    tmp_path = path + ".tmp"
    with opener(tmp_path, "wt", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":"), sort_keys=True))
            handle.write("\n")
            count += 1
    os.replace(tmp_path, path)
    return count


def dump_json(path: str, obj: Any) -> str:
    """Atomically write one JSON document (gzip-aware); returns the path.

    Used for single-document state (stream checkpoints) where JSONL's
    record-per-line framing does not fit. The write goes through a ``.tmp``
    sibling plus :func:`os.replace` so a crash mid-write never leaves a
    truncated document behind. One ``json.dumps`` (the C encoder, which
    ``json.dump`` never uses) and a single write.
    """
    opener = gzip.open if path.endswith(".gz") else open
    tmp_path = path + ".tmp"
    with opener(tmp_path, "wt", encoding="utf-8") as handle:
        handle.write(json.dumps(obj, separators=(",", ":"), sort_keys=True))
    os.replace(tmp_path, path)
    return path


def load_json(path: str) -> Any:
    """Read one JSON document written by :func:`dump_json`."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON document") from exc


def load_jsonl(path: str) -> Iterator[Dict[str, Any]]:
    """Stream records back from a JSONL file written by :func:`dump_jsonl`."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: malformed JSONL") from exc


class JsonlStore:
    """A small append-friendly store of homogeneous records on disk.

    Parameters
    ----------
    path:
        File path; a ``.gz`` suffix enables transparent compression.
    encode / decode:
        Optional converters between domain objects and plain dicts.
    """

    def __init__(
        self,
        path: str,
        encode: Optional[Callable[[Any], Dict[str, Any]]] = None,
        decode: Optional[Callable[[Dict[str, Any]], Any]] = None,
    ) -> None:
        self.path = path
        self._encode = encode or (lambda obj: obj)
        self._decode = decode or (lambda rec: rec)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def write(self, objects: Iterable[Any]) -> int:
        return dump_jsonl(self.path, (self._encode(obj) for obj in objects))

    def read(self) -> Iterator[Any]:
        for record in load_jsonl(self.path):
            yield self._decode(record)

    def read_all(self) -> List[Any]:
        return list(self.read())
