"""Checkpoint persistence for the streaming engine.

A checkpoint is one gzipped JSON document holding the replay cursor (last
fully processed event day), the cumulative :class:`StreamStats`, and each
detector's non-derivable state. Certificates are referenced by dedup
fingerprint only — the engine re-ingests the CT prefix from the bundle on
resume, so checkpoints stay small (kilobytes, not the corpus).

Writes are atomic (tmp + rename via :func:`repro.util.storage.dump_json`),
so a kill mid-checkpoint leaves the previous checkpoint intact. A bundle
fingerprint guards against resuming against a different world; mismatch
raises :class:`CheckpointMismatchError` rather than silently diverging, and
an unreadable (truncated/corrupt) file raises :class:`CheckpointCorruptError`
naming the path instead of leaking a raw gzip/JSON traceback.
"""

from __future__ import annotations

import os
import zlib
from typing import Optional

from repro.util.storage import dump_json, load_json

#: Bumped whenever the checkpoint layout changes incompatibly. v2 keeps the
#: managed-TLS ``last_view`` as ``{apex: [Cloudflare targets]}`` for
#: Cloudflare-delegated apexes only, plus its departure counter.
CHECKPOINT_FORMAT_VERSION = 2


class CheckpointError(RuntimeError):
    """Base class for checkpoint load/restore failures."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint on disk does not belong to the bundle being replayed."""


class CheckpointCorruptError(CheckpointError):
    """The checkpoint file exists but cannot be read back.

    Raised for truncated gzip streams, corrupt compressed data, and
    malformed JSON — a kill mid-:func:`~repro.util.storage.dump_json`
    cannot produce these (writes are atomic), but disk faults, manual
    edits, and copied partial files can.
    """


class CheckpointStore:
    """Single-slot checkpoint in a directory (latest state wins)."""

    FILENAME = "stream-checkpoint.json.gz"

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.path = os.path.join(directory, self.FILENAME)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def save(self, state: dict) -> str:
        os.makedirs(self.directory, exist_ok=True)
        document = dict(state)
        document["format_version"] = CHECKPOINT_FORMAT_VERSION
        return dump_json(self.path, document)

    def load(self) -> Optional[dict]:
        """The stored state, or None when no checkpoint exists yet.

        Raises :class:`CheckpointCorruptError` for unreadable files and
        :class:`CheckpointMismatchError` for incompatible format versions.
        """
        if not self.exists():
            return None
        try:
            # gzip raises BadGzipFile (an OSError) on corrupt headers,
            # EOFError on truncation, zlib.error on corrupt deflate data;
            # load_json wraps malformed JSON into ValueError.
            document = load_json(self.path)
        except (EOFError, OSError, ValueError, zlib.error) as error:
            raise CheckpointCorruptError(
                f"checkpoint {self.path} is truncated or corrupt ({error}); "
                "delete it (or run without --resume) to start fresh"
            ) from error
        if not isinstance(document, dict):
            raise CheckpointCorruptError(
                f"checkpoint {self.path} does not hold a checkpoint document"
            )
        version = document.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointMismatchError(
                f"checkpoint format v{version} != supported v{CHECKPOINT_FORMAT_VERSION}"
            )
        return document

    def clear(self) -> None:
        if self.exists():
            os.remove(self.path)
