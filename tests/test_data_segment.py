"""Columnar segment format: round-trips, header validation, zone maps.

The segment file is the unit of the columnar bundle layout — everything
above it (tables, indexes, the ``Dataset`` API) assumes a segment either
opens with every header invariant intact or raises
:class:`SegmentFormatError` (a ``ValueError``) immediately. These tests
pin the format contract the way the CLI relies on it: corruption maps
to the existing typed errors, never to a crash mid-scan.
"""

from __future__ import annotations

import struct

import pytest

from repro.data.segment import (
    MAGIC,
    VERSION,
    I64_MAX,
    I64_MIN,
    Segment,
    SegmentFormatError,
    SegmentWriter,
)

_PREAMBLE = struct.Struct("<4sHHQ")


def sample_writer() -> SegmentWriter:
    writer = SegmentWriter("certs", meta={"origin": "test"})
    writer.add_i64("serial", [3, 1, 2, -7, I64_MAX])
    writer.add_i64("not_before", [10, 20, 30, 40, 50])
    writer.add_str("issuer", ["CA-1", "", "CA-2", "ünïcode", "CA-1"])
    writer.add_json("tags", [[], ["a"], {"k": 1}, None, ["b", "c"]])
    return writer


class TestRoundTrip:
    def test_in_memory_round_trip(self):
        segment = Segment.from_bytes(sample_writer().to_bytes())
        assert segment.table == "certs"
        assert segment.rows == 5
        assert segment.meta == {"origin": "test"}
        assert list(segment.column("serial")) == [3, 1, 2, -7, I64_MAX]
        assert list(segment.column("issuer")) == [
            "CA-1", "", "CA-2", "ünïcode", "CA-1",
        ]
        assert list(segment.column("tags")) == [
            [], ["a"], {"k": 1}, None, ["b", "c"],
        ]

    def test_file_round_trip_via_mmap(self, tmp_path):
        path = str(tmp_path / "sample.seg")
        sample_writer().write(path)
        with Segment.open(path) as segment:
            assert segment.rows == 5
            assert segment.column("serial")[3] == -7
            assert segment.column("issuer")[3] == "ünïcode"

    def test_version_and_magic_in_header(self, tmp_path):
        path = str(tmp_path / "sample.seg")
        sample_writer().write(path)
        with open(path, "rb") as handle:
            magic, version, _flags, header_len = _PREAMBLE.unpack(
                handle.read(_PREAMBLE.size)
            )
        assert magic == MAGIC
        assert version == VERSION
        assert header_len > 0

    def test_i64_extremes_survive(self):
        writer = SegmentWriter("certs")
        writer.add_i64("x", [I64_MIN, 0, I64_MAX])
        segment = Segment.from_bytes(writer.to_bytes())
        assert list(segment.column("x")) == [I64_MIN, 0, I64_MAX]

    def test_str_cells_decode_lazily(self):
        segment = Segment.from_bytes(sample_writer().to_bytes())
        column = segment.column("issuer")
        assert column.cell_bytes(0) == b"CA-1"
        assert column.cell_bytes(1) == b""

    def test_empty_segment(self):
        writer = SegmentWriter("certs")
        segment = Segment.from_bytes(writer.to_bytes())
        assert segment.rows == 0
        assert segment.column_names() == []


class TestZoneMaps:
    def test_i64_zone_map_is_min_max(self):
        segment = Segment.from_bytes(sample_writer().to_bytes())
        assert segment.zonemap["serial"] == {"min": -7, "max": I64_MAX}
        assert segment.zonemap["not_before"] == {"min": 10, "max": 50}

    def test_str_zone_map_is_lexicographic(self):
        segment = Segment.from_bytes(sample_writer().to_bytes())
        assert segment.zonemap["issuer"] == {"min": "", "max": "ünïcode"}

    def test_json_columns_have_no_zone_map(self):
        segment = Segment.from_bytes(sample_writer().to_bytes())
        assert "tags" not in segment.zonemap


class TestWriterValidation:
    def test_row_count_mismatch_rejected(self):
        writer = SegmentWriter("certs")
        writer.add_i64("a", [1, 2, 3])
        with pytest.raises(ValueError):
            writer.add_i64("b", [1, 2])

    def test_duplicate_column_rejected(self):
        writer = SegmentWriter("certs")
        writer.add_i64("a", [1])
        with pytest.raises(ValueError):
            writer.add_str("a", ["x"])


class TestCorruption:
    """Every corruption mode surfaces as SegmentFormatError (ValueError)."""

    def test_bad_magic(self):
        payload = bytearray(sample_writer().to_bytes())
        payload[0:4] = b"NOPE"
        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(bytes(payload))

    def test_unknown_version(self):
        payload = bytearray(sample_writer().to_bytes())
        payload[4:6] = struct.pack("<H", VERSION + 1)
        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(bytes(payload))

    def test_truncated_payload(self):
        payload = sample_writer().to_bytes()
        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(payload[: len(payload) // 2])

    def test_truncated_preamble(self):
        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(sample_writer().to_bytes()[:6])

    def test_zero_byte_file(self, tmp_path):
        path = tmp_path / "empty.seg"
        path.write_bytes(b"")
        with pytest.raises(SegmentFormatError):
            Segment.open(str(path))

    def test_truncated_file_on_disk(self, tmp_path):
        path = tmp_path / "short.seg"
        path.write_bytes(sample_writer().to_bytes()[:32])
        with pytest.raises(SegmentFormatError):
            Segment.open(str(path))

    def test_json_cell_holding_two_values(self):
        # Iteration parses the comma-joined cells as one array, so a cell
        # that reads as "1,2,3" must not shift the values after it.
        payload = bytearray(sample_writer().to_bytes())
        start = payload.index(b'["a"]')
        payload[start : start + 5] = b"1,2,3"
        segment = Segment.from_bytes(bytes(payload))
        with pytest.raises(SegmentFormatError, match="7 values for 5 rows"):
            list(segment.column("tags"))

    def test_format_error_is_valueerror(self):
        assert issubclass(SegmentFormatError, ValueError)


class TestLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        path = str(tmp_path / "sample.seg")
        sample_writer().write(path)
        segment = Segment.open(path)
        assert segment.column("serial")[0] == 3
        segment.close()
        segment.close()

    def test_write_is_atomic(self, tmp_path):
        # No .tmp file survives a successful write.
        path = tmp_path / "sample.seg"
        sample_writer().write(str(path))
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "sample.seg"]
        assert leftovers == []
