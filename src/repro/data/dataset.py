"""The unified ``Dataset`` access API over columnar bundle segments.

``Dataset.open(path)`` maps a saved columnar bundle; ``Dataset.from_bundle``
builds the same structure in memory from a live
:class:`~repro.core.pipeline.DatasetBundle`; ``write_dataset`` persists
one to disk. All three expose the same typed table handles:

=====================  ===================================================
handle                 purpose
=====================  ===================================================
``dataset.certs``      certificate corpus; ``certificate(row)`` hydration,
                       ``lookup("revkey", (akid, serial))``,
                       ``lookup("e2ld", domain)``, ``managed_rows()``
``dataset.revocations``  deduplicated CRL entries with issuer/akid
``dataset.whois``      (domain, creation day) pairs
``dataset.dns``        per-(day, apex) record observations
=====================  ===================================================

Every table supports ``scan(columns, day_range=...)`` (zone-map pruned),
``lookup(index, key)`` (sorted secondary index, binary search) and
``interval_query(lo, hi)`` (sorted interval index). Row ids are global,
stable, and identical between the on-disk and in-memory forms.

On-disk layout::

    bundle-dir/
      dataset.json            # format marker, windows, table + index map
      certs-000.seg ...       # table segments (rows_per_segment chunks)
      revocations-000.seg ...
      whois-000.seg ...
      dns-000.seg ...
      idx-certs-revkey.seg    # sorted (authority_key_id, serial, row)
      idx-certs-e2ld.seg      # sorted (e2ld, row)
      idx-certs-managed.seg   # ascending rows of CDN-managed certificates
      idx-<table>-interval.seg  # sorted (start, end, row)

A missing directory or file raises ``OSError``; a malformed manifest or
segment raises ``ValueError``; the CLI maps both to exit code 2.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from itertools import count
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.stale import StalenessClass
from repro.data import schema
from repro.data.segment import Segment, SegmentFormatError, SegmentWriter
from repro.obs import get_registry, names
from repro.pki.certificate import Certificate
from repro.revocation.crl import CrlEntry
from repro.util.dates import Day

DATASET_MANIFEST = "dataset.json"
FORMAT_NAME = "repro-columnar"
FORMAT_VERSION = 1

#: Default horizontal chunking of table segments. Small enough that zone
#: maps prune day-windowed scans, large enough that per-segment overhead
#: stays negligible at simulator scales.
DEFAULT_ROWS_PER_SEGMENT = 65536


def _manifest_error(directory: str, problem: str) -> SegmentFormatError:
    return SegmentFormatError(f"{directory}: corrupt dataset manifest: {problem}")


class Table:
    """One logical table spread over N segments, with global row ids."""

    def __init__(
        self,
        name: str,
        segments: List[Dict[str, Any]],
        loader: Callable[[str], Segment],
        indexes: Optional[Dict[str, str]] = None,
    ) -> None:
        self.name = name
        self._refs = segments  # [{"file", "rows", "zonemap"}]
        self._loader = loader
        self._indexes = dict(indexes or {})  # index name -> filename
        self._index_open: Dict[str, Segment] = {}
        self._open: Dict[str, Segment] = {}
        self._bases: List[int] = []
        base = 0
        for ref in segments:
            self._bases.append(base)
            base += ref["rows"]
        self.rows = base
        self._columns: Dict[str, "ChainedColumn"] = {}
        #: (opened, pruned) scan accounting, exposed for tests.
        self.scan_stats = {"segments_scanned": 0, "segments_pruned": 0}

    def __len__(self) -> int:
        return self.rows

    # -- segments ------------------------------------------------------------

    def _segment(self, ref: Dict[str, Any]) -> Segment:
        segment = self._open.get(ref["file"])
        if segment is None:
            segment = self._loader(ref["file"])
            if segment.table != self.name or segment.rows != ref["rows"]:
                raise SegmentFormatError(
                    f"{ref['file']}: segment does not match manifest "
                    f"(table {segment.table!r} rows {segment.rows}, "
                    f"expected {self.name!r} rows {ref['rows']})"
                )
            self._open[ref["file"]] = segment
            get_registry().counter(
                names.DATA_SEGMENTS_OPENED,
                names.DATA_SEGMENTS_OPENED_HELP,
                labels=("table",),
            ).inc(table=self.name)
        return segment

    def ensure_open(self) -> None:
        """Map and header-validate every segment (tables and indexes).

        Payload pages are still untouched — mmap is lazy per page — but
        truncation and header corruption surface here, at open time,
        instead of mid-detection. Called by :meth:`Dataset.open` so the
        CLI's OSError/ValueError → exit-2 contract holds for segments
        exactly as it does for manifests.
        """
        for ref in self._refs:
            self._segment(ref)
        for index_name in list(self._indexes):
            self._index_segment(index_name)

    def close(self) -> None:
        self._columns.clear()
        for segment in self._open.values():
            segment.close()
        self._open.clear()
        for segment in self._index_open.values():
            segment.close()
        self._index_open.clear()

    # -- columns -------------------------------------------------------------

    def column(self, name: str) -> "ChainedColumn":
        column = self._columns.get(name)
        if column is None:
            column = ChainedColumn(self, name)
            self._columns[name] = column
        return column

    def columns(self, column_names: Sequence[str]) -> Dict[str, "ChainedColumn"]:
        return {name: self.column(name) for name in column_names}

    def segments(self) -> Iterator[Tuple[int, Segment]]:
        """``(first row id, segment)`` in row order, for segment-local scans."""
        for ref, base in zip(self._refs, self._bases):
            yield base, self._segment(ref)

    def _locate(self, row: int) -> Tuple[int, int]:
        """``(segment position, local row)`` of global row id *row*."""
        if row < 0:
            row += self.rows
        if not 0 <= row < self.rows:
            raise IndexError(row)
        position = bisect_right(self._bases, row) - 1  # rightmost base <= row
        return position, row - self._bases[position]

    def _segment_row(self, row: int) -> Tuple[Segment, int]:
        """``(segment, local row)`` holding global row id *row*."""
        position, local = self._locate(row)
        return self._segment(self._refs[position]), local

    def zone_range(self, column: str) -> Optional[Tuple[Any, Any]]:
        """Aggregated (min, max) of *column* across all segment zone maps."""
        lows: List[Any] = []
        highs: List[Any] = []
        for ref in self._refs:
            zone = ref.get("zonemap", {}).get(column)
            if zone is not None:
                lows.append(zone["min"])
                highs.append(zone["max"])
        if not lows:
            return None
        return min(lows), max(highs)

    # -- scans ---------------------------------------------------------------

    def scan(
        self,
        column_names: Sequence[str],
        day_range: Optional[Tuple[Day, Day]] = None,
    ) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """Yield ``(row_id, values)`` over all segments, in row order.

        With ``day_range=(lo, hi)``, rows whose interval columns (declared
        in :data:`~repro.data.schema.INTERVAL_COLUMNS`) overlap ``[lo, hi]``
        are yielded; segments whose zone maps prove no overlap are skipped
        without being opened.
        """
        start_col = end_col = None
        if day_range is not None:
            lo, hi = day_range
            start_col, end_col = schema.INTERVAL_COLUMNS[self.name]
        for ref, base in zip(self._refs, self._bases):
            if day_range is not None and self._prunable(ref, lo, hi):
                self.scan_stats["segments_pruned"] += 1
                get_registry().counter(
                    names.DATA_SEGMENTS_PRUNED,
                    names.DATA_SEGMENTS_PRUNED_HELP,
                    labels=("table",),
                ).inc(table=self.name)
                continue
            self.scan_stats["segments_scanned"] += 1
            segment = self._segment(ref)
            columns = [segment.column(name) for name in column_names]
            if day_range is None:
                for local in range(ref["rows"]):
                    yield base + local, tuple(column[local] for column in columns)
            else:
                starts = segment.column(start_col)
                ends = segment.column(end_col)
                for local in range(ref["rows"]):
                    if starts[local] <= hi and ends[local] >= lo:
                        yield base + local, tuple(
                            column[local] for column in columns
                        )

    def _prunable(self, ref: Dict[str, Any], lo: Day, hi: Day) -> bool:
        start_col, end_col = schema.INTERVAL_COLUMNS[self.name]
        zonemap = ref.get("zonemap", {})
        start_zone = zonemap.get(start_col)
        end_zone = zonemap.get(end_col)
        if start_zone is None or end_zone is None:
            return False  # no zone map: must scan
        # No row can overlap [lo, hi] when every start is past hi or
        # every end is before lo.
        return start_zone["min"] > hi or end_zone["max"] < lo

    # -- indexes -------------------------------------------------------------

    def _index_segment(self, index_name: str) -> Segment:
        segment = self._index_open.get(index_name)
        if segment is not None:
            return segment
        filename = self._indexes.get(index_name)
        if filename is None:
            raise KeyError(f"table {self.name!r} has no index {index_name!r}")
        segment = self._loader(filename)
        self._index_open[index_name] = segment
        return segment

    def lookup(self, index_name: str, key) -> List[int]:
        """Global row ids matching *key* in a sorted secondary index.

        ``key`` is a scalar for single-column indexes and a tuple for
        compound ones; returned row ids ascend (corpus order).
        """
        segment = self._index_segment(index_name)
        key_columns = [
            segment.column(name) for name in segment.meta["key_columns"]
        ]
        if not isinstance(key, tuple):
            key = (key,)
        if len(key) != len(key_columns):
            raise ValueError(
                f"index {index_name!r} key has {len(key_columns)} parts, "
                f"got {len(key)}"
            )

        def key_at(position: int) -> Tuple[Any, ...]:
            return tuple(column[position] for column in key_columns)

        lo = _lower_bound(segment.rows, key_at, key)
        hi = _upper_bound(segment.rows, key_at, key, lo)
        row_column = segment.column("row")
        return [row_column[position] for position in range(lo, hi)]

    def interval_query(self, lo: Day, hi: Day) -> List[int]:
        """Row ids whose declared interval overlaps ``[lo, hi]``, ascending.

        Uses the sorted interval index: binary search bounds the
        ``start <= hi`` prefix, then the prefix is filtered on
        ``end >= lo``.
        """
        segment = self._index_segment("interval")
        starts = segment.column("start")
        ends = segment.column("end")
        rows = segment.column("row")
        cutoff = _lower_bound(segment.rows, lambda i: (starts[i],), (hi + 1,))
        return sorted(
            rows[position] for position in range(cutoff) if ends[position] >= lo
        )

    def has_index(self, index_name: str) -> bool:
        return index_name in self._indexes


def _lower_bound(length: int, key_at, target) -> int:
    low, high = 0, length
    while low < high:
        mid = (low + high) // 2
        if key_at(mid) < target:
            low = mid + 1
        else:
            high = mid
    return low


def _upper_bound(length: int, key_at, target, low: int = 0) -> int:
    high = length
    while low < high:
        mid = (low + high) // 2
        if key_at(mid) <= target:
            low = mid + 1
        else:
            high = mid
    return low


class ChainedColumn(Sequence):
    """One column addressed by global row id across a table's segments."""

    def __init__(self, table: Table, name: str) -> None:
        self._table = table
        self._name = name

    def __len__(self) -> int:
        return self._table.rows

    def __getitem__(self, row):
        if isinstance(row, slice):
            return [self[i] for i in range(*row.indices(len(self)))]
        segment, local = self._table._segment_row(row)
        return segment.column(self._name)[local]

    def __iter__(self):
        for _, segment in self._table.segments():
            yield from segment.column(self._name)

    def cell_bytes(self, row: int) -> bytes:
        """Raw encoded cell (str/json columns only) for value interning."""
        segment, local = self._table._segment_row(row)
        return segment.column(self._name).cell_bytes(local)


# ---------------------------------------------------------------------------
# typed table handles
# ---------------------------------------------------------------------------


class CertsTable(Table):
    """Certificate table: hydration cache plus the join indexes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._hydrated: Dict[int, Certificate] = {}
        self._local_columns: Dict[int, Dict[str, Sequence]] = {}

    def certificate(self, row: int) -> Certificate:
        """Hydrate *row* (cached), reading every cell from its own segment."""
        certificate = self._hydrated.get(row)
        if certificate is None:
            position, local = self._locate(row)
            columns = self._local_columns.get(position)
            if columns is None:
                segment = self._segment(self._refs[position])
                columns = {
                    name: segment.column(name)
                    for name, _ in schema.COLUMNS[schema.CERTS_TABLE]
                }
                self._local_columns[position] = columns
            certificate = schema.certificate_at(columns, local)
            self._hydrated[row] = certificate
        return certificate

    def close(self) -> None:
        self._local_columns.clear()
        super().close()

    def certificates(self) -> Iterator[Certificate]:
        """Every certificate in row order, hydrated column at a time: a
        segment with unhydrated rows decodes each column once into a list.
        Each new certificate's e2LDs come from the stored ``e2lds``
        column, skipping the PSL walk."""
        names = [name for name, _ in schema.COLUMNS[schema.CERTS_TABLE]]
        for base, segment in self.segments():
            columns: Optional[Dict[str, List[Any]]] = None
            for local in range(segment.rows):
                certificate = self._hydrated.get(base + local)
                if certificate is None:
                    if columns is None:
                        columns = {name: list(segment.column(name)) for name in names}
                    certificate = schema.certificate_at(columns, local)
                    e2lds = frozenset(columns["e2lds"][local])
                    object.__setattr__(certificate, "_e2lds", e2lds)
                    self._hydrated[base + local] = certificate
                yield certificate

    def rows_for_revocation_key(self, key: Tuple[str, int]) -> List[int]:
        return self.lookup("revkey", key)

    def rows_for_e2ld(self, registrable: str) -> List[int]:
        return self.lookup("e2ld", registrable)

    def managed_rows(self) -> List[int]:
        """Rows of CDN-managed certificates, ascending (corpus order)."""
        segment = self._index_segment("managed")
        return list(segment.column("row"))


class RevocationsTable(Table):
    """Deduplicated CRL entries with their issuing (issuer, akid)."""

    def entry(self, row: int) -> CrlEntry:
        segment, local = self._segment_row(row)
        columns = {
            name: segment.column(name)
            for name in ("serial", "revocation_day", "reason")
        }
        return schema.revocation_entry_at(columns, local)

    def issuer_rows(self) -> Iterator[Tuple[int, str, str]]:
        """Yield ``(row, issuer_name, authority_key_id)`` in row order."""
        return zip(
            count(), self.column("issuer_name"), self.column("authority_key_id")
        )


class WhoisTable(Table):
    def pairs(self) -> List[Tuple[str, Day]]:
        return list(zip(self.column("domain"), self.column("creation_day")))


class DnsTable(Table):
    def observation(self, row: int) -> Tuple[Day, str, Dict[str, List[str]]]:
        columns = self.columns(("day", "apex", "records"))
        return (
            columns["day"][row],
            columns["apex"][row],
            columns["records"][row],
        )


_TABLE_CLASSES: Dict[str, type] = {
    schema.CERTS_TABLE: CertsTable,
    schema.REVOCATIONS_TABLE: RevocationsTable,
    schema.WHOIS_TABLE: WhoisTable,
    schema.DNS_TABLE: DnsTable,
}


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------


class Dataset:
    """A columnar bundle: four typed tables plus observation windows."""

    def __init__(
        self,
        tables: Dict[str, Table],
        windows: Dict[StalenessClass, Tuple[Day, Day]],
        directory: Optional[str] = None,
    ) -> None:
        self._tables = tables
        self.windows = windows
        self.directory = directory

    # -- constructors --------------------------------------------------------

    @classmethod
    def open(cls, directory: str) -> "Dataset":
        """Map a saved columnar bundle (segments open lazily)."""
        manifest_path = os.path.join(directory, DATASET_MANIFEST)
        with open(manifest_path, "r", encoding="utf-8") as handle:
            try:
                manifest = json.load(handle)
            except json.JSONDecodeError as error:
                raise _manifest_error(directory, str(error)) from error
        if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
            raise _manifest_error(directory, "missing format marker")
        if manifest.get("version") != FORMAT_VERSION:
            raise _manifest_error(
                directory,
                f"unsupported version {manifest.get('version')!r} "
                f"(this reader understands {FORMAT_VERSION})",
            )

        def loader(filename: str) -> Segment:
            return Segment.open(os.path.join(directory, filename))

        tables: Dict[str, Table] = {}
        try:
            for name in schema.TABLE_NAMES:
                spec = manifest["tables"][name]
                tables[name] = _TABLE_CLASSES[name](
                    name,
                    spec["segments"],
                    loader,
                    indexes=spec.get("indexes", {}),
                )
            windows = {
                StalenessClass(value): (window[0], window[1])
                for value, window in manifest.get("windows", {}).items()
            }
        except (KeyError, TypeError, ValueError) as error:
            raise _manifest_error(directory, repr(error)) from error
        dataset = cls(tables, windows, directory=directory)
        try:
            for table in tables.values():
                table.ensure_open()
        except Exception:
            dataset.close()
            raise
        return dataset

    @classmethod
    def from_bundle(
        cls, bundle, rows_per_segment: int = DEFAULT_ROWS_PER_SEGMENT
    ) -> "Dataset":
        """Build the columnar form in memory (no files touched)."""
        manifest, writers = _build_segments(bundle, rows_per_segment)
        segments = {
            filename: Segment.from_bytes(writer.to_bytes(), source=filename)
            for filename, writer in writers
        }

        def loader(filename: str) -> Segment:
            return segments[filename]

        tables: Dict[str, Table] = {}
        for name in schema.TABLE_NAMES:
            spec = manifest["tables"][name]
            tables[name] = _TABLE_CLASSES[name](
                name, spec["segments"], loader, indexes=spec.get("indexes", {})
            )
        windows = dict(bundle.windows)
        return cls(tables, windows, directory=None)

    # -- access --------------------------------------------------------------

    def table(self, name: str) -> Table:
        return self._tables[name]

    @property
    def certs(self) -> CertsTable:
        return self._tables[schema.CERTS_TABLE]  # type: ignore[return-value]

    @property
    def revocations(self) -> RevocationsTable:
        return self._tables[schema.REVOCATIONS_TABLE]  # type: ignore[return-value]

    @property
    def whois(self) -> WhoisTable:
        return self._tables[schema.WHOIS_TABLE]  # type: ignore[return-value]

    @property
    def dns(self) -> DnsTable:
        return self._tables[schema.DNS_TABLE]  # type: ignore[return-value]

    def to_bundle(self):
        """A lazy :class:`~repro.core.pipeline.DatasetBundle` stand-in."""
        from repro.data.bundle import ColumnarBundle

        return ColumnarBundle(self)

    def close(self) -> None:
        """Release every mapped segment (memoryviews first, then mmaps)."""
        for table in self._tables.values():
            table.close()

    def __enter__(self) -> "Dataset":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def _chunk(count: int, rows_per_segment: int) -> List[Tuple[int, int]]:
    if count == 0:
        return [(0, 0)]
    return [
        (start, min(start + rows_per_segment, count))
        for start in range(0, count, rows_per_segment)
    ]


def _table_writers(
    name: str,
    values: Dict[str, List[Any]],
    rows_per_segment: int,
) -> List[Tuple[str, SegmentWriter]]:
    column_spec = schema.COLUMNS[name]
    count = len(values[column_spec[0][0]])
    writers: List[Tuple[str, SegmentWriter]] = []
    for ordinal, (start, end) in enumerate(_chunk(count, rows_per_segment)):
        writer = SegmentWriter(name)
        for column_name, kind in column_spec:
            adder = {
                "i64": writer.add_i64,
                "str": writer.add_str,
                "json": writer.add_json,
            }[kind]
            adder(column_name, values[column_name][start:end])
        writers.append((f"{name}-{ordinal:03d}.seg", writer))
    return writers


def _index_writer(
    table: str,
    index_name: str,
    key_columns: Sequence[Tuple[str, str]],
    entries: List[Tuple],
) -> Tuple[str, SegmentWriter]:
    """One sorted index segment: key columns plus the global ``row``."""
    entries = sorted(entries)
    writer = SegmentWriter(
        f"idx-{table}-{index_name}",
        meta={"key_columns": [name for name, _ in key_columns]},
    )
    for position, (name, kind) in enumerate(key_columns):
        adder = writer.add_i64 if kind == "i64" else writer.add_str
        adder(name, [entry[position] for entry in entries])
    writer.add_i64("row", [entry[len(key_columns)] for entry in entries])
    return f"idx-{table}-{index_name}.seg", writer


def _deduplicated_revocation_rows(crls) -> List[Tuple[str, str, int, int, str]]:
    """(issuer, akid, serial, day, reason) rows, first record per
    (akid, serial) kept, in CRL then entry order."""
    seen: set = set()
    rows: List[Tuple[str, str, int, int, str]] = []
    for crl in crls:
        for entry in crl.entries:
            key = (crl.authority_key_id, entry.serial)
            if key in seen:
                continue
            seen.add(key)
            rows.append(
                (
                    crl.issuer_name,
                    crl.authority_key_id,
                    entry.serial,
                    entry.revocation_day,
                    entry.reason.name,
                )
            )
    return rows


def _dns_rows(store) -> Tuple[List[int], List[str], List[Dict[str, List[str]]]]:
    days: List[int] = []
    apexes: List[str] = []
    records: List[Dict[str, List[str]]] = []
    if store is None:
        return days, apexes, records
    for scan_day in store.days():
        snapshot = store.get(scan_day)
        for apex in sorted(snapshot.apexes()):
            observation = snapshot.get(apex)
            days.append(scan_day)
            apexes.append(apex)
            records.append(
                {key: sorted(value) for key, value in observation.rdatas.items()}
            )
    return days, apexes, records


def _build_segments(
    bundle, rows_per_segment: int
) -> Tuple[Dict[str, Any], List[Tuple[str, SegmentWriter]]]:
    """The full segment plan for *bundle*: (manifest, [(file, writer)])."""
    from repro.core.detectors.managed_tls import is_cloudflare_managed_certificate

    writers: List[Tuple[str, SegmentWriter]] = []
    tables: Dict[str, Any] = {}

    # -- certificates, in corpus iteration order -----------------------------
    certificates = list(bundle.corpus.certificates())
    cert_values = schema.certificate_column_values(certificates)
    cert_writers = _table_writers(
        schema.CERTS_TABLE, cert_values, rows_per_segment
    )
    writers.extend(cert_writers)

    revkey_entries = [
        (certificate.authority_key_id, certificate.serial, row)
        for row, certificate in enumerate(certificates)
    ]
    e2ld_entries = [
        (registrable, row)
        for row, registrable_list in enumerate(cert_values["e2lds"])
        for registrable in registrable_list
    ]
    managed_entries = [
        (row,)
        for row, certificate in enumerate(certificates)
        if is_cloudflare_managed_certificate(certificate)
    ]
    cert_indexes = {
        "revkey": _index_writer(
            schema.CERTS_TABLE,
            "revkey",
            (("authority_key_id", "str"), ("serial", "i64")),
            revkey_entries,
        ),
        "e2ld": _index_writer(
            schema.CERTS_TABLE, "e2ld", (("e2ld", "str"),), e2ld_entries
        ),
        "managed": _index_writer(
            schema.CERTS_TABLE, "managed", (), managed_entries
        ),
        "interval": _index_writer(
            schema.CERTS_TABLE,
            "interval",
            (("start", "i64"), ("end", "i64")),
            [
                (certificate.not_before, certificate.not_after, row)
                for row, certificate in enumerate(certificates)
            ],
        ),
    }

    # -- revocations ---------------------------------------------------------
    revocation_rows = _deduplicated_revocation_rows(bundle.crls)
    revocation_writers = _table_writers(
        schema.REVOCATIONS_TABLE,
        schema.revocation_column_values(revocation_rows),
        rows_per_segment,
    )
    writers.extend(revocation_writers)
    revocation_indexes = {
        "interval": _index_writer(
            schema.REVOCATIONS_TABLE,
            "interval",
            (("start", "i64"), ("end", "i64")),
            [(row[3], row[3], position) for position, row in enumerate(revocation_rows)],
        )
    }

    # -- whois ---------------------------------------------------------------
    whois_writers = _table_writers(
        schema.WHOIS_TABLE,
        {
            "domain": [domain for domain, _ in bundle.whois_creation_pairs],
            "creation_day": [day for _, day in bundle.whois_creation_pairs],
        },
        rows_per_segment,
    )
    writers.extend(whois_writers)
    whois_indexes = {
        "interval": _index_writer(
            schema.WHOIS_TABLE,
            "interval",
            (("start", "i64"), ("end", "i64")),
            [
                (day, day, position)
                for position, (_, day) in enumerate(bundle.whois_creation_pairs)
            ],
        )
    }

    # -- dns -----------------------------------------------------------------
    dns_days, dns_apexes, dns_records = _dns_rows(bundle.dns_snapshots)
    dns_writers = _table_writers(
        schema.DNS_TABLE,
        {"day": dns_days, "apex": dns_apexes, "records": dns_records},
        rows_per_segment,
    )
    writers.extend(dns_writers)
    dns_indexes = {
        "interval": _index_writer(
            schema.DNS_TABLE,
            "interval",
            (("start", "i64"), ("end", "i64")),
            [(day, day, position) for position, day in enumerate(dns_days)],
        )
    }

    for name, table_writers, indexes in (
        (schema.CERTS_TABLE, cert_writers, cert_indexes),
        (schema.REVOCATIONS_TABLE, revocation_writers, revocation_indexes),
        (schema.WHOIS_TABLE, whois_writers, whois_indexes),
        (schema.DNS_TABLE, dns_writers, dns_indexes),
    ):
        writers.extend(indexes.values())
        tables[name] = {
            "rows": sum(writer.rows for _, writer in table_writers),
            "segments": [
                {
                    "file": filename,
                    "rows": writer.rows,
                    "zonemap": writer._zonemap,
                }
                for filename, writer in table_writers
            ],
            "indexes": {
                index_name: filename
                for index_name, (filename, _) in indexes.items()
            },
        }

    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "windows": {
            cls.value: list(window) for cls, window in bundle.windows.items()
        },
        "tables": tables,
    }
    return manifest, writers


def write_dataset(
    bundle,
    directory: str,
    rows_per_segment: int = DEFAULT_ROWS_PER_SEGMENT,
) -> Dict[str, int]:
    """Persist *bundle* as a columnar dataset; returns per-table rows."""
    manifest, writers = _build_segments(bundle, rows_per_segment)
    os.makedirs(directory, exist_ok=True)
    for filename, writer in writers:
        writer.write(os.path.join(directory, filename))
    manifest_path = os.path.join(directory, DATASET_MANIFEST)
    tmp_path = manifest_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    os.replace(tmp_path, manifest_path)
    return {name: spec["rows"] for name, spec in manifest["tables"].items()}


def open_bundle(directory: str):
    """Open the columnar bundle at *directory* as a lazy
    :class:`~repro.data.bundle.ColumnarBundle`.

    A missing directory or manifest raises ``OSError``; a malformed
    manifest or segment raises ``ValueError``.
    """
    return Dataset.open(directory).to_bundle()
