"""Benchmark-side span tracing of the program's layer entry points.

Nothing here edits the program: :class:`Instrumentation` wraps the
public entry points listed in :data:`SEAMS` from outside, for the
duration of one traced operation, and restores the originals afterwards
so untraced operations run the unmodified code.

Spans live in memory (:class:`Tracer`) and are dumped once, at the end
of the run, as Chrome trace-event ``B``/``E`` pairs — the format
``python -m repro profile`` reads. :func:`analyse` then computes every
per-layer figure from that dump file, not from the in-memory buffer.

Span names are ``<layer>.<entry point>``; the layer is the first dotted
component (``bench`` for the benchmark's own root span per operation).
Generator results are wrapped so each ``next()`` is a span named
``<name>.next`` — time spent producing items, not time the consumer holds
the generator.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Layers whose entry points are wrapped, plus the benchmark's own root.
LAYERS = ("bench", "ecosystem", "data", "core", "stream", "serve")

#: Root span of one measured operation.
OP_SPAN = "bench.op"
#: Root span of traced set-up work (serve-http's in-process index build).
SETUP_SPAN = "bench.setup"


class Tracer:
    """In-memory span buffer for one process and thread.

    Events are kept as compact tuples and turned into Chrome trace-event
    dicts only by :meth:`dump`.
    """

    def __init__(self) -> None:
        self._events: List[Tuple[str, str, float, int, Optional[str]]] = []
        self._stack: List[str] = []
        self._origin = time.perf_counter_ns()
        #: Id of the operation the next spans belong to.
        self.op = 0
        #: Event counts recorded at the seams (not spans): op -> key -> n.
        self.counts: Dict[int, Dict[str, int]] = {}

    def _now_us(self) -> float:
        return (time.perf_counter_ns() - self._origin) / 1000.0

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        self._events.append(("B", name, self._now_us(), self.op, parent))

    def end(self, name: str, status: str = "ok") -> None:
        self._events.append(("E", name, self._now_us(), self.op, status))
        self._stack.pop()

    def count(self, key: str, amount: int = 1) -> None:
        counts = self.counts.setdefault(self.op, {})
        counts[key] = counts.get(key, 0) + amount

    def dump(self, path: str) -> str:
        """Write the buffer as a Chrome trace-event document."""
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "perfbench"}},
        ]
        for phase, name, ts, op, extra in self._events:
            if phase == "B":
                args: Dict[str, Any] = {"op": op, "parent": extra}
            else:
                args = {"op": op, "status": extra}
            events.append(
                {"name": name, "ph": phase, "ts": ts, "pid": 0, "tid": 1, "args": args}
            )
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "perfbench",
                "counts": {str(op): counts for op, counts in self.counts.items()},
            },
        }
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
        os.replace(tmp_path, path)
        return path


# ---------------------------------------------------------------------------
# seams
# ---------------------------------------------------------------------------

#: Observer run after a spanned call returns: ``(tracer, args, result)``.
Observer = Callable[[Tracer, tuple, Any], None]


def _count_rows(tracer: Tracer, args: tuple, item: Any) -> None:
    table, rows = item
    tracer.count("ecosystem.rows." + table, len(rows))


def _count_events(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("stream.events", int(result))


def _count_checkpoint(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("stream.checkpoints")
    tracer.count("stream.checkpoint_bytes", os.path.getsize(result))


def _detector_span(args: tuple) -> str:
    return "core.detector." + args[0].key


class Seam:
    """One wrapped entry point.

    ``target`` is ``"module:attribute"`` or ``"module:Class.attribute"``.
    ``span`` names the span (or ``span_of(args)`` computes it); a seam with
    ``counter`` set records only a call count — for per-row hot paths
    where a span would cost more than the work it times.
    """

    def __init__(
        self,
        target: str,
        span: Optional[str] = None,
        span_of: Optional[Callable[[tuple], str]] = None,
        counter: Optional[str] = None,
        observe: Optional[Observer] = None,
        observe_items: Optional[Observer] = None,
    ) -> None:
        self.target = target
        self.span = span
        self.span_of = span_of
        self.counter = counter
        self.observe = observe
        self.observe_items = observe_items


SEAMS: Tuple[Seam, ...] = (
    # repro.ecosystem — the streamed world generator.
    Seam("repro.ecosystem.streamgen:save_streamed", "ecosystem.save_streamed"),
    Seam("repro.ecosystem.streamgen:stream_rows", "ecosystem.stream_rows",
         observe_items=_count_rows),
    # repro.data, write side.
    Seam("repro.data.streamwrite:StreamingDatasetWriter.extend", "data.append"),
    Seam("repro.data.streamwrite:StreamingDatasetWriter.finish", "data.finish"),
    # repro.data, read side.
    Seam("repro.data.dataset:open_bundle", "data.open_bundle"),
    Seam("repro.data.bundle:ColumnarBundle.crls", "data.crls"),
    Seam("repro.data.bundle:ColumnarBundle.whois_creation_pairs", "data.whois"),
    Seam("repro.data.bundle:ColumnarBundle.dns_snapshots", "data.dns.store"),
    Seam("repro.data.bundle:LazySnapshotStore.get", "data.dns.get"),
    Seam("repro.data.bundle:LazySnapshotStore.days", "data.dns.days"),
    Seam("repro.data.bundle:LazySnapshotStore.consecutive_pairs", "data.dns.pairs"),
    Seam("repro.data.bundle:LazySnapshotStore._materialize",
         counter="data.dns_snapshots_built"),
    Seam("repro.data.bundle:ColumnarBundle.corpus", "data.cert_lookup.corpus"),
    Seam("repro.data.bundle:ColumnarCorpus.certificates",
         "data.cert_lookup.certificates"),
    Seam("repro.data.bundle:ColumnarCorpus.certificates_for_e2ld",
         "data.cert_lookup.e2ld"),
    Seam("repro.data.bundle:ColumnarCorpus.managed_certificates",
         "data.cert_lookup.managed"),
    Seam("repro.data.bundle:ColumnarCorpus.covering_domain",
         "data.cert_lookup.covering"),
    Seam("repro.data.bundle:ColumnarCorpus.with_san_suffix",
         "data.cert_lookup.san_suffix"),
    Seam("repro.data.bundle:RevocationKeyView.get", "data.cert_lookup.revkey"),
    Seam("repro.data.bundle:RevocationKeyView.__contains__",
         "data.cert_lookup.revkey_has"),
    Seam("repro.data.schema:certificate_at", counter="data.certs_hydrated"),
    # repro.core — the batch pipeline and its detectors.
    Seam("repro.core.pipeline:MeasurementPipeline.run", "core.pipeline_run"),
    Seam("repro.core.pipeline:run_detector", span_of=_detector_span),
    Seam("repro.core.pipeline:PipelineResult.to_json", "core.to_json"),
    # repro.stream — incremental replay.
    Seam("repro.stream.engine:StreamEngine.__init__", "stream.engine_init"),
    Seam("repro.stream.engine:StreamEngine.replay", "stream.replay"),
    Seam("repro.stream.engine:build_event_stream", "stream.build_events"),
    Seam("repro.stream.bus:EventBus.publish_all", "stream.dispatch.publish"),
    Seam("repro.stream.bus:EventBus.drain", "stream.dispatch.drain",
         observe=_count_events),
    Seam("repro.stream.checkpoint:CheckpointStore.save", "stream.checkpoint",
         observe=_count_checkpoint),
    # repro.serve — the query service, in process.
    Seam("repro.serve.server:call_app", "serve.call_app"),
    Seam("repro.serve.app:StalenessApp.__call__", "serve.app"),
    Seam("repro.serve.index:FindingsIndex.__init__", "serve.index_build"),
    Seam("repro.serve.index:FindingsIndex.domain", "serve.index.domain"),
    Seam("repro.serve.index:FindingsIndex.aggregates", "serve.index.aggregates"),
    Seam("repro.serve.index:FindingsIndex.survival", "serve.index.survival"),
    Seam("repro.serve.index:FindingsIndex.caps", "serve.index.caps"),
)


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attribute = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attribute


def _traced_items(tracer: Tracer, name: str, items: Iterator, args: tuple,
                  observe: Optional[Observer]) -> Iterator:
    step = name + ".next"
    try:
        while True:
            tracer.begin(step)
            try:
                item = next(items)
            except StopIteration:
                tracer.end(step)
                return
            except BaseException:
                tracer.end(step, "error")
                raise
            tracer.end(step)
            if observe is not None:
                observe(tracer, args, item)
            yield item
    finally:
        close = getattr(items, "close", None)
        if close is not None:
            close()


def _wrap(tracer: Tracer, seam: Seam, function: Callable) -> Callable:
    if seam.counter is not None:
        key = seam.counter

        @functools.wraps(function)
        def counted(*args, **kwargs):
            tracer.count(key)
            return function(*args, **kwargs)

        return counted

    @functools.wraps(function)
    def spanned(*args, **kwargs):
        name = seam.span if seam.span_of is None else seam.span_of(args)
        tracer.begin(name)
        try:
            result = function(*args, **kwargs)
        except BaseException:
            tracer.end(name, "error")
            raise
        tracer.end(name)
        if seam.observe is not None:
            seam.observe(tracer, args, result)
        if isinstance(result, types.GeneratorType):
            return _traced_items(tracer, name, result, args, seam.observe_items)
        return result

    return spanned


class Instrumentation:
    """Install every seam's wrapper; :meth:`remove` restores the originals.

    A module-level function is replaced in its defining module and in every
    loaded ``repro`` module that imported the same object by name, so calls
    through re-exports (``repro.data.open_bundle``) are traced too.
    """

    def __init__(self, tracer: Tracer, seams: Sequence[Seam] = SEAMS) -> None:
        self._tracer = tracer
        self._seams = seams
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        for seam in self._seams:
            owner, attribute = _resolve(seam.target)
            if isinstance(owner, type):
                raw = owner.__dict__[attribute]
                if isinstance(raw, property):
                    wrapped: Any = property(_wrap(self._tracer, seam, raw.fget))
                else:
                    wrapped = _wrap(self._tracer, seam, raw)
                self._saved.append((owner, attribute, raw))
                setattr(owner, attribute, wrapped)
                continue
            original = getattr(owner, attribute)
            wrapped = _wrap(self._tracer, seam, original)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                if module.__dict__.get(attribute) is original:
                    self._saved.append((module, attribute, original))
                    setattr(module, attribute, wrapped)

    def remove(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


# ---------------------------------------------------------------------------
# analysis of a dump
# ---------------------------------------------------------------------------

#: Per-layer time metrics: metric -> span-name prefix. The time is the
#: summed duration of the outermost spans matching the prefix (nested
#: matches are not counted twice), so it includes any callees.
TIME_GROUPS: Dict[str, str] = {
    "ecosystem.emit_s": "ecosystem.stream_rows",
    "data.append_s": "data.append",
    "data.finish_s": "data.finish",
    "data.open_s": "data.open_bundle",
    "data.crls_s": "data.crls",
    "data.whois_s": "data.whois",
    "data.dns_snapshot_s": "data.dns",
    "data.cert_lookup_s": "data.cert_lookup",
    "core.serialise_s": "core.to_json",
    "stream.build_events_s": "stream.build_events",
    "stream.dispatch_s": "stream.dispatch",
    "stream.checkpoint_s": "stream.checkpoint",
    "serve.index_build_s": "serve.index_build",
}

#: Call-count metrics: metric -> prefix; counts outermost calls, not
#: generator steps.
CALL_GROUPS: Dict[str, str] = {
    "data.cert_lookup_calls": "data.cert_lookup",
}

#: Detectors whose core self time is reported (``core.<key>_self_s``).
DETECTORS = ("key_compromise", "registrant_change", "managed_tls")


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


class TraceSummary:
    """Per-op totals computed from one dump, keyed by op id."""

    def __init__(self) -> None:
        self.ops: Dict[int, Dict[str, float]] = {}

    def add(self, op: int, key: str, value: float) -> None:
        totals = self.ops.setdefault(op, {})
        totals[key] = totals.get(key, 0.0) + value

    def op_ids(self) -> List[int]:
        """Ids of the measured operations (those with a root span)."""
        return sorted(op for op, totals in self.ops.items() if OP_SPAN + "#" in totals)

    def mean(self, key: str, ops: Sequence[int]) -> float:
        if not ops:
            return 0.0
        return sum(self.ops[op].get(key, 0.0) for op in ops) / len(ops)


def analyse(path: str) -> TraceSummary:
    """Pair the dump's ``B``/``E`` events and total them per operation.

    Per op, the summary holds: every :data:`TIME_GROUPS` and
    :data:`CALL_GROUPS` metric; ``self.<layer>_s`` (span duration minus
    direct children, summed by layer — these tile the root span exactly);
    ``core.<detector>_self_s`` (core-layer self time under that
    detector's span); the seam counts; and ``<root>#`` / ``<root>_s`` for
    the root span.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    summary = TraceSummary()
    for op, counts in document["otherData"]["counts"].items():
        for key, value in counts.items():
            summary.add(int(op), key, value)
    stack: List[List[Any]] = []  # [name, start_us, child_s, op, detector, outermost]
    open_by_prefix: Dict[str, int] = {}
    prefixes = sorted(set(TIME_GROUPS.values()) | set(CALL_GROUPS.values()))
    for event in document["traceEvents"]:
        phase = event.get("ph")
        if phase == "B":
            name = event["name"]
            op = int(event["args"]["op"])
            detector = stack[-1][4] if stack else None
            if name.startswith("core.detector."):
                detector = name[len("core.detector."):]
            outermost = []
            for prefix in prefixes:
                if _matches(name, prefix):
                    if not open_by_prefix.get(prefix):
                        outermost.append(prefix)
                    open_by_prefix[prefix] = open_by_prefix.get(prefix, 0) + 1
            stack.append([name, float(event["ts"]), 0.0, op, detector, outermost])
            if name in (OP_SPAN, SETUP_SPAN):
                summary.add(op, name + "#", 1)
        elif phase == "E":
            name, start, child_s, op, detector, outermost = stack.pop()
            if name != event["name"]:
                raise ValueError(f"{path}: unbalanced span {event['name']!r}")
            duration = (float(event["ts"]) - start) / 1e6
            self_s = max(0.0, duration - child_s)
            if stack:
                stack[-1][2] += duration
            layer = name.split(".", 1)[0]
            summary.add(op, f"self.{layer}_s", self_s)
            if layer == "core" and detector is not None:
                summary.add(op, f"core.{detector}_self_s", self_s)
            for prefix in prefixes:
                if _matches(name, prefix):
                    open_by_prefix[prefix] -= 1
            for prefix in outermost:
                for metric, group in TIME_GROUPS.items():
                    if group == prefix:
                        summary.add(op, metric, duration)
                if not name.endswith(".next"):
                    for metric, group in CALL_GROUPS.items():
                        if group == prefix:
                            summary.add(op, metric, 1)
            if name in (OP_SPAN, SETUP_SPAN):
                summary.add(op, name + "_s", duration)
    if stack:
        raise ValueError(f"{path}: {len(stack)} span(s) never closed")
    return summary
