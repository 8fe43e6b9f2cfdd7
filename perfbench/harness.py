"""Measurement loops, statistics and result assembly for the benchmark.

Statistics use the standard library's :mod:`statistics` only: the ruler
must not import the code it measures (``repro.util.stats`` included).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.tracing import (
    DETECTORS,
    LAYERS,
    OP_SPAN,
    Instrumentation,
    Tracer,
    analyse,
)

#: Set-ups per untraced run; ``setup_s`` is their median. Each batch
#: set-up generates another world, and operations cycle over them.
SETUP_REPEATS = 4

#: End-to-end metrics (``--trace 0``): name -> (unit, better).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "qps": ("1/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
    "bundle_mib": ("MiB", "lower"),
}

#: Staleness classes counted in ``core.findings.<class>``.
FINDING_CLASSES = (
    "revoked_all", "key_compromise", "registrant_change", "managed_tls_departure",
)
#: Tables counted in ``ecosystem.rows.<table>``.
TABLES = ("certs", "revocations", "whois", "dns")

#: Per-layer metrics (``--trace 1``): name -> (unit, better). Every
#: workload reports every one; a layer a workload never reaches reads 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "ecosystem.emit_s": ("s", "lower"),
    **{f"ecosystem.rows.{table}": ("count", "higher") for table in TABLES},
    "data.append_s": ("s", "lower"),
    "data.finish_s": ("s", "lower"),
    "data.bytes_written": ("bytes", "lower"),
    "data.segments_written": ("count", "lower"),
    "data.open_s": ("s", "lower"),
    "data.crls_s": ("s", "lower"),
    "data.whois_s": ("s", "lower"),
    "data.dns_snapshot_s": ("s", "lower"),
    "data.cert_lookup_s": ("s", "lower"),
    "data.cert_lookup_calls": ("count", "lower"),
    "data.certs_hydrated": ("count", "lower"),
    "data.dns_snapshots_built": ("count", "lower"),
    "data.certs_hydrated_per_finding": ("ratio", "lower"),
    "data.segments_pruned_ratio": ("ratio", "higher"),
    **{f"core.{key}_self_s": ("s", "lower") for key in DETECTORS},
    "core.serialise_s": ("s", "lower"),
    **{f"core.findings.{cls}": ("count", "higher") for cls in FINDING_CLASSES},
    "stream.build_events_s": ("s", "lower"),
    "stream.dispatch_s": ("s", "lower"),
    "stream.events": ("count", "lower"),
    "stream.checkpoint_s": ("s", "lower"),
    "stream.checkpoints": ("count", "lower"),
    "stream.checkpoint_bytes": ("bytes", "lower"),
    "stream.max_queue_depth": ("count", "lower"),
    "serve.index_build_s": ("s", "lower"),
    "serve.app_p50_ms": ("ms", "lower"),
    "serve.app_p99_ms": ("ms", "lower"),
    "serve.host_p50_ms": ("ms", "lower"),
    "serve.http_p99_ms": ("ms", "lower"),
    "serve.response_bytes": ("bytes", "lower"),
    **{f"self.{layer}_s": ("s", "lower") for layer in LAYERS},
    "obs.untraced_op_s": ("s", "lower"),
    "obs.trace_overhead": ("ratio", "lower"),
    "error_rate": ("ratio", "lower"),
}

MIB = float(1 << 20)

#: Items the reference loop inserts and sorts.
REFERENCE_ITEMS = 150_000
#: The reference loop's time on an unloaded host (2-vCPU VM, Python
#: 3.11); normalised times are expressed at this host speed.
NOMINAL_REFERENCE_S = 0.1


# ---------------------------------------------------------------------------
# host-speed normalisation
# ---------------------------------------------------------------------------


def reference_loop() -> float:
    """Seconds for a fixed pure-Python dict build and sort."""
    started = time.perf_counter()
    table = {}
    for i in range(REFERENCE_ITEMS):
        table[str(i)] = (i, i * i % 7)
    sorted(table.items(), key=lambda item: item[1][1])
    return time.perf_counter() - started


class HostSpeed:
    """Brackets each timed interval with runs of :func:`reference_loop`.

    A shared host's CPU speed drifts by tens of percent over minutes, which
    moves every raw time together. Dividing a time by the mean of the
    reference runs just before and after it, and multiplying by
    :data:`NOMINAL_REFERENCE_S`, expresses it at a fixed nominal speed.
    The reference loop is the benchmark's own code, so it is the same on
    every commit.
    """

    def __init__(self) -> None:
        self._last = reference_loop()
        self.raw: List[float] = []
        self.reference: List[float] = []

    def refresh(self) -> None:
        """Re-run the reference loop without recording an interval."""
        self._last = reference_loop()

    def record(self, seconds: float) -> float:
        """Record *seconds* of work just finished; return it normalised."""
        now = reference_loop()
        factor = (self._last + now) / 2
        self._last = now
        self.raw.append(seconds)
        self.reference.append(factor)
        return seconds * NOMINAL_REFERENCE_S / factor

    def total(self) -> float:
        """Mean recorded interval, normalised with the pooled reference
        time: sum of work / sum of reference factors x nominal."""
        if not self.raw:
            return 0.0
        return sum(self.raw) / sum(self.reference) * NOMINAL_REFERENCE_S


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values: Sequence[float], q: int) -> float:
    """The *q*-th percentile (inclusive method), or the only value."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def reset_peak_rss() -> bool:
    """Reset this process's peak-RSS mark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_bytes(pid: Optional[int] = None) -> int:
    """``VmHWM`` of *pid* (default: this process), with a getrusage fallback."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path, "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    if pid is not None:
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def tree_bytes(directory: str) -> Tuple[int, int]:
    """(total bytes, ``*.seg`` files) under *directory*."""
    total = segments = 0
    for parent, _, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(parent, name))
            segments += name.endswith(".seg")
    return total, segments


def tree_digest(directory: str) -> Dict[str, str]:
    """Relative path -> SHA-256 of every file under *directory*."""
    digests: Dict[str, str] = {}
    for parent, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(parent, name)
            digest = hashlib.sha256()
            with open(path, "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(chunk)
            digests[os.path.relpath(path, directory)] = digest.hexdigest()
    return digests


# ---------------------------------------------------------------------------
# run bookkeeping
# ---------------------------------------------------------------------------


class Run:
    """Attempt/failure accounting for one benchmark invocation."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, problem: Optional[str]) -> bool:
        """Count one operation; *problem* is ``None`` when it was correct."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)
                print(f"[{self.workload}] operation failed: {problem}", file=sys.stderr)
        return problem is None

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def attempt(run: Run, workload, op_id: int, tracer: Optional[Tracer] = None
            ) -> Optional[Tuple[float, Any]]:
    """Run one operation, then check it; returns (seconds, output) or None.

    With a *tracer*, the operation runs under the instrumentation inside a
    root :data:`OP_SPAN` with id *op_id*. An exception counts as a failed
    operation, never aborts the run.
    """
    instrumentation = None
    if tracer is not None:
        tracer.op = op_id
        instrumentation = Instrumentation(tracer)
        instrumentation.install()
    try:
        started = time.perf_counter()
        if tracer is not None:
            tracer.begin(OP_SPAN)
        try:
            output = workload.operation()
        finally:
            if tracer is not None:
                tracer.end(OP_SPAN)
        seconds = time.perf_counter() - started
    except Exception:
        run.record("raised " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        return None
    finally:
        if instrumentation is not None:
            instrumentation.remove()
    if not run.record(workload.check(output)):
        workload.discard(output)
        return None
    return seconds, output


def measure_untraced(run: Run, workload, seconds: float) -> Dict[str, float]:
    """``--trace 0`` for the batch workloads: set up, then time operations.

    Times are normalised by :class:`HostSpeed`; ``wall_s`` is the total
    normalised operation time over the number of operations.
    """
    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.set_up()
        setups.append(speed.record(time.perf_counter() - started))
    workload.reference()
    speed = HostSpeed()
    times: List[float] = []
    peaks: List[float] = []
    bundles: List[float] = []
    began = time.perf_counter()
    op_id = 0
    # Whole rounds only, so every world weighs the same.
    while not op_id or time.perf_counter() - began < seconds or op_id % workload.worlds:
        op_id += 1
        reset_peak_rss()
        result = attempt(run, workload, op_id)
        if result is None:
            speed.refresh()
            continue
        elapsed, output = result
        times.append(speed.record(elapsed))
        peaks.append(peak_rss_bytes() / MIB)
        bundles.append(workload.bundle_bytes(output) / MIB)
        workload.discard(output)
    wall = speed.total()
    return {
        "raw_wall_s": mean(speed.raw),
        "reference_loop_s": mean(speed.reference),
        "setup_s": median(setups),
        "wall_s": wall,
        "p50_ms": median(times) * 1e3,
        "qps": 1.0 / wall if wall else 0.0,
        "peak_rss_mib": median(peaks),
        "bundle_mib": median(bundles),
    }


def _registry_segments() -> Tuple[float, float]:
    from repro.obs import get_registry, names

    registry = get_registry()
    return (
        registry.counter_total(names.DATA_SEGMENTS_OPENED),
        registry.counter_total(names.DATA_SEGMENTS_PRUNED),
    )


def measure_traced(run: Run, workload, seconds: float, trace_path: str
                   ) -> Dict[str, float]:
    """``--trace 1`` for the batch workloads: one set-up, then alternating
    untraced/traced operations; per-layer figures from the span dump."""
    workload.set_up()
    workload.reference()
    tracer = Tracer()
    untraced: List[float] = []
    traced: List[float] = []
    extras: Dict[int, Dict[str, float]] = {}
    began = time.perf_counter()
    op_id = 0
    while not op_id or time.perf_counter() - began < seconds:
        result = attempt(run, workload, 0)
        if result is not None:
            untraced.append(result[0])
            workload.discard(result[1])
        op_id += 1
        opened, pruned = _registry_segments()
        result = attempt(run, workload, op_id, tracer)
        if result is None:
            continue
        opened_after, pruned_after = _registry_segments()
        extra = dict(workload.op_counts(result[1]))
        extra["segments_opened"] = opened_after - opened
        extra["segments_pruned"] = pruned_after - pruned
        extras[op_id] = extra
        traced.append(result[0])
        workload.discard(result[1])
    tracer.dump(trace_path)
    summary = analyse(trace_path)
    for op, extra in extras.items():
        for key, value in extra.items():
            summary.add(op, key, value)
    metrics = layer_metrics(summary, summary.op_ids())
    base = mean(untraced)
    metrics["obs.untraced_op_s"] = base
    metrics["obs.trace_overhead"] = mean(traced) / base - 1.0 if base else 0.0
    return metrics


def layer_metrics(summary, ops: Sequence[int]) -> Dict[str, float]:
    """Per-op means of every per-layer figure the summary carries."""
    metrics = {name: 0.0 for name in PER_LAYER}
    keys = set()
    for op in ops:
        keys.update(summary.ops[op])
    for key in keys:
        if key in metrics:
            metrics[key] = summary.mean(key, ops)
    findings = sum(metrics[f"core.findings.{cls}"] for cls in FINDING_CLASSES)
    if findings:
        metrics["data.certs_hydrated_per_finding"] = (
            metrics["data.certs_hydrated"] / findings
        )
    opened = summary.mean("segments_opened", ops)
    pruned = summary.mean("segments_pruned", ops)
    if opened + pruned:
        metrics["data.segments_pruned_ratio"] = pruned / (opened + pruned)
    return metrics


# ---------------------------------------------------------------------------
# host facts and output
# ---------------------------------------------------------------------------


def git_sha(root: str) -> Optional[str]:
    """HEAD's commit from ``.git`` files (no subprocess); None outside git."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), "r", encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), "r", encoding="ascii") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def source_digest(src: str) -> str:
    """SHA-256 over every ``*.py`` under *src* (path + bytes, sorted)."""
    digest = hashlib.sha256()
    paths = []
    for parent, dirs, files in os.walk(src):
        dirs[:] = [name for name in dirs if name != "__pycache__"]
        paths.extend(os.path.join(parent, name) for name in files if name.endswith(".py"))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, src).encode("utf-8"))
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def host_facts(root: str, seed: int, scale: float,
               rows: Dict[int, Dict[str, int]]) -> Dict[str, Any]:
    """What a result was measured on; *rows* holds each generated world's
    per-table row counts, by world seed."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(root),
        "source_sha256": source_digest(os.path.join(root, "src")),
        "seed": seed,
        "scale": scale,
        "rows": dict(sorted(rows.items())),
    }


def result_line(run: Run, metrics: Dict[str, float],
                catalogue: Dict[str, Tuple[str, str]]) -> str:
    """The final stdout line: exactly ``correct``/``attempted``/``failed``/
    ``metrics``, with every catalogue metric and its unit."""
    return json.dumps(
        {
            "correct": run.failed == 0 and run.attempted > 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, (unit, _) in catalogue.items()
            },
        },
        sort_keys=False,
    )
