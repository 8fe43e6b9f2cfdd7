"""Performance benchmark — columnar cold detect vs the in-memory bundle.

Not a paper experiment: quantifies what reading the bench world back
from its saved columnar segments costs, against running the same batch
pipeline on the in-memory :class:`~repro.core.pipeline.DatasetBundle`
the segments were written from.

* **bundle-open** — ``open_bundle`` maps segments lazily (header
  validation only), so it is reported on its own.
* **cold detect** — end-to-end ``open_bundle`` + batch pipeline run,
  which hydrates only the rows the detectors touch (index lookups +
  interned DNS observations). Its findings must be *identical* to the
  in-memory run, checked canonically; the time ratio is reported, not
  gated.
"""

from __future__ import annotations

from time import perf_counter

from repro import MeasurementPipeline
from repro.analysis.report import render_table
from repro.data import open_bundle, write_dataset
from repro.stream import canonical_findings

ROUNDS = 2


def _best_of(fn, rounds=ROUNDS):
    best = None
    result = None
    for _ in range(rounds):
        started = perf_counter()
        result = fn()
        elapsed = perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_perf_columnar_vs_in_memory(bench_world, emit_report, tmp_path_factory):
    bundle = bench_world.to_bundle()
    cutoff = bench_world.config.timeline.revocation_cutoff
    columnar_dir = str(tmp_path_factory.mktemp("perf-columnar"))
    write_dataset(bundle, columnar_dir)

    open_seconds, _ = _best_of(lambda: open_bundle(columnar_dir))

    def detect(source):
        return MeasurementPipeline(source, revocation_cutoff_day=cutoff).run()

    memory_seconds, memory_result = _best_of(lambda: detect(bundle))
    columnar_seconds, columnar_result = _best_of(
        lambda: detect(open_bundle(columnar_dir))
    )

    assert canonical_findings(columnar_result.findings) == canonical_findings(
        memory_result.findings
    ), "columnar bundle changed the findings — speed is irrelevant"

    emit_report(
        "perf_data",
        render_table(
            ["Quantity", "Value"],
            [
                ("findings (both sources)",
                 f"{len(list(memory_result.findings.all_findings())):,}"),
                ("columnar open seconds", f"{open_seconds:.3f}"),
                ("in-memory detect seconds", f"{memory_seconds:.2f}"),
                ("columnar cold-detect seconds", f"{columnar_seconds:.2f}"),
                ("cold-detect / in-memory",
                 f"{columnar_seconds / memory_seconds:.2f}x"),
            ],
            title="Performance: columnar cold detect vs in-memory bundle "
            "(bench world)",
        ),
    )
