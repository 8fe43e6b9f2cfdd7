"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload detect-cold --seed 20231024 \\
        --seconds 10 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` runs a separate traced measurement and prints the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Host facts go to a line starting ``host:``
and, with the result, to ``.perfbench/out/results.jsonl``; the traced
run's spans go to ``.perfbench/out/trace-<workload>.json``.

Exit codes: 0 when every operation was correct, 1 when any failed, 2
when the benchmark cannot run at all (no program sources, bad
arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("gen-stream", "detect-cold", "replay-ckpt", "serve-http")
DEFAULT_SEED = 20231024
#: World scale of every workload; see perfbench/README.md for why it is
#: below the repository's 0.3 benchmark scale.
DEFAULT_SCALE = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]

    from perfbench import harness, serve
    from perfbench.workloads import BATCH_WORKLOADS, Env

    out_dir = os.path.join(ROOT, ".perfbench", "out")
    work_root = os.path.join(ROOT, ".perfbench", "work")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root)
    # Spill files of the program's external sorter land here, not in /tmp.
    tempfile.tempdir = workdir
    env = Env(ROOT, workdir, args.seed, args.scale)
    run = harness.Run(args.workload)
    trace_path = os.path.join(out_dir, f"trace-{args.workload}.json")
    started = time.perf_counter()
    if args.workload == "serve-http":
        workload = serve.ServeHttp(env)
        measure = serve.measure_traced if args.trace else serve.measure_untraced
    else:
        workload = BATCH_WORKLOADS[args.workload](env)
        measure = harness.measure_traced if args.trace else harness.measure_untraced
    try:
        if args.trace:
            metrics = measure(run, workload, args.seconds, trace_path)
            metrics["error_rate"] = run.error_rate
            catalogue = harness.PER_LAYER
        else:
            metrics = measure(run, workload, args.seconds)
            catalogue = harness.END_TO_END
    finally:
        workload.close()
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)

    facts = harness.host_facts(ROOT, args.seed, args.scale, env.rows)
    facts.update(workload=args.workload, trace=args.trace,
                 seconds=args.seconds, elapsed_s=time.perf_counter() - started,
                 ungated={name: metrics[name] for name in set(metrics) - set(catalogue)})
    for name, (unit, _) in catalogue.items():
        print(f"{args.workload}  {name:34s} {metrics[name]:>16.6f} {unit}")
    # Un-normalised figures, for reading the normalised ones; not gated.
    for name in sorted(set(metrics) - set(catalogue)):
        print(f"{args.workload}  {name:34s} {metrics[name]:>16.6f} s (not gated)")
    print(f"{args.workload}  error_rate {run.error_rate:.6f} "
          f"({run.failed}/{run.attempted} operations failed)")
    print("host: " + json.dumps(facts, sort_keys=True))
    line = harness.result_line(run, metrics, catalogue)
    with open(os.path.join(out_dir, "results.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"host": facts, "result": json.loads(line)},
                                sort_keys=True) + "\n")
    print(line, flush=True)
    return 0 if run.failed == 0 and run.attempted else 1


if __name__ == "__main__":
    sys.exit(main())
