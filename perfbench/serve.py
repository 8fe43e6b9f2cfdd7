"""serve-http: a closed loop of HTTP queries against ``python -m repro serve``.

One client, one connection at a time (the ``wsgiref`` host closes each
connection after its response). The request mix replays the query shapes
of the serve performance test — domain hits (Zipf-skewed over the
indexed domains) and misses, aggregates, survival, lifetime-cap what-ifs
and 400 probes — drawn from the workload seed. Every HTTP answer must
equal, status and body, what the same request returns from an
in-process app built over the same bundle.
"""

from __future__ import annotations

import http.client
import os
import random
import socket
import subprocess
import sys
import time
from itertools import accumulate
from typing import Dict, List, Optional, Tuple
from urllib.parse import quote

from perfbench.harness import (
    MIB,
    SETUP_REPEATS,
    HostSpeed,
    Run,
    layer_metrics,
    mean,
    median,
    peak_rss_bytes,
    quantile,
    tree_bytes,
)
from perfbench.tracing import OP_SPAN, SETUP_SPAN, Instrumentation, Tracer, analyse
from perfbench.workloads import Env

#: Requests in one pass of the mix; ``wall_s`` is the median pass time.
MIX_REQUESTS = 500
#: Zipf exponent of the domain-key popularity skew.
ZIPF_S = 1.1
#: Seconds to wait for the server's first healthy ``/health``.
START_TIMEOUT_S = 120.0

Request = Tuple[str, str, int]  # (path, query, nominal status)


def request_mix(domains: List[str], seed: int, size: int = MIX_REQUESTS) -> List[Request]:
    """The seeded request mix; the nominal status is the one the route
    contract promises for that shape."""
    rng = random.Random(f"perfbench-serve-{seed}")
    ranked = sorted(domains)
    rng.shuffle(ranked)
    weights = list(accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))))
    mix: List[Request] = []
    for _ in range(size):
        roll = rng.random()
        if roll < 0.45 and ranked:
            domain = rng.choices(ranked, cum_weights=weights)[0]
            mix.append(("/v1/domains/" + quote(domain), "", 200))
        elif roll < 0.55:
            mix.append((f"/v1/domains/zz-miss-{rng.randrange(10**6)}.example", "", 404))
        elif roll < 0.70:
            axis = rng.choice(("class", "issuer", "year"))
            mix.append(("/v1/aggregates", "by=" + axis, 200))
        elif roll < 0.80:
            mix.append(("/v1/survival", "", 200))
        elif roll < 0.90:
            mix.append(("/v1/whatif/caps", "days=45,90,215", 200))
        elif roll < 0.95:
            mix.append(("/v1/whatif/caps", f"days={rng.randint(30, 429)}", 200))
        elif roll < 0.975:
            mix.append(("/v1/aggregates", "by=volume", 400))
        else:
            mix.append(("/v1/whatif/caps", "days=0", 400))
    return mix


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServeHttp:
    """Server lifecycle, reference answers and the two request paths."""

    name = "serve-http"

    def __init__(self, env: Env) -> None:
        self.env = env
        self.bundle = env.fresh_path("served")
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self._log = None
        self.app = None
        self.mix: List[Request] = []
        #: (path, query) -> (status, body) from the in-process app.
        self.expected: Dict[Tuple[str, str], Tuple[int, bytes]] = {}

    # -- set-up -------------------------------------------------------------

    def prepare(self) -> None:
        """Generate the served bundle (not part of ``setup_s``)."""
        self.env.generate(self.bundle)

    def start_server(self) -> float:
        """Start ``repro serve``; seconds until its first healthy /health."""
        self.stop_server()
        self.port = _free_port()
        env = dict(os.environ)
        src = os.path.join(self.env.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["TMPDIR"] = self.env.workdir
        self._log = open(os.path.join(self.env.workdir, "server.log"), "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--bundle", self.bundle,
             "--host", "127.0.0.1", "--port", str(self.port)],
            cwd=self.env.root, env=env, stdout=self._log, stderr=self._log,
        )
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with code {self.process.returncode}; "
                    f"see {self._log.name}"
                )
            if time.perf_counter() - started > START_TIMEOUT_S:
                raise RuntimeError("repro serve never became healthy")
            try:
                status, _, _ = self.http("/health", "", timeout=1.0)
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - started
            time.sleep(0.02)

    def stop_server(self) -> None:
        if self.process is not None:
            if self.process.poll() is None:
                self.process.terminate()
                try:
                    self.process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
            self.process = None
        if self._log is not None:
            self._log.close()
            self._log = None

    def reference(self, tracer: Optional[Tracer] = None) -> None:
        """Build the in-process app over the same bundle with the cutoff the
        CLI uses for saved bundles, then record every mix answer. With a
        *tracer*, the index build is traced as set-up op 0."""
        from repro.core.pipeline import MeasurementPipeline
        from repro.data import open_bundle
        from repro.ecosystem.timeline import DEFAULT_TIMELINE
        from repro.serve import FindingsIndex, create_app

        bundle = open_bundle(self.bundle)
        try:
            result = MeasurementPipeline(
                bundle, revocation_cutoff_day=DEFAULT_TIMELINE.revocation_cutoff
            ).run()
        finally:
            bundle.close()
        if tracer is None:
            index = FindingsIndex(result)
        else:
            tracer.op = 0
            with Instrumentation(tracer):
                tracer.begin(SETUP_SPAN)
                try:
                    index = FindingsIndex(result)
                finally:
                    tracer.end(SETUP_SPAN)
        self.app = create_app(index)
        self.mix = request_mix(index.domains(), self.env.seed)
        for path, query, _ in self.mix:
            if (path, query) not in self.expected:
                status, body, _ = self.in_process(path, query)
                self.expected[(path, query)] = (status, body)

    def warm(self) -> None:
        """One pass over the distinct requests on both paths, so memoized
        cap evaluations are filled before timing."""
        for path, query in self.expected:
            self.http(path, query)
            self.in_process(path, query)

    # -- requests -----------------------------------------------------------

    def http(self, path: str, query: str, timeout: float = 30.0
             ) -> Tuple[int, bytes, float]:
        target = path + ("?" + query if query else "")
        started = time.perf_counter()
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            connection.request("GET", target)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        return response.status, body, time.perf_counter() - started

    def in_process(self, path: str, query: str) -> Tuple[int, bytes, float]:
        from repro.serve import server

        started = time.perf_counter()
        response = server.call_app(self.app, path, query=query)
        return response.status, response.body, time.perf_counter() - started

    def check(self, request: Request, status: int, body: bytes) -> Optional[str]:
        path, query, nominal = request
        want_status, want_body = self.expected[(path, query)]
        if status != want_status or status != nominal:
            return f"{path}?{query}: status {status}, expected {want_status}/{nominal}"
        if body != want_body:
            return f"{path}?{query}: body differs from the in-process answer"
        return None

    def http_pass(self, run: Run) -> List[float]:
        """One closed-loop pass of the mix over HTTP; per-request seconds."""
        latencies = []
        for request in self.mix:
            try:
                status, body, seconds = self.http(request[0], request[1])
            except OSError as error:
                run.record(f"{request[0]}: {error!r}")
                continue
            if run.record(self.check(request, status, body)):
                latencies.append(seconds)
        return latencies

    def app_pass(self, run: Run, tracer: Optional[Tracer] = None,
                 first_op: int = 1) -> List[float]:
        """One pass through in-process ``call_app``; traced requests get op
        ids from *first_op* on."""
        latencies = []
        instrumentation = Instrumentation(tracer) if tracer is not None else None
        if instrumentation is not None:
            instrumentation.install()
        try:
            for offset, request in enumerate(self.mix):
                started = time.perf_counter()
                if tracer is not None:
                    tracer.op = first_op + offset
                    tracer.begin(OP_SPAN)
                try:
                    status, body, _ = self.in_process(request[0], request[1])
                finally:
                    if tracer is not None:
                        tracer.end(OP_SPAN)
                seconds = time.perf_counter() - started
                if run.record(self.check(request, status, body)):
                    latencies.append(seconds)
        finally:
            if instrumentation is not None:
                instrumentation.remove()
        return latencies

    def close(self) -> None:
        self.stop_server()


def measure_untraced(run: Run, workload: ServeHttp, seconds: float) -> Dict[str, float]:
    """Set up, then closed-loop passes of the mix over HTTP. Each pass is
    one :class:`HostSpeed` interval; its requests are normalised by the
    pass's reference factor."""
    workload.prepare()
    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(speed.record(workload.start_server()))
    workload.reference()
    workload.warm()
    speed = HostSpeed()
    latencies: List[float] = []
    began = time.perf_counter()
    while not speed.raw or time.perf_counter() - began < seconds:
        batch = workload.http_pass(run)
        raw = sum(batch)
        scale = speed.record(raw) / raw if raw else 1.0
        latencies.extend(seconds * scale for seconds in batch)
    wall = speed.total()
    return {
        "raw_wall_s": mean(speed.raw),
        "reference_loop_s": mean(speed.reference),
        "setup_s": median(setups),
        "wall_s": wall,
        "p50_ms": median(latencies) * 1e3,
        "qps": len(latencies) / sum(latencies) if latencies else 0.0,
        "peak_rss_mib": peak_rss_bytes(workload.process.pid) / MIB,
        "bundle_mib": tree_bytes(workload.bundle)[0] / MIB,
    }


def measure_traced(run: Run, workload: ServeHttp, seconds: float, trace_path: str
                   ) -> Dict[str, float]:
    workload.prepare()
    workload.start_server()
    tracer = Tracer()
    workload.reference(tracer)
    workload.warm()
    http_latencies: List[float] = []
    app_latencies: List[float] = []
    traced: List[float] = []
    next_op = 1
    began = time.perf_counter()
    while next_op == 1 or time.perf_counter() - began < seconds:
        http_latencies.extend(workload.http_pass(run))
        app_latencies.extend(workload.app_pass(run))
        traced.extend(workload.app_pass(run, tracer, next_op))
        next_op += len(workload.mix)
    tracer.dump(trace_path)
    summary = analyse(trace_path)
    metrics = layer_metrics(summary, summary.op_ids())
    metrics["serve.index_build_s"] = summary.mean("serve.index_build_s", [0])
    app_p50 = median(app_latencies)
    metrics["serve.app_p50_ms"] = app_p50 * 1e3
    metrics["serve.app_p99_ms"] = quantile(app_latencies, 99) * 1e3
    metrics["serve.host_p50_ms"] = (median(http_latencies) - app_p50) * 1e3
    metrics["serve.http_p99_ms"] = quantile(http_latencies, 99) * 1e3
    metrics["serve.response_bytes"] = mean(
        [len(workload.expected[(path, query)][1]) for path, query, _ in workload.mix]
    )
    base = mean(app_latencies)
    metrics["obs.untraced_op_s"] = base
    metrics["obs.trace_overhead"] = mean(traced) / base - 1.0 if base else 0.0
    return metrics
