"""THALIA harness benchmark: one command per workload.

    python3 thaliabench/run.py --workload query-hot --seed 1 --seconds 10 --trace 0
    python3 thaliabench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 thaliabench/run.py --workload site-mix --seed 1 --seconds 10 --trace 1

Run from the root of a checkout.  Served workloads boot
``python -m repro.cli --scale N --no-cache serve --port 0`` as a child
process and drive it from this single-threaded process over two
keep-alive connections; ``build-score`` runs in process.  Every answer
is checked against an independent reference outside the timed window.
Timings are normalised to a nominal host speed by a reference kernel
timed around each piece of work (``kernel.py``); ``raw`` lines show
them unnormalised.
Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every check passed and the server stopped cleanly.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload untraced and then traced (spans from ``tracer.py``) and
reports the per-layer metrics, with the traced/untraced throughput
ratio as the tracing overhead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import httpload  # noqa: E402
import workloads as W  # noqa: E402
from httpload import Connection, LoadResult, Req  # noqa: E402
from kernel import (SpeedProbe, factors, normalised,  # noqa: E402
                    reference_kernel)

WORKLOADS = ("query-hot", "query-cold", "site-mix", "build-score")

END_TO_END = {"setup_s": "s", "ops_per_s": "op/s", "p50_ms": "ms",
              "p90_ms": "ms", "cpu_ms_per_op": "ms",
              "rss_mb": "MB"}

PER_LAYER = {
    "server.transport.self_us_per_req": "us",
    "server.transport.queue_ms_p99": "ms",
    "server.app.handle_us_per_req": "us",
    "server.app.finalize_us_per_req": "us",
    "server.router.match_us_per_req": "us",
    "server.encode.us_per_req": "us",
    "server.content_cache.hit_ratio": "ratio",
    "server.content_cache.build_ms_per_miss": "ms",
    "server.content_cache.gzip_us_per_req": "us",
    "server.store.append_ms_per_upload": "ms",
    "website.render_ms_per_miss": "ms",
    "website.bundle_ms_per_build": "ms",
    "xquery.plan_cache.hit_ratio": "ratio",
    "xquery.compile_us_per_miss": "us",
    "xquery.result_cache.hit_ratio": "ratio",
    "xquery.result_cache.coalesced": "count",
    "xquery.execute_us_per_call": "us",
    "xquery.execute_ms_p99": "ms",
    "xquery.planner.costed_ratio": "ratio",
    "xquery.stats.collect_ms": "ms",
    "catalogs.render_ms_per_build": "ms",
    "tess.extract_ms_per_build": "ms",
    "xmlmodel.infer_schema_ms_per_build": "ms",
    "xmlmodel.parse_xml_ms_per_build": "ms",
    "xmlmodel.serialize_digest_ms_per_build": "ms",
    "xmlmodel.index_ms_per_build": "ms",
    "integration.integrate_ms_per_run": "ms",
    "systems.answer_ms_per_run": "ms",
    "core.gold_ms_per_run": "ms",
    "core.run_all_ms_per_run": "ms",
    "gc.pause_ms_per_s": "ms/s",
    "loadgen.cpu_us_per_req": "us",
    "trace.ops_ratio": "ratio",
}

#: Set-up is measured this many times per run and the median is
#: reported.  Half the set-ups run before the timed window and half
#: after it, so they sample more than one phase of the host's speed.
SETUP_REPEATS = 9
#: Untimed traffic before the window, so caches fill and lazy set-up ends.
WARMUP_S = 1.0
CONNECTIONS = 2
#: Validity limit for the load generator, as a share of one core: a run
#: past it measured the generator, so it is invalid, not slow.
LOADGEN_CPU_LIMIT = 0.9
#: Lines of the server's stderr reported with a failed run.
LOG_TAIL_LINES = 30
#: Served traffic runs in slices this long; between two slices the
#: reference kernel runs on the server's CPU (kernel.SpeedProbe).
SLICE_S = 0.1


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, -(-int(q * 1000) * len(ordered)
                                          // 1000) - 1))
    return float(ordered[rank])


@dataclass
class Outcome:
    """What one workload run produced."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    findings: list[str] = field(default_factory=list)
    loadgen: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    #: the metrics without host-speed normalisation, printed on ``raw``
    #: lines so the steadiness report can compare the two
    raw: dict[str, float] = field(default_factory=dict)

    def absorb(self, checker: W.Checker, attempted: int,
               failed_ops: int) -> None:
        self.attempted += attempted
        self.failed += failed_ops
        self.findings.extend(checker.failures[:20])


def latency_metrics(latencies_s: list[float], ops: int, elapsed_s: float,
                    cpu_s: float, rss_mb: float, setup_s: float) -> dict:
    """The end-to-end metrics; percentiles over the whole run."""
    return {"setup_s": setup_s,
            "ops_per_s": ops / elapsed_s,
            "p50_ms": percentile(latencies_s, 0.50) * 1e3,
            "p90_ms": percentile(latencies_s, 0.90) * 1e3,
            "cpu_ms_per_op": cpu_s / max(ops, 1) * 1e3,
            "rss_mb": rss_mb}


# --------------------------------------------------------------------------- #
# Served workloads
# --------------------------------------------------------------------------- #

class Served:
    """One served workload: references, warm-up, timed traffic, checks."""

    name = ""

    def __init__(self, seed: int) -> None:
        from repro.catalogs import build_testbed
        self.seed = seed
        self.scale = W.SCALES[self.name]
        self.testbed = build_testbed(seed=W.TESTBED_SEED, scale=self.scale,
                                     use_cache=False)

    def warm(self, conns: list[Connection], port: int) -> None:
        raise NotImplementedError

    def drive(self, conns: list[Connection], seconds: float,
              first_index: int) -> LoadResult:
        """Timed traffic for *seconds*; requests numbered from
        *first_index*.  Called once per slice; the stream continues."""
        raise NotImplementedError

    def check(self, load: LoadResult, scores: Path,
              checker: W.Checker) -> tuple[int, int]:
        """Check every answer; ``(operations checked, operations failed)``."""
        raise NotImplementedError

    def latencies(self, load: LoadResult) -> list[float]:
        """Latencies the percentiles are taken over, completion order."""
        return [sample.latency_s for sample in load.timed]


class QueryHot(Served):
    name = "query-hot"

    def __init__(self, seed):
        super().__init__(seed)
        self.pool = W.hot_pool()
        self.references = W.hot_references(self.testbed, self.pool)
        self.pool_requests = W.hot_requests(self.pool)
        self.stream = W.hot_stream(seed, self.pool_requests)
        self.bodies = W.DistinctBodies()

    def _keep(self, sample) -> None:
        self.bodies.add(sample.req.tag[1], sample.resp)

    def warm(self, conns, port):
        httpload.closed_loop(conns, itertools.cycle(self.pool_requests),
                             WARMUP_S, self._keep)

    def drive(self, conns, seconds, first_index):
        return httpload.closed_loop(conns, self.stream, seconds, self._keep,
                                    first_index=first_index)

    def check(self, load, scores, checker):
        failed = 0
        for index, entries in self.bodies.seen.items():
            for resp, count in entries:
                before = len(checker.failures)
                W.check_hot(checker, index, resp, self.references)
                failed += count if len(checker.failures) > before else 0
        return sum(self.bodies.counts.values()), failed


class QueryCold(Served):
    name = "query-cold"

    def __init__(self, seed):
        super().__init__(seed)
        self.references = W.ColdReferences(self.testbed)
        self.stream = W.cold_stream(seed)
        self.warm_samples = []

    def warm(self, conns, port):
        self.warm_samples = httpload.closed_loop(
            conns, self.stream, WARMUP_S).samples

    def drive(self, conns, seconds, first_index):
        return httpload.closed_loop(conns, self.stream, seconds,
                                    first_index=first_index)

    def check(self, load, scores, checker):
        failed = 0
        samples = self.warm_samples + load.samples
        for sample in samples:
            before = len(checker.failures)
            W.check_cold(checker, sample, self.references)
            failed += len(checker.failures) > before
        return len(samples), failed


class SiteMix(Served):
    name = "site-mix"

    def __init__(self, seed):
        super().__init__(seed)
        self.reference = W.site_reference(self.testbed)
        self.stream = W.site_stream(seed, self.reference)
        self.uploads: list[dict] = []    # payloads, in the order sent
        self.roll = W.RollReference(self.testbed, self.uploads)
        self.bodies = W.DistinctBodies()
        self.roll_reads: list = []       # (path, lo, hi, resp)
        self.acked: list[int] = []
        self.upload_failures = 0
        self.read_floor: dict[int, int] = {}

    def warm(self, conns, port):
        for path in self.reference.kinds:
            resp = httpload.request(port, Req("GET", path,
                                              headers=W.ACCEPT_GZIP))
            self.bodies.add((path, False), resp)

    def _on_send(self, index: int, req: Req) -> None:
        if req.tag[0] == "upload":
            self.uploads.append(json.loads(req.body))
        elif req.tag[1] == "roll":
            self.read_floor[index] = len(self.acked)

    def _on_answer(self, sample) -> list[Req]:
        tag = sample.req.tag
        if tag[0] == "upload":
            if sample.resp.status == 201:
                self.acked.append(tag[1])
                return W.roll_follow_ups(tag[1])
            self.upload_failures += 1
            return []
        if tag[1] == "roll":
            self.roll_reads.append((sample.req.path,
                                    self.read_floor.pop(sample.index),
                                    len(self.uploads), sample.resp))
        else:
            self.bodies.add((sample.req.path, tag[2]), sample.resp)
        return []

    def drive(self, conns, seconds, first_index):
        return httpload.closed_loop(conns, self.stream, seconds,
                                    on_response=self._on_answer,
                                    on_send=self._on_send,
                                    first_index=first_index)

    def latencies(self, load):
        # What visitors wait for: every GET, the honor-roll reads after
        # uploads included.  An upload's own latency is mostly the
        # host's fsync; its server cost is in cpu_ms_per_op and the
        # traced server.store.append_ms_per_upload.
        return [sample.latency_s for sample in load.timed
                if sample.req.tag[0] == "get"]

    def check(self, load, scores, checker):
        failed = self.upload_failures
        checker.expect(not self.upload_failures,
                       f"{self.upload_failures} upload(s) refused")
        for (path, conditional), entries in self.bodies.seen.items():
            for resp, count in entries:
                before = len(checker.failures)
                W.check_get(checker, self.reference, path, conditional,
                            resp)
                failed += count if len(checker.failures) > before else 0
        checker.expect(self.acked == sorted(self.acked),
                       "uploads acknowledged out of order")
        for path, lo, hi, resp in self.roll_reads:
            before = len(checker.failures)
            W.check_roll(checker, self.roll, path, lo, hi, resp)
            failed += len(checker.failures) > before
        before = len(checker.failures)
        W.check_store(checker, scores,
                      [self.uploads[number] for number in self.acked])
        failed += len(checker.failures) > before
        attempted = sum(self.bodies.counts.values()) + \
            len(self.roll_reads) + len(self.uploads)
        return attempted, failed


SERVED = {cls.name: cls for cls in (QueryHot, QueryCold, SiteMix)}


def run_served(name: str, seed: int, seconds: float, work: Path,
               setup_repeats: int, traced: bool = False) -> Outcome:
    """Boot, warm, drive, stop and check one served workload."""
    workload = SERVED[name](seed)
    probe = SpeedProbe(httpload.SERVER_CPU)
    try:
        return _run_served(workload, seconds, work, setup_repeats, traced,
                           probe)
    finally:
        probe.close()


def _run_served(workload: Served, seconds: float, work: Path,
                setup_repeats: int, traced: bool,
                probe: SpeedProbe) -> Outcome:
    outcome = Outcome()
    setups, raw_setups = [], []
    launcher = None
    trace_out = work / "trace.json"
    if traced:
        launcher = [str(HERE / "tracer.py"), str(trace_out)]

    def boot(attempt: int) -> httpload.Server:
        # The boot is bracketed by the kernel on the CPU the server runs on.
        kernel_before = probe.measure()
        server = httpload.boot_server(
            ROOT, workload.scale, work / f"scores{attempt}.jsonl",
            work / f"server{attempt}.log", launcher=launcher)
        factor, = factors([kernel_before, probe.measure()])
        raw_setups.append(server.setup_s)
        setups.append(server.setup_s * factor)
        return server

    def boot_and_stop(attempt: int) -> None:
        if not httpload.stop_server(boot(attempt), []):
            outcome.failed += 1
            outcome.findings.append("server needed a forced kill")

    before = setup_repeats // 2
    for attempt in range(before):
        boot_and_stop(attempt)
    server = boot(before)
    scores = work / f"scores{before}.jsonl"
    conns: list[Connection] = []
    try:
        conns.extend(Connection(server.port) for _ in range(CONNECTIONS))
        workload.warm(conns, server.port)
        if traced:
            stats_before = _api_stats(server.port)
            boot_snap = _signal_snapshot(server, trace_out, 1)
        slices, kernels = drive_in_slices(workload, conns, server, seconds,
                                          probe)
        if traced:
            window_snap = _signal_snapshot(server, trace_out, 2)
            stats_after = _api_stats(server.port)
        rss = server.peak_rss_mb()
    finally:
        clean = httpload.stop_server(server, conns)
    load = merged(slices)
    if not clean:
        outcome.failed += 1
        outcome.findings.append(
            f"server did not exit within {httpload.STOP_TIMEOUT_S}s of "
            f"SIGTERM with client sockets closed; killed")
    for attempt in range(before + 1, setup_repeats):
        boot_and_stop(attempt)
    checker = W.Checker()
    attempted, failed = workload.check(load, scores, checker)
    outcome.absorb(checker, attempted, failed)
    if outcome.failed:
        outcome.findings.extend(
            "server stderr: " + line for line in server.log_path.read_text(
                errors="replace").splitlines()[-LOG_TAIL_LINES:])
    outcome.raw = latency_metrics(
        workload.latencies(load), len(load.timed), load.window_s,
        sum(cpu for _, cpu in slices), rss, statistics.median(raw_setups))
    scaled_latencies, scaled_window, scaled_cpu = [], 0.0, 0.0
    for (part, cpu), factor in zip(slices, factors(kernels)):
        scaled_latencies += [value * factor
                             for value in workload.latencies(part)]
        scaled_window += part.window_s * factor
        scaled_cpu += cpu * factor
    outcome.metrics = latency_metrics(
        scaled_latencies, len(load.timed), scaled_window, scaled_cpu, rss,
        statistics.median(setups))
    loadgen_cpu = load.client_cpu_s / load.window_s
    outcome.loadgen = {"loadgen.cpu_us_per_req":
                       load.client_cpu_s / max(len(load.samples), 1) * 1e6}
    if loadgen_cpu > LOADGEN_CPU_LIMIT:
        outcome.failed += 1
        outcome.findings.append(
            f"invalid run: load generator used {loadgen_cpu:.0%} of a core")
    if traced:
        outcome.layers = served_layers(boot_snap, window_snap,
                                       stats_before, stats_after)
    return outcome


def drive_in_slices(workload: Served, conns: list[Connection],
                    server: httpload.Server, seconds: float,
                    probe: SpeedProbe
                    ) -> tuple[list[tuple[LoadResult, float]], list[float]]:
    """Timed traffic for *seconds*, in slices of SLICE_S.

    The reference kernel runs on the server's CPU before the first
    slice and after every slice, while no request is in flight, so each
    slice is bracketed by two readings of the speed the server ran at.
    Returns ``(slice, server CPU seconds)`` per slice and the kernel
    times.
    """
    slices: list[tuple[LoadResult, float]] = []
    kernels = [probe.measure()]
    sent = 0
    for _ in range(max(1, round(seconds / SLICE_S))):
        cpu0 = server.proc_cpu_s()
        part = workload.drive(conns, SLICE_S, sent)
        slices.append((part, server.proc_cpu_s() - cpu0))
        kernels.append(probe.measure())
        sent += len(part.samples)
    return slices, kernels


def merged(slices: list[tuple[LoadResult, float]]) -> LoadResult:
    load = LoadResult()
    for part, _ in slices:
        load.samples += part.samples
        load.window_s += part.window_s
        load.client_cpu_s += part.client_cpu_s
    return load


def _api_stats(port: int) -> dict:
    return json.loads(httpload.request(port, Req("GET", "/api/stats")).body)


def _read_json(path: Path, wait_s: float) -> dict | None:
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        if path.exists():
            return json.loads(path.read_text(encoding="utf-8"))
        time.sleep(0.01)
    return None


def _signal_snapshot(server: httpload.Server, trace_out: Path,
                     number: int) -> dict:
    target = Path(f"{trace_out}.{number}")
    server.process.send_signal(signal.SIGUSR1)
    snapshot = _read_json(target, wait_s=10.0)
    if snapshot is None:
        raise RuntimeError("traced server wrote no snapshot")
    return snapshot


# --------------------------------------------------------------------------- #
# build-score: in process
# --------------------------------------------------------------------------- #

SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from repro.catalogs import build_testbed
from repro.core import run_all
from repro.systems import cohera, iwiz, thalia_mediator
cards = run_all([cohera(), iwiz(), thalia_mediator()],
                build_testbed(seed=int(sys.argv[2]), use_cache=False))
assert len(cards) == 3
"""


def build_score_setup(seed: int) -> float:
    """Fresh process: import plus the first reference build and score,
    on the CPU the speed probe uses.  Its output is read to the end
    rather than polled for, so the time is not rounded to a poll step."""
    cpu = httpload.SERVER_CPU
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"),
                    str(W.build_seed(seed, 0))], cwd=ROOT, check=True,
                   stdout=subprocess.PIPE, timeout=120,
                   preexec_fn=None if cpu is None else
                   (lambda: os.sched_setaffinity(0, {cpu})))
    return time.perf_counter() - started


def run_build_score(seed: int, seconds: float, setup_repeats: int,
                    tracer=None) -> Outcome:
    probe = SpeedProbe(httpload.SERVER_CPU)
    try:
        return _run_build_score(seed, seconds, setup_repeats, tracer, probe)
    finally:
        probe.close()


def _run_build_score(seed: int, seconds: float, setup_repeats: int, tracer,
                     probe: SpeedProbe) -> Outcome:
    from repro.catalogs import build_testbed
    from repro.core import run_all
    from repro.systems import cohera, iwiz, thalia_mediator

    outcome = Outcome()
    setups, raw_setups = [], []

    def set_up() -> None:
        kernel_before = probe.measure()
        took = build_score_setup(seed)
        factor, = factors([kernel_before, probe.measure()])
        raw_setups.append(took)
        setups.append(took * factor)

    before = setup_repeats // 2 + 1
    for _ in range(before):
        set_up()
    verdicts = W.paper_verdicts(ROOT)

    def operation(op: int):
        testbed = build_testbed(seed=W.build_seed(seed, op),
                                use_cache=False)
        return run_all([cohera(), iwiz(), thalia_mediator()], testbed)

    checker = W.Checker()
    W.check_cards(checker, "warm-up", operation(0), verdicts)
    if tracer is not None:
        snapshot = tracer.snapshot()
    latencies, cpus, cards = [], [], []
    kernels = [reference_kernel()]
    end = time.perf_counter() + seconds
    op = 1
    while time.perf_counter() < end:
        cpu0 = time.process_time()
        began = time.perf_counter()
        cards.append(operation(op))
        latencies.append(time.perf_counter() - began)
        cpus.append(time.process_time() - cpu0)
        kernels.append(reference_kernel())
        op += 1
    if tracer is not None:
        from tracer import delta
        window = delta(snapshot, tracer.snapshot())
        outcome.layers = build_layers(window, len(latencies))
    for _ in range(setup_repeats - before):
        set_up()
    failed = 0
    for number, run in enumerate(cards, start=1):
        mark = len(checker.failures)
        W.check_cards(checker, f"build {number}", run, verdicts)
        failed += len(checker.failures) > mark
    outcome.absorb(checker, len(cards) + 1, failed)
    rss = httpload.peak_rss_mb()
    outcome.raw = latency_metrics(
        latencies, len(latencies), sum(latencies), sum(cpus), rss,
        statistics.median(raw_setups))
    scaled = normalised(latencies, kernels)
    outcome.metrics = latency_metrics(
        scaled, len(scaled), sum(scaled), sum(normalised(cpus, kernels)),
        rss, statistics.median(setups))
    outcome.loadgen = {"loadgen.cpu_us_per_req": 0.0}
    return outcome


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #

BUILD_SPANS = {
    "catalogs.render_ms_per_build": "catalogs.render",
    "tess.extract_ms_per_build": "tess.extract",
    "xmlmodel.infer_schema_ms_per_build": "xmlmodel.infer_schema",
    "xmlmodel.parse_xml_ms_per_build": "xmlmodel.parse_xml",
    "xmlmodel.serialize_digest_ms_per_build": "xmlmodel.serialize_digest",
    "xmlmodel.index_ms_per_build": "xmlmodel.index",
}
RUN_SPANS = {
    "integration.integrate_ms_per_run": "integration.integrate",
    "systems.answer_ms_per_run": "systems.answer",
    "core.gold_ms_per_run": "core.gold",
    "core.run_all_ms_per_run": "core.run_all",
}


def _span(snapshot: dict, name: str) -> tuple[int, int, int]:
    return tuple(snapshot["spans"].get(name, (0, 0, 0)))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def common_layers(window: dict, lifetime: dict, builds: int,
                  runs: int) -> dict:
    """Metrics every workload reports from its spans."""
    out = {name: 0.0 for name in PER_LAYER}
    compile_calls, compile_ns, _ = _span(window, "xquery.compile")
    out["xquery.compile_us_per_miss"] = _ratio(compile_ns, compile_calls) / 1e3
    exec_calls, exec_ns, _ = _span(window, "xquery.execute")
    out["xquery.execute_us_per_call"] = _ratio(exec_ns, exec_calls) / 1e3
    out["xquery.execute_ms_p99"] = percentile(
        window["samples"].get("xquery.execute", []), 0.99) / 1e6
    out["xquery.stats.collect_ms"] = \
        _span(lifetime, "xquery.stats.collect")[1] / 1e6
    for metric, span in BUILD_SPANS.items():
        out[metric] = _ratio(_span(lifetime, span)[1], builds) / 1e6
    for metric, span in RUN_SPANS.items():
        out[metric] = _ratio(_span(lifetime, span)[1], runs) / 1e6
    out["gc.pause_ms_per_s"] = window["gc_ns"] / 1e6 / (window["t_ns"] / 1e9)
    return out


def served_layers(boot: dict, window_end: dict, stats_before: dict,
                  stats_after: dict) -> dict:
    from tracer import delta
    window = delta(boot, window_end)
    out = common_layers(window, window_end, builds=1, runs=0)
    requests = _span(window, "server.app.handle")[0]
    per_request = {
        "server.transport.self_us_per_req": ("server.transport", 2),
        "server.app.handle_us_per_req": ("server.app.handle", 1),
        "server.app.finalize_us_per_req": ("server.app.finalize", 1),
        "server.router.match_us_per_req": ("server.router.match", 1),
        "server.encode.us_per_req": ("server.encode", 1),
        "server.content_cache.gzip_us_per_req":
            ("server.content_cache.gzip", 1),
    }
    for metric, (span, column) in per_request.items():
        out[metric] = _ratio(_span(window, span)[column], requests) / 1e3
    out["server.transport.queue_ms_p99"] = \
        percentile(window["waits"], 0.99) / 1e6

    def moved(block: str, key: str) -> float:
        node_after, node_before = stats_after, stats_before
        for part in block.split("."):
            node_after, node_before = node_after[part], node_before[part]
        return node_after[key] - node_before[key]

    hits = moved("content_cache", "hits")
    misses = moved("content_cache", "misses")
    out["server.content_cache.hit_ratio"] = _ratio(hits, hits + misses)
    out["server.content_cache.build_ms_per_miss"] = _ratio(
        _span(window, "server.content_cache.get")[1], misses) / 1e6
    appends, append_ns, _ = _span(window, "server.store.append")
    out["server.store.append_ms_per_upload"] = _ratio(append_ns, appends) / 1e6
    renders, render_ns, _ = _span(window_end, "website.render_page")
    out["website.render_ms_per_miss"] = _ratio(render_ns, renders) / 1e6
    bundles, bundle_ns, _ = _span(window_end, "website.bundle")
    out["website.bundle_ms_per_build"] = _ratio(bundle_ns, bundles) / 1e6
    plan_hits = moved("query_plans.cache", "hits")
    plan_misses = moved("query_plans.cache", "misses")
    out["xquery.plan_cache.hit_ratio"] = _ratio(plan_hits,
                                                plan_hits + plan_misses)
    served = moved("result_cache", "served")
    lookups = moved("result_cache", "lookups")
    out["xquery.result_cache.hit_ratio"] = _ratio(served, lookups)
    out["xquery.result_cache.coalesced"] = moved("result_cache", "coalesced")
    out["xquery.planner.costed_ratio"] = _ratio(
        stats_after["planner"]["costed_plans"],
        stats_after["query_plans"]["cache"]["size"])
    return out


def build_layers(window: dict, ops: int) -> dict:
    return common_layers(window, window, builds=ops, runs=ops)


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> tuple[Outcome, dict]:
    """One workload; returns the outcome and the metrics to print."""
    if name == "build-score":
        if not trace:
            outcome = run_build_score(seed, seconds, SETUP_REPEATS)
            return outcome, _with_units(outcome.metrics, END_TO_END)
        plain = run_build_score(seed, seconds, 1)
        from tracer import Tracer
        tracer = Tracer().install()
        try:
            traced = run_build_score(seed, seconds, 1, tracer=tracer)
        finally:
            tracer.uninstall()
    else:
        if not trace:
            outcome = run_served(name, seed, seconds, work, SETUP_REPEATS)
            return outcome, _with_units(outcome.metrics, END_TO_END)
        (work / "plain").mkdir()
        (work / "traced").mkdir()
        plain = run_served(name, seed, seconds, work / "plain", 1)
        traced = run_served(name, seed, seconds, work / "traced", 1,
                            traced=True)
    layers = dict(traced.layers)
    layers.update(traced.loadgen)
    layers["trace.ops_ratio"] = _ratio(traced.metrics["ops_per_s"],
                                       plain.metrics["ops_per_s"])
    merged = Outcome(attempted=plain.attempted + traced.attempted,
                     failed=plain.failed + traced.failed,
                     findings=plain.findings + traced.findings)
    return merged, _with_units(layers, PER_LAYER)


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()}


def _pin_hash_seed(seed: int, argv: list[str]) -> None:
    """Re-run this process, and so its servers, under one hash seed.

    The sample solutions order courses that tie on (source, code) by set
    iteration order, so the bytes of /benchmark/query09-11.html and of
    the solutions zip depend on ``PYTHONHASHSEED``.  The reference and the
    server must share it for their bytes to be comparable; it follows
    the workload seed, so runs still vary it.
    """
    wanted = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable, str(Path(__file__)),
                                   *argv], env)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all_workloads(args)
    _pin_hash_seed(args.seed, argv)
    sys.path.insert(0, str(ROOT / "src"))
    base = HERE / ".work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        outcome, metrics = run_workload(args.workload, args.seed,
                                        args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"== {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}): {outcome.attempted} attempted, "
          f"{outcome.failed} failed")
    for metric, entry in metrics.items():
        print(f"   {metric:42s} {entry['value']:14.4f} {entry['unit']}")
    for metric, value in outcome.raw.items():
        print(f"   raw {metric:38s} {value:14.4f} {END_TO_END[metric]}")
    for finding in outcome.findings:
        print(f"   FINDING: {finding}")
    return _print_result(outcome.attempted, outcome.failed, metrics)


def _print_result(attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if failed == 0 else 1


def run_all_workloads(args) -> int:
    """Each workload in a fresh child process, so one workload's peak RSS
    and CPU affinity do not carry into the next; metrics are prefixed
    with the workload name."""
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"   FINDING: {name} printed no result "
                  f"(exit {done.returncode})")
            attempted, failed = attempted + 1, failed + 1
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value
                        for key, value in result["metrics"].items()})
    return _print_result(attempted, failed, metrics)


if __name__ == "__main__":
    sys.exit(main())
