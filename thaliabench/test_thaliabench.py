"""Tests of the benchmark itself: output schema, seeded streams, and that
answer checking catches wrong answers and stale honor-roll reads.

    python3 -m pytest -q thaliabench/test_thaliabench.py

Wrong answers are injected here, into responses produced by the real
application in process; nothing under ``src/`` is changed.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import kernel  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402
from httpload import Resp, Sample  # noqa: E402


@pytest.fixture(scope="module")
def testbed():
    from repro.catalogs import build_testbed
    return build_testbed(seed=W.TESTBED_SEED, scale=1, use_cache=False)


@pytest.fixture()
def app(testbed, tmp_path):
    from repro.server import ThaliaApp
    app = ThaliaApp(testbed=testbed, scores_path=tmp_path / "roll.jsonl")
    yield app
    app.close()


def _serve(app, method: str, path: str, body: bytes = b"",
           headers: dict | None = None) -> Resp:
    from repro.server.router import Request
    response = app.handle(Request(method=method, path=path, body=body,
                                  headers=headers or {}))
    return Resp(response.status, {k.lower(): v for k, v
                                  in response.headers.items()},
                response.body)


# -- output schema --------------------------------------------------------- #

def test_benchmark_json_matches_the_metrics_the_runner_prints():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)
    assert config["paths"] == ["thaliabench"]


def test_run_prints_every_end_to_end_metric_with_its_unit():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "build-score",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} == run.END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    for name, unit in run.END_TO_END.items():
        assert f"{name}" in done.stdout and unit in done.stdout


def test_run_refuses_a_tree_without_the_program(tmp_path):
    (tmp_path / "thaliabench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "thaliabench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "thaliabench/run.py", "--workload", "query-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# -- seeded request streams ------------------------------------------------ #

def _wire(stream, count: int) -> bytes:
    return b"".join(next(stream).wire() for _ in range(count))


def test_same_seed_gives_a_byte_identical_stream():
    pool = W.hot_requests(W.hot_pool())
    assert _wire(W.hot_stream(7, pool), 300) \
        == _wire(W.hot_stream(7, pool), 300)
    assert _wire(W.hot_stream(7, pool), 300) \
        != _wire(W.hot_stream(8, pool), 300)
    assert _wire(W.cold_stream(7), 300) == _wire(W.cold_stream(7), 300)
    assert _wire(W.cold_stream(7), 300) != _wire(W.cold_stream(8), 300)


def test_site_stream_is_a_function_of_the_seed(testbed):
    reference = W.site_reference(testbed)
    assert _wire(W.site_stream(3, reference), 500) \
        == _wire(W.site_stream(3, reference), 500)
    assert _wire(W.site_stream(3, reference), 500) \
        != _wire(W.site_stream(4, reference), 500)
    stream = W.site_stream(3, reference)
    tags = [next(stream).tag for _ in range(5 * W.UPLOAD_EVERY)]
    assert [tag[1] for tag in tags if tag[0] == "upload"] == list(range(5))
    assert {tag[1] for tag in tags if tag[0] == "get"} \
        == {"page", "raw", "json", "roll", "bundle"}


def test_cold_queries_never_repeat_and_keep_fixed_shares():
    stream = W.cold_stream(11)
    requests = [next(stream) for _ in range(400)]
    texts = []
    for req in requests:
        payload = json.loads(req.body)
        items = payload["queries"] if "queries" in payload else [payload]
        texts.extend(item["xquery"] for item in items)
    assert len(texts) == len(set(texts))
    kinds = [req.tag[0] if req.tag[0] == "batch" else req.tag[1][0]
             for req in requests]
    assert kinds.count("join") == 400 // 20
    assert kinds.count("batch") == 400 * 3 // 20


def test_nonce_does_not_change_an_answer(testbed):
    for base in [("select", 2, "Data", "record"), ("join", 1, "Data")]:
        answers = {json.dumps(W.interpret(W.cold_text(base, n)[0],
                                          testbed.documents))
                   for n in (1, 77, 123456)}
        assert len(answers) == 1


# -- answer checking ------------------------------------------------------- #

def test_checker_catches_a_wrong_query_answer(app, testbed):
    pool = W.hot_pool()
    references = W.hot_references(testbed, pool)
    request = W.hot_requests(pool)[2]
    resp = _serve(app, "POST", "/api/query", request.body)
    clean = W.Checker()
    W.check_hot(clean, 2, resp, references)
    assert clean.failures == []

    payload = json.loads(resp.body)
    payload["items"] = payload["items"][:-1] + ["<Course>forged</Course>"]
    forged = Resp(200, resp.headers, json.dumps(payload).encode())
    caught = W.Checker()
    W.check_hot(caught, 2, forged, references)
    assert caught.failures


def test_checker_catches_a_wrong_item_in_a_batch(app, testbed):
    references = W.ColdReferences(testbed)
    stream = W.cold_stream(3)
    batch = next(req for req in stream if req.tag[0] == "batch")
    resp = _serve(app, "POST", "/api/query/batch", batch.body)
    clean = W.Checker()
    W.check_cold(clean, Sample(0, batch, 0.0, resp, True), references)
    assert clean.failures == []

    payload = json.loads(resp.body)
    payload["results"][1]["items"].append("extra")
    forged = Resp(200, resp.headers, json.dumps(payload).encode())
    caught = W.Checker()
    W.check_cold(caught, Sample(0, batch, 0.0, forged, True), references)
    assert caught.failures


def test_checker_catches_a_stale_honor_roll_read(app, testbed, tmp_path):
    import random
    rng = random.Random(1)
    uploads = [W.upload_payload(n, rng) for n in range(2)]
    roll = W.RollReference(testbed, uploads)
    upload = _serve(app, "POST", "/api/scores",
                    json.dumps(uploads[0]).encode())
    assert upload.status == 201
    for path in ("/api/honor-roll", "/honor-roll"):
        served = _serve(app, "GET", path, headers={"accept-encoding": "gzip"})
        fresh = W.Checker()
        W.check_roll(fresh, roll, path, 1, 1, served)
        assert fresh.failures == [], path
        # A read sent after the second upload was acknowledged must show
        # it; this body predates it.
        stale = W.Checker()
        W.check_roll(stale, roll, path, 2, 2, served)
        assert stale.failures, path

    store = W.Checker()
    W.check_store(store, app.store.path, uploads[:1])
    assert store.failures == []
    W.check_store(store, app.store.path, uploads)
    assert store.failures


def test_checker_catches_a_wrong_page_and_a_bad_conditional(app, testbed):
    reference = W.site_reference(testbed)
    path = "/catalogs/cmu.html"
    resp = _serve(app, "GET", path, headers={"accept-encoding": "gzip"})
    clean = W.Checker()
    W.check_get(clean, reference, path, False, resp)
    assert clean.failures == []
    forged = Resp(200, {"etag": reference.etags[path]},
                  reference.bodies[path] + b"<!-- forged -->")
    caught = W.Checker()
    W.check_get(caught, reference, path, False, forged)
    W.check_get(caught, reference, path, True, resp)   # 200, not 304
    assert len(caught.failures) == 2


def test_checker_catches_a_wrong_verdict(testbed):
    from repro.core import run_all
    from repro.integration import Effort
    from repro.systems import cohera, iwiz, thalia_mediator
    verdicts = W.paper_verdicts(ROOT)
    cards = run_all([cohera(), iwiz(), thalia_mediator()], testbed)
    clean = W.Checker()
    W.check_cards(clean, "seed", cards, verdicts)
    assert clean.failures == []
    cards[0].outcomes[0] = dataclasses.replace(cards[0].outcomes[0],
                                               effort=Effort.HIGH)
    caught = W.Checker()
    W.check_cards(caught, "forged", cards, verdicts)
    assert caught.failures


# -- tracing --------------------------------------------------------------- #

def test_tracer_splits_self_from_inclusive_time():
    class Layer:
        def outer(self):
            self.inner()
            return "done"

        def inner(self):
            sum(range(20000))

    tracer = tracing.Tracer()
    tracer.wrap_method(Layer, "outer", "outer")
    tracer.wrap_method(Layer, "inner", "inner")
    try:
        assert Layer().outer() == "done"
    finally:
        tracer.uninstall()
    outer, inner = tracer.spans["outer"], tracer.spans["inner"]
    assert outer[0] == inner[0] == 1
    assert outer[1] >= inner[1] > 0
    assert outer[2] == outer[1] - inner[1]
    assert "traced" not in Layer.outer.__qualname__


def test_normalised_scales_each_operation_by_its_bracketing_kernels():
    nominal = kernel.KERNEL_NOMINAL_S
    kernels = [nominal, nominal, 2 * nominal, 2 * nominal]
    # The second operation sat between a nominal and a half-speed kernel.
    assert kernel.normalised([0.04, 0.06, 0.08], kernels) == pytest.approx(
        [0.04, 0.04, 0.04])


def test_speed_probe_runs_the_kernel_in_a_helper_and_stops_it():
    probe = kernel.SpeedProbe(None)
    try:
        times = [probe.measure() for _ in range(3)]
    finally:
        probe.close()
    assert all(0 < value < 1 for value in times)
    assert probe.process.returncode == 0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.50) == 50
    assert run.percentile(values, 0.99) == 99
    assert run.percentile([], 0.99) == 0.0
