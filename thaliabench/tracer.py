"""Per-layer spans for the traced run, recorded from outside ``src/``.

:class:`Tracer` wraps public functions of each layer and records, per
span name, the number of calls and the inclusive and self wall time
(self = inclusive minus the time of child spans on the same thread).
A span re-entered on the same thread (a subclass calling its base's
method) counts once.  Garbage-collector pauses come from
``gc.callbacks``.  Everything stays in memory until :meth:`snapshot`.

Run as a script, this file is the launcher for the traced server::

    python thaliabench/tracer.py OUT.json --scale 8 --no-cache serve --port 0

It installs the spans, then runs ``repro.cli`` with the remaining
arguments.  ``SIGUSR1`` writes a snapshot to ``OUT.json.<n>`` (n = 1, 2,
...); a final snapshot goes to ``OUT.json`` when the CLI returns.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import os
import signal
import sys
import threading
import time

#: Spans whose individual durations are kept (for tail percentiles).
SAMPLED = frozenset({"xquery.execute"})
_INHERITED = object()


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: dict[str, list[int]] = {}   # name -> [calls, incl, self]
        self.samples: dict[str, list[int]] = {name: [] for name in SAMPLED}
        self.waits: list[int] = []               # transport wall - CPU, ns
        self.gc_ns = 0
        self._gc_started = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------- #

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, stack: list[list], frame: list) -> int:
        duration = time.perf_counter_ns() - frame[1]
        if stack:
            stack[-1][2] += duration
        with self._lock:
            entry = self.spans.setdefault(frame[0], [0, 0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[2]
            if frame[0] in self.samples:
                self.samples[frame[0]].append(duration)
        return duration

    def wrap(self, func, name: str):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if any(frame[0] == name for frame in stack):
                return func(*args, **kwargs)
            frame = [name, time.perf_counter_ns(), 0]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                tracer._close(stack, frame)

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        elif self._gc_started:
            self.gc_ns += time.perf_counter_ns() - self._gc_started
            self._gc_started = 0

    # -- installing ------------------------------------------------------- #

    def patch(self, owner, attr: str, value) -> None:
        """Set *attr* on *owner*; :meth:`uninstall` puts back what was
        there (or removes it, when *owner* only inherited it)."""
        self._undo.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self.patch(cls, attr, classmethod(self.wrap(raw.__func__, name)))
        else:
            self.patch(cls, attr, self.wrap(raw, name))

    def wrap_family(self, base, attr: str, name: str) -> None:
        """Wrap *attr* on *base* and on every subclass that overrides it."""
        seen, todo = set(), [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.wrap_method(cls, attr, name)

    def wrap_function(self, func, name: str) -> None:
        """Replace *func* in every loaded ``repro`` module (and in their
        module-level dicts) that refers to it by name."""
        traced = self.wrap(func, name)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.patch(module, attr, traced)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is func:
                            value[key] = traced
                            self._undo.append((value, key, func))

    def install_transport(self) -> None:
        """The transport span runs from a parsed request line to the
        flushed response, so idle keep-alive waits are excluded.  Its
        wall time minus its thread CPU time is the time the request
        waited (for the interpreter lock or the processor)."""
        from repro.server.app import _HttpHandler

        tracer = self
        parse = _HttpHandler.parse_request
        one = _HttpHandler.handle_one_request

        def parse_request(handler):
            ok = parse(handler)
            if ok:
                tracer._stack().append(["server.transport",
                                        time.perf_counter_ns(), 0,
                                        time.thread_time_ns()])
            return ok

        def handle_one_request(handler):
            stack = tracer._stack()
            depth = len(stack)
            try:
                one(handler)
            finally:
                while len(stack) > depth:
                    frame = stack.pop()
                    duration = tracer._close(stack, frame)
                    cpu = time.thread_time_ns() - frame[3]
                    with tracer._lock:
                        tracer.waits.append(max(0, duration - cpu))

        self.patch(_HttpHandler, "parse_request", parse_request)
        self.patch(_HttpHandler, "handle_one_request", handle_one_request)

    def install(self) -> "Tracer":
        """Wrap every layer boundary the benchmark reports on."""
        import repro.cli  # noqa: F401  (loads every layer)
        from repro.catalogs.universities.base import UniversityProfile
        from repro.core import answers, runner
        from repro.integration.mediator import Mediator
        from repro.server.app import ThaliaApp
        from repro.server.cache import CacheEntry, ContentCache
        from repro.server.router import Response, Router
        from repro.server.store import HonorRollStore
        from repro.systems.base import IntegrationSystem
        from repro.tess.scraper import TessScraper
        from repro.website import bundles
        from repro.website.sitegen import SiteGenerator
        from repro.xmlmodel import (
            infer_schema,
            parse_xml,
            serialize_digest,
        )
        from repro.xmlmodel.indexes import DocumentIndex
        from repro.xquery.plan import Plan, compile_query
        from repro.xquery.plan_cache import PlanCache
        from repro.xquery.results import ResultCache
        from repro.xquery.stats import collect_statistics

        self.install_transport()
        for cls, attr, name in (
                (ThaliaApp, "handle", "server.app.handle"),
                (ThaliaApp, "_finalize", "server.app.finalize"),
                (Router, "match", "server.router.match"),
                (Response, "of_json", "server.encode"),
                (ContentCache, "get_or_build", "server.content_cache.get"),
                (CacheEntry, "gzipped", "server.content_cache.gzip"),
                (HonorRollStore, "append", "server.store.append"),
                (HonorRollStore, "ranked", "server.store.ranked"),
                (SiteGenerator, "render_page", "website.render_page"),
                (PlanCache, "get", "xquery.plan_cache.get"),
                (ResultCache, "fetch", "xquery.result_cache.fetch"),
                (ResultCache, "get_or_compute", "xquery.result_cache.get"),
                (ResultCache, "execute", "xquery.result_cache.execute"),
                (Plan, "execute", "xquery.execute"),
                (TessScraper, "extract", "tess.extract"),
                (DocumentIndex, "__init__", "xmlmodel.index"),
                (Mediator, "integrate_records", "integration.integrate")):
            self.wrap_method(cls, attr, name)
        self.wrap_family(IntegrationSystem, "answer", "systems.answer")
        self.wrap_family(UniversityProfile, "render", "catalogs.render")
        for func, name in (
                (compile_query, "xquery.compile"),
                (collect_statistics, "xquery.stats.collect"),
                (infer_schema, "xmlmodel.infer_schema"),
                (parse_xml, "xmlmodel.parse_xml"),
                (serialize_digest, "xmlmodel.serialize_digest"),
                (answers.cached_gold_answer, "core.gold"),
                (runner.run_all, "core.run_all"),
                (bundles.build_catalogs_bundle, "website.bundle"),
                (bundles.build_queries_bundle, "website.bundle"),
                (bundles.build_solutions_bundle, "website.bundle")):
            self.wrap_function(func, name)
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            elif value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    # -- reading ---------------------------------------------------------- #

    def snapshot(self) -> dict:
        with self._lock:
            return {"t_ns": time.perf_counter_ns(),
                    "spans": {name: list(entry)
                              for name, entry in self.spans.items()},
                    "samples": {name: list(values)
                                for name, values in self.samples.items()},
                    "waits": list(self.waits),
                    "gc_ns": self.gc_ns}


def write_snapshot(path: str, snapshot: dict) -> None:
    partial = path + ".partial"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle)
    os.replace(partial, path)


def delta(before: dict, after: dict) -> dict:
    """What happened between two snapshots of one tracer."""
    spans = {}
    for name, (calls, inclusive, own) in after["spans"].items():
        old = before["spans"].get(name, [0, 0, 0])
        spans[name] = [calls - old[0], inclusive - old[1], own - old[2]]
    return {"t_ns": after["t_ns"] - before["t_ns"],
            "spans": spans,
            "samples": {name: values[len(before["samples"].get(name, ())):]
                        for name, values in after["samples"].items()},
            "waits": after["waits"][len(before["waits"]):],
            "gc_ns": after["gc_ns"] - before["gc_ns"]}


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer().install()
    counter = itertools.count(1)

    def on_usr1(signum, frame):
        write_snapshot(f"{out}.{next(counter)}", tracer.snapshot())

    signal.signal(signal.SIGUSR1, on_usr1)
    from repro.cli import main as cli_main
    code = cli_main(cli_args)
    write_snapshot(out, tracer.snapshot())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
