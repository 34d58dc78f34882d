"""Seeded request streams, reference answers and answer checks.

Everything here is a pure function of the workload seed and of a
reference testbed the benchmark builds in its own process; nothing is
learned from the server.  References come from the repository's
independent oracles: the tree-walking XQuery interpreter for query
answers, :meth:`SiteGenerator.render_page` for pages, the bundle
builders for downloads and :class:`HonorRoll` for the honor roll.
"""

from __future__ import annotations

import gzip
import importlib.util
import io
import itertools
import json
import random
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from httpload import Req, Resp, Sample

#: The repository's default testbed seed; the server is booted without
#: ``--seed``, so the reference testbed uses the same one.
TESTBED_SEED = 2004

SCALES = {"query-hot": 8, "query-cold": 8, "site-mix": 32}


def render_items(items) -> list:
    from repro.xmlmodel import XmlElement, serialize
    return [serialize(item) if isinstance(item, XmlElement) else item
            for item in items]


def interpret(source: str, documents) -> list:
    """The interpreter's answer, rendered the way ``/api/query`` renders."""
    from repro.xquery.context import DynamicContext
    from repro.xquery.evaluator import evaluate
    from repro.xquery.parser import parse_query
    return render_items(evaluate(parse_query(source),
                                 DynamicContext(documents=documents)))


def _scope(testbed, slug: str | None):
    return testbed.documents if slug is None \
        else {slug: testbed.source(slug).document}


def _query_payload(xquery: str, slug: str | None) -> dict:
    payload = {"xquery": xquery}
    if slug is not None:
        payload["source"] = slug
    return payload


def _post(path: str, payload: dict, tag: tuple) -> Req:
    return Req("POST", path, json.dumps(payload, sort_keys=True).encode(),
               tag=tag)


@dataclass
class Checker:
    """Counts operations whose answer disagrees with the reference."""

    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)


# --------------------------------------------------------------------------- #
# query-hot: a fixed pool, every timed request a result-cache hit
# --------------------------------------------------------------------------- #

#: Single-document queries added to the twelve paper queries.
HOT_EXTRA = (
    ("brown", 'FOR $c IN doc("brown.xml")/brown/Course RETURN $c/Title'),
    ("eth", 'FOR $c IN doc("eth.xml")/eth/Vorlesung '
            "WHERE $c/Titel = '%Daten%' RETURN $c"),
    ("mit", 'FOR $c IN doc("mit.xml")/mit/Course '
            "WHERE $c/Units > 9 RETURN $c/Name"),
    ("umass", 'FOR $c IN doc("umass.xml")/umass/Course '
              "RETURN $c/Instructor"),
)


def hot_pool() -> list[tuple[str, str | None]]:
    from repro.core import QUERIES
    return [(query.xquery, None) for query in QUERIES] + \
        [(xquery, slug) for slug, xquery in HOT_EXTRA]


def hot_requests(pool: list[tuple[str, str | None]]) -> list[Req]:
    return [_post("/api/query", _query_payload(xquery, slug), ("hot", i))
            for i, (xquery, slug) in enumerate(pool)]


def hot_stream(seed: int, pool_requests: list[Req]) -> Iterator[Req]:
    """The pool in a seeded order, forever."""
    rng = random.Random(seed)
    while True:
        yield rng.choice(pool_requests)


def hot_references(testbed, pool) -> list[list]:
    return [interpret(xquery, _scope(testbed, slug))
            for xquery, slug in pool]


def check_query_body(checker: Checker, label: str, body: bytes,
                     expected: list) -> None:
    try:
        payload = json.loads(body)
    except ValueError:
        checker.fail(f"{label}: body is not JSON")
        return
    checker.expect(payload.get("items") == expected
                   and payload.get("count") == len(expected),
                   f"{label}: served items differ from the interpreter")


class DistinctBodies:
    """Keeps each distinct response per key once, so a long run holds a
    handful of bodies instead of one per request.  Comparison is plain
    ``bytes`` equality, cheap enough for the timed loop."""

    def __init__(self) -> None:
        #: key -> [[response, times seen], ...]
        self.seen: dict[object, list[list]] = {}
        self.counts: dict[object, int] = {}

    def add(self, key: object, resp: Resp) -> None:
        bucket = self.seen.setdefault(key, [])
        self.counts[key] = self.counts.get(key, 0) + 1
        for entry in bucket:
            kept = entry[0]
            if kept.status == resp.status and kept.body == resp.body \
                    and kept.headers.get("content-encoding") \
                    == resp.headers.get("content-encoding"):
                entry[1] += 1
                return
        bucket.append([resp, 1])


def check_hot(checker: Checker, index: int, resp: Resp,
              references: list[list]) -> None:
    if resp.status != 200:
        checker.fail(f"hot query {index}: status {resp.status}")
        return
    check_query_body(checker, f"hot query {index}", resp.body,
                     references[index])


# --------------------------------------------------------------------------- #
# query-cold: seeded FLWOR queries that never repeat
# --------------------------------------------------------------------------- #

#: (slug, root, record, text field, returned field) per source used.
COLD_SOURCES = (
    ("brown", "brown", "Course", "Title", "Room"),
    ("cmu", "cmu", "Course", "CourseTitle", "Lecturer"),
    ("gatech", "gatech", "Course", "Title", "Instructor"),
    ("umass", "umass", "Course", "Name", "Room"),
    ("mit", "mit", "Course", "Name", "Lecturer"),
    ("stanford", "stanford", "Course", "Title", "Instructor"),
    ("wisconsin", "wisconsin", "Course", "Title", "Professor"),
    ("purdue", "purdue", "Course", "Title", "Instructor"),
    ("eth", "eth", "Vorlesung", "Titel", "Dozent"),
    ("toronto", "toronto", "course", "title", "instructor"),
)

COLD_WORDS = ("Data", "System", "Network", "Software", "Theory",
              "Computer", "Intro", "Design", "Learning", "Security",
              "Algorithm", "Logic")

#: Two-source equi-joins: ((source index, field), (source index, field)).
COLD_JOINS = (
    ((2, "Title"), (1, "CourseTitle")),
    ((0, "Title"), (7, "Title")),
    ((5, "Instructor"), (7, "Instructor")),
    ((6, "Title"), (5, "Title")),
    ((3, "Name"), (4, "Name")),
    ((2, "Instructor"), (0, "Instructor")),
)

#: Request kinds per block of twenty: the share of each is fixed, the
#: order inside a block is seeded.  The shares are an assumption, not
#: observed traffic, and were picked for steadiness: they put each reported
#: percentile inside one kind rather than on a boundary between two:
#: p50 among single selects, p90 among batches; the joins sit above p95.
COLD_BLOCK = ("select",) * 16 + ("batch",) * 3 + ("join",)
COLD_BATCH_SIZE = 4


def _select_text(base: tuple, nonce: int) -> tuple[str, str]:
    source, word, returned = base
    slug, root, record, text_field, ret_field = COLD_SOURCES[source]
    target = {"field": f"$c/{ret_field}", "title": f"$c/{text_field}",
              "record": "$c"}[returned]
    # "<nonce> > 0" holds for every nonce >= 1, so the answer depends on
    # the base alone while the text (and so every cache key) is new.
    return (f'FOR $c IN doc("{slug}.xml")/{root}/{record} '
            f"WHERE $c/{text_field} = '%{word}%' and {nonce} > 0 "
            f"RETURN {target}"), slug


def _join_text(base: tuple, nonce: int) -> tuple[str, None]:
    join, word = base
    (left, left_field), (right, right_field) = COLD_JOINS[join]
    lslug, lroot, lrecord, ltext, _ = COLD_SOURCES[left]
    rslug, rroot, rrecord, _, rret = COLD_SOURCES[right]
    return (f'FOR $a IN doc("{lslug}.xml")/{lroot}/{lrecord}'
            f"[{ltext} = '%{word}%'], "
            f'$b IN doc("{rslug}.xml")/{rroot}/{rrecord} '
            f"WHERE $a/{left_field} = $b/{right_field} and {nonce} > 0 "
            f"RETURN $b/{rret}"), None


def _cold_base(rng: random.Random, kind: str) -> tuple:
    if kind == "join":
        return ("join", rng.randrange(len(COLD_JOINS)),
                rng.choice(COLD_WORDS))
    return ("select", rng.randrange(len(COLD_SOURCES)),
            rng.choice(COLD_WORDS), rng.choice(("field", "title", "record")))


def cold_text(base: tuple, nonce: int) -> tuple[str, str | None]:
    if base[0] == "join":
        return _join_text(base[1:], nonce)
    return _select_text(base[1:], nonce)


def cold_stream(seed: int) -> Iterator[Req]:
    """Distinct queries forever; each request's tag holds its bases."""
    rng = random.Random(seed)
    nonce = 0
    while True:
        block = list(COLD_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "batch":
                bases, items = [], []
                for _ in range(COLD_BATCH_SIZE):
                    base = _cold_base(rng, "select")
                    nonce += 1
                    xquery, slug = cold_text(base, nonce)
                    bases.append(base)
                    items.append(_query_payload(xquery, slug))
                yield _post("/api/query/batch", {"queries": items},
                            ("batch", tuple(bases)))
            else:
                base = _cold_base(rng, kind)
                nonce += 1
                xquery, slug = cold_text(base, nonce)
                yield _post("/api/query", _query_payload(xquery, slug),
                            ("one", base))


class ColdReferences:
    """Interpreter answers per base, computed once each."""

    def __init__(self, testbed) -> None:
        self.testbed = testbed
        self.answers: dict[tuple, list] = {}

    def __getitem__(self, base: tuple) -> list:
        if base not in self.answers:
            xquery, slug = cold_text(base, 1)
            self.answers[base] = interpret(xquery,
                                           _scope(self.testbed, slug))
        return self.answers[base]


def check_cold(checker: Checker, sample: Sample,
               references: ColdReferences) -> None:
    kind, bases = sample.req.tag
    label = f"cold request {sample.index}"
    if sample.resp.status != 200:
        checker.fail(f"{label}: status {sample.resp.status}")
        return
    if kind == "one":
        check_query_body(checker, label, sample.resp.body,
                         references[bases])
        return
    try:
        results = json.loads(sample.resp.body)["results"]
    except (ValueError, KeyError):
        checker.fail(f"{label}: malformed batch body")
        return
    checker.expect(len(results) == len(bases),
                   f"{label}: batch answered {len(results)} items")
    for position, (base, result) in enumerate(zip(bases, results)):
        checker.expect(
            result.get("status") == 200
            and result.get("items") == references[base],
            f"{label}[{position}]: served items differ from the "
            f"interpreter")


# --------------------------------------------------------------------------- #
# site-mix: visitors on the live site
# --------------------------------------------------------------------------- #

# No record of how visitors used the THALIA site exists, so the three
# shares below are unverified assumptions that cover every request
# class, not observed traffic (README, "The traffic shares are
# assumptions").

#: One score upload after every this many requests.
UPLOAD_EVERY = 100
#: Share of page and raw-XML GETs sent conditionally (If-None-Match -> 304).
CONDITIONAL_SHARE = 0.3
#: Request classes and their weights in the mix.
SITE_WEIGHTS = (("page", 45), ("raw", 25), ("json", 15),
                ("roll", 8), ("bundle", 7))
ACCEPT_GZIP = (("Accept-Encoding", "gzip"),)
SYSTEMS = ("Aurora", "Borealis", "Cascade", "Delta", "Ember", "Fjord")


@dataclass
class SiteReference:
    """Expected bytes for every cacheable URL of the mix."""

    testbed: object
    bodies: dict[str, bytes]          # path -> identity body
    etags: dict[str, str]
    kinds: dict[str, str]             # path -> request class

    def paths(self, kind: str) -> list[str]:
        return [path for path, k in self.kinds.items() if k == kind]


def site_reference(testbed) -> SiteReference:
    from repro.core.honor_roll import HonorRoll
    from repro.server.cache import make_etag
    from repro.website import SiteGenerator
    from repro.website.bundles import (
        CATALOGS_BUNDLE,
        QUERIES_BUNDLE,
        SOLUTIONS_BUNDLE,
        build_catalogs_bundle,
        build_queries_bundle,
        build_solutions_bundle,
    )
    from repro.xmlmodel import serialize_pretty

    site = SiteGenerator(testbed, honor_roll=HonorRoll())
    bodies, kinds = {}, {}
    for relpath, page in site.iter_pages():
        if relpath == "honor_roll.html":
            continue
        bodies["/" + relpath] = page.encode("utf-8")
        kinds["/" + relpath] = "page"
    for bundle in testbed:
        for suffix, text in (
                ("xml", serialize_pretty(bundle.document)),
                ("xsd", serialize_pretty(bundle.schema.to_xsd()))):
            path = f"/data/{bundle.slug}.{suffix}"
            bodies[path] = text.encode("utf-8")
            kinds[path] = "raw"
    for name, builder in ((CATALOGS_BUNDLE, build_catalogs_bundle),
                          (QUERIES_BUNDLE, build_queries_bundle),
                          (SOLUTIONS_BUNDLE, build_solutions_bundle)):
        path = f"/downloads/{name}"
        bodies[path] = builder(testbed)
        kinds[path] = "bundle"
    # JSON inventories are checked by content, not bytes (see check_json);
    # zips by their entries, as their bytes embed the build time.
    for path in ("/api/queries", "/api/sources",
                 *(f"/api/queries/{n}" for n in range(1, 13))):
        kinds[path] = "json"
    etags = {path: make_etag(body) for path, body in bodies.items()}
    return SiteReference(testbed, bodies, etags, kinds)


def upload_payload(number: int, rng: random.Random) -> dict:
    correct = rng.randint(1, 12)
    effort = rng.choice(("NONE", "LOW", "MEDIUM", "HIGH"))
    outcomes = [{"number": q, "supported": q <= correct,
                 "correct": q <= correct,
                 "effort": effort if q <= correct else None,
                 "note": "benchmark upload"} for q in range(1, 13)]
    return {"submitter": f"visitor-{number}",
            "date": f"2004-{1 + number // 28 % 12:02d}-"
                    f"{1 + number % 28:02d}",
            "card": {"system": SYSTEMS[rng.randrange(len(SYSTEMS))],
                     "outcomes": outcomes}}


def site_stream(seed: int, reference: SiteReference) -> Iterator[Req]:
    """The visitors' requests, forever: the weighted GET mix with an
    upload after every UPLOAD_EVERY requests."""
    rng = random.Random(seed)
    classes = [name for name, _ in SITE_WEIGHTS]
    weights = [weight for _, weight in SITE_WEIGHTS]
    pools = {kind: reference.paths(kind) for kind in classes}
    pools["roll"] = ["/honor-roll", "/api/honor-roll"]
    for position in itertools.count(1):
        if position % UPLOAD_EVERY == 0:
            number = position // UPLOAD_EVERY - 1
            yield _post("/api/scores", upload_payload(number, rng),
                        ("upload", number))
            continue
        kind = rng.choices(classes, weights)[0]
        path = rng.choice(pools[kind])
        headers = ACCEPT_GZIP
        conditional = kind in ("page", "raw") \
            and rng.random() < CONDITIONAL_SHARE
        if conditional:
            headers += (("If-None-Match", reference.etags[path]),)
        yield Req("GET", path, headers=headers,
                  tag=("get", kind, conditional))


def roll_follow_ups(number: int) -> list[Req]:
    """The honor-roll reads a visitor makes right after an upload."""
    return [Req("GET", "/api/honor-roll", headers=ACCEPT_GZIP,
                tag=("get", "roll", False, number)),
            Req("GET", "/honor-roll", headers=ACCEPT_GZIP,
                tag=("get", "roll", False, number))]


def identity_body(resp: Resp) -> bytes:
    if resp.headers.get("content-encoding") == "gzip":
        return gzip.decompress(resp.body)
    return resp.body


def zip_contents(data: bytes) -> dict[str, bytes]:
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


class RollReference:
    """The honor roll after the first *k* accepted uploads, built once
    per state by replaying the uploads into one :class:`HonorRoll`."""

    def __init__(self, testbed, uploads: list[dict]) -> None:
        self.testbed = testbed
        self.uploads = uploads          # filled while the run sends them
        self._states: list[list] = []
        self._json: dict[int, list[dict]] = {}
        self._html: dict[int, bytes] = {}

    def ranked(self, k: int) -> list:
        if len(self._states) != len(self.uploads) + 1:
            from repro.core.honor_roll import HonorRoll
            from repro.core.scoring import ScoreCard
            roll = HonorRoll()
            self._states = [roll.ranked()]
            for payload in self.uploads:
                roll.submit(ScoreCard.from_dict(payload["card"]),
                            payload["submitter"], payload["date"])
                self._states.append(roll.ranked())
        return self._states[k]

    def json(self, k: int) -> list[dict]:
        if k not in self._json:
            self._json[k] = [
                {"rank": rank, "system": entry.card.system,
                 "correct": entry.card.correct_count,
                 "complexity": entry.card.complexity_score,
                 "no_code": entry.card.no_code_count,
                 "submitter": entry.submitter, "date": entry.date}
                for rank, entry in enumerate(self.ranked(k), 1)]
        return self._json[k]

    def html(self, k: int) -> bytes:
        from repro.website import SiteGenerator
        if k not in self._html:
            state = _RankedState(self.ranked(k))
            self._html[k] = SiteGenerator(
                self.testbed, honor_roll=state).render_page(
                    "honor_roll.html").encode("utf-8")
        return self._html[k]


class _RankedState:
    """A fixed honor-roll state for :class:`SiteGenerator`."""

    def __init__(self, entries: list) -> None:
        self.entries = entries

    def ranked(self) -> list:
        return self.entries


def check_get(checker: Checker, reference: SiteReference, path: str,
              conditional: bool, resp: Resp) -> None:
    """A cacheable GET of the mix against its reference."""
    label = f"GET {path}"
    if conditional:
        checker.expect(resp.status == 304 and not resp.body,
                       f"{label}: conditional GET answered {resp.status}")
        return
    if resp.status != 200:
        checker.fail(f"{label}: status {resp.status}")
        return
    try:
        body = identity_body(resp)
    except OSError:
        checker.fail(f"{label}: bad gzip body")
        return
    if reference.kinds.get(path) == "json":
        check_json(checker, reference.testbed, path, body)
    elif reference.kinds.get(path) == "bundle":
        checker.expect(zip_contents(body)
                       == zip_contents(reference.bodies[path]),
                       f"{label}: bundle contents differ")
    else:
        checker.expect(body == reference.bodies[path],
                       f"{label}: body differs from the reference")
        checker.expect(resp.headers.get("etag") == reference.etags[path],
                       f"{label}: ETag differs")


def check_json(checker: Checker, testbed, path: str, body: bytes) -> None:
    from repro.core import QUERIES
    payload = json.loads(body)
    if path == "/api/sources":
        got = [(entry["slug"], entry["records"]) for entry in payload]
        want = [(source.slug, source.stats.records) for source in testbed]
        checker.expect(got == want, f"GET {path}: inventory differs")
    elif path == "/api/queries":
        checker.expect([entry["xquery"] for entry in payload]
                       == [query.xquery for query in QUERIES],
                       f"GET {path}: query list differs")
    else:
        number = int(path.rsplit("/", 1)[1])
        checker.expect(payload.get("xquery")
                       == QUERIES[number - 1].xquery,
                       f"GET {path}: query definition differs")


def check_roll(checker: Checker, roll: RollReference, path: str,
               lo: int, hi: int, resp: Resp) -> None:
    """An honor-roll read must show a state between the uploads acked
    before it was sent (*lo*) and those sent before it returned (*hi*)."""
    label = f"GET {path} (after {lo} upload(s))"
    if resp.status != 200:
        checker.fail(f"{label}: status {resp.status}")
        return
    body = identity_body(resp)
    if path == "/api/honor-roll":
        served = json.loads(body)
        ok = any(served == roll.json(k) for k in range(lo, hi + 1))
    else:
        ok = any(body == roll.html(k) for k in range(lo, hi + 1))
    checker.expect(ok, f"{label}: stale or wrong honor roll")


def check_store(checker: Checker, scores_path: Path,
                acked: list[dict]) -> None:
    """The durable store holds exactly the acknowledged uploads, in order."""
    lines = [json.loads(line) for line in
             scores_path.read_text(encoding="utf-8").splitlines()
             if line.strip()] if scores_path.exists() else []
    got = [(entry["submitter"], entry["date"], entry["system"],
            entry["outcomes"]) for entry in lines]
    want = [(p["submitter"], p["date"], p["card"]["system"],
             p["card"]["outcomes"]) for p in acked]
    checker.expect(got == want,
                   f"store holds {len(got)} upload(s), {len(want)} acked, "
                   f"or their order differs")


# --------------------------------------------------------------------------- #
# build-score: the researcher's offline path, in process
# --------------------------------------------------------------------------- #

def paper_verdicts(root: Path) -> dict[str, dict]:
    """Per-query verdicts pinned by the paper-table benchmarks."""
    tables = {}
    for system, module in (("Cohera", "bench_table_cohera"),
                           ("IWIZ", "bench_table_iwiz")):
        spec = importlib.util.spec_from_file_location(
            module, root / "benchmarks" / f"{module}.py")
        loaded = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(loaded)
        tables[system] = loaded.PAPER_VERDICTS
    return tables


def build_seed(seed: int, op: int) -> int:
    return seed * 100_003 + op


def check_cards(checker: Checker, label: str, cards,
                verdicts: dict[str, dict]) -> None:
    by_system = {card.system: card for card in cards}
    for system, table in verdicts.items():
        card = by_system.get(system)
        if card is None:
            checker.fail(f"{label}: no {system} card")
            continue
        for number, verdict in table.items():
            outcome = card.outcome(number)
            if verdict is None:
                ok = not outcome.supported and not outcome.correct
            else:
                ok = outcome.supported and outcome.correct \
                    and outcome.effort == verdict
            checker.expect(ok, f"{label}: {system} Q{number} verdict")
        checker.expect(card.correct_count == 9,
                       f"{label}: {system} answered {card.correct_count}/12")
    mediator = by_system.get("THALIA-Mediator")
    checker.expect(mediator is not None and mediator.correct_count == 12,
                   f"{label}: mediator did not answer 12/12")
