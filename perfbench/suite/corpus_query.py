"""corpus-query: the read path over a few resident DBLP-style documents.

Each op is one ``XPathSession(engine="auto")`` query of a parsed document:
``session.compile`` (the plan-cache lookup, a compile on a miss), then
``session.run`` of that plan, then the answer's node orders.  Queries come
from a fixed rotation of templates (equality, boolean, positional,
``count()``, reverse-axis and Core XPath shapes) whose literals are drawn
with Zipf skew, so a few queries repeat and a long tail does not: the
cycle holds more distinct query strings than the session's 256-plan cache.
"""

from __future__ import annotations

import random
import re

from repro import XPathSession
from repro.workloads.documents import doc_dblp_source
from repro.xmlmodel import parse_xml

from common import EngineTally, answer_key, median, node_answer, zipf_choice
from suite.base import Workload, index_peak_kb, parse_layers, parse_traced

DOCUMENTS = 3
ARTICLES = 150
CYCLE = 640

#: One template per slot of a fixed 16-slot rotation, so every seed runs
#: the same mix of shapes and only documents and literals vary.  The mix
#: puts the median op inside one template's latencies (``or_author``)
#: rather than in the gap between two.
ROTATION = (
    "eq_year", "count", "or_author", "parent", "core", "prev_key",
    "eq_key", "ancestor", "pos", "eq_year", "or_author", "core",
    "gt_year", "or_author", "eq_key", "last_author",
)

_TAGS = ("author", "title", "year", "journal", "editor", "booktitle", "ee", "pages")


def _entity_table(source: str) -> dict[str, str]:
    return dict(re.findall(r'<!ENTITY (\w+) "([^"]*)">', source))


def _expand(text: str, entities: dict[str, str]) -> str:
    return re.sub(r"&(\w+);", lambda match: entities[match.group(1)], text)


def _ranked(rng: random.Random, values) -> list:
    """Distinct values in a seeded order: the Zipf rank of each value."""
    pool = sorted(set(values))
    rng.shuffle(pool)
    return pool


def make_templates(rng: random.Random, text: str) -> dict:
    """Query generators, one per template, drawing literals from the
    values present in the DBLP-style source ``text`` with Zipf skew."""
    entities = _entity_table(text)
    authors = _ranked(rng, (_expand(a, entities) for a in re.findall(r"<author>([^<]*)</author>", text)))
    titles = _ranked(rng, re.findall(r"<title>([^<]*)</title>", text))
    keys = _ranked(rng, re.findall(r'key="([^"]*)"', text))
    years = _ranked(rng, re.findall(r"<year>([^<]*)</year>", text))
    journals = _ranked(rng, re.findall(r"<journal>([^<]*)</journal>", text))

    def author() -> str:
        return zipf_choice(rng, authors)

    def year() -> str:
        return zipf_choice(rng, years)

    def journal() -> str:
        return zipf_choice(rng, journals)

    def key() -> str:
        return zipf_choice(rng, keys)

    return {
        "eq_year": lambda: f"//article[year='{year()}']/title",
        "or_author": lambda: f"//article[author='{author()}' or journal='{journal()}']/title",
        "parent": lambda: f"//author[.='{author()}']/parent::article/year",
        "eq_key": lambda: f"//article[@key='{key()}']/title",
        "ancestor": lambda: f"//year[.='{year()}']/ancestor::article/journal",
        "core": lambda: "//article[{} and not({})]/{}".format(*rng.sample(_TAGS, 3)),
        "count": lambda: f"count(//article[journal='{journal()}' and year='{year()}'])",
        "pos": lambda: f"//article[year='{year()}'][{1 + rng.randrange(3)}]/author[1]",
        "prev_key": lambda: f"//article[@key='{key()}']/preceding-sibling::article[1]/title",
        "gt_year": lambda: f"//article[year>{year()} and journal='{journal()}']/@key",
        "last_author": lambda: (
            f"//title[.='{zipf_choice(rng, titles)}']/preceding-sibling::author[last()]"
        ),
    }


def make_inputs(seed: int) -> tuple[list[str], list[tuple[int, str]]]:
    """The document sources and the op cycle ``(document, query)``."""
    rng = random.Random(seed)
    sources = [doc_dblp_source(ARTICLES, seed=seed * 1009 + k) for k in range(DOCUMENTS)]
    templates = make_templates(rng, "".join(sources))
    cycle = [
        (rng.randrange(DOCUMENTS), templates[ROTATION[slot % len(ROTATION)]]())
        for slot in range(CYCLE)
    ]
    return sources, cycle


def _oracle_engine(auto_engine: str) -> str:
    """A second engine for the oracle: compiled arrays for the plans the
    fragment engines take, the top-down interpreter for the rest."""
    return "compiled" if auto_engine in ("xpatterns", "corexpath") else "topdown"


class CorpusQuery(Workload):
    name = "corpus-query"
    tail_pct = 97.5
    count_window = 256

    @staticmethod
    def prepare(seed: int) -> dict:
        sources, cycle = make_inputs(seed)
        documents = [parse_xml(source) for source in sources]
        auto = XPathSession(engine="auto")
        oracle = XPathSession()
        answers: dict[tuple[int, str], str] = {}
        for doc_index, query in cycle:
            if (doc_index, query) not in answers:
                engine = _oracle_engine(auto.compile(query).engine_name)
                result = oracle.run(query, documents[doc_index], engine=engine)
                answers[doc_index, query] = answer_key(node_answer(result))
        return {
            "expected": [answers[op] for op in cycle],
            "distinct_queries": len({query for _doc, query in cycle}),
        }

    def __init__(self, seed: int, shared: dict):
        super().__init__(seed, shared)
        self.sources, self.cycle = make_inputs(seed)
        self.expected = shared["expected"]

    def setup(self) -> None:
        self.documents = [
            parse_traced(self.tracer, source) for source in self.sources
        ]
        self.session = XPathSession(engine="auto")
        self.tally = EngineTally()
        seen = set()
        for op, pair in enumerate(self.cycle):
            if pair not in seen:
                seen.add(pair)
                self.run(op)

    def begin(self) -> None:
        self.tally = EngineTally()
        stats = self.session.cache.stats
        self.base_hits, self.base_misses = stats.hits, stats.misses

    def run(self, op: int):
        doc_index, query = self.cycle[op % CYCLE]
        tracer = self.tracer
        cache_stats = self.session.cache.stats
        misses = cache_stats.misses
        with tracer.span("plan.lookup") as span:
            plan = self.session.compile(query)
        if cache_stats.misses != misses and tracer.enabled:
            tracer.rename(span, "plan.compile")
        with tracer.span("session.run"):
            result = self.session.run(plan, self.documents[doc_index])
            tracer.add(f"engines.{result.engine_name}", result.elapsed_seconds)
        self.tally.record(result, tracer.enabled)
        with tracer.span("result.materialize"):
            return node_answer(result)

    def check(self, op: int, answer) -> bool:
        return answer_key(answer) == self.expected[op % CYCLE]

    def counts(self) -> dict[str, float]:
        stats = self.session.cache.stats
        hits = stats.hits - self.base_hits
        misses = stats.misses - self.base_misses
        counts = self.tally.counts()
        counts["plan.compiles"] = misses
        counts["plan.cache_lookups"] = hits + misses
        counts["plan.cache_hit_rate"] = hits / (hits + misses)
        counts["plan.distinct_queries"] = self.shared["distinct_queries"]
        return counts

    def layers(self) -> dict[str, float]:
        tracer = self.tracer
        metrics = parse_layers(tracer)
        metrics.update(self.tally.timings())
        metrics["plan.compile_us"] = median(tracer.durations("plan.compile", timed_only=True)) * 1e6
        metrics["plan.lookup_us"] = median(tracer.durations("plan.lookup", timed_only=True)) * 1e6
        metrics["session.overhead_us"] = median(tracer.self_durations("session.run")) * 1e6
        metrics["result.materialize_us"] = median(tracer.durations("result.materialize", timed_only=True)) * 1e6
        metrics["xmlmodel.index_peak_kb"] = index_peak_kb(self.sources[0])
        return metrics
