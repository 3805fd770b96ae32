"""edit-requery: writes beside reads on one mutable document.

Each op is one edit of a DBLP-style document of ~10^4 nodes, then one
re-query through ``XPathSession(engine="compiled")``.  The edits follow a
fixed rotation of kinds with seeded targets: article inserts balanced by
removes of earlier inserts (the document size stays put), journal/booktitle
renames, year ``set_text`` and ``mdate`` ``set_attribute``.  The edit
script is generated once per
run, by applying it to a scratch copy, and handed to every process; every
``SAMPLE_EVERY``-th op's answer is checked against a serialize -> reparse
-> query of the same state by another engine, computed at generation.
"""

from __future__ import annotations

import random

from repro import XPathSession
from repro.workloads.documents import doc_dblp_source
from repro.workloads.edits import EditOp, apply_edit, script_from_json, script_to_json
from repro.xmlmodel import parse_xml
from repro.xmlmodel.serializer import serialize

from common import EngineTally, answer_key, median, node_answer
from suite.base import Workload, index_peak_kb, parse_layers, parse_traced
from suite.corpus_query import make_templates

ARTICLES = 680
SCRIPT_LENGTH = 1000
SAMPLE_EVERY = 25
SAMPLED_OPS = 400

#: The re-query rotation: compilable shapes, plus one the compiled engine
#: hands to a tree engine (its fallback path).
ROTATION = (
    "eq_year", "parent", "core", "eq_key", "ancestor", "or_author", "eq_year",
    "prev_key", "core", "parent", "eq_key", "ancestor", "or_author", "core",
    "eq_year", "eq_key",
)
QUERIES = 32

#: The edit kinds in a fixed 20-slot rotation (5 inserts, 5 removes of
#: earlier inserts, 4 renames, 3 set_text, 3 set_attribute), so every seed
#: runs the same mix and at most two inserted articles are live at once.
EDIT_ROTATION = (
    "insert", "rename", "set_text", "insert", "set_attribute",
    "remove", "rename", "insert", "set_text", "remove",
    "set_attribute", "insert", "rename", "remove", "set_text",
    "insert", "set_attribute", "remove", "rename", "remove",
)
_JOURNALS = ("VLDB J.", "TODS", "SIGMOD Record", "JACM", "TKDE")


def make_inputs(seed: int) -> tuple[str, list[str]]:
    rng = random.Random(seed)
    source = doc_dblp_source(ARTICLES, seed=seed * 1013 + 1)
    templates = make_templates(rng, source)
    queries = [templates[ROTATION[slot % len(ROTATION)]]() for slot in range(QUERIES)]
    return source, queries


def _article(rng: random.Random, serial: int) -> tuple:
    return (
        "article",
        {"mdate": f"2003-01-{1 + rng.randrange(28):02d}", "key": f"journals/new/x{serial}"},
        (
            ("author", None, (f"Ada Author{rng.randrange(50)}",)),
            ("title", None, (f"Edited Record {serial}.",)),
            ("year", None, (str(1990 + rng.randrange(13)),)),
            ("journal", None, (rng.choice(_JOURNALS),)),
        ),
    )


def _next_edit(rng: random.Random, document, live: list, serial: int) -> EditOp:
    """Edit number ``serial``, valid in the document's current state."""
    dblp = document.document_element
    articles = [child for child in dblp.children if child.name == "article"]
    kind = EDIT_ROTATION[serial % len(EDIT_ROTATION)]
    if kind == "insert":
        position = rng.randrange(len(dblp.children) + 1)
        return EditOp("insert", dblp.order, position=position, fragment=_article(rng, serial))
    if kind == "remove":
        return EditOp("remove", live.pop(rng.randrange(len(live))).order)
    article = rng.choice(articles)
    if kind == "rename":
        venue = article.children[-1]
        name = "booktitle" if venue.name == "journal" else "journal"
        return EditOp("rename", venue.order, name=name)
    if kind == "set_text":
        text = article.children[-2].children[0]
        return EditOp("set_text", text.order, value=str(1990 + (int(text.value) - 1989) % 13))
    return EditOp(
        "set_attribute", article.order, name="mdate",
        value=f"2004-{1 + rng.randrange(12):02d}-{1 + rng.randrange(28):02d}",
    )


class EditRequery(Workload):
    name = "edit-requery"
    tail_pct = 90.0
    count_window = 100
    max_ops = SCRIPT_LENGTH

    @staticmethod
    def prepare(seed: int) -> dict:
        source, queries = make_inputs(seed)
        document = parse_xml(source)
        oracle = XPathSession()
        rng = random.Random(seed * 7 + 3)
        live: list = []
        script = []
        expected = {}
        for op in range(SCRIPT_LENGTH):
            edit = _next_edit(rng, document, live, op)
            apply_edit(document, edit)
            if edit.op == "insert":
                live.append(document.document_element.children[edit.position])
            script.append(edit)
            if op % SAMPLE_EVERY == SAMPLE_EVERY - 1 and op < SAMPLED_OPS:
                reparsed = parse_xml(serialize(document))
                result = oracle.run(queries[op % QUERIES], reparsed, engine="topdown")
                expected[str(op)] = answer_key(node_answer(result))
        return {"script": script_to_json(script), "expected": expected}

    def __init__(self, seed: int, shared: dict):
        super().__init__(seed, shared)
        self.source, self.queries = make_inputs(seed)
        self.script = script_from_json(shared["script"])
        self.expected = shared["expected"]

    def setup(self) -> None:
        tracer = self.tracer
        self.document = parse_traced(tracer, self.source)
        self.session = XPathSession(engine="compiled")
        self.tally = EngineTally()
        for query in self.queries:
            with tracer.span("plan.compile"):
                plan = self.session.compile(query)
            with tracer.span("plan.lower"):
                plan.array_program()
            self.session.run(plan, self.document)

    def begin(self) -> None:
        self.tally = EngineTally()
        stats = self.document.mutation_stats
        self.base_edits, self.base_repairs, self.base_rebuilds = (
            stats.edits, stats.repairs, stats.rebuilds
        )

    def run(self, op: int):
        tracer = self.tracer
        with tracer.span("xmlmodel.edit"):
            apply_edit(self.document, self.script[op])
        with tracer.span("session.run"):
            result = self.session.run(self.queries[op % QUERIES], self.document)
            tracer.add(f"engines.{result.engine_name}", result.elapsed_seconds)
        self.tally.record(result, tracer.enabled)
        with tracer.span("result.materialize"):
            return node_answer(result)

    def check(self, op: int, answer) -> bool:
        expected = self.expected.get(str(op))
        return expected is None or answer_key(answer) == expected

    def counts(self) -> dict[str, float]:
        stats = self.document.mutation_stats
        edits = stats.edits - self.base_edits
        counts = self.tally.counts()
        counts["xmlmodel.edits"] = edits
        counts["xmlmodel.repairs_per_edit"] = (stats.repairs - self.base_repairs) / edits
        counts["xmlmodel.rebuilds_per_kedit"] = 1000.0 * (stats.rebuilds - self.base_rebuilds) / edits
        return counts

    def layers(self) -> dict[str, float]:
        tracer = self.tracer
        metrics = parse_layers(tracer)
        metrics.update(self.tally.timings())
        metrics["plan.lower_us"] = median(tracer.durations("plan.lower")) * 1e6
        metrics["xmlmodel.edit_us"] = median(tracer.durations("xmlmodel.edit", timed_only=True)) * 1e6
        metrics["session.overhead_us"] = median(tracer.self_durations("session.run")) * 1e6
        metrics["result.materialize_us"] = median(tracer.durations("result.materialize", timed_only=True)) * 1e6
        metrics["xmlmodel.index_peak_kb"] = index_peak_kb(self.source)
        return metrics
