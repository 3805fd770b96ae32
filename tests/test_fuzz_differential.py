"""Grammar-driven differential fuzzing of all engines, cached and uncached.

A seeded generator derives random Core XPath / XPatterns queries from the
fragment grammars of Section 10 (location paths over the navigational axes;
predicates that are and/or/not combinations of existential paths; attribute
tests and string-equality tests for the XPatterns round), plus a small
family beyond XPatterns that the compiled engine also lowers: ``[k]`` and
``[last()]`` on child and sibling steps, ``π op N`` numeric comparisons and
``count(π)``.  Every generated query is evaluated by every registered engine
that accepts it — through a cold compile, a fresh plan cache, and the shared
default cache — and all results must be identical.

The seed is fixed (`FUZZ_SEED`, overridable via the REPRO_FUZZ_SEED
environment variable) so CI runs are reproducible; bump the iteration count
locally for deeper sweeps.
"""

import itertools
import os
import random
import re

import pytest

from repro import api
from repro.engines.base import EvalLimits
from repro.errors import ResourceLimitExceeded
from repro.parallel import ParallelExecutor
from repro.plan import PlanCache, plan_for
from repro.session import XPathSession
from repro.streaming import stream_select
from repro.workloads import random_edit_script
from repro.workloads.documents import (
    doc_figure8,
    doc_flat,
    doc_library,
    doc_wide,
    random_document,
)
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize
from repro.xpath.values import NodeSet

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260731"))
CORE_QUERY_COUNT = 60
XPATTERNS_QUERY_COUNT = 30
EXTENDED_QUERY_COUNT = 20

#: Navigational axes of the Core XPath grammar (Section 10.1).
AXES = (
    "self",
    "child",
    "parent",
    "descendant",
    "ancestor",
    "descendant-or-self",
    "ancestor-or-self",
    "following",
    "preceding",
    "following-sibling",
    "preceding-sibling",
)
NAME_TESTS = ("a", "b", "c", "*")
KIND_TESTS = ("node()", "text()", "comment()")
#: The steps that take ``[k]`` / ``[last()]`` in the extended family.
POSITIONAL_AXES = ("child", "following-sibling", "preceding-sibling")
POSITIONS = ("1", "2", "3", "last()")
COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")
#: Number literals for ``π op N``; the documents hold numeric text ("25",
#: "100", "0"…"5") and text that converts to NaN ("21 22", "n123").
NUMBERS = ("0", "3", "25", "100")

DOCUMENTS = {
    "flat": doc_flat(5),
    "figure8": doc_figure8(),
    "random17": random_document(17, max_depth=3, max_children=3),
    "random42": random_document(42, max_depth=3, max_children=3),
    "wide6": doc_wide(6),
}

ENGINES = sorted(api.ENGINE_CLASSES)


class QueryGrammar:
    """Random derivations of the Core XPath / XPatterns grammars."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._turns: dict[tuple[str, ...], itertools.cycle] = {}

    def turn(self, options: tuple[str, ...]) -> str:
        """The next of ``options`` in rotation, so a short run covers all."""
        cycle = self._turns.setdefault(options, itertools.cycle(options))
        return next(cycle)

    # -- Core XPath (Section 10.1) -------------------------------------
    def core_query(self) -> str:
        absolute = self.rng.random() < 0.6
        steps = [self.core_step(depth=0) for _ in range(self.rng.randint(1, 3))]
        return ("/" if absolute else "") + "/".join(steps)

    def core_step(self, depth: int) -> str:
        axis = self.rng.choice(AXES)
        # Kind tests are rarer, mirroring real query mixes.
        test = (
            self.rng.choice(KIND_TESTS)
            if self.rng.random() < 0.15
            else self.rng.choice(NAME_TESTS)
        )
        step = f"{axis}::{test}"
        if depth < 2 and self.rng.random() < 0.4:
            step += f"[{self.core_predicate(depth + 1)}]"
        return step

    def core_predicate(self, depth: int) -> str:
        roll = self.rng.random()
        if roll < 0.2 and depth < 2:
            return (
                f"{self.core_predicate(depth + 1)} "
                f"{self.rng.choice(('and', 'or'))} "
                f"{self.core_predicate(depth + 1)}"
            )
        if roll < 0.35:
            return f"not({self.core_predicate(depth + 1)})"
        steps = "/".join(self.core_step(depth + 1) for _ in range(self.rng.randint(1, 2)))
        return ("/" + steps) if self.rng.random() < 0.15 else steps

    # -- XPatterns additions (Section 10.2) ----------------------------
    def xpatterns_query(self) -> str:
        steps = [self.core_step(depth=1) for _ in range(self.rng.randint(1, 2))]
        victim = self.rng.randrange(len(steps))
        steps[victim] += f"[{self.xpatterns_predicate()}]"
        return ("/" if self.rng.random() < 0.5 else "") + "/".join(steps)

    def xpatterns_predicate(self) -> str:
        roll = self.rng.random()
        if roll < 0.35:
            return self.rng.choice(("@id", "@*", "@href"))
        if roll < 0.55:
            return self.rng.choice(("text()", "comment()"))
        path = "/".join(self.core_step(depth=2) for _ in range(self.rng.randint(1, 2)))
        op = self.rng.choice(("=", "!="))
        literal = self.rng.choice(("17", "c", ""))
        return f"{path} {op} '{literal}'"

    # -- Beyond XPatterns: positions, numeric comparisons, count() -----
    def extended_query(self) -> str:
        shape = self.turn(("position", "number", "count"))
        start = self.rng.choice(("/descendant-or-self::node()/", "/descendant::*/", "//*/"))
        if shape == "number":
            step = f"{self.core_step(depth=2)}[{self.numeric_predicate()}]"
        else:
            step = self.positional_step()
        query = start + step
        return f"count({query})" if shape == "count" else query

    def positional_step(self) -> str:
        """``[k]`` or ``[last()]`` on a child or sibling step, alone or
        before or after a filter predicate."""
        step = f"{self.turn(POSITIONAL_AXES)}::{self.rng.choice(NAME_TESTS)}"
        position = f"[{self.turn(POSITIONS)}]"
        roll = self.rng.random()
        if roll < 0.3:
            return step + position
        predicate = self.numeric_predicate() if roll < 0.65 else self.core_predicate(2)
        if self.rng.random() < 0.5:
            return f"{step}[{predicate}]{position}"
        return f"{step}{position}[{predicate}]"

    def numeric_predicate(self) -> str:
        path = self.rng.choice((".", "@id", "@n", "text()", "c", "descendant::*"))
        op = self.turn(COMPARISONS)
        number = self.rng.choice(NUMBERS)
        if self.rng.random() < 0.3:
            return f"{number} {op} {path}"
        return f"{path} {op} {number}"


#: Grammar seed offsets; the existing kinds keep theirs so their corpora
#: stay fixed.
_SEED_OFFSETS = {"core": 0, "xpatterns": 1, "extended": 2}


def _generate(kind: str, count: int) -> list[str]:
    grammar = QueryGrammar(FUZZ_SEED + _SEED_OFFSETS[kind])
    produce = getattr(grammar, f"{kind}_query")
    queries, seen = [], set()
    while len(queries) < count:
        query = produce()
        if query not in seen:
            seen.add(query)
            queries.append(query)
    return queries


CORE_QUERIES = _generate("core", CORE_QUERY_COUNT)
XPATTERNS_QUERIES = _generate("xpatterns", XPATTERNS_QUERY_COUNT)
#: The generated family plus fixed cases: the classic reverse-axis position
#: regression (the *nearest* preceding sibling of the third item), and a
#: string comparison whose path carries a numeric predicate, either side.
EXTENDED_QUERIES = _generate("extended", EXTENDED_QUERY_COUNT) + [
    "//item[3]/preceding-sibling::item[1]",
    "//*[item[. > 2] = '4']",
    "//*['3' != c[@id > 11]]",
    "count(//b)",
]
COUNT_QUERIES = [query for query in EXTENDED_QUERIES if query.startswith("count(")]
EXTENDED_NODE_SET_QUERIES = [
    query for query in EXTENDED_QUERIES if query not in COUNT_QUERIES
]
#: A fixed family of ``//`` shapes, the same at every seed.  The compiled
#: engine lowers ``child`` over the normalised ``descendant-or-self::node()``
#: step to one ``descendant`` step; these pin that against every engine,
#: with positions (which group the step's nodes by parent), nested and
#: relative ``//``, and the ``//@a`` / sibling steps that keep the
#: descendant-or-self step.  Ten of them stream, which keeps the streaming
#: sweep above its floor whatever the grammar seed yields.
DESCENDANT_QUERIES = [
    "//b",
    "//b[1]",
    "//b[last()]",
    "//*[2]",
    "//node()",
    "//text()",
    "//c[@id]",
    "//a//b",
    "//*[b][1]",
    "/a//b[c]",
    "//b[. > 3]",
    "//b/following-sibling::*[1]",
    "//@id",
    "//a/descendant-or-self::node()/child::c",
    "descendant-or-self::node()/child::b",
]


def _orders(engine: str, query, document) -> list[int]:
    nodes = api.get_engine(engine).select(query, document)
    return [node.order for node in nodes]


def _answer(engine: str, query, document):
    """Node orders of a node-set result; a count()'s number as is."""
    value = api.get_engine(engine).evaluate(query, document)
    if isinstance(value, NodeSet):
        return [node.order for node in value.in_document_order()]
    return value


def _assert_engines_agree(query: str, accepted_engines):
    """All engines agree, with and without plan caching, on all documents."""
    private_cache = PlanCache(maxsize=64)
    for doc_name, document in DOCUMENTS.items():
        reference = None
        for engine in accepted_engines:
            uncached = _answer(engine, plan_for(query, engine=engine, cache=None), document)
            fresh_cached = _answer(
                engine,
                private_cache.get_or_compile(query, engine=engine),
                document,
            )
            shared_cached = _answer(engine, query, document)  # default cache
            assert uncached == fresh_cached == shared_cached, (
                f"{engine} disagrees with itself on {query!r} over {doc_name}"
            )
            if reference is None:
                reference = (engine, uncached)
            else:
                assert uncached == reference[1], (
                    f"{engine} vs {reference[0]} on {query!r} over {doc_name}: "
                    f"{uncached} != {reference[1]}"
                )


@pytest.mark.parametrize("query", CORE_QUERIES, ids=range(len(CORE_QUERIES)))
def test_core_xpath_fuzz_all_engines_agree(query):
    # Core XPath queries are accepted by every engine, fragment ones included.
    assert api.classify_query(query).in_core_xpath, query
    _assert_engines_agree(query, ENGINES)


@pytest.mark.parametrize(
    "query", XPATTERNS_QUERIES, ids=range(len(XPATTERNS_QUERIES))
)
def test_xpatterns_fuzz_all_engines_agree(query):
    # XPatterns queries fall outside Core XPath's engine only when they use
    # the extensions; evaluate with every engine that accepts the fragment.
    info = api.classify_query(query)
    assert info.in_xpatterns, query
    engines = ENGINES if info.in_core_xpath else [e for e in ENGINES if e != "corexpath"]
    _assert_engines_agree(query, engines)


@pytest.mark.parametrize("query", EXTENDED_QUERIES, ids=range(len(EXTENDED_QUERIES)))
def test_extended_fuzz_all_engines_agree(query):
    # Outside XPatterns: neither fragment engine accepts these.
    assert not api.classify_query(query).in_xpatterns, query
    _assert_engines_agree(query, _engines_for(query))


def test_extended_family_covers_every_shape():
    text = " ".join(EXTENDED_QUERIES)
    for axis in POSITIONAL_AXES:
        assert any(f"{axis}::" in q and "]" in q for q in EXTENDED_QUERIES), axis
    for position in POSITIONS:
        assert f"[{position}]" in text, position
    for op in COMPARISONS:
        assert any(f" {op} {n}" in text or f"{n} {op} " in text for n in NUMBERS), op
    assert COUNT_QUERIES
    # A position both after and before a filter predicate.
    assert any(re.search(r"\]\[(\d|last\(\))\]", q) for q in EXTENDED_QUERIES)
    assert any(re.search(r"\[(\d|last\(\))\]\[", q) for q in EXTENDED_QUERIES)


@pytest.mark.parametrize(
    "query", DESCENDANT_QUERIES, ids=range(len(DESCENDANT_QUERIES))
)
def test_descendant_family_all_engines_agree(query):
    _assert_engines_agree(query, _engines_for(query))


#: Fixed cases for Lemma 10.1 under the typing rule, as (document, query).
#: The set-algebra engines run predicate paths backwards through χ⁻¹, which
#: must not feed attribute nodes into a navigational axis (the three on the
#: first document and the two on Figure 8) and must keep the attributes
#: whose axis reaches the operand (the four ``//@n`` cases).
INVERSE_AXIS_CASES = [
    ("<a><b/><c x='1'/></a>", "//c[node()]"),
    ("<a><b/><c x='1'/></a>", "//*[not(node())]"),
    ("<a><b/><c x='1'/></a>", "//*[attribute::node()]"),
    ("<a><b n='1'><c/></b></a>", "//@n[parent::b]"),
    ("<a><b n='1'><c/></b></a>", "//@n[ancestor::a]"),
    ("<a><b n='1'><c/></b></a>", "//@n[following::c]"),
    ("<a><b n='1'><c/></b></a>", "//@n[following-sibling::c]"),
    ("figure8", "//preceding-sibling::*[attribute::text()]"),
    ("figure8", "//preceding-sibling::b[following::*][not(preceding::node())]"),
]


@pytest.mark.parametrize(
    "source, query", INVERSE_AXIS_CASES, ids=range(len(INVERSE_AXIS_CASES))
)
def test_inverse_axis_cases_all_engines_agree(source, query):
    document = DOCUMENTS[source] if source in DOCUMENTS else parse_xml(source)
    answers = {engine: _answer(engine, query, document) for engine in _engines_for(query)}
    assert len({tuple(answer) for answer in answers.values()}) == 1, (query, answers)


#: A fixed id() family, the same at every seed, over its own documents:
#: two digital libraries, whose books cite each other by ID in ``related``,
#: and two where an ID token touches another text node, so the string value
#: of an element holds fewer tokens than its text nodes do.  Kept out of
#: ALL_QUERIES: streaming refuses id(), and the store's column path
#: declines it.
ID_DOCUMENTS = {
    "library8": doc_library(books=8, seed=11),
    "library20": doc_library(books=20, seed=7),
    "touching": parse_xml(
        "<lib><book id='b1'><t>x</t><r>b2</r></book><book id='b2'/></lib>"
    ),
    "nested": parse_xml(
        "<lib><book id='b1'><r>b2</r></book><book id='b2'><r>b1</r></book></lib>"
    ),
}
ID_QUERIES = [
    # id starts
    "id('bk3')",
    "id('bk3 bk5 nothere bk3')/title",
    "id('b1 b2')/r",
    "id(//book)",
    "id(//related)",
    "id(//related)/title",
    "id(//book/@id)",
    "id(//r)",
    "id(/)",
    # id predicates
    "//book[id(.)]",
    "//book[id(related)]",
    "//book[id(related)/title]",
    "//book[id(related)/@id = 'bk3']",
    "//*[id(.)/@id = 'b1']",
    "//related[id(.)]",
    "//book[id('bk3')]",
    "//book[not(id(related))]",
    # nested id(id(…))
    "id(id('bk3')/related)",
    "id(id(//related))",
    "//*[id(id(.))]",
    "//book[id(id(r))]",
    "//*[id(id('b2'))]",
    # count(id(…))
    "count(id(//related))",
    "count(id('bk1 bk2 b1'))",
    "count(id(//book))",
    # positions after an id start
    "id('bk3')/following-sibling::book[1]",
    "id('bk3 bk5 b2')/preceding-sibling::book[last()]",
    "id(//related)/child::*[2]",
    "id('b1 b2')/r[1]",
    # id paths wherever a path may stand: compared, and with a numeric
    # filter inside an id argument
    "//book[id(related)/pages > 400]",
    "//book[id(related) != 'x']",
    "//*[id(book[pages > 600]/related)]",
]


@pytest.mark.parametrize("query", ID_QUERIES, ids=range(len(ID_QUERIES)))
def test_id_family_all_engines_agree(query):
    # Every id() shape lowers to an array program, which auto picks.
    info = api.classify_query(query)
    assert info.compilable and info.recommended_engine == "compiled", query
    for doc_name, document in ID_DOCUMENTS.items():
        expected = _answer("topdown", query, document)
        for engine in _engines_for(query):
            assert _answer(engine, query, document) == expected, (engine, doc_name)


def test_xpatterns_is_inside_the_compiled_fragment():
    # auto has two picks: compiled for every compilable query, which covers
    # all of XPatterns, and optmincontext for the rest.
    for query in ALL_QUERIES + ID_QUERIES + COUNT_QUERIES:
        info = api.classify_query(query)
        assert info.compilable or not info.in_xpatterns, query
        expected = "compiled" if info.compilable else "optmincontext"
        assert info.recommended_engine == expected, query


def test_generation_is_deterministic_for_fixed_seed():
    assert _generate("core", 10) == _generate("core", 10)
    assert _generate("xpatterns", 5) == _generate("xpatterns", 5)
    assert _generate("extended", 5) == _generate("extended", 5)


# ----------------------------------------------------------------------
# Serial ≡ parallel differential (ISSUE 4)
#
# Every fuzzed (document, query, engine) case also runs through the
# ParallelExecutor — both backends — as a collection batch over all fuzz
# documents, and must match the serial batch result node-for-node,
# per-document failures included.
# ----------------------------------------------------------------------
ALL_QUERIES = (
    CORE_QUERIES + XPATTERNS_QUERIES + EXTENDED_NODE_SET_QUERIES + DESCENDANT_QUERIES
)

#: A dedicated session so the parallel sweep shares plans across the three
#: evaluations of each (query, engine) pair without touching the default
#: session's telemetry.
_PARALLEL_SESSION = XPathSession(cache_size=2 * len(ALL_QUERIES) * len(ENGINES))
_PARALLEL_COLLECTION = _PARALLEL_SESSION.collection(
    DOCUMENTS.values(), names=list(DOCUMENTS)
)


@pytest.fixture(scope="module")
def executors():
    """One worker pool per backend, shared by the whole fuzz sweep."""
    with ParallelExecutor(backend="thread", max_workers=2) as thread_pool:
        with ParallelExecutor(backend="process", max_workers=2) as process_pool:
            yield (thread_pool, process_pool)


def _batch_shape(batch) -> list:
    """Per-document fingerprint: result node orders, or the failure type."""
    return [
        tuple(node.order for node in result.nodes)
        if result.ok
        else type(result.error).__name__
        for result in batch
    ]


def _engines_for(query: str) -> list[str]:
    """The engines whose fragment accepts ``query``."""
    info = api.classify_query(query)
    if info.in_core_xpath:
        return ENGINES
    if info.in_xpatterns:
        return [engine for engine in ENGINES if engine != "corexpath"]
    return [engine for engine in ENGINES if engine not in ("corexpath", "xpatterns")]


@pytest.mark.parametrize("query", ALL_QUERIES, ids=range(len(ALL_QUERIES)))
def test_parallel_batches_match_serial(query, executors):
    for engine in _engines_for(query):
        serial = _PARALLEL_COLLECTION.select(query, engine=engine)
        expected = _batch_shape(serial)
        for executor in executors:
            got = _batch_shape(
                _PARALLEL_COLLECTION.select(query, engine=engine, parallel=executor)
            )
            assert got == expected, (
                f"{executor.backend} backend disagrees with serial for "
                f"{engine} on {query!r}: {got} != {expected}"
            )


# ----------------------------------------------------------------------
# Streaming ↔ tree differential (ISSUE 5)
#
# Every streamable fuzzed query runs through the single-pass streaming
# evaluator over the *serialised* fuzz documents and must match every tree
# engine node-for-node on the re-parsed text (serialise → parse is
# structure-preserving, so the document orders line up).  Resource-limit
# parity rides along: the backend-independent max_result_nodes cap must
# breach identically, and a one-operation budget must abort both backends.
# ----------------------------------------------------------------------
STREAMABLE_QUERIES = [
    query for query in ALL_QUERIES if api.classify_query(query).streamable
]

#: The fixed seed must keep yielding a meaningful streaming sweep; if a
#: grammar change sinks this floor, regenerate or extend the corpus.
MIN_STREAMABLE_CASES = 8

DOCUMENT_SOURCES = {
    name: serialize(document) for name, document in DOCUMENTS.items()
}


def test_fuzz_corpus_has_streamable_cases():
    assert len(STREAMABLE_QUERIES) >= MIN_STREAMABLE_CASES, STREAMABLE_QUERIES


@pytest.mark.parametrize(
    "query", STREAMABLE_QUERIES, ids=range(len(STREAMABLE_QUERIES))
)
def test_streaming_matches_every_tree_engine(query):
    for doc_name, source in DOCUMENT_SOURCES.items():
        document = parse_xml(source)
        streamed = [match.order for match in stream_select(query, source)]
        for engine in _engines_for(query):
            tree = _orders(engine, query, document)
            assert streamed == tree, (
                f"streaming vs {engine} on {query!r} over {doc_name}: "
                f"{streamed} != {tree}"
            )


LIMIT_PARITY_QUERIES = STREAMABLE_QUERIES[
    : max(MIN_STREAMABLE_CASES, len(STREAMABLE_QUERIES) // 2)
]


@pytest.mark.parametrize(
    "query", LIMIT_PARITY_QUERIES, ids=range(len(LIMIT_PARITY_QUERIES))
)
def test_streaming_limit_parity(query):
    """ResourceLimitExceeded parity between the backends.

    The result-node cap is accounting-independent, so for every document the
    streamed scan must breach exactly when the tree engine does (cap set one
    below the actual result size, then exactly at it); the operation budget
    is accounting-*dependent*, so parity there is behavioural: a minimal
    budget aborts both backends with the same exception type.
    """
    for doc_name, source in DOCUMENT_SOURCES.items():
        document = parse_xml(source)
        result_size = len(api.select(query, document))
        if result_size > 0:
            tight = EvalLimits(max_result_nodes=result_size - 1)
            with pytest.raises(ResourceLimitExceeded):
                stream_select(query, source, limits=tight)
            with pytest.raises(ResourceLimitExceeded):
                api.select(query, document, limits=tight)
        exact = EvalLimits(max_result_nodes=max(result_size, 1))
        assert [m.order for m in stream_select(query, source, limits=exact)] == [
            node.order for node in api.select(query, document, limits=exact)
        ], (query, doc_name)
    minimal = EvalLimits(max_operations=1)
    source = DOCUMENT_SOURCES["figure8"]
    with pytest.raises(ResourceLimitExceeded):
        stream_select(query, source, limits=minimal)
    with pytest.raises(ResourceLimitExceeded):
        api.select(query, parse_xml(source), limits=minimal)


# ----------------------------------------------------------------------
# Compiled array-program ↔ tree differential (ISSUE 7)
#
# The compiled engine is already a member of ENGINES, so every fuzz case
# above runs it against the other eight engines (and the streamable subset
# against the streaming evaluator).  The tests below pin down what that
# sweep alone cannot: that compilable cases actually execute the array
# program (not the fallback), and that resource limits abort the array
# path like the interpreters.
# ----------------------------------------------------------------------
COMPILABLE_QUERIES = [
    query for query in ALL_QUERIES if api.classify_query(query).compilable
]

#: The fixed seed must keep the compiled backend meaningfully exercised;
#: the whole fuzz grammar (Core XPath, id-free XPatterns and the extended
#: family) lowers, so any drop below the corpus size means the classifier
#: or grammar regressed.
MIN_COMPILABLE_CASES = len(ALL_QUERIES) // 2


def test_fuzz_corpus_has_compilable_cases():
    assert len(COMPILABLE_QUERIES) >= MIN_COMPILABLE_CASES, len(COMPILABLE_QUERIES)


_COMPILED_SESSION = XPathSession(engine="compiled", cache_size=2 * len(ALL_QUERIES))


@pytest.mark.parametrize(
    "query", COMPILABLE_QUERIES, ids=range(len(COMPILABLE_QUERIES))
)
def test_compiled_runs_array_path_on_compilable_fuzz_cases(query):
    """Compilable cases execute the array program — no silent fallback."""
    for doc_name, document in DOCUMENTS.items():
        result = _COMPILED_SESSION.run(query, document)
        counters = result.stats.as_dict()
        assert counters.get("compiled_instructions", 0) > 0, (query, doc_name)
        assert counters.get("compiled_fallbacks", 0) == 0, (query, doc_name)
        assert [node.order for node in result.nodes] == _orders(
            "topdown", query, document
        ), (query, doc_name)


_GRAMMAR_COMPILABLE = [q for q in COMPILABLE_QUERIES if q not in EXTENDED_QUERIES]
#: A quarter of the Core XPath / XPatterns cases, plus every compilable
#: case of the extended family.
LIMIT_PARITY_QUERIES = _GRAMMAR_COMPILABLE[: max(8, len(_GRAMMAR_COMPILABLE) // 4)] + [
    q for q in COMPILABLE_QUERIES if q in EXTENDED_QUERIES
]


@pytest.mark.parametrize("query", COUNT_QUERIES, ids=range(len(COUNT_QUERIES)))
def test_compiled_counts_on_the_array_path(query):
    """count(π) runs as a count program and matches topdown by value."""
    for doc_name, document in DOCUMENTS.items():
        result = _COMPILED_SESSION.run(query, document)
        counters = result.stats.as_dict()
        assert counters.get("compiled_instructions", 0) > 0, (query, doc_name)
        assert counters.get("compiled_fallbacks", 0) == 0, (query, doc_name)
        assert result.value == _answer("topdown", query, document), (query, doc_name)


@pytest.mark.parametrize(
    "query", LIMIT_PARITY_QUERIES, ids=range(len(LIMIT_PARITY_QUERIES))
)
def test_compiled_limit_parity(query):
    """Limits behave like the interpreters: the result-node cap breaches at
    exactly the same threshold, and a one-operation budget aborts the
    program mid-run."""
    for doc_name, document in DOCUMENTS.items():
        result_size = len(api.select(query, document))
        if result_size > 0:
            tight = EvalLimits(max_result_nodes=result_size - 1)
            with pytest.raises(ResourceLimitExceeded):
                api.select(query, document, engine="compiled", limits=tight)
        exact = EvalLimits(max_result_nodes=max(result_size, 1))
        assert [
            node.order
            for node in api.select(query, document, engine="compiled", limits=exact)
        ] == _orders("topdown", query, document), (query, doc_name)
    minimal = EvalLimits(max_operations=1)
    with pytest.raises(ResourceLimitExceeded):
        api.select(query, DOCUMENTS["figure8"], engine="compiled", limits=minimal)


# ----------------------------------------------------------------------
# Edit-interleaved fuzzing (ISSUE 10)
#
# The grammar-driven queries also run against documents that mutate
# between evaluations: evaluate → random edit script → evaluate again,
# round after round.  After every round all engines must agree with a
# serialize → reparse reference, so the incrementally repaired index is
# differentially checked against the from-scratch parser path at each
# intermediate generation — not just once at the end.
# ----------------------------------------------------------------------
INTERLEAVED_QUERIES = ALL_QUERIES[::8]
EDIT_ROUNDS = 4
EDITS_PER_ROUND = 3


@pytest.mark.parametrize("doc_seed", (19, 37))
def test_fuzz_queries_survive_interleaved_edits(doc_seed):
    document = random_document(doc_seed, max_depth=4, max_children=4)
    document.index  # live index so every round exercises the repair path
    rng = random.Random(FUZZ_SEED ^ doc_seed)
    for round_number in range(EDIT_ROUNDS):
        random_edit_script(
            document, EDITS_PER_ROUND, seed=rng.randrange(1 << 30)
        )
        reparsed = parse_xml(serialize(document))
        for query in INTERLEAVED_QUERIES:
            expected = _orders("topdown", query, reparsed)
            for engine in _engines_for(query):
                got = _orders(engine, query, document)
                assert got == expected, (
                    f"{engine} on {query!r} diverged from reparse after "
                    f"round {round_number} (doc seed {doc_seed})"
                )
    assert document.generation == EDIT_ROUNDS * EDITS_PER_ROUND
    stats = document.mutation_stats
    assert stats.repairs > 0
    assert stats.rebuilds == 0  # no edit drops a live index


@pytest.mark.parametrize(
    "query", CORE_QUERIES[: len(CORE_QUERIES) // 3], ids=range(len(CORE_QUERIES) // 3)
)
def test_parallel_limit_isolation_matches_serial(query, executors):
    """Tight budgets breach on some fuzz documents and not others; the
    per-document ResourceLimitExceeded pattern must be identical in
    parallel, whatever it is."""
    limits = EvalLimits(max_operations=60)
    for engine in ("topdown", "naive"):
        serial = _PARALLEL_COLLECTION.select(query, engine=engine, limits=limits)
        expected = _batch_shape(serial)
        for executor in executors:
            got = _batch_shape(
                _PARALLEL_COLLECTION.select(
                    query, engine=engine, limits=limits, parallel=executor
                )
            )
            assert got == expected, (executor.backend, engine, query)
