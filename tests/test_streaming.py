"""The single-pass streaming evaluator and its wiring.

Covers the streamability analysis, automaton correctness (differentially
against the tree engines over serialised documents — orders must agree
node-for-node), the well-formedness checks it shares with parse_xml,
resource limits at event granularity, and the session / collection /
parallel wiring.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.engines.base import EvalLimits, EvaluationStats
from repro.errors import (
    ResourceLimitExceeded,
    XMLSyntaxError,
    XPathEvaluationError,
)
from repro.plan import compile_plan
from repro.parallel import ParallelExecutor
from repro.session import StreamRun, XPathSession
from repro.streaming import (
    StreamMatch,
    analyze_streamability,
    compile_stream,
    stream_matches,
    stream_select,
)
from repro.workloads.documents import doc_figure8, random_document
from repro.xmlmodel.nodes import NodeType
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize
from repro.xpath.normalize import compile_query


# ----------------------------------------------------------------------
# Streamability analysis
# ----------------------------------------------------------------------
STREAMABLE_QUERIES = [
    "//b",
    "/a/b/c",
    "child::*",
    "self::node()",
    "/descendant-or-self::node()",
    "//@id",
    "//b/attribute::*",
    "//b[@x]",
    "//b[@x='2']",
    "//b[not(@x) and @y!='1']",
    "//b[position()=2]",
    "//b[3]",
    "//*[@id][2]",
    "//b[attribute::x > 1]/c",
    "//text()",
    "//comment()",
    "//processing-instruction('pi')",
    "//a | //b",
    "//b[self::b]",
    "//b[count(@*) = 2]",
    "//b[starts-with(@x, 'ab')]",
    "//b[string-length(@x) > 1]",
    "descendant::b[@x]/self::b",
]

NON_STREAMABLE = {
    "//b/parent::a": "parent",
    "//b/ancestor-or-self::*": "ancestor",
    "//b/following-sibling::b": "following-sibling",
    "//b[last()]": "last()",
    "//b[child::c]": "child",
    "//b[descendant::c]": "descendant",
    "//b[. = 'x']": "string value",
    "//b[string() = 'x']": "string()",
    "count(//b)": "location path",
    "//b[$v]": "variable",
    "//b[/a]": "absolute",
    "//b[id('k')]": "id()",
    "(//b)[1]": "location path",
    "//b[preceding-sibling::b][2]": "preceding-sibling",
    "descendant::b[position() = 2]": "position()",
}


class TestStreamabilityAnalysis:
    @pytest.mark.parametrize("query", STREAMABLE_QUERIES)
    def test_streamable(self, query):
        report = analyze_streamability(compile_query(query))
        assert report.streamable, (query, report.violations)
        assert report.violations == ()

    @pytest.mark.parametrize("query,needle", sorted(NON_STREAMABLE.items()))
    def test_not_streamable_with_reason(self, query, needle):
        report = analyze_streamability(compile_query(query))
        assert not report.streamable, query
        assert any(needle in violation for violation in report.violations), (
            query,
            report.violations,
        )

    def test_classification_carries_streamability(self):
        info = api.classify_query("//b[@x]")
        assert info.streamable and info.streaming_violations == ()
        info = api.classify_query("//b[last()]")
        assert not info.streamable
        assert info.streaming_violations

    def test_plan_exposes_streamability(self):
        assert compile_plan("//b").streamable
        plan = compile_plan("//b/parent::a")
        assert not plan.streamable
        assert plan.streaming_violations

    def test_explain_reports_streamability(self):
        assert "streaming:  yes" in api.explain("//b")
        text = api.explain("//b[last()]")
        assert "streaming:  no (" in text

    def test_compile_stream_rejects_non_streamable(self):
        with pytest.raises(XPathEvaluationError, match="not streamable"):
            compile_stream("//b[last()]")

    def test_plan_memoises_its_automaton(self):
        # A batch over N sources must compile the automaton once, not N
        # times: repeated calls return the identical object, and a
        # retargeted plan carries it over like the algebra plans.
        plan = compile_plan("//b[@x]")
        automaton = plan.stream_automaton()
        assert plan.stream_automaton() is automaton
        assert compile_stream(plan) is automaton
        retargeted = compile_plan(plan, engine="naive")
        assert retargeted.stream_automaton() is automaton


# ----------------------------------------------------------------------
# Automaton vs tree engines (the ground truth)
# ----------------------------------------------------------------------
RICH_XML = (
    '<?xml version="1.0"?>'
    "<!DOCTYPE a>"
    '<a id="r" xmlns:p="urn:x">'
    "<!--top-->"
    '<b x="1" y="2">alpha<c/>beta</b>'
    "<b>plain</b>"
    '<b x="10"><c y="3">gamma</c><![CDATA[raw<>]]>tail</b>'
    "<?pi data ?>"
    "d&amp;e"
    "</a>"
)

DOCUMENTS = {
    "rich": RICH_XML,
    "flat": "<a>" + "<b/>" * 7 + "</a>",
    "deep": "<b>" * 9 + "</b>" * 9,
    "random11": serialize(random_document(11, max_depth=3, max_children=3)),
    "random29": serialize(random_document(29, max_depth=4, max_children=2)),
    "figure8": serialize(doc_figure8()),
}

DIFFERENTIAL_QUERIES = [
    "//b",
    "//c",
    "/a/b",
    "//@x",
    "//@*",
    "//b[@x]/c",
    "//b[@x='10']",
    "//b[@x and @y]",
    "//b[@x or position()=2]",
    "//b[2]",
    "//c[1]",
    "//b[@x > 1]",
    "//b[not(@x)]",
    "//text()",
    "//node()",
    "/descendant-or-self::node()",
    "//comment() | //processing-instruction()",
    "//b/descendant-or-self::c",
    "//*[@y][1]",
    "self::node()",
    "//b[count(@*) >= 1]",
    "//b[starts-with(@x, '1')]",
    "//b[concat(@x, '!') = '10!']",
    "//b | //c | //@x",
]


def _tree_orders(query, document, engine):
    return [node.order for node in api.get_engine(engine).select(query, document)]


class TestStreamingDifferential:
    @pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
    def test_matches_every_tree_engine(self, query):
        info = api.classify_query(query)
        assert info.streamable, query
        engines = sorted(api.ENGINE_CLASSES)
        if not info.in_core_xpath:
            engines = [e for e in engines if e not in ("corexpath", "xpatterns")]
        for name, source in DOCUMENTS.items():
            document = parse_xml(source)
            streamed = [m.order for m in stream_select(query, source)]
            for engine in engines:
                if engine == "xpatterns" and not info.in_xpatterns:
                    continue
                assert streamed == _tree_orders(query, document, engine), (
                    query, name, engine,
                )

    def test_match_records_mirror_tree_nodes(self):
        source = RICH_XML
        document = parse_xml(source)
        for query in ("//b", "//@x", "//text()", "//comment()", "//node()"):
            streamed = stream_select(query, source)
            expected = [
                StreamMatch.from_node(node) for node in api.select(query, document)
            ]
            assert streamed == expected, query

    def test_text_merging_matches_builder(self):
        # CDATA adjacent to character data merges into ONE text node, with
        # the orders (and the merged value) the tree builder produces.
        source = "<a>one<![CDATA[two]]>three<b/>four</a>"
        document = parse_xml(source)
        streamed = stream_select("//text()", source)
        assert [m.order for m in streamed] == [
            n.order for n in api.select("//text()", document)
        ]
        assert [m.value for m in streamed] == ["onetwothree", "four"]

    def test_strip_whitespace_parity(self):
        source = "<a>\n  <b> x </b>\n  <b/>\n</a>"
        document = parse_xml(source, strip_whitespace=True)
        streamed = stream_select("//node()", source, strip_whitespace=True)
        assert [m.order for m in streamed] == [
            n.order for n in api.select("//node()", document)
        ]

    def test_namespace_nodes_consume_orders(self):
        # xmlns attributes become namespace nodes ordered before ordinary
        # attributes; the streamed orders must account for them identically.
        source = '<a xmlns:p="urn:x" q="1"><p:b r="2"/></a>'
        document = parse_xml(source)
        streamed = stream_select("//@* | //*", source)
        assert [m.order for m in streamed] == [
            n.order for n in api.select("//@* | //*", document)
        ]

    def test_position_counters_reset_per_parent(self):
        source = "<a><g><b/><b/></g><g><b/><b/><b/></g></a>"
        document = parse_xml(source)
        for query in ("//g/b[2]", "//g/b[position()>1]", "//g/b[position()=3]"):
            assert [m.order for m in stream_select(query, source)] == [
                n.order for n in api.select(query, document)
            ], query

    def test_sequential_predicates_filter_in_order(self):
        source = '<a><b x="1"/><b/><b x="2"/><b x="3"/></a>'
        document = parse_xml(source)
        query = "//b[@x][2]"
        assert [m.order for m in stream_select(query, source)] == [
            n.order for n in api.select(query, document)
        ]

    def test_empty_result_is_empty(self):
        assert stream_select("//zzz", RICH_XML) == []

    @pytest.mark.parametrize("query", ["/", "/ | //b", "//zzz | /"])
    def test_bare_root_path_streams(self, query):
        # "/" is a zero-step absolute path: its only match is the root.
        assert api.classify_query(query).streamable, query
        document = parse_xml(RICH_XML)
        assert [m.order for m in stream_select(query, RICH_XML)] == [
            node.order for node in api.select(query, document)
        ], query
        run = api.stream(query, RICH_XML)
        assert run.streamed is True and run.orders[0] == 0


# ----------------------------------------------------------------------
# Well-formedness: the scan mirrors parse_xml
# ----------------------------------------------------------------------
class TestStreamingWellFormedness:
    @pytest.mark.parametrize(
        "source",
        [
            "<a><b></a>",          # mismatched end tag
            "<a/><b/>",            # multiple document elements
            "text<a/>",            # character data outside the root
            "<a>",                 # unclosed element
            "</a>",                # end tag without start
            "<a x='1' x='2'/>",    # duplicate attribute
            "",                    # no document element
        ],
    )
    def test_raises_exactly_where_the_parser_does(self, source):
        with pytest.raises(XMLSyntaxError):
            parse_xml(source)
        with pytest.raises(XMLSyntaxError):
            stream_select("//b", source)

    @pytest.mark.parametrize(
        "read",
        [parse_xml, lambda source: stream_select("//b", source)],
        ids=["parse", "stream"],
    )
    @pytest.mark.parametrize(
        "source, message, position",
        [
            ("<a>\n<b></c></a>", "mismatched end tag: expected </b>, got </c>", (2, 4)),
            ("<a>\n<b>", "unexpected end of input: unclosed elements remain", (2, 4)),
            (
                "<!-- c -->\n",
                "a document must have exactly one document element, found 0",
                (2, 1),
            ),
        ],
        ids=["mismatched", "unclosed", "no-element"],
    )
    def test_end_of_structure_errors_carry_the_token_position(
        self, read, source, message, position
    ):
        # The end tag's position, or the end of input's.
        with pytest.raises(XMLSyntaxError) as error:
            read(source)
        assert (error.value.line, error.value.column) == position
        assert str(error.value) == f"{message} (line {position[0]}, column {position[1]})"

    @pytest.mark.parametrize(
        "read",
        [parse_xml, lambda source: stream_select("//node()", source)],
        ids=["parse", "stream"],
    )
    @pytest.mark.parametrize(
        "source, message, column",
        [
            ('  <?xml version="1.0"?><a/>', "XML declaration only allowed", 3),
            ('<!--c--><?xml version="1.0"?><a/>', "XML declaration only allowed", 9),
            ('<?xml version="1.0"?><?xml version="1.0"?><a/>', "XML declaration only", 22),
            ("<!DOCTYPE a><!DOCTYPE a><a/>", "only one DOCTYPE declaration allowed", 13),
            ("<a/><!DOCTYPE a>", "DOCTYPE declaration only allowed before", 5),
            ("<a>x<!DOCTYPE a>y</a>", "DOCTYPE declaration only allowed before", 5),
            # A DOCTYPE there would still declare entities for the text after it.
            ("<a>x<!DOCTYPE a [<!ENTITY e 'v'>]>&e;</a>", "DOCTYPE declaration only", 5),
        ],
        ids=[
            "declaration-after-space",
            "declaration-after-comment",
            "second-declaration",
            "second-doctype",
            "doctype-after-element",
            "doctype-in-element",
            "doctype-in-element-declaring-entities",
        ],
    )
    def test_prolog_rules_are_refused_at_the_offending_token(
        self, read, source, message, column
    ):
        # XML 1.0 §2.8: the declaration only first, one DOCTYPE before the
        # document element.
        with pytest.raises(XMLSyntaxError, match=message) as error:
            read(source)
        assert (error.value.line, error.value.column) == (1, column)


# ----------------------------------------------------------------------
# Resource limits at event granularity
# ----------------------------------------------------------------------
class TestStreamingLimits:
    def test_operation_budget_aborts_midstream(self):
        source = "<a>" + "<b/>" * 100 + "</a>"
        stats = EvaluationStats()
        with pytest.raises(ResourceLimitExceeded) as info:
            stream_select(
                "//b", source, limits=EvalLimits(max_operations=20), stats=stats
            )
        error = info.value
        assert error.limit == "max_operations"
        assert error.stats is stats
        # The scan stopped long before consuming all ~202 events.
        assert 0 < stats.total_work() <= 25

    def test_each_cdata_section_is_one_counted_event(self):
        # The reader yields one event per text run or CDATA section and
        # leaves the merging to the scan, so the budget cuts a long run of
        # sections short instead of counting it once.
        source = "<a><b>" + "<![CDATA[x]]>" * 10_000 + "</b></a>"
        stats = EvaluationStats()
        with pytest.raises(ResourceLimitExceeded):
            stream_select(
                "//b", source, limits=EvalLimits(max_operations=1000), stats=stats
            )
        assert stats.extras["stream_events"] == 1000

    def test_result_cap_aborts_on_the_excess_match(self):
        source = "<a>" + "<b/>" * 10 + "</a>"
        matches = []
        with pytest.raises(ResourceLimitExceeded) as info:
            for match in stream_matches(
                "//b", source, limits=EvalLimits(max_result_nodes=3)
            ):
                matches.append(match)
        assert info.value.limit == "max_result_nodes"
        assert len(matches) == 3  # the first three were delivered

    def test_timeout_enforced(self):
        source = "<a>" + "<b/>" * 2000 + "</a>"
        with pytest.raises(ResourceLimitExceeded) as info:
            stream_select(
                "//b", source, limits=EvalLimits(timeout_seconds=-1.0)
            )
        assert info.value.limit == "timeout_seconds"

    def test_unlimited_scan_counts_work(self):
        stats = EvaluationStats()
        stream_select("//b", "<a><b/><b/></a>", stats=stats)
        counters = stats.as_dict()
        assert counters["stream_events"] > 0
        assert counters["stream_matches"] == 2


# ----------------------------------------------------------------------
# Session wiring
# ----------------------------------------------------------------------
class TestSessionStream:
    def test_streamed_run(self):
        session = XPathSession()
        run = session.stream("//b[@x]", RICH_XML)
        assert isinstance(run, StreamRun)
        assert run.streamed is True
        assert run.orders == [m.order for m in run]
        assert run.plan.streamable
        assert session.stats.engine_use.get("streaming") == 1

    def test_fallback_run_matches_streamed_shape(self):
        session = XPathSession()
        streamed = session.stream("//b", RICH_XML)
        fallback = session.stream("//b[count(child::*) >= 0]", RICH_XML)
        assert fallback.streamed is False
        assert fallback.orders == streamed.orders
        assert [m.label for m in fallback] == [m.label for m in streamed]

    def test_require_raises_instead_of_falling_back(self):
        session = XPathSession()
        with pytest.raises(XPathEvaluationError, match="not streamable"):
            session.stream("//b[last()]", RICH_XML, require=True)

    def test_scalar_queries_rejected_before_any_parsing(self):
        session = XPathSession()
        with pytest.raises(XPathEvaluationError, match="node-set query"):
            session.stream("count(//b)", "<unparseable", require=False)

    def test_cache_hit_on_repeat(self):
        session = XPathSession()
        first = session.stream("//b", RICH_XML)
        second = session.stream("//b", RICH_XML)
        assert first.cache_hit is False and second.cache_hit is True
        assert first.plan is second.plan

    def test_limit_breach_recorded_as_failure(self):
        session = XPathSession()
        with pytest.raises(ResourceLimitExceeded):
            session.stream(
                "//b", RICH_XML, limits=EvalLimits(max_operations=1)
            )
        assert session.stats.limit_breaches == 1
        assert session.stats.errors == 1

    def test_module_level_stream(self):
        run = api.stream("//b", RICH_XML)
        assert run.streamed is True
        assert run.orders == [
            node.order for node in api.select("//b", parse_xml(RICH_XML))
        ]


# ----------------------------------------------------------------------
# Source collections (streamed batches)
# ----------------------------------------------------------------------
SOURCES = [
    RICH_XML,
    "<a><b/></a>",
    "<not well formed",
    "<a>no matches here</a>",
]


class TestSourceCollection:
    """Source batches under every backend mode of the registry: the
    surface is a source collection (one source is malformed), and the mode
    contributes its backend keywords."""

    def test_streamed_and_tree_batches_agree(self, backend_batch_mode):
        options = backend_batch_mode.options
        collection = api.stream_collection(SOURCES)
        streamed = collection.select("//b", stream=True, **options)
        fallback = collection.select("//b", stream=False, **options)
        assert streamed.streamed is True and fallback.streamed is False
        assert collection.select("//b", **options).streamed is False  # default
        for left, right in zip(streamed, fallback):
            assert left.ok == right.ok
            if left.ok:
                assert left.matches == right.matches
            else:
                assert type(left.error) is type(right.error)

    def test_parse_failure_is_isolated(self, backend_batch_mode):
        collection = api.stream_collection(SOURCES, names=list("wxyz"))
        batch = collection.select("//b", stream=True, **backend_batch_mode.options)
        assert [result.ok for result in batch] == [True, True, False, True]
        assert isinstance(batch[2].error, XMLSyntaxError)
        assert batch[2].name == "y"

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_matches_serial(self, backend):
        collection = api.stream_collection(SOURCES * 3)
        serial = collection.select("//b[@x]", stream=True)
        with ParallelExecutor(backend=backend, max_workers=2) as executor:
            parallel = collection.select("//b[@x]", stream=True, parallel=executor)
        assert [r.matches if r.ok else None for r in parallel] == [
            r.matches if r.ok else None for r in serial
        ]
        assert parallel.backend == backend

    def test_scalar_evaluate(self, backend_batch_mode):
        collection = api.stream_collection(["<a><b/><b/></a>", "<a/>"])
        batch = collection.evaluate(
            "count(//b)", stream=True, **backend_batch_mode.options
        )
        assert batch.streamed is False  # scalar queries cannot stream
        assert [result.value for result in batch] == [2.0, 0.0]

    def test_select_rejects_scalar_queries(self, backend_batch_mode):
        collection = api.stream_collection(["<a/>"])
        batch = collection.select(
            "count(//a)", stream=False, **backend_batch_mode.options
        )
        assert not batch[0].ok
        assert isinstance(batch[0].error, XPathEvaluationError)

    def test_session_bound_collection_records_stats(self, backend_batch_mode):
        session = XPathSession()
        collection = session.stream_collection(["<a><b/></a>", "<a/>"])
        collection.select("//b", stream=True, **backend_batch_mode.options)
        assert session.stats.engine_use.get("streaming") == 2

    def test_limit_breach_pattern_matches_tree_backend(self, backend_batch_mode):
        # max_result_nodes is backend-independent: the breach pattern of a
        # streamed batch must equal the tree batch's exactly.
        sources = ["<a><b/><b/><b/></a>", "<a><b/></a>", "<a/>"]
        collection = api.stream_collection(sources)
        limits = EvalLimits(max_result_nodes=2)
        options = backend_batch_mode.options
        streamed = collection.select("//b", stream=True, limits=limits, **options)
        fallback = collection.select("//b", stream=False, limits=limits, **options)
        pattern = [
            type(r.error).__name__ if not r.ok else len(r.matches) for r in streamed
        ]
        assert pattern == [
            type(r.error).__name__ if not r.ok else len(r.matches) for r in fallback
        ]
        assert pattern[0] == "ResourceLimitExceeded"


# ----------------------------------------------------------------------
# StreamMatch ergonomics
# ----------------------------------------------------------------------
class TestStreamMatch:
    def test_labels(self):
        matches = {m.node_type: m for m in stream_select("//node()", RICH_XML)}
        assert matches[NodeType.ELEMENT].label in ("a", "b", "c")
        assert matches[NodeType.TEXT].label == "text"
        assert matches[NodeType.COMMENT].label == "comment"

    def test_from_node_round_trip(self):
        document = parse_xml("<a><b x='1'>t</b></a>")
        node = api.select("//@x", document)[0]
        match = StreamMatch.from_node(node)
        assert (match.order, match.name, match.value) == (node.order, "x", "1")
        root_match = StreamMatch.from_node(document.root)
        assert root_match.value is None and root_match.order == 0
