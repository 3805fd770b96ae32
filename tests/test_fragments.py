"""Tests for the fragment classifiers, the Core XPath algebra, XPatterns and
the Extended Wadler Fragment (paper Sections 10–11 and Figure 1)."""

from __future__ import annotations

import pytest

from repro import api
from repro.errors import FragmentError
from repro.fragments import (
    CoreXPathEngine,
    Fragment,
    XPatternsEngine,
    classify,
    containment_holds,
    first_of_any,
    first_of_type,
    is_core_xpath,
    is_extended_wadler,
    is_xpatterns,
    last_of_any,
    last_of_type,
    wadler_violations,
)
from repro.engines import TopDownEngine
from repro.workloads.documents import doc_library
from repro.workloads.queries import (
    EXAMPLE_10_3_QUERY,
    experiment1_query,
    experiment2_query,
    experiment3_query,
)
from repro.xmlmodel.parser import parse_xml
from repro.xpath.normalize import compile_query


class TestCoreXPathMembership:
    @pytest.mark.parametrize(
        "query",
        [
            "/descendant::a/child::b",
            "//a/b",
            "//a[b]",
            "//a[b and not(c)]",
            "//a[descendant::b or following::c]/parent::*",
            EXAMPLE_10_3_QUERY,
            "/a/b[ancestor::a]",
            "//*[not(child::*)]",
            "//a[child::b[child::c]]",
        ],
    )
    def test_accepted(self, query):
        assert is_core_xpath(compile_query(query))

    @pytest.mark.parametrize(
        "query",
        [
            "//a[position() = 2]",  # positions
            "//a[count(b) > 1]",  # arithmetic / aggregation
            "//a[@href]",  # attribute axis (XPatterns, not Core XPath)
            "//a[. = 'x']",  # string comparison (XPatterns)
            "count(//a)",  # not a location path
            "//a | //b",  # union at top level is outside the cxp grammar
            "id('x')/a",  # id start (XPatterns)
            "//a[b = c]",  # general comparison
        ],
    )
    def test_rejected(self, query):
        assert not is_core_xpath(compile_query(query))


class TestCoreXPathEngine:
    def test_simple_query(self, figure8):
        result = CoreXPathEngine().select("//b[child::d]", figure8)
        assert [n.attribute_value("id") for n in result] == ["11", "21"]

    def test_rejects_non_core_queries(self, figure8):
        with pytest.raises(FragmentError):
            CoreXPathEngine().evaluate("//a[position() = 1]", figure8)

    def test_negation_predicate(self, figure8):
        result = CoreXPathEngine().select("//*[not(child::*)]", figure8)
        expected = TopDownEngine().select("//*[not(child::*)]", figure8)
        assert result == expected

    def test_nested_path_predicates(self, figure8):
        query = "//*[child::c[following-sibling::d]]"
        assert CoreXPathEngine().select(query, figure8) == TopDownEngine().select(query, figure8)

    def test_relative_query_uses_context(self, figure8):
        b11 = figure8.element_by_id("11")
        result = CoreXPathEngine().select("child::c", figure8, b11)
        assert [n.attribute_value("id") for n in result] == ["12", "13"]


class TestXPatternsMembership:
    @pytest.mark.parametrize(
        "query",
        [
            "//a[@href]",
            "//a[@href = 'x']",
            "//b[. = '100']",
            "//b[child::* = 'c']",
            "id('k')/child::a",
            "id('k1 k2')",
            "//a[child::text()]",
            experiment2_query(2),
        ],
    )
    def test_accepted(self, query):
        assert is_xpatterns(compile_query(query))

    @pytest.mark.parametrize(
        "query",
        [
            "//a[position() = 1]",
            "//a[count(b) = 2]",
            experiment3_query(1),
            "count(//a)",
            "//a[string-length(.) > 1]",
        ],
    )
    def test_rejected(self, query):
        assert not is_xpatterns(compile_query(query))

    def test_core_xpath_is_contained_in_xpatterns(self):
        for query in ["//a/b", "//a[b and not(c)]", EXAMPLE_10_3_QUERY]:
            expression = compile_query(query)
            assert is_core_xpath(expression)
            assert is_xpatterns(expression)


#: Each book's r child names the other book.
NESTED_REF_DOC = parse_xml(
    "<lib><book id='b1'><r>b2</r></book><book id='b2'><r>b1</r></book></lib>"
)


class TestXPatternsEngine:
    def test_string_equality_predicate(self, figure8):
        query = "//*[child::text() = '100']"
        assert XPatternsEngine().select(query, figure8) == TopDownEngine().select(query, figure8)

    def test_attribute_predicate(self, figure8):
        query = "//*[attribute::id = '22']"
        assert XPatternsEngine().select(query, figure8) == TopDownEngine().select(query, figure8)

    def test_experiment2_queries_run_in_the_fragment(self):
        """The Experiment-2 family is XPatterns: nested path = 'c' predicates."""
        from repro.workloads.documents import doc_flat_text

        document = doc_flat_text(5)
        for size in (1, 2, 3):
            query = experiment2_query(size)
            linear = XPatternsEngine().select(query, document)
            general = TopDownEngine().select(query, document)
            assert linear == general

    def test_id_start_path(self, figure8):
        query = "id('11')/child::c"
        assert XPatternsEngine().select(query, figure8) == TopDownEngine().select(query, figure8)

    def test_id_axis_on_referencing_text(self, idref_doc):
        # id(//t) follows the ids mentioned in the t elements' text.
        query = "id('1')"
        assert XPatternsEngine().select(query, idref_doc) == TopDownEngine().select(
            query, idref_doc
        )

    @pytest.fixture
    def attribute_ref_doc(self):
        return parse_xml(
            '<catalog><book id="b1"><title>A</title></book>'
            '<book id="b2"><title>B</title></book>'
            '<review of="b2">r</review></catalog>'
        )

    def test_id_of_attribute_node_set(self, attribute_ref_doc):
        # id() over a node set dereferences each node's *string value*; for
        # attribute nodes that is the attribute text (regression: xpatterns
        # returned ∅ here while every other engine resolved the reference).
        query = "id(//review/attribute::of)/child::title"
        linear = XPatternsEngine().select(query, attribute_ref_doc)
        general = TopDownEngine().select(query, attribute_ref_doc)
        assert [n.string_value() for n in linear] == ["B"]
        assert linear == general

    def test_id_of_attribute_in_backward_predicate(self, attribute_ref_doc):
        # Bare id(π) predicates are in the fragment (the membership test
        # accepts them) and must therefore compile.
        query = "//*[id(attribute::of)]"
        linear = XPatternsEngine().select(query, attribute_ref_doc)
        assert [n.name for n in linear] == ["review"]
        assert linear == TopDownEngine().select(query, attribute_ref_doc)

    def test_id_literal_predicate_is_context_independent(self, attribute_ref_doc):
        # [id('k')/π] holds everywhere or nowhere (dom-if-nonempty).
        holds = "//title[id('b2')/child::title]"
        empty = "//title[id('zzz')/child::title]"
        for query, expected in ((holds, 2), (empty, 0)):
            linear = XPatternsEngine().select(query, attribute_ref_doc)
            assert len(linear) == expected
            assert linear == TopDownEngine().select(query, attribute_ref_doc)

    def test_rejects_positional_queries(self, figure8):
        with pytest.raises(FragmentError):
            XPatternsEngine().evaluate("//a[position() = 1]", figure8)

    @pytest.mark.parametrize(
        "query", ["//book[id(id(r))]", "//*[id(id(.))]", "//*[id(id('b2'))]"]
    )
    def test_nested_id_predicates_compile(self, query):
        # The membership test accepts id(id(…)) predicates; the compiler
        # used to fail an assertion on the inner call under every engine
        # that runs XPatterns plans.
        answers = {
            engine: [node.order for node in api.select(query, NESTED_REF_DOC, engine=engine)]
            for engine in ("auto", "compiled", "xpatterns")
        }
        assert answers["auto"] == answers["compiled"] == answers["xpatterns"]
        assert answers["xpatterns"]

    @pytest.mark.parametrize("query", ["//book[id(id(r))]", "//*[id(id('b2'))]"])
    def test_nested_id_predicates_agree_with_tree_engines(self, query):
        linear = XPatternsEngine().select(query, NESTED_REF_DOC)
        assert linear == TopDownEngine().select(query, NESTED_REF_DOC)


def _answers_on_every_engine(query, document):
    """Orders per engine that accepts the id query (corexpath has no id())."""
    return {
        engine: [node.order for node in api.select(query, document, engine=engine)]
        for engine in api.engine_names()
        if engine != "corexpath"
    }


class TestIdAxisTokenisesStringValues:
    """id() of a node set tokenises each node's XPath string value (Table
    II) under every engine, the set-algebra ones included; the string value
    concatenates text nodes, so an ID token touching another text node is
    no token at all."""

    def test_id_token_touching_another_text_node(self):
        # book b1's string value is "xb2": no token names b2.
        document = parse_xml(
            "<lib><book id='b1'><t>x</t><r>b2</r></book><book id='b2'/></lib>"
        )
        for query in ("id(//book)", "//book[id(.)]"):
            answers = _answers_on_every_engine(query, document)
            assert set(map(tuple, answers.values())) == {()}, (query, answers)

    def test_nested_id_over_the_document_element(self):
        # lib's string value "b2b1" joins two text nodes.
        query = "//*[id(id(.))]"
        expected = [node.order for node in TopDownEngine().select(query, NESTED_REF_DOC)]
        assert [NESTED_REF_DOC.index.nodes[o].name for o in expected] == [
            "book", "r", "book", "r"
        ]
        answers = _answers_on_every_engine(query, NESTED_REF_DOC)
        assert all(orders == expected for orders in answers.values()), answers


class TestUnaryPredicateSets:
    def test_first_and_last_of_any(self):
        doc = parse_xml("<a><b/><c/><b/></a>")
        a = doc.document_element
        first = first_of_any(doc)
        last = last_of_any(doc)
        assert a.children[0] in first and a.children[2] not in first
        assert a.children[2] in last and a.children[0] not in last
        # The document element is both (it is its parent's only child).
        assert a in first and a in last

    def test_first_and_last_of_type(self):
        doc = parse_xml("<a><b/><c/><b/><c/></a>")
        children = doc.document_element.children
        first = first_of_type(doc)
        last = last_of_type(doc)
        assert children[0] in first and children[1] in first
        assert children[2] not in first
        assert children[2] in last and children[3] in last
        assert children[0] not in last

    def test_first_of_type_with_name_restriction(self):
        doc = parse_xml("<a><b/><c/><b/></a>")
        restricted = first_of_type(doc, names={"b"})
        assert all(node.name == "b" for node in restricted)


class TestExtendedWadler:
    @pytest.mark.parametrize(
        "query",
        [
            "//a[boolean(child::b)]",
            "//a[child::b = 'x']",
            "//a[position() != last()]",
            "//a[position() mod 2 = 1]",
            "//a/child::*[boolean(following::b) and position() > 1]",
            "id('k')/child::a",
            experiment1_query(3),
            experiment2_query(2),
        ],
    )
    def test_accepted(self, query):
        assert is_extended_wadler(compile_query(query)), wadler_violations(compile_query(query))

    @pytest.mark.parametrize(
        "query, keyword",
        [
            ("//a[count(b) > 1]", "count"),
            ("//a[sum(b) > 1]", "sum"),
            ("//a[string-length(.) > 1]", "string-length"),
            ("//a[name() = 'a']", "name"),
            ("//a[b = c]", "node-set RelOp node-set"),
            ("//a[child::b = string(child::c)]", "string"),
            ("//a[child::b > position()]", "scalar must not depend"),
        ],
    )
    def test_rejected_with_reason(self, query, keyword):
        violations = wadler_violations(compile_query(query))
        assert violations
        assert any(keyword in violation for violation in violations)

    def test_core_xpath_contained_in_extended_wadler(self):
        for query in ["//a/b", "//a[b and not(c)]", EXAMPLE_10_3_QUERY]:
            assert is_extended_wadler(compile_query(query))


class TestFigure1Lattice:
    def test_classification_examples(self):
        assert classify("//a/b[child::c]").fragment is Fragment.CORE_XPATH
        assert classify("//a[@x = '1']").fragment is Fragment.XPATTERNS
        assert classify("//a[position() != last()]").fragment is Fragment.EXTENDED_WADLER
        assert classify(experiment3_query(1)).fragment is Fragment.FULL_XPATH

    def test_classification_carries_complexity_and_engine(self):
        result = classify("//a/b")
        assert "O(|D|·|Q|)" in result.complexity
        assert result.recommended_engine == "compiled"
        assert classify(experiment3_query(1)).recommended_engine == "optmincontext"

    @pytest.mark.parametrize(
        "query",
        [
            "//a/b",
            "//a[@x]",
            "//a[position() = 2]",
            experiment2_query(2),
            experiment3_query(1),
            "count(//a)",
        ],
    )
    def test_containments_hold(self, query):
        assert containment_holds(query)

    def test_auto_engine_selection(self):
        import repro

        document = doc_library(books=6, seed=1)
        auto = repro.select("//book[related]", document, engine="auto")
        default = repro.select("//book[related]", document)
        assert auto == default
