"""Unit tests for the compiled array-program backend (ISSUE 7).

The differential fuzz suite (tests/test_fuzz_differential.py) gates the
engine against the eight tree engines and the streaming evaluator; the
tests here pin down the pieces individually: compilability analysis,
the compiler's emission rules, the instruction set, the per-axis array routines, the
DocumentIndex column contract, fallback behaviour and the explain() wiring.
"""

import sys
import threading

import pytest

from repro import api
from repro.engines.base import EvalLimits
from repro.engines.compiled import (
    ArrayCompiler,
    ArrayProgram,
    CompiledEngine,
    Instruction,
    analyze_compilability,
    execute_program,
)
from repro.errors import FragmentError, ResourceLimitExceeded
from repro.fragments.classify import Fragment
from repro.plan import plan_for
from repro.session import XPathSession
from repro.store import DocumentStore
from repro.workloads.documents import doc_library
from repro.xmlmodel.index import STRING_MATCH_CACHE_SIZE
from repro.xpath.normalize import compile_query as normalize_query
from repro.xpath.values import NodeSet

DOC = api.parse(
    "<a id='r'>"
    "<b n='1'>one<c/>two</b>"
    "<!--note-->"
    "<b n='2'><c><d>deep</d></c></b>"
    "<?pi data?>"
    "<b>three</b>"
    "</a>"
)


def _compiled_orders(query, document=DOC, context=None):
    plan = plan_for(query, engine="compiled", cache=None)
    assert plan.classification.compilable, query
    result = plan.evaluate(document, context=context)
    return [node.order for node in result]


def _reference_orders(query, document=DOC, context=None):
    plan = plan_for(query, engine="topdown", cache=None)
    return [node.order for node in plan.evaluate(document, context=context)]


def _answer(value):
    """Node orders of a node set; a count()'s number as is."""
    if isinstance(value, NodeSet):
        return [node.order for node in value]
    return value


# ----------------------------------------------------------------------
# Compilability analysis
# ----------------------------------------------------------------------
class TestAnalyzeCompilability:
    def test_core_xpath_is_compilable(self):
        report = analyze_compilability(normalize_query("//b/ancestor::a"))
        assert report.compilable and report.violations == ()

    def test_xpatterns_string_test_is_compilable(self):
        report = analyze_compilability(normalize_query("//b[@n = '2']"))
        assert report.compilable

    def test_position_predicate_is_not(self):
        report = analyze_compilability(normalize_query("/descendant::b[2]"))
        assert not report.compilable
        assert "position on the descendant axis" in report.violations[0]

    def test_id_is_compilable(self):
        report = analyze_compilability(normalize_query("id('r')/b"))
        assert report.compilable and report.violations == ()

    @pytest.mark.parametrize(
        "query",
        [
            "count(//b)",
            "count(//b[@n > 1][2])",
            "//b[@n > 1]",
            "//b[. != 7]",
            "//b[1 <= @n and c]",
            "//b[c[. > 0]]",
            "//b[2]",
            "//b[last()]",
            "//b[c][1]/c[last()]",
            "//b[1][2]",
            "//b/following-sibling::b[1]",
            "//b[@n = '2']/preceding-sibling::b[last()]",
            "//b[c[. > 1] = 'x']",
            "//b['x' != c[@n > 1]]",
            "//b[c[@n > 1][. = 'x']]",
            "//b[/ > 1]",
        ],
    )
    def test_shapes_past_xpatterns_are_compilable(self, query):
        report = analyze_compilability(normalize_query(query))
        assert report.compilable and report.violations == (), query
        # What the analysis admits, the compiled engine runs.
        compiled = api.evaluate(query, DOC, engine="compiled")
        reference = api.evaluate(query, DOC, engine="topdown")
        assert _answer(compiled) == _answer(reference), query

    def test_classification_carries_the_report(self):
        plan = plan_for("//b", cache=None)
        assert plan.classification.compilable
        plan = plan_for("/descendant::b[2]", cache=None)
        assert not plan.classification.compilable
        assert plan.classification.compile_violations


#: One refused query per shape, and the words its reason must contain.
REFUSALS = [
    ("/descendant::b[2]", "position on the descendant axis"),
    ("//b/ancestor::a[1]", "position on the ancestor axis"),
    ("//b/@*[1]", "position on the attribute axis"),
    ("//b[position() = last() - 1]", "position arithmetic (position() = (last() - 1))"),
    ("//b[position() > 1]", "position arithmetic (position() > 1)"),
    ("//b[position() = 1 and c]", "position arithmetic"),
    ("//b[0]", "position arithmetic"),
    ("//b[c[1]]", "position inside a predicate"),
    ("//b[c[. > 1][last()]]", "position inside a predicate"),
    ("//b/following-sibling::b[1][2]", "second position on a following-sibling step"),
    ("//b[count(c) = 2]", "count() inside a larger expression"),
    ("count(//b) > 1", "count() inside a larger expression"),
    ("//b[. > $x]", "comparison with a non-literal operand ($x)"),
    ("//b[c = d]", "comparison with a non-literal operand (child::d)"),
    ("//b[. > '3']", "> against a string literal ('3')"),
    ("sum(//b)", "sum(/descendant-or-self::node()/child::b) has no array lowering"),
    ("//namespace::*", "the namespace axis has no array lowering"),
    ("id((//a)[1])", "id(...) argument outside XPatterns: (/descendant-or-self"),
    ("id(concat('a','b'))", "id(...) argument outside XPatterns: concat('a', 'b')"),
    ("id(id(//a)[1])", "predicates on id(...) starts are outside XPatterns: (id("),
    # One reason per shape, wherever the path stands.
    ("//b[id(c[1])]", "position inside a predicate (position() = 1)"),
    ("id('a')[1]", "predicates on id(...) starts are outside XPatterns: (id('a'))"),
    ("//b[id(.)[1]]", "predicates on id(...) starts are outside XPatterns: (id("),
    ("//b[count(id(c)) > 1]", "count() inside a larger expression"),
    # The steps after an id call compile before its argument is checked.
    ("//x[id(id('k')[1])/a[2]]", "position inside a predicate (position() = 2)"),
    ("//x[id(id(1))/a[b = c]]", "comparison with a non-literal operand (child::c)"),
    ("//x[id(id('k')[1])/a]", "predicates on id(...) starts are outside XPatterns"),
]


@pytest.mark.parametrize("query, reason", REFUSALS, ids=[q for q, _ in REFUSALS])
def test_refusal_names_the_shape(query, reason):
    expression = normalize_query(query)
    report = analyze_compilability(expression)
    assert not report.compilable
    assert len(report.violations) == 1
    assert reason in report.violations[0], report.violations
    # The reason is the compiler's own refusal, so the two cannot drift.
    with pytest.raises(FragmentError) as refusal:
        ArrayCompiler().compile_query(expression)
    assert str(refusal.value) == report.violations[0]


#: One path grammar: wherever a path may stand (the columns), it is a
#: location path or an id(...) start followed by steps (the rows).
PATH_FORMS = ["related", "id('bk3')/related", "id(related)", "id(id(related))"]
PATH_POSITIONS = {
    "query": "{}",
    "count": "count({})",
    "id-argument": "id({})",
    "predicate": "//book[{}]",
    "string-comparison": "//book[{} = 'bk10']",
    "number-comparison": "//book[{} != 400]",
    "negation": "//book[not({})]",
}
LIBRARY = doc_library(20, 7)


@pytest.mark.parametrize("position", PATH_POSITIONS)
@pytest.mark.parametrize("form", PATH_FORMS)
def test_every_path_form_compiles_wherever_a_path_may_stand(form, position):
    query = PATH_POSITIONS[position].format(form)
    report = analyze_compilability(normalize_query(query))
    assert report.compilable, report.violations
    compiled = plan_for(query, engine="compiled", cache=None)
    reference = plan_for(query, engine="topdown", cache=None)
    # Relative paths answer from every book, and from the root.
    for context in [LIBRARY.root, *api.select("//book", LIBRARY)]:
        assert _answer(compiled.evaluate(LIBRARY, context=context)) == _answer(
            reference.evaluate(LIBRARY, context=context)
        ), (query, context.order)


# ----------------------------------------------------------------------
# The compiler's emission rules and the program IR
# ----------------------------------------------------------------------
def _program(*instructions: tuple) -> ArrayProgram:
    """A hand-built program: one ``(op, srcs)`` pair per register."""
    built = tuple(Instruction(op, dest, srcs) for dest, (op, srcs) in enumerate(instructions))
    return ArrayProgram(built)


class TestLowering:
    def test_steps_fuse_into_axis_test_instructions(self):
        program = plan_for("//b/c", cache=None).array_program()
        assert [i.op for i in program.instructions] == ["root", "axis-test", "axis-test"]
        assert len(program) == 3
        assert program.result_register == program.instructions[-1].dest

    @pytest.mark.parametrize(
        "query, steps",
        [
            # child(dos(root) ∩ T(node())) ∩ T(b) = descendant(root) ∩ T(b).
            ("//b", []),
            # The position groups the descendant step's nodes by parent.
            ("//b[1]", ["r2 = position[child](r1, 1)"]),
        ],
    )
    def test_descendant_shorthand_lowers_to_one_descendant_step(self, query, steps):
        program = plan_for(query, cache=None).array_program()
        assert [i.render() for i in program.instructions] == [
            "r0 = root()",
            "r1 = axis-test[descendant](r0, T(b))",
            *steps,
        ]

    @pytest.mark.parametrize(
        "query, step",
        [
            ("//@n", "axis-test[attribute](r1, T(n))"),
            ("//following-sibling::b", "axis-test[following-sibling](r1, T(b))"),
            ("//..", "axis-test[parent](r1, T(node()))"),
        ],
    )
    def test_only_a_child_step_absorbs_the_descendant_or_self_step(self, query, step):
        lines = plan_for(query, cache=None).array_program().render().splitlines()
        assert lines[1] == "r1 = axis-test[descendant-or-self](r0, T(node()))"
        assert lines[2] == f"r2 = {step}"

    def test_program_is_memoised_and_carried_by_retarget(self):
        plan = plan_for("//b/c", engine="topdown", cache=None)
        program = plan.array_program()
        assert plan.array_program() is program
        retargeted = plan_for(plan, engine="compiled", cache=None)
        assert retargeted.array_program() is program

    def test_non_compilable_plan_has_no_program(self):
        assert plan_for("//b[count(c) = 2]", cache=None).array_program() is None

    def test_one_program_per_plan(self):
        # corexpath, xpatterns and compiled all run the plan's one program.
        plan = plan_for("id('r')/b", engine="xpatterns", cache=None)
        program = plan.array_program()
        assert plan.array_program() is program
        assert plan_for(plan, engine="compiled", cache=None).array_program() is program
        assert program.render().splitlines()[:2] == [
            "r0 = id-literal('r')",
            "r1 = axis-test[child](r0, T(b))",
        ]

    def test_render_names_registers_and_operands(self):
        text = plan_for("//b[@n = '2']", cache=None).array_program().render()
        assert "axis-test[descendant](r0, T(b))" in text
        assert "strmatch(='2')" in text
        assert text.splitlines()[-1].startswith("result: r")

    def test_negated_string_match_lowered(self):
        text = plan_for("//b[@n != '2']", cache=None).array_program().render()
        assert "strmatch(!='2')" in text

    def test_boolean_predicates_lower_to_set_ops(self):
        text = plan_for("//b[c or not(text())]", cache=None).array_program().render()
        assert "union(" in text and "complement(" in text

    def test_absolute_predicate_lowers_dom_if_root(self):
        text = plan_for("//b[/a]", cache=None).array_program().render()
        assert "dom-if-root(" in text

    def test_context_comparison_filters_the_step_register(self):
        # [. op N] converts the step's own nodes; S← of "." would convert
        # every node of the document (2.5x slower on bench_compiled's
        # numeric-filter).
        program = plan_for("//b[. > 1]", cache=None).array_program()
        assert [i.op for i in program.instructions] == ["root", "axis-test", "numfilter"]
        # Attributes have no self::node() (Section 4 typing): the general
        # backward path, whose self axis drops them, keeps that semantics.
        text = plan_for("//b/@n[. > 1]", cache=None).array_program().render()
        assert "test[self](T(node()))" in text

    def test_render_numfilter_keeps_its_operator(self):
        text = plan_for("//b[@n > 1999]", cache=None).array_program().render()
        assert "numfilter(r2, > 1999)" in text
        text = plan_for("//b[1999 > @n]", cache=None).array_program().render()
        assert "numfilter(r2, < 1999)" in text
        text = plan_for("//b[. != 1.5]", cache=None).array_program().render()
        assert "numfilter(r1, != 1.5)" in text

    def test_render_positions_and_count(self):
        program = plan_for(
            "count(//b[last()]/preceding-sibling::b[1])", cache=None
        ).array_program()
        lines = program.render().splitlines()
        assert lines[2] == "r2 = position[child](r1, last)"
        assert lines[4] == "r4 = position[preceding-sibling](r2, r3, 1)"
        assert lines[-1] == "result: count(r4)"
        assert program.count

    def test_positional_chain_lowers_each_step_once(self):
        # Each sibling pick reads its step's input register, which the
        # step before emitted once, so k steps cost O(k) instructions.
        query = "//b" + "/following-sibling::b[1]" * 12
        program = plan_for(query, cache=None).array_program()
        assert len(program) == 2 + 2 * 12

    def test_id_and_id_inverse_render_and_id_is_compilable(self):
        program = _program(("root", ()), ("id", (0,)), ("id-inverse", (1,)))
        assert program.reads_document
        assert program.render().splitlines() == [
            "r0 = root()",
            "r1 = id(r0)",
            "r2 = id-inverse(r1)",
            "result: r2",
        ]
        report = analyze_compilability(normalize_query("id('k')/a"))
        assert report.compilable

    def test_id_start_predicate_path_meets_no_dom_target(self):
        # S← of id(related)/title: the last step's nodes run backwards as
        # they are, with no "∩ dom" on them, into id⁻¹.
        program = plan_for("//book[id(related)/title]", cache=None).array_program()
        assert program.render().splitlines() == [
            "r0 = root()",
            "r1 = axis-test[descendant](r0, T(book))",
            "r2 = test[child](T(related))",
            "r3 = test[child](T(title))",
            "r4 = inverse-axis[child](r3)",
            "r5 = id-inverse(r4)",
            "r6 = intersect(r2, r5)",
            "r7 = inverse-axis[child](r6)",
            "r8 = intersect(r1, r7)",
            "result: r8",
        ]
        assert len(plan_for("//book[id('bk3')/related]", cache=None).array_program()) == 8

    def test_dom_if_nonempty_execution(self):
        # Only id('k') starts in predicates emit it: run the opcode directly.
        view = DOC.index
        program = _program(("root", ()), ("dom-if-nonempty", (0,)))
        assert list(execute_program(program, view, (0,))) == list(range(view.size))
        program = _program(
            ("context", ()), ("context", ()), ("union", (0, 1)), ("dom-if-nonempty", (2,))
        )
        assert list(execute_program(program, view, ())) == []

    def test_dom_and_dom_if_root_execution(self):
        view = DOC.index
        assert list(execute_program(_program(("dom", ())), view, (0,))) == list(
            range(view.size)
        )
        # A context set without the root gates dom-if-root to empty.
        program = _program(("context", ()), ("dom-if-root", (0,)))
        assert list(execute_program(program, view, (3,))) == []
        assert list(execute_program(program, view, (0, 3))) == list(range(view.size))


# ----------------------------------------------------------------------
# Execution semantics: every axis against the reference interpreter
# ----------------------------------------------------------------------
AXIS_QUERIES = [
    "//b/self::b",
    "//c/self::node()",
    "//b/child::node()",
    "//b/child::text()",
    "/a/b/c",
    "//d/parent::c",
    "//text()/parent::b",
    "/descendant::c",
    "/descendant-or-self::b",
    "//b/descendant::*",
    "//d/ancestor::b",
    "//c/ancestor-or-self::node()",
    "//c/following::text()",
    "//b/following::comment()",
    "//c/preceding::c",
    "//d/preceding::node()",
    "//b/following-sibling::b",
    "//b/following-sibling::node()",
    "//b/preceding-sibling::b",
    "//c/preceding-sibling::text()",
    "//b/attribute::n",
    "//b/attribute::*",
    "//b/attribute::node()",
    "//b/attribute::text()",
    "//processing-instruction()",
    "//processing-instruction('pi')",
    "//comment()",
]


@pytest.mark.parametrize("query", AXIS_QUERIES)
def test_axis_semantics_match_reference(query):
    assert _compiled_orders(query) == _reference_orders(query)


PREDICATE_QUERIES = [
    "//b[@n]",
    "//b[@n = '1']",
    "//b[@n != '1']",
    "//b[. = 'three']",
    "//b[not(@n)]",
    "//b[c and text()]",
    "//b[c or @n = '2']",
    "//b[not(following-sibling::b)]",
    "//c[ancestor::b[@n = '2']]",
    "//b[/a]",
    "//b[/a/c]",
]


@pytest.mark.parametrize("query", PREDICATE_QUERIES)
def test_predicate_semantics_match_reference(query):
    assert _compiled_orders(query) == _reference_orders(query)


WIDE = api.parse(
    "<r>"
    + "".join(f"<item n='{k}'>{k * 100}</item>" for k in range(8))
    + "<item n='x'>21 22</item><group><item>5</item><item>7</item></group>"
    + "</r>"
)

POSITION_QUERIES = [
    "//item[3]/preceding-sibling::item[1]",
    "//item[3]/preceding-sibling::item[2]",
    "//item[3]/preceding-sibling::item[last()]",
    "//item[3]/following-sibling::item[1]",
    "//item[3]/following-sibling::item[last()]",
    "//item[@n > 2]/following-sibling::item[2]",
    "//item[. > 300]/preceding-sibling::*[3]",
    "//item[1]",
    "//item[2]",
    "//item[last()]",
    "//item[. > 100][1]",
    "//item[1][. > 100]",
    "//item[@n][last()]",
    "//item[1][1]",
    "//item[2][1]",
    "//item[1][2]",
    "//*[item][last()]/item[2]",
    "//item[last()]/preceding-sibling::node()[1]",
    "/r/item[9]",
    "//item[@n = '5']/preceding-sibling::item[. < 300][1]",
]

NUMERIC_QUERIES = [
    "//item[. > 300]",
    "//item[. >= 300]",
    "//item[. < 300]",
    "//item[. <= 300]",
    "//item[. = 300]",
    "//item[. != 300]",
    "//item[300 < .]",
    "//item[@n > 5]",
    "//item[@n != 5]",
    "//*[item > 600]",
    "//*[item = 5]",
    "//item[. > -1]",
    "//item[text() > 150 and @n < 6]",
    "//*[not(item > 5)]",
    "//r[/r/group > 50]",
    "//item[/ > 1]",
    "//item[/ != 1]",
    "//r[item[. > 100] = '200']",
    "//r['700' != item[@n > 5]]",
    "//*[item[@n > 1][. = '500']]",
]


@pytest.mark.parametrize("query", POSITION_QUERIES + NUMERIC_QUERIES)
def test_positions_and_numbers_match_reference(query):
    assert _compiled_orders(query, WIDE) == _reference_orders(query, WIDE)


def test_nan_text_passes_only_not_equal():
    # "21 22" converts to NaN: false under every comparison but !=.
    nan_item = [n.order for n in api.select("//item[@n = 'x']", WIDE)]
    for op in ("=", "<", "<=", ">", ">="):
        assert not set(nan_item) & set(_compiled_orders(f"//item[. {op} 0]", WIDE)), op
    assert set(nan_item) <= set(_compiled_orders("//item[. != 0]", WIDE))


@pytest.mark.parametrize(
    "query", ["count(//item)", "count(//item[. > 300])", "count(//item[2])", "count(//zzz)"]
)
def test_count_returns_a_number(query):
    session = XPathSession(engine="compiled")
    result = session.run(query, WIDE)
    assert result.value == api.evaluate(query, WIDE, engine="topdown")
    assert isinstance(result.value, float)
    assert "compiled_fallbacks" not in result.stats.as_dict()


def test_positions_from_each_context_node():
    items = api.select("//item", WIDE)
    for context in items:
        for query in (
            "preceding-sibling::item[2]",
            "following-sibling::*[last()]",
            "item[1]",
            ".//c",
            "descendant-or-self::node()/child::b[1]",
        ):
            assert _compiled_orders(query, WIDE, context) == _reference_orders(
                query, WIDE, context
            ), (query, context.order)


def test_relative_query_uses_the_context_node():
    b_nodes = api.select("//b", DOC)
    for context in b_nodes:
        for query in (
            "c",
            "following-sibling::b",
            "self::b[@n]",
            ".//c",
            "descendant-or-self::node()/child::b[1]",
        ):
            assert _compiled_orders(query, context=context) == _reference_orders(
                query, context=context
            ), (query, context.order)


def test_attribute_context_node():
    attr = api.select("//b/attribute::n", DOC)[0]
    for query in (
        "self::node()",
        "ancestor::a",
        "following::c",
        ".//c",
        "descendant-or-self::node()/child::b[1]",
    ):
        assert _compiled_orders(query, context=attr) == _reference_orders(
            query, context=attr
        ), query


def test_empty_results_on_missing_names():
    assert _compiled_orders("//zzz") == []
    assert _compiled_orders("//b[@missing = 'x']") == []


# ----------------------------------------------------------------------
# The DocumentIndex column contract
# ----------------------------------------------------------------------
class TestIndexColumns:
    def test_columns_mirror_the_node_table(self):
        index = DOC.index
        assert index.size == len(index.nodes)
        for node in index.nodes:
            expected = node.parent.order if node.parent is not None else -1
            assert index.parent[node.order] == expected
            assert index.special[node.order] == (1 if node.is_special_child else 0)
            assert index.subtree_end[node.order] == max(
                n.order for n in node.iter_self_and_descendants(include_special=True)
            )
        assert list(index.regular) == [
            node.order for node in index.nodes if not node.is_special_child
        ]

    def test_string_match_scan_is_cached(self):
        index = api.parse("<a><b>x</b><b>y</b></a>").index
        first = index.string_match("x", False)
        assert index.string_match("x", False) is first
        assert first != index.string_match("x", True)


# ----------------------------------------------------------------------
# The per-document string-match cache, shared by every engine
# ----------------------------------------------------------------------
STRING_SOURCE = "<a><b>x</b><b>y</b><c>x<d>y</d></c><!--x--><e k='y'/></a>"


@pytest.fixture(params=["index", "stored"])
def string_columns(request, tmp_path):
    """``(columns, nodes)``: a column set that answers ``string_match`` —
    the in-memory index or the store's mmap twin — and the node table of
    the same document."""
    document = api.parse(STRING_SOURCE)
    if request.param == "index":
        yield document.index, document.index.nodes
        return
    path = str(tmp_path / "strings.reproxs")
    with DocumentStore.build(path, [api.parse(STRING_SOURCE)]) as store:
        yield store.document_at(0).arrays(), document.index.nodes


def test_string_value_matches_the_nodes(string_columns):
    columns, nodes = string_columns
    assert [columns.string_value(k) for k in range(len(nodes))] == [
        node.string_value() for node in nodes
    ]


class TestStringMatchCache:
    def test_interpreter_shares_the_index_cache(self):
        document = api.parse(STRING_SOURCE)
        for _ in range(2):
            nodes = api.select("//b[. = 'x']", document, engine="xpatterns")
            assert [node.order for node in nodes] == [2]
        assert len(document.index._string_match_cache) == 1

    def test_interpreter_sees_edited_text(self):
        document = api.parse(STRING_SOURCE)
        query = "//b[. = 'x']"
        assert len(api.select(query, document, engine="xpatterns")) == 1
        second = document.document_element.children[1]
        document.set_text(second.children[0], "x")
        assert len(api.select(query, document, engine="xpatterns")) == 2

    @pytest.mark.parametrize("value", ["x", "y", "xy", "", "absent"])
    def test_matches_equal_a_full_scan(self, string_columns, value):
        columns, nodes = string_columns
        texts = [node.string_value() for node in nodes]
        equal = [k for k, text in enumerate(texts) if text == value]
        differ = [k for k, text in enumerate(texts) if text != value]
        assert list(columns.string_match(value, False)) == equal
        assert list(columns.string_match(value, True)) == differ
        # Only the = result is kept; != is its complement on every call.
        assert list(columns.string_match(value, True)) == differ
        assert len(columns._string_match_cache) == 1

    def test_entry_count_is_capped(self, string_columns):
        columns, _nodes = string_columns
        for k in range(10**4):
            columns.string_match(f"v{k}", k % 2 == 1)
        cache = columns._string_match_cache
        assert len(cache) == STRING_MATCH_CACHE_SIZE
        # Oldest first out: the last STRING_MATCH_CACHE_SIZE literals stay.
        kept = list(cache._entries)
        assert kept[0] == f"v{10**4 - STRING_MATCH_CACHE_SIZE}"
        assert kept[-1] == "v9999"

    def test_threads_share_one_cache_within_the_cap(self):
        document = api.parse(STRING_SOURCE)
        index = document.index
        texts = [node.string_value() for node in index.nodes]
        errors = []

        def hammer(worker):
            try:
                for k in range(2 * STRING_MATCH_CACHE_SIZE):
                    value = ("x", "y", f"w{worker}-{k}")[k % 3]
                    got = list(index.string_match(value, k % 2 == 1))
                    want = [
                        order for order, text in enumerate(texts)
                        if (text != value if k % 2 else text == value)
                    ]
                    assert got == want
            except Exception as error:  # reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(index._string_match_cache) <= STRING_MATCH_CACHE_SIZE


# ----------------------------------------------------------------------
# Engine behaviour: stats, fallback, limits
# ----------------------------------------------------------------------
class TestCompiledEngine:
    def test_registered_in_api(self):
        assert "compiled" in api.engine_names()
        assert isinstance(api.get_engine("compiled"), CompiledEngine)

    def test_stats_count_instructions_and_cells(self):
        session = XPathSession(engine="compiled")
        result = session.run("//b", DOC)
        counters = result.stats.as_dict()
        # root (1 cell), then the descendant step's three b elements.
        assert counters["compiled_instructions"] == 2
        assert counters["array_cells"] == 1 + 3
        assert "compiled_fallbacks" not in counters

    def test_fallback_outside_the_fragment(self):
        session = XPathSession(engine="compiled")
        result = session.run("/descendant::b[2]", DOC)
        assert result.stats.as_dict()["compiled_fallbacks"] == 1
        assert [node.order for node in result.nodes] == _reference_orders(
            "/descendant::b[2]"
        )

    def test_fallback_engine_is_built_once(self):
        engine = CompiledEngine()
        fallback = engine._fallback
        plan = plan_for("/descendant::b[1]", engine="compiled", cache=None)
        assert plan.classification.recommended_engine == fallback.name == "optmincontext"
        engine.evaluate(plan, DOC)
        engine.evaluate(plan, DOC)
        assert engine._fallback is fallback

    def test_id_queries_match_reference(self):
        got = [n.order for n in api.select("id('r')/b", DOC, engine="compiled")]
        assert got == _reference_orders("id('r')/b")

    def test_result_node_cap_applies(self):
        size = len(api.select("//b", DOC))
        with pytest.raises(ResourceLimitExceeded):
            api.select(
                "//b", DOC, engine="compiled", limits=EvalLimits(max_result_nodes=size - 1)
            )

    def test_operation_budget_aborts_mid_program(self):
        with pytest.raises(ResourceLimitExceeded):
            api.select(
                "//b", DOC, engine="compiled", limits=EvalLimits(max_operations=1)
            )

    def test_empty_program_guard(self):
        # An empty program never comes out of the compiler; the dataclass
        # still behaves.
        assert len(ArrayProgram()) == 0


# ----------------------------------------------------------------------
# engine="auto" routing: compiled for every compilable plan
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "query, fragment, engine",
    [
        ("//b/c", Fragment.CORE_XPATH, "compiled"),
        ("//b[@n = '2']/c", Fragment.XPATTERNS, "compiled"),
        ("id('r')/b", Fragment.XPATTERNS, "compiled"),
        # The shapes past XPatterns route to compiled; fragment stays put.
        ("//b[2]", Fragment.EXTENDED_WADLER, "compiled"),
        ("//b/following-sibling::b[last()]", Fragment.EXTENDED_WADLER, "compiled"),
        ("//b[@n > 1]", Fragment.EXTENDED_WADLER, "compiled"),
        ("count(//b)", Fragment.FULL_XPATH, "compiled"),
        ("/descendant::b[2]", Fragment.EXTENDED_WADLER, "optmincontext"),
    ],
)
def test_auto_routes_compilable_plans_to_compiled(query, fragment, engine):
    plan = plan_for(query, engine="auto", cache=None)
    assert plan.classification.fragment is fragment
    assert plan.classification.recommended_engine == engine
    assert plan.engine_name == engine
    result = XPathSession(engine="auto").run(query, DOC)
    assert result.engine_name == engine
    assert result.value == api.evaluate(query, DOC, engine="topdown")


def test_compiled_request_on_an_id_plan_answers_like_xpatterns():
    session = XPathSession(engine="compiled")
    result = session.run("id('r')/b", DOC)
    assert "compiled_fallbacks" not in result.stats.as_dict()
    assert "compiled_instructions" in result.stats.as_dict()
    expected = XPathSession(engine="xpatterns").run("id('r')/b", DOC)
    assert [node.order for node in result.nodes] == [
        node.order for node in expected.nodes
    ]


# ----------------------------------------------------------------------
# explain() wiring
# ----------------------------------------------------------------------
class TestExplain:
    def test_compilable_line_without_program_dump(self):
        explanation = XPathSession(engine="topdown").explain("//b")
        assert "compiled:   yes (2-instruction array program)" in explanation
        assert "axis-test" not in explanation

    def test_compiled_engine_dumps_the_program(self):
        explanation = XPathSession(engine="compiled").explain("//b")
        assert "compiled:   yes (2-instruction array program)" in explanation
        assert "axis-test[descendant](r0, T(b))" in explanation
        assert "result: r1" in explanation

    def test_non_compilable_reports_the_reason(self):
        explanation = XPathSession().explain("/descendant::b[2]")
        assert "compiled:   no (position on the descendant axis" in explanation
