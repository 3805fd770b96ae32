"""Tests for the session layer: XPathSession, QueryResult, EvalLimits.

Covers the ISSUE-3 acceptance surface: session isolation (caches, engine
pools and stats never shared), cooperative resource-limit enforcement on
the exponential naive engine, the QueryResult provenance (plan, fragment,
engine, cache hit, stats, timing) with its golden ``explain()`` output, and
the back-compat delegation of the module-level ``api.*`` helpers to the
process default session.
"""

from __future__ import annotations

import textwrap

import pytest

import repro
from repro import api
from repro.collection import Collection
from repro.engines.base import EvalLimits, EvaluationStats, LimitGuard
from repro.errors import ResourceLimitExceeded, XPathEvaluationError
from repro.plan import DEFAULT_PLAN_CACHE, PlanCache
from repro.session import ENGINE_CLASSES, QueryResult, XPathSession
from repro.workloads.documents import doc_flat
from repro.workloads.queries import experiment1_query

SIMPLE_XML = "<a><b>1</b><b>2</b></a>"


@pytest.fixture
def doc():
    return api.parse(SIMPLE_XML)


# ----------------------------------------------------------------------
# QueryResult provenance
# ----------------------------------------------------------------------
class TestQueryResult:
    def test_run_returns_rich_result(self, doc):
        session = XPathSession()
        result = session.run("//b", doc)
        assert isinstance(result, QueryResult)
        assert [node.string_value() for node in result.nodes] == ["1", "2"]
        assert result.engine_name == "topdown"
        assert result.plan.source == "//b"
        assert result.fragment_name == "Core XPath"
        assert result.cache_hit is False
        assert result.stats.total_work() > 0
        assert result.elapsed_seconds >= 0.0
        assert result.limits.unlimited

    def test_cache_hit_flag_flips_on_repeat(self, doc):
        session = XPathSession()
        assert session.run("//b", doc).cache_hit is False
        assert session.run("//b", doc).cache_hit is True

    def test_prebuilt_plan_has_no_cache_flag(self, doc):
        session = XPathSession()
        plan = session.compile("//b")
        result = session.run(plan, doc)
        assert result.cache_hit is None
        assert result.plan is plan

    def test_scalar_result_value_and_nodes_error(self, doc):
        session = XPathSession()
        result = session.run("count(//b)", doc)
        assert result.value == 2.0
        assert not result.is_node_set
        with pytest.raises(XPathEvaluationError, match="does not produce a node set"):
            result.nodes

    def test_auto_engine_resolution_recorded(self, doc):
        session = XPathSession(engine="auto")
        result = session.run("//b", doc)
        assert result.engine_name == "compiled"
        assert result.plan.requested_engine == "auto"

    def test_explain_golden_output(self, doc):
        session = XPathSession()
        result = session.run("//b", doc)
        expected = textwrap.dedent(
            """\
            query:      //b
            normalized: /descendant-or-self::node()/child::b
            fragment:   Core XPath  [time O(|D|·|Q|)]
            streaming:  yes (single-pass, O(depth) state)
            compiled:   yes (2-instruction array program)
            engine:     topdown  (fragment recommends compiled)
            cache:      miss (compiled)
            limits:     unlimited
            result:     node-set, 2 node(s)
            stats:      expression_evaluations=1, location_step_applications=7, axis_nodes_visited=8"""
        )
        assert result.explain(include_timing=False) == expected

    def test_explain_golden_output_auto_engine(self, doc):
        session = XPathSession(engine="auto")
        result = session.run("//b", doc)
        expected = textwrap.dedent(
            """\
            query:      //b
            normalized: /descendant-or-self::node()/child::b
            fragment:   Core XPath  [time O(|D|·|Q|)]
            streaming:  yes (single-pass, O(depth) state)
            compiled:   yes (2-instruction array program)
                          r0 = root()
                          r1 = axis-test[descendant](r0, T(b))
                          result: r1
            engine:     compiled  (resolved from 'auto', recommended for this fragment)
            cache:      miss (compiled)
            limits:     unlimited
            result:     node-set, 2 node(s)
            stats:      compiled_instructions=2, array_cells=3"""
        )
        assert result.explain(include_timing=False) == expected

    def test_explain_timing_line(self, doc):
        result = XPathSession().run("//b", doc)
        lines = result.explain().splitlines()
        assert lines[-1].startswith("time:")
        assert lines[-1].endswith("ms")
        # Without timing, everything else is unchanged.
        assert lines[:-1] == result.explain(include_timing=False).splitlines()

    def test_session_explain_without_document_is_compile_only(self):
        session = XPathSession()
        text = session.explain("//b")
        assert "normalized: /descendant-or-self::node()/child::b" in text
        assert "result:" not in text
        assert "stats:" not in text


# ----------------------------------------------------------------------
# Session isolation
# ----------------------------------------------------------------------
class TestSessionIsolation:
    def test_sessions_do_not_share_caches(self, doc):
        first, second = XPathSession(), XPathSession()
        first.run("//b", doc)
        assert len(first.cache) == 1
        assert len(second.cache) == 0
        # Both compile from scratch: neither sees the other's plans.
        assert second.run("//b", doc).cache_hit is False
        assert first.cache.stats.misses == 1
        assert second.cache.stats.misses == 1

    def test_sessions_do_not_share_stats(self, doc):
        first, second = XPathSession(), XPathSession()
        first.run("//b", doc)
        first.run("count(//b)", doc)
        assert first.stats.queries == 2
        assert second.stats.queries == 0

    def test_sessions_do_not_share_engine_pools(self, doc):
        first, second = XPathSession(), XPathSession()
        assert first.engine("topdown") is not second.engine("topdown")
        # ... but within one session the instance is reused.
        assert first.engine("topdown") is first.engine("topdown")

    def test_session_isolated_from_default_session(self, doc):
        isolated = XPathSession()
        before = api.default_session().stats.queries
        isolated.run("//b", doc)
        assert api.default_session().stats.queries == before
        assert isolated.cache is not api.plan_cache()

    def test_default_variables_merged_under_call_variables(self, doc):
        session = XPathSession(variables={"x": 1.0, "y": 2.0})
        assert session.evaluate("$x + $y", doc) == 3.0
        assert session.evaluate("$x + $y", doc, variables={"y": 10.0}) == 11.0
        # The session defaults are untouched by per-call overrides.
        assert session.variables == {"x": 1.0, "y": 2.0}


# ----------------------------------------------------------------------
# Resource limits
# ----------------------------------------------------------------------
class TestEvalLimits:
    def test_operation_budget_stops_exponential_naive_query(self):
        # Experiment 1's antagonist-axis chain is Θ(|D|^|Q|) on the naive
        # engine; the budget must abort it long before completion.
        session = XPathSession(limits=EvalLimits(max_operations=20_000))
        document = doc_flat(3)
        with pytest.raises(ResourceLimitExceeded) as excinfo:
            session.run(experiment1_query(10), document, engine="naive")
        error = excinfo.value
        assert error.limit == "max_operations"
        # Partial stats ride on the exception (acceptance criterion).
        assert error.stats is not None
        assert error.stats.total_work() > 20_000
        assert error.limits.max_operations == 20_000

    def test_breach_recorded_in_session_stats(self):
        session = XPathSession(limits=EvalLimits(max_operations=10_000))
        with pytest.raises(ResourceLimitExceeded):
            session.run(experiment1_query(10), doc_flat(3), engine="naive")
        assert session.stats.limit_breaches == 1
        assert session.stats.errors == 1
        assert session.stats.queries == 1
        assert session.stats.total_work > 0  # partial work still accounted

    def test_per_call_limits_override_session_limits(self, doc):
        session = XPathSession(limits=EvalLimits(max_operations=1))
        # Session limits alone would trip immediately …
        with pytest.raises(ResourceLimitExceeded):
            session.run("//b", doc)
        # … but a per-call override lifts them for that call only.
        result = session.run("//b", doc, limits=EvalLimits())
        assert len(result.nodes) == 2

    def test_max_result_nodes(self, doc):
        session = XPathSession()
        with pytest.raises(ResourceLimitExceeded) as excinfo:
            session.run("//b", doc, limits=EvalLimits(max_result_nodes=1))
        assert excinfo.value.limit == "max_result_nodes"
        # Under the cap: fine.
        result = session.run("//b", doc, limits=EvalLimits(max_result_nodes=2))
        assert len(result.nodes) == 2

    def test_timeout_stops_long_naive_evaluation(self):
        session = XPathSession()
        with pytest.raises(ResourceLimitExceeded) as excinfo:
            session.run(
                experiment1_query(12),
                doc_flat(3),
                engine="naive",
                limits=EvalLimits(timeout_seconds=0.05),
            )
        assert excinfo.value.limit == "timeout_seconds"

    def test_limits_enforced_on_every_engine(self):
        # Cooperative checkpoints exist in all 8 engines: a tiny operation
        # budget must trip each of them on a non-trivial query.
        document = doc_flat(4)
        for name in sorted(ENGINE_CLASSES):
            session = XPathSession(limits=EvalLimits(max_operations=2))
            with pytest.raises(ResourceLimitExceeded):
                session.run("//a/b/parent::a/b", document, engine=name)

    def test_unlimited_limits_are_free(self):
        limits = EvalLimits()
        assert limits.unlimited
        assert limits.guard() is None
        assert limits.describe() == "unlimited"

    def test_describe_renders_all_limits(self):
        limits = EvalLimits(
            max_result_nodes=10, max_operations=1000, timeout_seconds=1.5
        )
        assert limits.describe() == (
            "max_result_nodes=10, max_operations=1000, timeout=1.5s"
        )

    def test_guard_checkpoint_outside_budget_raises(self):
        stats = EvaluationStats(guard=LimitGuard(EvalLimits(max_operations=5)))
        stats.expression_evaluations = 5
        stats.checkpoint()  # exactly at budget: fine
        stats.expression_evaluations = 6
        with pytest.raises(ResourceLimitExceeded):
            stats.checkpoint()


# ----------------------------------------------------------------------
# Module-level api delegation (back-compat)
# ----------------------------------------------------------------------
class TestApiDelegation:
    def test_select_and_evaluate_return_plain_values(self, doc):
        nodes = api.select("//b", doc)
        assert isinstance(nodes, list) and len(nodes) == 2
        assert api.evaluate("count(//b)", doc) == 2.0

    def test_default_plan_cache_is_default_sessions_cache(self):
        assert api.plan_cache() is DEFAULT_PLAN_CACHE
        assert api.default_session().cache is DEFAULT_PLAN_CACHE

    def test_module_calls_are_recorded_on_default_session(self, doc):
        before = api.default_session().stats.queries
        api.select("//b", doc)
        api.run("//b", doc)
        assert api.default_session().stats.queries == before + 2

    def test_engines_are_pooled_not_reinstantiated(self, doc):
        session = api.default_session()
        api.select("//b", doc)
        first = session.engine("topdown")
        api.select("//b", doc)
        assert session.engine("topdown") is first

    def test_engine_for_query_uses_default_session_pool(self):
        engine = api.engine_for_query("//a/b")
        assert engine.name == "compiled"
        assert api.engine_for_query("//a/b") is engine

    def test_session_factory_accepts_config(self, doc):
        session = api.session(
            engine="auto", cache_size=4, limits=EvalLimits(max_operations=10**9)
        )
        assert session.default_engine == "auto"
        assert session.cache.maxsize == 4
        assert session.run("//b", doc).engine_name == "compiled"

    def test_module_explain(self, doc):
        text = api.explain("//b", doc)
        assert "fragment:   Core XPath" in text
        assert repro.explain is api.explain

    def test_package_reexports(self):
        assert repro.XPathSession is XPathSession
        assert repro.EvalLimits is EvalLimits
        assert repro.ResourceLimitExceeded is ResourceLimitExceeded
        assert repro.QueryResult is QueryResult

    def test_unknown_engine_raises(self, doc):
        with pytest.raises(XPathEvaluationError, match="unknown engine"):
            XPathSession().run("//b", doc, engine="nonsense")


# ----------------------------------------------------------------------
# Session-aware collections
# ----------------------------------------------------------------------
class TestSessionCollections:
    SOURCES = ["<a><b/></a>", "<a><b/><b/></a>", "<a/>"]

    @staticmethod
    def _counts(batch):
        """Result sizes, whether the mode returns nodes or matches."""
        return [
            len(r.nodes if r.nodes is not None else r.matches) for r in batch
        ]

    def test_collection_bound_to_session(self, batch_mode):
        session = XPathSession()
        assert session.parse_collection(self.SOURCES).session is session
        docs = batch_mode.build(self.SOURCES, session=session)
        assert docs.session is session
        results = docs.select("//b", **batch_mode.options)
        assert self._counts(results) == [1, 2, 0]
        # Work is recorded on the owning session: one query per document.
        assert session.stats.queries == 3
        assert len(session.cache) == 1

    def test_batch_run_reports_cache_provenance(self, batch_mode):
        session = XPathSession()
        docs = batch_mode.build(self.SOURCES, session=session)
        first = docs.select("//b", **batch_mode.options)
        assert first.cache_hit is False
        again = docs.select("//b", **batch_mode.options)
        assert again.cache_hit is True
        assert first.report.engine_name == "topdown"
        assert first.report.query == "//b"

    def test_select_many_reports_hits_vs_compiled(self, tree_batch_mode):
        session = XPathSession()
        docs = tree_batch_mode.build(self.SOURCES, session=session)
        docs.select("//b", **tree_batch_mode.options)  # prime one of the two plans
        runs = docs.select_many(["//b", "//a"], **tree_batch_mode.options)
        hits = {report.query: report.cache_hit for report in runs.plan_reports}
        assert hits == {"//b": True, "//a": False}
        assert runs.cache_hits == 1
        assert runs.compiled == 1
        # The list shape is unchanged for pre-existing consumers.
        assert [len(r.nodes) for r in runs[0]] == [1, 2, 0]

    def test_session_limits_apply_per_document(self, batch_mode):
        session = XPathSession(limits=EvalLimits(max_result_nodes=1))
        docs = batch_mode.build(self.SOURCES, session=session)
        results = docs.select("//b", **batch_mode.options)
        # doc[1] has two result nodes → breached; others fine.
        assert [r.ok for r in results] == [True, False, True]
        assert isinstance(results[1].error, ResourceLimitExceeded)
        assert session.stats.limit_breaches == 1
        assert not results.ok

    def test_default_collection_uses_default_session(self, batch_mode):
        assert api.parse_collection(self.SOURCES).session is api.default_session()
        docs = batch_mode.build(self.SOURCES)
        assert docs.session is api.default_session()

    def test_collection_constructor_session_binding(self, backend_batch_mode):
        session = XPathSession()
        docs = session.collection([api.parse(s) for s in self.SOURCES])
        assert isinstance(docs, Collection)
        docs.evaluate("count(//b)", **backend_batch_mode.options)
        assert session.stats.queries == 3
