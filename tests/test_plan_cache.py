"""Compiled-plan pipeline and plan-cache behaviour.

Covers the tentpole of the plan layer: `CompiledQuery` captures the whole
front end once (parse → normalise → classify → engine selection), the LRU
`PlanCache` keyed by (query, engine, variable signature, library) behaves —
hit/miss counters, eviction at capacity, clear() — and the api/cli/engines
all consult it transparently.
"""

import importlib
from collections import Counter

import pytest

from repro import api
from repro.engines.topdown import TopDownEngine
from repro.errors import XPathEvaluationError, XPathSyntaxError
from repro.fragments.classify import Fragment
from repro.plan import (
    CORE_LIBRARY_SIGNATURE,
    CompiledQuery,
    PlanCache,
    compile_plan,
    plan_cache_key,
    plan_for,
    referenced_variables,
)
from repro.xpath.normalize import compile_query as normalize_query
from repro.xpath.values import ValueType


@pytest.fixture
def doc():
    return api.parse("<a><b>1</b><b>2</b><c><b>3</b></c></a>")


@pytest.fixture(autouse=True)
def clean_default_cache():
    api.plan_cache().clear()
    yield
    api.plan_cache().clear()


class TestCompiledQuery:
    def test_pipeline_runs_once_and_is_reusable(self, doc):
        plan = compile_plan("//b", engine="auto")
        assert plan.source == "//b"
        assert plan.classification.fragment is Fragment.CORE_XPATH
        assert plan.requested_engine == "auto"
        assert plan.engine_name == "compiled"
        first = plan.select(doc)
        second = plan.select(doc)
        assert [n.order for n in first] == [n.order for n in second]
        assert len(first) == 3

    def test_normalised_ast_is_shared_by_engines(self, doc):
        plan = compile_plan("//b[2]")
        # The numeric predicate was rewritten at compile time (Section 5).
        assert "position() = 2" in plan.to_xpath()
        for engine in api.engine_names():
            if engine in ("corexpath", "xpatterns"):
                continue  # positional predicates are outside the fragments
            nodes = api.get_engine(engine).select(plan, doc)
            assert [n.string_value() for n in nodes] == ["2"]

    def test_static_type_and_variables_exposed(self):
        plan = compile_plan("count(//b) + $offset")
        assert plan.static_type is ValueType.NUMBER
        assert plan.variable_names == frozenset({"offset"})

    def test_referenced_variables_walks_nested_expressions(self):
        expression = normalize_query("//a[$x + 1 > count(//b[$y])]/*[$x]")
        assert referenced_variables(expression) == frozenset({"x", "y"})

    def test_plan_accepts_prebuilt_ast(self, doc):
        from repro.xpath.parser import parse_xpath

        plan = compile_plan(parse_xpath("//b"))
        assert plan.source is None
        assert len(plan.select(doc)) == 3

    def test_relevance_precomputed_for_whole_tree(self):
        plan = compile_plan("//b[position() = last()]")
        assert plan.expression in plan.relevance
        sets = set(plan.relevance.values())
        assert frozenset({"cp"}) in sets or frozenset({"cp", "cs"}) in sets

    def test_array_program_memoised(self):
        plan = compile_plan("/descendant::b", engine="corexpath")
        first = plan.array_program()
        assert plan.array_program() is first

    def test_a_miss_runs_each_front_end_analysis_once(self, monkeypatch):
        # Over compile_plan(q, engine="auto") plus the first array_program():
        # Relev(N) (Section 8.2), the Extended Wadler check (Section 11.1)
        # and the ArrayCompiler program each run exactly once.
        from repro.engines.compiled import ArrayCompiler

        # By module name: the fragments package re-exports a function
        # called classify, which shadows the submodule as an attribute.
        relevance_module = importlib.import_module("repro.engines.relevance")
        classify_module = importlib.import_module("repro.fragments.classify")
        wadler_module = importlib.import_module("repro.fragments.wadler")

        calls = Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        relevance = counted("relevance", relevance_module.compute_relevance)
        monkeypatch.setattr(relevance_module, "compute_relevance", relevance)
        monkeypatch.setattr(wadler_module, "compute_relevance", relevance)
        violations = counted("wadler", wadler_module.wadler_violations)
        monkeypatch.setattr(wadler_module, "wadler_violations", violations)
        monkeypatch.setattr(classify_module, "wadler_violations", violations)
        monkeypatch.setattr(
            ArrayCompiler, "compile_query", counted("program", ArrayCompiler.compile_query)
        )
        plan = compile_plan("//a[b = '2']/c", engine="auto")
        assert plan.engine_name == "compiled"
        assert plan.array_program() is not None
        assert calls == {"relevance": 1, "wadler": 1, "program": 1}

    def test_id_arguments_compile_inside_the_one_dry_run(self, monkeypatch):
        # The forward walk compiles an id argument; compile_query runs once.
        from repro.engines.compiled import ArrayCompiler

        calls = []
        compile_query = ArrayCompiler.compile_query

        def counted(compiler, expression):
            calls.append(expression)
            return compile_query(compiler, expression)

        monkeypatch.setattr(ArrayCompiler, "compile_query", counted)
        plan = compile_plan("id(id(//a)/b)/c", engine="auto")
        assert plan.engine_name == "compiled"
        assert plan.array_program() is not None
        assert len(calls) == 1

    def test_only_array_engine_plans_keep_the_dry_run_program(self):
        plan = compile_plan("//a[b = '2']/c", engine="topdown")
        assert plan.classification.compilable
        assert "program" not in plan._array_program
        for engine in ("auto", "corexpath", "xpatterns", "compiled"):
            assert "program" in compile_plan("//a[b = '2']/c", engine=engine)._array_program

    def test_retarget_preserves_ast_and_classification(self):
        plan = compile_plan("//b", engine="topdown")
        retargeted = plan_for(plan, engine="bottomup", cache=None)
        assert retargeted.engine_name == "bottomup"
        assert retargeted.expression is plan.expression
        assert retargeted.classification is plan.classification

    def test_plan_passthrough_for_matching_engines(self):
        plan = compile_plan("//b", engine="auto")
        assert plan_for(plan, engine="auto") is plan
        # The resolved engine also counts as a match: no spurious copies.
        assert plan_for(plan, engine=plan.engine_name) is plan
        # No engine preference at all: the plan stands exactly as compiled.
        assert plan_for(plan) is plan
        assert compile_plan(plan) is plan

    def test_api_uses_prebuilt_plan_as_is(self, doc):
        # Regression: api.select used to retarget an auto-resolved plan to
        # the default engine when the caller omitted the engine kwarg.
        plan = api.compile_query("/descendant::b", engine="auto")
        assert plan.engine_name == "compiled"
        api.select(plan, doc)
        # The compiled engine ran: its array program was memoised on *this*
        # plan object, which only happens when the plan is used as-is.
        assert "program" in plan._array_program
        # An explicit engine still overrides — without mutating the plan.
        nodes = api.select(plan, doc, engine="naive")
        assert [n.order for n in nodes] == [n.order for n in plan.select(doc)]
        assert plan.engine_name == "compiled"
        retargeted = plan_for(plan, engine="naive")
        assert retargeted is not plan and retargeted.engine_name == "naive"

    def test_engine_evaluate_accepts_plan(self, doc):
        plan = compile_plan("count(//b)")
        assert TopDownEngine().evaluate(plan, doc) == 3.0

    def test_unknown_query_type_rejected(self):
        with pytest.raises(XPathEvaluationError):
            plan_for(12345)  # type: ignore[arg-type]

    def test_syntax_errors_surface_at_compile_time(self):
        with pytest.raises(XPathSyntaxError):
            compile_plan("//b[")


class TestPlanCacheBehaviour:
    def test_hit_and_miss_counters(self):
        cache = PlanCache(maxsize=4)
        first = cache.get_or_compile("//a")
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        second = cache.get_or_compile("//a")
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert second is first  # the identical immutable plan object
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_at_capacity(self):
        cache = PlanCache(maxsize=2)
        cache.get_or_compile("//a")
        cache.get_or_compile("//b")
        cache.get_or_compile("//a")  # refresh //a: //b is now least recent
        cache.get_or_compile("//c")  # evicts //b
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        key_a = plan_cache_key("//a", "topdown", frozenset())
        key_b = plan_cache_key("//b", "topdown", frozenset())
        key_c = plan_cache_key("//c", "topdown", frozenset())
        assert key_a in cache and key_c in cache
        assert key_b not in cache

    def test_eviction_order_is_least_recently_used(self):
        cache = PlanCache(maxsize=3)
        for query in ("//a", "//b", "//c"):
            cache.get_or_compile(query)
        cache.get_or_compile("//a")  # hit: //b is the LRU entry now
        cache.get_or_compile("//d")
        assert plan_cache_key("//b", "topdown", frozenset()) not in cache
        assert plan_cache_key("//a", "topdown", frozenset()) in cache

    def test_key_distinguishes_engine_name(self):
        cache = PlanCache()
        topdown = cache.get_or_compile("//a", engine="topdown")
        bottomup = cache.get_or_compile("//a", engine="bottomup")
        assert cache.stats.misses == 2
        assert topdown is not bottomup
        assert topdown.engine_name == "topdown"
        assert bottomup.engine_name == "bottomup"

    def test_key_distinguishes_variable_signatures(self):
        cache = PlanCache()
        bare = cache.get_or_compile("//a[$n]")
        bound = cache.get_or_compile("//a[$n]", variables={"n": 1.0})
        also_bound = cache.get_or_compile("//a[$n]", variables={"n": 2.0})
        assert cache.stats.misses == 2  # names key the cache, values do not
        assert cache.stats.hits == 1
        assert bare is not bound
        assert bound is also_bound

    def test_key_distinguishes_library_signature(self):
        cache = PlanCache()
        cache.get_or_compile("//a")
        cache.get_or_compile("//a", library_signature="ext/999")
        assert cache.stats.misses == 2
        assert CORE_LIBRARY_SIGNATURE != "ext/999"

    def test_clear_empties_cache_and_resets_counters(self):
        cache = PlanCache(maxsize=2)
        cache.get_or_compile("//a")
        cache.get_or_compile("//a")
        cache.get_or_compile("//b")
        cache.get_or_compile("//c")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.as_dict() == {"hits": 0, "misses": 0, "evictions": 0}

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_peek_does_not_touch_stats_or_order(self):
        cache = PlanCache(maxsize=2)
        plan = cache.get_or_compile("//a")
        key = plan_cache_key("//a", "topdown", frozenset())
        assert cache.peek(key) is plan
        assert cache.stats.hits == 0
        assert cache.peek(plan_cache_key("//zzz", "topdown", frozenset())) is None

    def test_cached_plan_key_roundtrip(self):
        cache = PlanCache()
        plan = cache.get_or_compile("//a", engine="auto")
        assert cache.peek(plan.cache_key()) is plan


class TestTransparentCaching:
    def test_api_select_consults_default_cache(self, doc):
        cache = api.plan_cache()
        api.select("//b", doc)
        api.select("//b", doc)
        assert cache.stats.hits >= 1
        assert cache.stats.misses >= 1

    def test_api_evaluate_and_select_share_entries(self, doc):
        cache = api.plan_cache()
        api.evaluate("count(//b)", doc)
        api.evaluate("count(//b)", doc)
        assert cache.stats.hits == 1

    def test_engine_string_front_door_consults_cache(self, doc):
        cache = api.plan_cache()
        engine = TopDownEngine()
        engine.select("//b", doc)
        engine.select("//b", doc)
        assert cache.stats.hits == 1

    def test_cli_consults_cache(self):
        from repro import cli

        cache = api.plan_cache()
        assert cli.run(["//b"], stdin="<a><b/></a>") == 0
        assert cli.run(["//b"], stdin="<a><b/></a>") == 0
        assert cache.stats.hits >= 1

    def test_cached_results_equal_uncached(self, doc):
        cold = plan_for("//b[position() = last()]", cache=None)
        api.plan_cache().clear()
        warm_miss = api.select("//b[position() = last()]", doc)
        warm_hit = api.select("//b[position() = last()]", doc)
        uncached = cold.select(doc)
        assert [n.order for n in warm_miss] == [n.order for n in warm_hit]
        assert [n.order for n in warm_miss] == [n.order for n in uncached]
