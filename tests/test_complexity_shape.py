"""Shape tests for the paper's headline claims, using operation counters.

Wall-clock timings are noisy; the engines' deterministic operation counters
(:class:`~repro.engines.base.EvaluationStats`) let us assert the *shape* of
the paper's results in a unit test:

* the naive engine's work grows exponentially with query size on the
  Experiment-1/2/3/5 workloads while the CVT engines grow (at most)
  polynomially (Theorems 6.6, 7.5, 8.6 versus Section 2);
* the data-pool patch removes the exponential growth (Theorem 9.2, Table V);
* the Core XPath algebra performs O(|Q|) set operations, each O(|D|)
  (Theorem 10.5), and so does every compiled array program;
* MinContext's table rows stay within O(|D|·|Q|) on Extended-Wadler-style
  queries (Theorem 8.6 / 11.3 flavour).
"""

from __future__ import annotations

import pytest

from repro.engines import (
    DataPoolEngine,
    MinContextEngine,
    NaiveEngine,
    OptMinContextEngine,
    TopDownEngine,
)
from repro.fragments import CoreXPathEngine
from repro.plan import compile_plan
from repro.workloads.documents import doc_deep, doc_flat, doc_flat_text
from repro.workloads.queries import (
    core_xpath_chain_query,
    experiment1_query,
    experiment2_query,
    experiment3_query,
    experiment5_descendant_query,
    experiment5_following_query,
)
from repro.xpath.ast import query_size
from repro.xpath.normalize import compile_query


def work_of(engine, query, document) -> int:
    engine.evaluate(query, document)
    return engine.last_stats.total_work()


def growth_ratio(values: list[int]) -> float:
    """Average tail ratio of consecutive values."""
    ratios = [b / a for a, b in zip(values, values[1:]) if a]
    return sum(ratios[-2:]) / len(ratios[-2:])


class TestExperiment1Shape:
    SIZES = [2, 4, 6, 8]

    def test_naive_is_exponential(self, doc2):
        work = [work_of(NaiveEngine(), experiment1_query(size), doc2) for size in self.SIZES]
        # Each appended parent::a/b pair doubles the work on DOC(2): the tail
        # ratio over two size steps is ≈ 4.
        assert growth_ratio(work) > 2.5
        assert work[-1] > 50 * work[0]

    @pytest.mark.parametrize("engine_cls", [TopDownEngine, MinContextEngine, OptMinContextEngine])
    def test_cvt_engines_are_linear_in_query_size(self, doc2, engine_cls):
        work = [work_of(engine_cls(), experiment1_query(size), doc2) for size in self.SIZES]
        # Work grows by a constant additive amount per extra step.
        increments = [b - a for a, b in zip(work, work[1:])]
        assert max(increments) <= 3 * max(1, min(increments))
        assert growth_ratio(work) < 1.8


class TestExperiment2Shape:
    SIZES = [1, 2, 3, 4]

    def test_naive_is_exponential(self):
        document = doc_flat_text(3)
        work = [work_of(NaiveEngine(), experiment2_query(size), document) for size in self.SIZES]
        assert growth_ratio(work) > 2.0

    def test_topdown_is_polynomial(self):
        document = doc_flat_text(3)
        work = [work_of(TopDownEngine(), experiment2_query(size), document) for size in self.SIZES]
        assert growth_ratio(work) < 1.7


class TestExperiment3AndDataPoolShape:
    SIZES = [1, 2, 3, 4]

    def test_naive_is_exponential(self):
        document = doc_flat(3)
        work = [work_of(NaiveEngine(), experiment3_query(size), document) for size in self.SIZES]
        assert growth_ratio(work) > 2.0

    def test_data_pool_removes_the_exponential_growth(self):
        """Table V: Xalan classic explodes, Xalan + data pool grows ~linearly."""
        document = doc_flat(10)
        naive_work = [
            work_of(NaiveEngine(), experiment3_query(size), document) for size in self.SIZES
        ]
        pooled_work = [
            work_of(DataPoolEngine(), experiment3_query(size), document) for size in self.SIZES
        ]
        assert growth_ratio(naive_work) > 3.0
        assert growth_ratio(pooled_work) < 1.5
        assert pooled_work[-1] < naive_work[-1] / 10

    def test_data_pool_hits_grow_with_nesting(self):
        document = doc_flat(10)
        engine = DataPoolEngine()
        engine.evaluate(experiment3_query(2), document)
        shallow_hits = engine.last_stats.memo_hits
        engine.evaluate(experiment3_query(4), document)
        deep_hits = engine.last_stats.memo_hits
        assert deep_hits > shallow_hits > 0


class TestExperiment5Shape:
    def test_following_chains(self):
        document = doc_flat(15)
        sizes = [1, 2, 3, 4]
        naive_work = [
            work_of(NaiveEngine(), experiment5_following_query(size), document) for size in sizes
        ]
        topdown_work = [
            work_of(TopDownEngine(), experiment5_following_query(size), document) for size in sizes
        ]
        assert growth_ratio(naive_work) > 2.0
        assert growth_ratio(topdown_work) < 1.6

    def test_descendant_chains_on_deep_document(self):
        document = doc_deep(10)
        sizes = [1, 2, 3, 4]
        naive_work = [
            work_of(NaiveEngine(), experiment5_descendant_query(size), document) for size in sizes
        ]
        topdown_work = [
            work_of(TopDownEngine(), experiment5_descendant_query(size), document) for size in sizes
        ]
        assert growth_ratio(naive_work) > 1.9
        assert growth_ratio(topdown_work) < 1.6


class TestDataComplexityShape:
    def test_topdown_data_complexity_is_polynomial_not_exponential(self):
        """Doubling |D| must not square the work more than quadratically
        (Experiment 4 / Table VII flavour: quadratic in |D| is expected)."""
        query = experiment2_query(3)
        small = work_of(TopDownEngine(), query, doc_flat_text(20))
        large = work_of(TopDownEngine(), query, doc_flat_text(40))
        assert large <= 5 * small  # ≤ quadratic growth (4×) with slack

    def test_core_xpath_is_linear_in_document_size(self):
        query = core_xpath_chain_query(3)
        counters = {}
        for size in (50, 200):
            document = doc_flat_text(size)
            engine = CoreXPathEngine()
            engine.evaluate(query, document)
            counts = engine.last_stats.as_dict()
            # Each instruction writes at most |dom| cells: O(|D|) each.
            assert counts["array_cells"] <= counts["compiled_instructions"] * len(document)
            counters[size] = counts["compiled_instructions"]
        # O(|Q|) set operations: the program does not grow with |D|.
        assert counters[50] == counters[200]


class TestCoreXPathAlgebraSize:
    def test_plan_size_linear_in_query_size(self):
        # The fuzz families, at the suite's seed: every compilable query.
        from test_fuzz_differential import ALL_QUERIES, COUNT_QUERIES, ID_QUERIES

        queries = [core_xpath_chain_query(size) for size in (1, 2, 4, 8)]
        queries += ALL_QUERIES + ID_QUERIES + COUNT_QUERIES
        ratios = []
        for query in queries:
            plan = compile_plan(query, engine="compiled")
            if plan.classification.compilable:
                ratios.append(len(plan.array_program()) / query_size(plan.expression))
        assert len(ratios) > len(queries) // 2
        # Instructions per AST node stay bounded by a small constant.
        assert max(ratios) < 4


class TestMinContextSpaceShape:
    def test_table_rows_bounded_by_dom_times_query(self):
        document = doc_flat_text(30)
        query = experiment2_query(3)
        engine = MinContextEngine()
        engine.evaluate(query, document)
        bound = len(document) * query_size(compile_query(query))
        assert engine.last_stats.table_rows <= bound

    def test_optmincontext_no_worse_than_mincontext_on_wadler_queries(self):
        document = doc_flat_text(30)
        query = "//*[boolean(following-sibling::b)]"
        mincontext = MinContextEngine()
        optmincontext = OptMinContextEngine()
        mincontext.evaluate(query, document)
        optmincontext.evaluate(query, document)
        assert (
            optmincontext.last_stats.table_rows
            <= mincontext.last_stats.table_rows + len(document)
        )
