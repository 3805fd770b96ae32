"""Tests for the public API, the workload generators and the benchmark harness."""

from __future__ import annotations

import math

import pytest

import repro
from repro.benchmarking.harness import (
    doubling_like,
    growth_ratios,
    run_series,
    time_query,
)
from repro.benchmarking.reporting import format_seconds, render_series_summary, render_table
from repro.benchmarking import experiments
from repro.engines import NaiveEngine, TopDownEngine
from repro.errors import XPathEvaluationError
from repro.workloads.documents import (
    doc_deep,
    doc_deep_source,
    doc_flat,
    doc_flat_source,
    doc_flat_text,
    doc_flat_text_source,
    doc_library,
    random_document,
)
from repro.workloads.queries import (
    experiment1_query,
    experiment2_query,
    experiment3_query,
    experiment4_query,
    experiment5_descendant_query,
    experiment5_following_query,
)
from repro.xmlmodel.parser import parse_xml
from repro.xpath.context import Context, context_domain


class TestPublicApi:
    def test_parse_and_select(self):
        doc = repro.parse("<a><b>1</b><b>2</b></a>")
        assert [n.string_value() for n in repro.select("//b", doc)] == ["1", "2"]

    def test_evaluate_scalar(self):
        doc = repro.parse("<a><b>1</b><b>2</b></a>")
        assert repro.evaluate("count(//b)", doc) == 2.0
        assert repro.evaluate("sum(//b)", doc) == 3.0

    def test_engine_names_and_registry(self):
        names = repro.engine_names()
        assert "naive" in names and "topdown" in names and "corexpath" in names
        assert "compiled" in names
        assert len(names) == len(repro.ENGINE_CLASSES) == 9

    def test_get_engine_unknown(self):
        with pytest.raises(XPathEvaluationError):
            repro.get_engine("quantum")

    def test_engine_parameter(self):
        doc = repro.parse("<a><b/><b/></a>")
        assert repro.evaluate("count(//b)", doc, engine="mincontext") == 2.0
        assert repro.evaluate("count(//b)", doc, engine="naive") == 2.0

    def test_auto_engine(self):
        doc = repro.parse("<a><b/><b/></a>")
        assert len(repro.select("//b", doc, engine="auto")) == 2

    def test_engine_for_query_prefers_fragment_engines(self):
        assert repro.engine_for_query("//a/b").name == "compiled"
        assert repro.engine_for_query("//a[count(b) = 1]").name == "optmincontext"

    def test_classify_query(self):
        result = repro.classify_query("//a/b")
        assert result.fragment.value == "Core XPath"

    def test_variables_through_api(self):
        doc = repro.parse("<a/>")
        assert repro.evaluate("$x * 2", doc, variables={"x": 21.0}) == 42.0

    def test_context_argument(self):
        doc = repro.parse("<a><b><c/></b></a>")
        b = doc.document_element.children[0]
        assert [n.name for n in repro.select("child::*", doc, b)] == ["c"]


class TestWorkloadDocuments:
    def test_doc_flat_node_count(self):
        """DOC(i) has i+1 element nodes (paper Section 2)."""
        for size in (0, 2, 10):
            document = doc_flat(size)
            elements = [n for n in document.dom if n.is_element]
            assert len(elements) == size + 1

    def test_doc_flat_text_structure(self):
        document = doc_flat_text(4)
        bs = document.document_element.children
        assert len(bs) == 4
        assert all(b.string_value() == "c" for b in bs)

    def test_doc_deep_depth(self):
        document = doc_deep(7)
        depth = 0
        node = document.document_element
        while node is not None:
            depth += 1
            node = node.children[0] if node.children else None
        assert depth == 7

    def test_doc_deep_requires_positive_depth(self):
        with pytest.raises(ValueError):
            doc_deep(0)

    def test_sources_parse_to_same_shape(self):
        assert len(parse_xml(doc_flat_source(3))) == len(doc_flat(3))
        assert len(parse_xml(doc_flat_text_source(3))) == len(doc_flat_text(3))
        assert len(parse_xml(doc_deep_source(3))) == len(doc_deep(3))

    def test_doc_library_ids_resolve(self):
        document = doc_library(books=10, seed=2)
        assert document.element_by_id("bk3") is not None
        related = repro.select("//related", document)
        for node in related:
            for token in node.string_value().split():
                assert document.element_by_id(token) is not None

    def test_random_document_is_deterministic(self):
        assert len(random_document(5)) == len(random_document(5))
        assert len(random_document(5)) >= 2


class TestWorkloadQueries:
    def test_experiment1_matches_paper_example(self):
        assert experiment1_query(1) == "//a/b"
        assert experiment1_query(3) == "//a/b/parent::a/b/parent::a/b"

    def test_experiment2_matches_paper_example(self):
        assert experiment2_query(1) == "//*[parent::a/child::* = 'c']"
        assert (
            experiment2_query(2)
            == "//*[parent::a/child::*[parent::a/child::* = 'c'] = 'c']"
        )

    def test_experiment3_matches_paper_example(self):
        assert experiment3_query(1) == "//a/b[count(parent::a/b) > 1]"
        assert (
            experiment3_query(2)
            == "//a/b[count(parent::a/b[count(parent::a/b) > 1]) > 1]"
        )

    def test_experiment4_matches_paper_example(self):
        expected = "//a//b[ancestor::a//b[ancestor::a//b]/ancestor::a//b]/ancestor::a//b"
        assert experiment4_query(2) == expected
        assert experiment4_query(0) == "//a//b"

    def test_experiment5_queries(self):
        assert experiment5_following_query(1) == "count(//b)"
        assert experiment5_following_query(3) == "count(//b/following::b/following::b)"
        assert experiment5_descendant_query(2) == "count(//b//b)"

    def test_query_sizes_grow_linearly(self):
        lengths = [len(experiment3_query(size)) for size in (1, 2, 3, 4)]
        diffs = {b - a for a, b in zip(lengths, lengths[1:])}
        assert len(diffs) == 1  # constant increment per nesting level

    def test_all_generated_queries_parse(self):
        from repro.xpath.normalize import compile_query

        for size in (1, 2, 3):
            for generator in (
                experiment1_query,
                experiment2_query,
                experiment3_query,
                experiment5_following_query,
                experiment5_descendant_query,
            ):
                compile_query(generator(size))
        compile_query(experiment4_query(3))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            experiment1_query(0)
        with pytest.raises(ValueError):
            experiment4_query(-1)


class TestContextDomain:
    def test_context_validation(self, figure8):
        with pytest.raises(ValueError):
            Context(figure8.root, 2, 1)

    def test_context_domain_size(self):
        document = doc_flat(1)  # 3 nodes
        contexts = list(context_domain(document))
        n = len(document)
        assert len(contexts) == n * n * (n + 1) / 2

    def test_context_domain_max_size(self):
        document = doc_flat(3)
        contexts = list(context_domain(document, max_size=2))
        assert all(c.size <= 2 for c in contexts)


class TestHarness:
    def test_time_query_measures_and_counts(self, figure8):
        measurement = time_query(TopDownEngine(), "//c", figure8)
        assert measurement.seconds >= 0
        assert measurement.work > 0
        assert measurement.result_size == 3

    def test_run_series_cut_off(self):
        document = doc_flat(2)
        result = run_series(
            "T",
            "tiny",
            "query size",
            [1, 2, 3],
            [NaiveEngine()],
            query_for=experiment1_query,
            document_for=lambda _s: document,
            per_point_budget=0.0,  # force an immediate cut-off
        )
        series = result.series[0]
        assert series.cut_off_at == 1
        assert len(series.points) == 1

    def test_growth_ratios_and_doubling(self):
        assert growth_ratios([1, 2, 4, 8]) == [2, 2, 2]
        assert doubling_like([1, 2, 4, 8, 16])
        assert not doubling_like([10, 11, 12, 13])

    def test_format_seconds(self):
        assert format_seconds(0.0000001).endswith("µs")
        assert format_seconds(0.01).endswith("ms")
        assert format_seconds(2.5) == "2.50s"

    def test_render_table_and_summary(self):
        document = doc_flat(2)
        result = run_series(
            "T",
            "tiny experiment",
            "query size",
            [1, 2],
            [NaiveEngine(), TopDownEngine()],
            query_for=experiment1_query,
            document_for=lambda _s: document,
        )
        table = render_table(result, show_work=True)
        assert "tiny experiment" in table
        assert "naive [s]" in table and "topdown [ops]" in table
        summary = render_series_summary(result.series[0])
        assert "naive" in summary


class TestExperimentDrivers:
    """Smoke tests: tiny instances of every driver produce sane results."""

    def test_experiment1_driver(self):
        result = experiments.experiment1(sizes=(1, 2, 3), per_point_budget=5.0)
        assert {series.engine_name for series in result.series} == {
            "naive",
            "topdown",
            "mincontext",
        }
        naive = result.series_for("naive")
        assert len(naive.points) == 3

    def test_table5_driver_shows_separation(self):
        result = experiments.table5_datapool(sizes=(1, 2, 3), document_size=5)
        naive_work = result.series_for("naive").work_by_parameter()
        pooled_work = result.series_for("datapool").work_by_parameter()
        assert naive_work[3] > pooled_work[3]

    def test_figure1_driver(self):
        result = experiments.figure1_fragments(sizes=(1, 2), document_size=20)
        assert result.series_for("corexpath").points
        assert result.series_for("optmincontext").points

    def test_fragment_classification_report(self):
        report = experiments.fragment_classification_report()
        assert any(fragment == "Core XPath" for _q, fragment in report)
        assert any(fragment == "Full XPath" for _q, fragment in report)

    def test_table7_driver(self):
        results = experiments.table7(sizes=(1, 2), document_sizes=(5,))
        assert len(results) == 1
        assert results[0].series_for("topdown").points

    def test_series_results_are_finite(self):
        result = experiments.experiment5_descendant(sizes=(1, 2), depth=5)
        for series in result.series:
            for point in series.points:
                assert math.isfinite(point.seconds)

    def test_session_overhead_driver(self):
        result = experiments.session_overhead_experiment(
            repetitions=(5,), document_size=5
        )
        assert {series.engine_name for series in result.series} == {"raw", "session"}
        for series in result.series:
            assert all(math.isfinite(point.seconds) for point in series.points)
