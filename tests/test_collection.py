"""Collection batch evaluation semantics.

The acceptance bar: `Collection.select` returns results identical to
per-document `api.select` for every query of `workloads/queries.py`, across
all engines — with per-document error isolation (a failure on one document
must not disturb the others) and stable result ordering.

Every batch test runs once per mode of the ``BATCH_MODES`` registry
(tests/conftest.py) that can answer it: serial, thread and process batches
over parsed documents, store-backed batches, and source batches that parse
or stream each entry.
"""

import pytest

from repro import api
from repro.collection import BatchResult, Collection, SourceCollection
from repro.errors import ReproError, VariableBindingError
from repro.store import StoredCollection
from repro.workloads.documents import (
    doc_deep,
    doc_figure8,
    doc_flat,
    doc_flat_text,
    doc_idref,
)
from repro.workloads.queries import workload_queries
from repro.xmlmodel.serializer import serialize

DOCUMENTS = {
    "flat": doc_flat(4),
    "flat_text": doc_flat_text(3),
    "deep": doc_deep(3),
    "figure8": doc_figure8(),
    "idref": doc_idref(),
}
SOURCES = [serialize(document) for document in DOCUMENTS.values()]


def _collection(mode):
    return mode.build(SOURCES, names=list(DOCUMENTS))


def _orders(result):
    """Result node orders, whether the mode returns nodes or matches."""
    if result.nodes is not None:
        return [node.order for node in result.nodes]
    return [match.order for match in result.matches]


class TestBatchModes:
    def test_registry_pins_its_modes(self, batch_modes):
        assert set(batch_modes) == {
            "serial", "thread", "process", "store", "sources", "stream",
        }
        surfaces = {
            name: type(mode.build(["<a/>"])) for name, mode in batch_modes.items()
        }
        assert surfaces == {
            "serial": Collection,
            "thread": Collection,
            "process": Collection,
            "store": StoredCollection,
            "sources": SourceCollection,
            "stream": SourceCollection,
        }
        assert {name for name, mode in batch_modes.items() if mode.tree} == {
            "serial", "thread", "process", "store",
        }


class TestCollectionBasics:
    def test_parse_collection_builds_ordered_documents(self, batch_mode):
        docs = batch_mode.build(["<a><b/></a>", "<a><b/><b/></a>"])
        assert len(docs) == 2
        results = docs.select("//b", **batch_mode.options)
        assert [len(_orders(r)) for r in results] == [1, 2]
        assert docs.names == ("doc[0]", "doc[1]")

    def test_names_must_match_documents(self):
        with pytest.raises(ValueError):
            Collection([doc_flat(1)], names=["a", "b"])

    def test_results_arrive_in_collection_order(self, tree_batch_mode):
        collection = _collection(tree_batch_mode)
        results = collection.select("//b", **tree_batch_mode.options)
        assert [r.index for r in results] == list(range(len(collection)))
        assert [r.name for r in results] == list(DOCUMENTS)
        assert [r.document for r in results] == list(collection)

    def test_nodes_in_document_order(self, batch_mode):
        for result in _collection(batch_mode).select("//*", **batch_mode.options):
            assert result.ok
            orders = _orders(result)
            assert orders == sorted(orders)

    def test_evaluate_returns_values(self, batch_mode):
        results = _collection(batch_mode).evaluate("count(//b)", **batch_mode.options)
        assert all(r.ok for r in results)
        assert results[0].value == 4.0  # doc_flat(4)

    def test_select_many_compiles_each_query_once(self, tree_batch_mode):
        collection = _collection(tree_batch_mode)
        cache = api.plan_cache()
        cache.clear()
        reports = collection.select_many(["//b", "//a"], **tree_batch_mode.options)
        assert len(reports) == 2
        assert all(len(report) == len(collection) for report in reports)
        # two compilations total, not two per document
        assert cache.stats.misses == 2

    def test_evaluate_many_orders_by_query(self, tree_batch_mode):
        reports = _collection(tree_batch_mode).evaluate_many(
            ["count(//b)", "count(//a)"], **tree_batch_mode.options
        )
        assert reports[0][0].value == 4.0
        assert reports[1][0].value == 1.0

    def test_compiled_plan_is_accepted_directly(self, batch_mode):
        plan = api.compile_query("//b", engine="auto")
        results = _collection(batch_mode).select(plan, **batch_mode.options)
        assert [len(_orders(r)) for r in results] == [
            len(api.select("//b", document)) for document in DOCUMENTS.values()
        ]


class TestErrorIsolation:
    def test_unbound_variable_is_isolated_per_document(self, batch_mode):
        # The predicate only evaluates where b-nodes exist, so exactly the
        # documents containing a b fail — and the others still succeed.
        collection = _collection(batch_mode)
        results = collection.select("//b[$missing]", **batch_mode.options)
        has_b = [len(api.select("//b", d)) > 0 for d in DOCUMENTS.values()]
        assert [not r.ok for r in results] == has_b
        assert any(not r.ok for r in results) and any(r.ok for r in results)
        for result in results:
            if not result.ok:
                assert isinstance(result.error, VariableBindingError)
                assert result.nodes is None

    def test_fragment_rejection_does_not_break_batch(self, batch_mode):
        # id() queries are XPatterns, not Core XPath: the corexpath engine
        # rejects them per document while the batch itself completes.
        collection = _collection(batch_mode)
        results = collection.select(
            "id('bk1')/child::title", engine="corexpath", **batch_mode.options
        )
        assert len(results) == len(collection)
        assert all(not r.ok for r in results)

    def test_partial_failure_keeps_other_documents(self, batch_mode):
        # A scalar query through select(): fails everywhere with the node-set
        # type error, but as isolated BatchResults, not one batch exception.
        docs = batch_mode.build(["<a/>", "<a><b/></a>"])
        results = docs.select("count(//b)", **batch_mode.options)
        assert [r.ok for r in results] == [False, False]
        ok = docs.select("//b", **batch_mode.options)
        assert [len(_orders(r)) for r in ok] == [0, 1]

    def test_batch_result_repr_fields(self, batch_mode):
        result = _collection(batch_mode).select("//b", **batch_mode.options)[0]
        assert isinstance(result, BatchResult)
        assert result.ok and result.error is None


class TestCollectionMatchesPerDocumentApi:
    """Acceptance: batch results ≡ per-document api.select, all engines."""

    # Streaming answers streamable plans whatever engine is asked for, so
    # it cannot reproduce an engine's own rejections: the stream mode is
    # left out here (its parity is gated in tests/test_streaming.py).
    @pytest.mark.parametrize(
        "batch_mode", ["serial", "thread", "process", "store", "sources"],
        indirect=True,
    )
    @pytest.mark.parametrize("engine", sorted(api.ENGINE_CLASSES))
    def test_workload_queries_identical_across_engines(self, batch_mode, engine):
        collection = _collection(batch_mode)
        for name, query in workload_queries():
            batch = collection.select(query, engine=engine, **batch_mode.options)
            for result, document in zip(batch, DOCUMENTS.values()):
                try:
                    expected = api.select(query, document, engine=engine)
                except ReproError as error:
                    assert not result.ok, f"{name} on {result.name} ({engine})"
                    assert type(result.error) is type(error)
                else:
                    assert result.ok, f"{name} on {result.name} ({engine}): {result.error}"
                    assert _orders(result) == [
                        n.order for n in expected
                    ], f"{name} on {result.name} ({engine})"
