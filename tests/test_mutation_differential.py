"""Differential testing of mutated documents (ISSUE 10).

After a random edit script, a document's *repaired* state must be
indistinguishable from a serialize → reparse → query round trip: every
engine, over every axis, must return node-for-node identical answers on
the live mutated tree and on the freshly reparsed twin.  The reparse is
the ground truth — its index is built from scratch by the parser path the
whole original test suite already validates.

The second half stresses snapshot isolation: writer threads keep editing
the collection's documents while query batches run on the serial, thread
and process backends; every batch result must be internally consistent
with exactly one pinned generation per document (zero torn reads).
"""

import random
import threading

import pytest

from repro import api
from repro.parallel import ParallelExecutor
from repro.session import XPathSession
from repro.streaming import stream_select
from repro.workloads import random_edit_script
from repro.workloads.documents import random_document
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize

ENGINES = sorted(api.ENGINE_CLASSES)

#: All thirteen XPath 1.0 axes.
AXES_13 = (
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
    "attribute",
    "namespace",
)

#: One query per axis (applied from every node), plus shapes that lean on
#: the repaired posting lists, the ID map and predicates.
QUERIES = [f"descendant-or-self::node()/{axis}::node()" for axis in AXES_13] + [
    "//a",
    "//*[@id]",
    "/descendant::*[child::a]/child::node()",
    "//b/ancestor::*/following-sibling::a",
    "descendant::text()",
]

#: (seed, with_namespaces) pairs chosen to give 30-150 node documents; the
#: namespace rounds exercise the special-node tail of the preorder table.
CASES = [(5, False), (18, False), (19, False), (26, False), (37, False), (11, True)]

EDITS_PER_SCRIPT = 10


def test_query_list_covers_all_thirteen_axes():
    for axis in AXES_13:
        assert any(f"{axis}::" in query for query in QUERIES), axis


def _engines_for(query: str) -> list[str]:
    info = api.classify_query(query)
    engines = [e for e in ENGINES if e not in ("corexpath", "xpatterns")]
    if info.in_core_xpath:
        engines.append("corexpath")
    if info.in_xpatterns:
        engines.append("xpatterns")
    return sorted(engines)


def _fingerprint(nodes) -> list[tuple]:
    return [(n.order, n.node_type, n.name, n.value) for n in nodes]


def _mutated_pair(seed: int, with_namespaces: bool):
    document = random_document(
        seed, max_depth=4, max_children=4, with_namespaces=with_namespaces
    )
    document.index  # live index so every edit exercises the repair path
    script = random_edit_script(document, EDITS_PER_SCRIPT, seed=seed * 7 + 3)
    assert script, "seed produced no edits"
    reparsed = parse_xml(serialize(document))
    return document, reparsed


@pytest.mark.parametrize("seed,with_namespaces", CASES)
def test_every_engine_matches_reparse_after_mutation(seed, with_namespaces):
    document, reparsed = _mutated_pair(seed, with_namespaces)
    assert len(document) == len(reparsed)
    for query in QUERIES:
        expected = _fingerprint(api.get_engine("topdown").select(query, reparsed))
        for engine in _engines_for(query):
            got = _fingerprint(api.get_engine(engine).select(query, document))
            assert got == expected, (
                f"{engine} on {query!r} after mutation (seed {seed}): "
                f"{got} != reparse reference {expected}"
            )


@pytest.mark.parametrize("seed,with_namespaces", CASES[:3])
def test_streaming_matches_mutated_tree(seed, with_namespaces):
    document, _ = _mutated_pair(seed, with_namespaces)
    source = serialize(document)
    for query in QUERIES:
        if not api.classify_query(query).streamable:
            continue
        streamed = [match.order for match in stream_select(query, source)]
        tree = [n.order for n in api.get_engine("topdown").select(query, document)]
        assert streamed == tree, (query, seed)


@pytest.mark.parametrize("seed,with_namespaces", CASES[:3])
def test_scalar_queries_match_reparse_after_mutation(seed, with_namespaces):
    document, reparsed = _mutated_pair(seed, with_namespaces)
    for query in ("count(//a)", "count(//*)", "string(/)", "count(//@*)"):
        expected = api.evaluate(query, reparsed)
        for engine in _engines_for(query):
            assert api.evaluate(query, document, engine=engine) == expected, (
                engine,
                query,
                seed,
            )


# ----------------------------------------------------------------------
# Snapshot isolation under concurrent mutation
# ----------------------------------------------------------------------
STRESS_QUERY = "//a/descendant-or-self::node()"
STRESS_ROUNDS = 6


def _make_stress_documents():
    documents = []
    for seed in (5, 18, 19):
        document = random_document(seed, max_depth=4, max_children=4)
        document.index
        documents.append(document)
    return documents


def test_backends_agree_between_edit_rounds():
    """With mutation quiesced, serial, thread and process batches over the
    same edited state are node-for-node identical, round after round."""
    documents = _make_stress_documents()
    session = XPathSession()
    collection = session.collection(documents)
    rng = random.Random(99)
    with ParallelExecutor(backend="thread", max_workers=2) as thread_pool:
        with ParallelExecutor(backend="process", max_workers=2) as process_pool:
            for round_number in range(STRESS_ROUNDS):
                serial = [
                    _fingerprint(result.nodes)
                    for result in collection.select(STRESS_QUERY)
                ]
                for pool in (thread_pool, process_pool):
                    got = [
                        _fingerprint(result.nodes)
                        for result in collection.select(STRESS_QUERY, parallel=pool)
                    ]
                    assert got == serial, (pool.backend, round_number)
                for document in documents:
                    random_edit_script(document, 2, seed=rng.randrange(1 << 30))


def test_mutation_during_batch_yields_no_torn_reads():
    """Writers edit continuously while batches run on every backend.

    Each batch pins one snapshot generation per document before evaluating;
    the pinned view is frozen (the writer copies on its next edit), so
    re-evaluating the query against the very documents the result nodes
    belong to must reproduce the result exactly.  A torn read — an answer
    mixing two generations, or computed mid-edit — cannot satisfy that.
    """
    documents = _make_stress_documents()
    session = XPathSession()
    collection = session.collection(documents)
    stop = threading.Event()
    failures: list[BaseException] = []

    def mutate(worker_seed: int) -> None:
        rng = random.Random(worker_seed)
        while not stop.is_set():
            target = documents[rng.randrange(len(documents))]
            try:
                random_edit_script(target, 1, seed=rng.randrange(1 << 30))
            except BaseException as error:  # pragma: no cover - fail loudly
                failures.append(error)
                return

    writers = [threading.Thread(target=mutate, args=(seed,)) for seed in (1, 2)]
    for writer in writers:
        writer.start()
    try:
        with ParallelExecutor(backend="thread", max_workers=2) as thread_pool:
            with ParallelExecutor(backend="process", max_workers=2) as process_pool:
                for _ in range(STRESS_ROUNDS):
                    for pool in (None, thread_pool, process_pool):
                        batch = list(
                            collection.select(STRESS_QUERY, parallel=pool)
                        )
                        assert len(batch) == len(documents)
                        for result in batch:
                            assert result.ok, result.error
                            assert result.document is documents[result.index]
                            if not result.nodes:
                                continue
                            view = result.nodes[0].document
                            # Every result node maps into one pinned view...
                            assert all(
                                node.document is view for node in result.nodes
                            )
                            # ...whose frozen tree reproduces the answer.
                            replay = api.get_engine("topdown").select(
                                STRESS_QUERY, view
                            )
                            assert _fingerprint(result.nodes) == _fingerprint(
                                replay
                            ), "torn read: result does not match its own pinned view"
    finally:
        stop.set()
        for writer in writers:
            writer.join(timeout=10)
    assert not failures, failures
