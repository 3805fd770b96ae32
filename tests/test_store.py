"""Tests for the persistent on-disk document store (repro.store).

Five fronts:

* **round-trip fidelity** — documents rebuilt from a store file are
  node-for-node identical to the originals (types, names, values, orders,
  parent links, namespace/attribute order, merged text, entity-expanded
  content), property-tested over the seeded random corpus the differential
  suite uses;
* **engine parity** — every registered engine returns byte-identical
  document orders over a stored-and-reopened document and a freshly parsed
  one, across all thirteen axes (the acceptance bar of ISSUE 8), and the
  compiled engine answers straight off the mapped columns without ever
  materialising a tree;
* **corruption** — a damaged or truncated store file is a positioned
  :class:`~repro.errors.StoreCorruptError`, never a crash, and in a batch a
  corrupt document block fails only its own entry (also exercised through
  the deterministic ``corrupt@store`` fault-injection site);
* **shipping** — stored documents pickle as ``(path, position)`` origins,
  serial / thread / process batch runs agree node for node, and deleting
  the store file behind a materialised document silently falls back to the
  flat-preorder payload;
* **integration** — ``api.build_store`` / ``api.open_store``, session
  coercion of handles, one-at-a-time ``StoredCollection.from_sources``, and
  the ``store build`` / ``store info`` / ``store query`` CLI subcommands.
"""

from __future__ import annotations

import gc
import os
import pickle
import stat
import threading
import time
import weakref

import pytest

from repro import api
from repro.cli import run as cli_run
from repro.errors import ReproError, StoreCorruptError
from repro.faultinject import FaultPlan, inject
from repro.plan import plan_for
from repro.store import (
    MAGIC,
    DocumentStore,
    StoredCollection,
    build_store,
    invalidate,
    open_cached,
)
from repro.store import format as store_format
from repro.store import reader as store_reader
from repro.workloads.documents import (
    doc_dblp_source,
    doc_figure8,
    doc_flat,
    random_document,
)
from repro.xmlmodel.nodes import NodeType
from repro.xmlmodel.parser import parse_xml

RICH_SOURCES = [
    "<a id='x'><b n='1'>hi</b><b n='2'>yo<!--note--></b><?pi data?></a>",
    "<r xmlns:p='urn:x'><p:q a='1' b='2'/>text<p:q/></r>",
    # Entity references expand during parsing; the store must round-trip
    # the expanded text, and adjacent text must stay merged.
    "<!DOCTYPE d [<!ENTITY e \"42\">]><d>pre &e; post</d>",
    "<m><x/><x>1</x><y><x deep='yes'/></y></m>",
]

#: All thirteen XPath axes (the ISSUE-8 acceptance matrix).
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
    "attribute",
    "namespace",
)


def _node_tuple(node):
    return (
        node.node_type,
        node.name,
        node.value,
        node.order,
        node.parent.order if node.parent is not None else -1,
    )


def _assert_identical(rebuilt, original):
    assert len(rebuilt) == len(original)
    assert rebuilt.id_attribute == original.id_attribute
    for ours, theirs in zip(rebuilt.dom, original.dom):
        assert _node_tuple(ours) == _node_tuple(theirs)
        # Namespace/attribute/child order is part of the document identity:
        # child0_sequence is the order-defining sequence.
        assert [id(c) - id(c) or c.order for c in ours.child0_sequence()] == [
            c.order for c in theirs.child0_sequence()
        ]


@pytest.fixture
def rich_store(tmp_path):
    documents = [parse_xml(source) for source in RICH_SOURCES]
    path = str(tmp_path / "rich.reproxs")
    build_store(path, documents, names=[f"doc{i}" for i in range(len(documents))])
    store = DocumentStore.open(path)
    yield store, documents
    store.close()


class TestRoundTrip:
    def test_rich_documents_round_trip(self, rich_store):
        store, documents = rich_store
        for position, original in enumerate(documents):
            rebuilt = store.document_at(position).materialize()
            _assert_identical(rebuilt, original)

    def test_entity_expansion_and_text_merge_preserved(self, rich_store):
        store, documents = rich_store
        rebuilt = store.document_at(2).materialize()
        texts = [n.value for n in rebuilt.dom if n.node_type is NodeType.TEXT]
        assert texts == ["pre 42 post"]

    def test_names_and_counts(self, rich_store):
        store, documents = rich_store
        assert store.names == tuple(f"doc{i}" for i in range(len(documents)))
        info = store.info()
        assert info["documents"] == len(documents)
        assert info["nodes"] == sum(len(d) for d in documents)
        assert store.verify()

    @pytest.mark.parametrize("seed", [3, 17, 42, 99, 123])
    def test_random_corpus_round_trips(self, seed, tmp_path):
        original = random_document(
            seed, max_depth=4, max_children=4, with_namespaces=True
        )
        path = str(tmp_path / f"rand{seed}.reproxs")
        with DocumentStore.build(path, [original]) as store:
            _assert_identical(store.document_at(0).materialize(), original)

    def test_dblp_corpus_round_trips(self, tmp_path):
        original = parse_xml(doc_dblp_source(50))
        path = str(tmp_path / "dblp.reproxs")
        with DocumentStore.build(path, [original]) as store:
            rebuilt = store.document_at(0).materialize()
            _assert_identical(rebuilt, original)
            # The internal-subset entities must arrive expanded.
            assert "ü" in " ".join(
                n.value for n in rebuilt.dom if n.node_type is NodeType.TEXT
            )

    def test_materialize_is_cached(self, rich_store):
        store, _ = rich_store
        handle = store.document_at(0)
        assert handle.materialize() is handle.materialize()

    def test_empty_store(self, tmp_path):
        path = str(tmp_path / "empty.reproxs")
        with DocumentStore.build(path, []) as store:
            assert store.info()["documents"] == 0
            assert store.verify()


ENGINE_DOC = (
    "<lib xmlns:p='urn:q'><a id='r1'><b>one</b><b n='2'>two</b></a>"
    "<a><c><b deep='x'>three</b></c><!--mark--><?pi d?></a></lib>"
)


class TestEngineParity:
    @pytest.mark.parametrize("engine", sorted(api.ENGINE_CLASSES))
    @pytest.mark.parametrize("axis", AXES)
    def test_axis_parity_stored_vs_fresh(self, engine, axis, tmp_path):
        fresh = parse_xml(ENGINE_DOC)
        path = str(tmp_path / "parity.reproxs")
        with DocumentStore.build(path, [parse_xml(ENGINE_DOC)]) as store:
            stored = store.document_at(0).materialize()
            query = f"//*/{axis}::node()"
            try:
                expected = [n.order for n in api.select(query, fresh, engine=engine)]
            except ReproError as error:
                with pytest.raises(type(error)):
                    api.select(query, stored, engine=engine)
                return
            got = [n.order for n in api.select(query, stored, engine=engine)]
            assert got == expected

    @pytest.mark.parametrize(
        "query",
        [
            "//b",
            "//a/b[@n='2']",
            "//b[. = 'three']",
            "/lib/a//b",
            "//*[@id]",
            # The // shapes: one descendant step where child follows the
            # descendant-or-self step, the two-step form elsewhere.
            "//node()",
            "//text()",
            "//a//b",
            "descendant-or-self::node()/child::a",
            "//@id",
            "//following-sibling::*",
            "//..",
        ],
    )
    def test_compiled_runs_off_the_map_without_a_tree(self, query, tmp_path):
        fresh = parse_xml(ENGINE_DOC)
        plan = plan_for(query, engine="compiled", cache=None)
        expected = [n.order for n in plan.select(fresh)]
        path = str(tmp_path / "mapped.reproxs")
        with DocumentStore.build(path, [parse_xml(ENGINE_DOC)]) as store:
            handle = store.document_at(0)
            assert handle.orders(plan) == expected
            # The column path never built a tree.
            assert handle._document is None


    @pytest.mark.parametrize(
        "query",
        [
            "//a/b[2]",
            "//b[last()]",
            "/lib/*[2]/*[1]",
            "//a[1]/b[1]/following-sibling::b[1]",
            "//b[2]/preceding-sibling::b[last()]",
            "//b[@n > 1]",
            "//b[@n != 5][last()]",
            "//*[@id >= 0]",
            "//a[. != 5]",
            "//b[1]",
            "//*[2]",
            "//a//b[last()]",
        ],
    )
    def test_column_path_matches_in_memory_past_xpatterns(self, query, tmp_path):
        fresh = parse_xml(ENGINE_DOC)
        plan = plan_for(query, engine="compiled", cache=None)
        assert plan.array_program() is not None, query
        expected = [n.order for n in plan.select(fresh)]
        path = str(tmp_path / "mapped.reproxs")
        with DocumentStore.build(path, [parse_xml(ENGINE_DOC)]) as store:
            handle = store.document_at(0)
            assert handle.orders(plan) == expected
            assert handle._document is None

    def test_column_path_declines_a_count(self, tmp_path):
        # count() lowers, but its answer is a number, not orders.
        plan = plan_for("count(//b)", engine="compiled", cache=None)
        assert plan.array_program().count
        path = str(tmp_path / "mapped.reproxs")
        with DocumentStore.build(path, [parse_xml(ENGINE_DOC)]) as store:
            assert store.document_at(0).orders(plan) is None

    def test_column_path_declines_an_id_plan(self, tmp_path):
        # id() lowers, but the columns hold no ID map: the handle declines
        # without building a tree, and a stored batch answers from the tree.
        plan = plan_for("id('r1')/b", engine="compiled", cache=None)
        assert plan.array_program().reads_document
        expected = [n.order for n in plan.select(parse_xml(ENGINE_DOC))]
        assert expected
        path = str(tmp_path / "mapped.reproxs")
        with DocumentStore.build(path, [parse_xml(ENGINE_DOC)]) as store:
            handle = store.document_at(0)
            assert handle.orders(plan) is None
            assert handle._document is None
            batch = StoredCollection(store).select(plan, engine="compiled")
            assert [[n.order for n in result.nodes] for result in batch] == [expected]


class TestCorruption:
    def _built(self, tmp_path, name="c.reproxs"):
        path = str(tmp_path / name)
        build_store(
            path,
            [parse_xml(s) for s in RICH_SOURCES],
            names=[f"doc{i}" for i in range(len(RICH_SOURCES))],
        )
        return path

    def _flip(self, path, offset):
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes((byte[0] ^ 0xFF,)))

    def test_bad_magic_is_positioned_error(self, tmp_path):
        path = self._built(tmp_path)
        self._flip(path, 0)
        with pytest.raises(StoreCorruptError, match="magic"):
            DocumentStore.open(path)

    def test_truncated_file(self, tmp_path):
        path = self._built(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(StoreCorruptError):
            DocumentStore.open(path)

    def test_tiny_file(self, tmp_path):
        path = str(tmp_path / "tiny.reproxs")
        with open(path, "wb") as handle:
            handle.write(MAGIC)
        with pytest.raises(StoreCorruptError):
            DocumentStore.open(path)

    def test_corrupt_toc_fails_open(self, tmp_path):
        path = self._built(tmp_path)
        size = os.path.getsize(path)
        self._flip(path, size - 4)  # inside the TOC
        with pytest.raises(StoreCorruptError):
            DocumentStore.open(path)

    def test_block_damage_is_isolated_per_document(self, tmp_path, backend_batch_mode):
        path = self._built(tmp_path)
        with DocumentStore.open(path) as probe:
            target = probe._entries[1]
            damage_at = target.block_off + 8
        self._flip(path, damage_at)
        store = DocumentStore.open(path)  # open-time checks still pass
        try:
            batch = StoredCollection(store).select(
                "//b | //*", **backend_batch_mode.options
            )
            assert not batch.ok
            failed = [r for r in batch if not r.ok]
            assert [r.index for r in failed] == [1]
            assert isinstance(failed[0].error, StoreCorruptError)
            assert "document 1" in str(failed[0].error)
            assert all(r.ok for r in batch if r.index != 1)
            with pytest.raises(StoreCorruptError):
                store.verify()
        finally:
            store.close()

    def test_rows_without_a_root_past_the_checksum_are_a_store_error(
        self, tmp_path, monkeypatch
    ):
        # What only a buggy or forged writer can produce: a block whose CRC
        # holds but whose first preorder row is no root node.
        path = self._built(tmp_path)
        with DocumentStore.open(path) as probe:
            type_off = probe._entries[0].type_off
        with open(path, "r+b") as handle:
            handle.seek(type_off)
            handle.write(bytes((store_format.TYPE_CODES[NodeType.ELEMENT],)))
        monkeypatch.setattr(store_reader.StoredDocument, "_check", lambda self: None)
        with DocumentStore.open(path) as store:
            with pytest.raises(
                StoreCorruptError,
                match="inconsistent document block: store block has no root node",
            ):
                store.document_at(0).materialize()

    def test_fault_site_simulates_block_damage(self, tmp_path, backend_batch_mode):
        path = self._built(tmp_path)
        with DocumentStore.open(path) as store:
            collection = StoredCollection(store)
            with inject(FaultPlan.parse("corrupt@store:index=2")):
                batch = collection.select("//*", **backend_batch_mode.options)
            failed = [r for r in batch if not r.ok]
            assert [r.index for r in failed] == [2]
            assert isinstance(failed[0].error, StoreCorruptError)

    def test_fault_site_fires_once_per_handle_check(self, tmp_path):
        path = self._built(tmp_path)
        with DocumentStore.open(path) as store:
            with inject(FaultPlan.parse("corrupt@store:index=0")):
                with pytest.raises(StoreCorruptError):
                    store.document_at(0).materialize()

    def test_error_pickles_across_process_wire(self, tmp_path):
        error = StoreCorruptError(
            "checksum mismatch", path="x.reproxs", offset=64, position=3
        )
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, StoreCorruptError)
        assert clone.position == 3 and clone.offset == 64


class TestAtomicBuild:
    def test_concurrent_builds_of_one_path(self, tmp_path):
        # Regression: the temp file was named by PID alone, so two threads
        # building one path wrote the same temp file and one of them failed
        # its os.replace with FileNotFoundError.
        path = str(tmp_path / "shared.reproxs")
        start = threading.Barrier(2)
        errors: list[Exception] = []

        def slow_documents():
            for size in range(1, 6):
                time.sleep(0.01)  # keep both builds in flight at once
                yield parse_xml("<r>" + "<a/>" * size + "</r>")

        def build():
            try:
                start.wait(timeout=30)
                build_store(path, slow_documents())
            except Exception as error:  # pragma: no cover - the bug
                errors.append(error)

        threads = [threading.Thread(target=build) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert errors == []
        with DocumentStore.open(path) as store:
            assert store.verify()
            assert len(store) == 5
        assert os.listdir(tmp_path) == ["shared.reproxs"]  # no temp files left

    def test_build_syncs_the_file_before_the_replace_then_the_directory(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "synced.reproxs")
        synced: list[tuple[bool, bool]] = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            # (is a directory, final path already in place)
            synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), os.path.exists(path)))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        build_store(path, [parse_xml("<r><a/></r>")])
        assert synced == [(False, False), (True, True)]


class TestShipping:
    def test_handle_pickles_as_path(self, rich_store):
        store, documents = rich_store
        blob = pickle.dumps(store.document_at(1))
        assert len(blob) < 500  # a path + a position, not a tree
        _assert_identical(pickle.loads(blob).materialize(), documents[1])

    def test_materialized_document_pickles_as_origin(self, rich_store):
        store, documents = rich_store
        document = store.document_at(0).materialize()
        assert document._store_origin == (store.path, 0)
        blob = pickle.dumps(document)
        assert len(blob) < 500
        _assert_identical(pickle.loads(blob), documents[0])

    def test_deleted_file_falls_back_to_flat_payload(self, tmp_path):
        original = parse_xml(RICH_SOURCES[0])
        path = str(tmp_path / "gone.reproxs")
        store = DocumentStore.build(path, [original])
        document = store.document_at(0).materialize()
        store.close()
        os.unlink(path)
        rebuilt = pickle.loads(pickle.dumps(document))
        _assert_identical(rebuilt, original)

    def test_open_cached_reuses_one_mapping(self, rich_store):
        store, _ = rich_store
        assert open_cached(store.path) is open_cached(store.path)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_backends_match_serial(self, backend, tmp_path):
        documents = [parse_xml(s) for s in RICH_SOURCES] + [
            random_document(7, max_depth=3, max_children=3)
        ]
        path = str(tmp_path / "par.reproxs")
        with DocumentStore.build(path, documents) as store:
            collection = StoredCollection(store)
            serial = collection.select("//*[@*] | //b")
            parallel = collection.select(
                "//*[@*] | //b", parallel=True, backend=backend, max_workers=2
            )
            assert serial.ok and parallel.ok
            for left, right in zip(serial, parallel):
                assert [n.order for n in left.nodes] == [
                    n.order for n in right.nodes
                ]


class TestStoreCacheLifetime:
    """Regression tests for ``open_cached`` mapping lifetime (ISSUE 9).

    A rebuilt store file used to leave the superseded mapping in
    ``_STORE_CACHE`` without ``close()`` — one leaked mmap + fd per
    rebuild — and the loser of the double-checked-lock race was dropped
    unmapped.  Both must now be closed, ``invalidate`` must exist, and
    the cache must be bounded.
    """

    @staticmethod
    def _build(path, payload="<r><x v='1'/></r>"):
        build_store(path, [parse_xml(payload)])

    def test_rebuild_closes_superseded_mapping(self, tmp_path):
        path = str(tmp_path / "rebuild.reproxs")
        self._build(path)
        first = open_cached(path)
        assert not first._mmap.closed
        # Rebuild with different content (and size, so the signature
        # changes even on coarse-mtime filesystems).
        self._build(path, "<r>" + "<x pad='yes'/>" * 8 + "</r>")
        second = open_cached(path)
        assert second is not first
        assert first._mmap.closed, "superseded mapping leaked on rebuild"
        assert not second._mmap.closed
        assert len(second.document_at(0).materialize()) > len(
            parse_xml("<r><x v='1'/></r>")
        )
        invalidate(path)

    def test_invalidate_closes_and_forgets(self, tmp_path):
        path = str(tmp_path / "inv.reproxs")
        self._build(path)
        store = open_cached(path)
        assert invalidate(path) is True
        assert store._mmap.closed
        assert invalidate(path) is False
        fresh = open_cached(path)
        assert fresh is not store
        assert invalidate(path) is True

    def test_cache_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_reader, "STORE_CACHE_SIZE", 2)
        stores = []
        for index in range(3):
            path = str(tmp_path / f"bounded{index}.reproxs")
            self._build(path)
            stores.append(open_cached(path))
        assert stores[0]._mmap.closed, "LRU mapping survived past the bound"
        assert not stores[1]._mmap.closed
        assert not stores[2]._mmap.closed
        for index in (1, 2):
            invalidate(str(tmp_path / f"bounded{index}.reproxs"))

    def test_concurrent_open_cached_closes_race_losers(self, tmp_path, monkeypatch):
        path = str(tmp_path / "race.reproxs")
        self._build(path)
        opened: list[DocumentStore] = []
        opened_lock = threading.Lock()
        real_open = DocumentStore.open

        def tracking_open(target):
            store = real_open(target)
            with opened_lock:
                opened.append(store)
            return store

        monkeypatch.setattr(DocumentStore, "open", staticmethod(tracking_open))
        barrier = threading.Barrier(8)
        results: list[DocumentStore] = []
        results_lock = threading.Lock()

        def worker():
            barrier.wait()
            store = open_cached(path)
            with results_lock:
                results.append(store)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 8
        assert len({id(store) for store in results}) == 1
        winner = results[0]
        losers = [store for store in opened if store is not winner]
        assert all(store._mmap.closed for store in losers), (
            "race-losing mappings were dropped unmapped"
        )
        invalidate(path)


class TestIntegration:
    def test_api_build_and_open_store(self, tmp_path, backend_batch_mode):
        path = str(tmp_path / "api.reproxs")
        documents = [parse_xml(s) for s in RICH_SOURCES[:2]]
        assert api.build_store(path, documents, names=["x", "y"]) == path
        collection = api.open_store(path)
        try:
            assert collection.names == ("x", "y")
            batch = collection.select("//b", **backend_batch_mode.options)
            assert batch.ok
            assert [len(r.nodes) for r in batch] == [2, 0]
        finally:
            collection.close()

    def test_session_open_store_and_handle_coercion(self, tmp_path):
        path = str(tmp_path / "sess.reproxs")
        api.build_store(path, [parse_xml(RICH_SOURCES[0])])
        session = api.session()
        collection = session.open_store(path)
        try:
            handle = collection.store.document_at(0)
            result = session.run("count(//b)", handle)
            assert result.value == 2.0
            assert session.stats.queries == 1
        finally:
            collection.close()

    def test_plan_select_accepts_handles(self, rich_store):
        store, documents = rich_store
        plan = plan_for("//b", cache=None)
        expected = [n.order for n in plan.select(documents[0])]
        assert [n.order for n in plan.select(store.document_at(0))] == expected

    def test_stored_from_sources_routes_sources_one_at_a_time(self, monkeypatch):
        """Regression (ISSUE 9): all sources used to be parsed into live
        trees *before* the store build, so store-backed collections paid
        peak memory for N simultaneous trees.  Sources now stream into the
        store build one at a time — at most two trees are ever alive at
        once (the one being serialised plus the one the generator just
        parsed)."""
        from repro.xmlmodel import parser as parser_mod

        real_parse = parser_mod.parse_xml
        refs: list[weakref.ref] = []
        peak = [0]

        def tracking_parse(source, **kwargs):
            document = real_parse(source, **kwargs)
            refs.append(weakref.ref(document))
            gc.collect()
            alive = sum(1 for ref in refs if ref() is not None)
            peak[0] = max(peak[0], alive)
            return document

        monkeypatch.setattr(parser_mod, "parse_xml", tracking_parse)
        sources = [f"<r><x n='{i}'/></r>" for i in range(6)]
        collection = StoredCollection.from_sources(sources)
        assert len(refs) == 6
        assert peak[0] <= 2, (
            f"{peak[0]} trees were alive at once; store routing is eager"
        )
        batch = collection.evaluate("count(//x)")
        assert batch.ok and [r.value for r in batch] == [1.0] * 6


@pytest.fixture
def xml_files(tmp_path):
    paths = []
    for index, source in enumerate(RICH_SOURCES[:3]):
        path = tmp_path / f"in{index}.xml"
        path.write_text(source, encoding="utf-8")
        paths.append(str(path))
    return paths


class TestCli:
    def test_build_info_query(self, xml_files, tmp_path, capsys, backend_batch_mode):
        store_path = str(tmp_path / "cli.reproxs")
        assert cli_run(["store", "build", store_path] + xml_files) == 0
        assert "3 document(s)" in capsys.readouterr().out

        assert cli_run(["store", "info", store_path]) == 0
        out = capsys.readouterr().out
        assert "checksums: ok" in out and "documents: 3" in out

        flags = list(backend_batch_mode.cli or ())
        assert cli_run(["store", "query", "//b", store_path, *flags]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].endswith("2 node(s)")

    def test_query_scalar_and_parallel(self, xml_files, tmp_path, capsys):
        store_path = str(tmp_path / "cli2.reproxs")
        assert cli_run(["store", "build", store_path] + xml_files) == 0
        capsys.readouterr()
        assert (
            cli_run(["store", "query", "count(//*)", store_path, "--jobs", "2"])
            == 0
        )
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_build_rejects_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<broken", encoding="utf-8")
        store_path = str(tmp_path / "never.reproxs")
        assert cli_run(["store", "build", store_path, str(bad)]) == 1
        assert "parse error" in capsys.readouterr().err
        assert not os.path.exists(store_path)

    def test_missing_store_is_io_error(self, tmp_path, capsys):
        assert cli_run(["store", "info", str(tmp_path / "no.reproxs")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_store_never_crashes(self, xml_files, tmp_path, capsys):
        store_path = str(tmp_path / "dmg.reproxs")
        assert cli_run(["store", "build", store_path] + xml_files) == 0
        capsys.readouterr()
        with open(store_path, "r+b") as handle:
            handle.seek(0)
            handle.write(b"XXXXXXXX")
        assert cli_run(["store", "info", store_path]) == 1
        assert "error:" in capsys.readouterr().err
        assert cli_run(["store", "query", "//b", store_path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_block_damage_isolates_in_query(
        self, xml_files, tmp_path, capsys, backend_batch_mode
    ):
        store_path = str(tmp_path / "iso.reproxs")
        assert cli_run(["store", "build", store_path] + xml_files) == 0
        capsys.readouterr()
        with DocumentStore.open(store_path) as probe:
            damage_at = probe._entries[1].block_off + 8
        with open(store_path, "r+b") as handle:
            handle.seek(damage_at)
            handle.write(b"\xff")
        flags = list(backend_batch_mode.cli or ())
        assert cli_run(["store", "query", "//*", store_path, *flags]) == 1
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 2  # two still answer
        assert "document 1" in captured.err

    def test_usage_without_action(self, capsys):
        assert cli_run(["store"]) == 2
        assert "usage" in capsys.readouterr().err


class TestFormatInvariants:
    def test_alignment_helper(self):
        assert store_format.aligned(0) == 0
        assert store_format.aligned(1) == 8
        assert store_format.aligned(8) == 8
        assert store_format.aligned(9) == 16

    def test_all_columns_are_aligned(self, rich_store):
        store, _ = rich_store
        for entry in store._entries:
            for offset in (
                entry.subtree_end_off,
                entry.parent_off,
                entry.depth_off,
                entry.name_col_off,
                entry.value_col_off,
                entry.regular_off,
            ):
                assert offset % store_format.ALIGN == 0

    def test_header_loads_constants(self, rich_store):
        store, _ = rich_store
        with open(store.path, "rb") as handle:
            head = handle.read(len(MAGIC))
        assert head == MAGIC

    def test_store_is_compact(self, tmp_path):
        # 200 identical flat docs share one string table: the store should
        # be far smaller than 200 independent pickles.
        documents = [doc_flat(20) for _ in range(200)]
        path = str(tmp_path / "compact.reproxs")
        with DocumentStore.build(path, documents) as store:
            per_doc = os.path.getsize(path) / 200
            flat_pickle = len(pickle.dumps(documents[0]))
            assert per_doc < 6 * flat_pickle
