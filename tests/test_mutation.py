"""Mutable documents: edit API, incremental repair, snapshots, staleness.

Unit coverage for the generation model: the five edit primitives and their
validation, generation accounting, index-repair bookkeeping, the repaired
string-match cache, copy-on-write snapshots, result staleness, session
mutation hooks, the pickle guard for mutated store-backed documents, and
the store lifecycle (materialize caching, detach-on-close, cache
invalidation).

The repair≡rebuild *property* tests live here too: a random edit script is
replayed onto a twin document that is never queried (its first edit builds
its index), and onto a serialize→reparse round trip, and all index columns
must agree; random edit scripts keep every cached string match equal to a
fresh scan, and the interval axes over the repaired columns, like the
index's ``Node`` views, equal to a filter over ``dom``.
"""

import pickle
import random
from types import SimpleNamespace

import pytest

from repro import api
from repro.axes.functions import axis_nodes, axis_set
from repro.axes.regex import Axis
from repro.errors import StaleResultError
from repro.parallel import ParallelExecutor
from repro.session import XPathSession
from repro.store import DocumentStore, invalidate, open_cached
from repro.workloads import (
    EditOp,
    apply_script,
    random_edit_script,
    script_from_json,
    script_to_json,
)
from repro.workloads.documents import random_document
from repro.workloads.edits import _try_op
from repro.xmlmodel.builder import build_fragment
from repro.xmlmodel.document import Document
from repro.xmlmodel.index import DocumentIndex
from repro.xmlmodel.nodes import Node, NodeType
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize


def doc(source: str) -> Document:
    return parse_xml(source)


def _index_columns(index: DocumentIndex) -> dict:
    """Every index column in comparable form (node identity abstracted)."""
    return {
        "orders": [node.order for node in index.nodes],
        "shape": [
            (node.node_type, node.name, node.value) for node in index.nodes
        ],
        "subtree_end": list(index.subtree_end),
        "parent": list(index.parent),
        "special": bytes(index.special),
        "regular": list(index.regular),
        "by_type": {key: list(value) for key, value in index._by_type_orders.items()},
        "by_label": {key: list(value) for key, value in index._by_label_orders.items()},
    }


def _assert_index_consistent(document: Document) -> None:
    """The (possibly repaired) index equals a from-scratch rebuild."""
    rebuilt = DocumentIndex(document)
    assert _index_columns(document.index) == _index_columns(rebuilt)
    # One node table: the index reads the document's own list.
    assert document.index.nodes is document._nodes
    # Dense preorder invariant: nodes[k].order == k.
    assert all(node.order == k for k, node in enumerate(document.index.nodes))


# ----------------------------------------------------------------------
# Edit API semantics
# ----------------------------------------------------------------------
class TestEditAPI:
    def test_insert_child_appends_and_bumps_generation(self):
        document = doc("<r><a/><b/></r>")
        parent = document.document_element
        node = document.insert_child(parent, build_fragment("c", {"id": "9"}))
        assert document.generation == 1
        assert node.document is document
        assert parent.children[-1] is node
        assert [n.order for n in document.index.nodes] == list(range(len(document)))
        assert document.element_by_id("9") is node
        _assert_index_consistent(document)

    def test_insert_child_at_position(self):
        document = doc("<r><a/><c/></r>")
        parent = document.document_element
        document.insert_child(parent, build_fragment("b"), 1)
        assert [child.name for child in parent.children] == ["a", "b", "c"]
        _assert_index_consistent(document)

    def test_insert_rejects_adjacent_text(self):
        document = doc("<r>hello</r>")
        parent = document.document_element
        with pytest.raises(ValueError, match="adjacent text"):
            document.insert_child(parent, Node(NodeType.TEXT, value="x"), 0)
        assert document.generation == 0

    def test_insert_rejects_attached_node(self):
        document = doc("<r><a/></r>")
        other = doc("<s><t/></s>")
        foreign = other.document_element.children[0]
        with pytest.raises(ValueError, match="detached"):
            document.insert_child(document.document_element, foreign)

    def test_insert_rejects_second_document_element(self):
        document = doc("<r/>")
        with pytest.raises(ValueError, match="document element"):
            document.insert_child(document.root, build_fragment("r2"))
        with pytest.raises(ValueError, match="root"):
            document.insert_child(document.root, Node(NodeType.TEXT, value="x"))

    def test_insert_position_out_of_range(self):
        document = doc("<r><a/></r>")
        with pytest.raises(IndexError):
            document.insert_child(document.document_element, build_fragment("b"), 5)

    def test_remove_subtree_detaches_and_renumbers(self):
        document = doc("<r><a><b/><c/></a><d/></r>")
        victim = document.document_element.children[0]
        before = len(document)
        removed = document.remove(victim)
        assert removed is victim
        assert removed.parent is None and removed.document is None
        assert removed.order == -1
        assert len(document) == before - 3
        assert document.generation == 1
        _assert_index_consistent(document)
        # The detached subtree is reusable in another document.
        other = doc("<s/>")
        other.insert_child(other.document_element, removed)
        assert serialize(other) == "<s><a><b/><c/></a></s>"

    def test_remove_merges_adjacent_text(self):
        document = doc("<r>one<x/>two</r>")
        document.remove(document.document_element.children[1])
        texts = [
            n for n in document.index.nodes if n.node_type is NodeType.TEXT
        ]
        assert [t.value for t in texts] == ["onetwo"]
        assert serialize(document) == "<r>onetwo</r>"
        _assert_index_consistent(document)

    def test_remove_root_and_document_element_refused(self):
        document = doc("<r><a/></r>")
        with pytest.raises(ValueError, match="root"):
            document.remove(document.root)
        with pytest.raises(ValueError, match="document element"):
            document.remove(document.document_element)

    def test_rename_element_updates_postings(self):
        document = doc("<r><a/><a/></r>")
        first = document.document_element.children[0]
        document.rename(first, "b")
        assert [n.order for n in document.nodes_of_type_and_name(NodeType.ELEMENT, "b")] == [
            first.order
        ]
        _assert_index_consistent(document)

    def test_rename_same_name_is_silent_noop(self):
        document = doc("<r><a/></r>")
        document.rename(document.document_element.children[0], "a")
        assert document.generation == 0
        assert document.mutation_stats.edits == 0

    def test_rename_rejects_duplicate_attribute_and_bad_names(self):
        document = doc('<r a="1" b="2"/>')
        element = document.document_element
        attr = element.attribute("a")
        with pytest.raises(ValueError, match="duplicate"):
            document.rename(attr, "b")
        with pytest.raises(ValueError, match="invalid XML name"):
            document.rename(element, "1bad")
        with pytest.raises(ValueError, match="cannot rename"):
            document.rename(document.root, "x")

    def test_set_text_variants_and_vetoes(self):
        document = doc("<r>old<!--c--><?pi d?></r>")
        text, comment, pi = document.document_element.children
        document.set_text(text, "new")
        assert text.value == "new"
        assert document.document_element.string_value() == "new"
        with pytest.raises(ValueError, match="empty text"):
            document.set_text(text, "")
        with pytest.raises(ValueError, match="--"):
            document.set_text(comment, "a--b")
        with pytest.raises(ValueError, match=r"\?>"):
            document.set_text(pi, "end?>")
        with pytest.raises(ValueError, match="no direct value"):
            document.set_text(document.document_element, "x")
        _assert_index_consistent(document)

    def test_set_attribute_add_replace_remove(self):
        document = doc("<r><a/></r>")
        element = document.document_element.children[0]
        attr = document.set_attribute(element, "x", "1")
        assert attr.node_type is NodeType.ATTRIBUTE and attr.value == "1"
        assert document.generation == 1
        _assert_index_consistent(document)
        same = document.set_attribute(element, "x", "2")
        assert same is attr and attr.value == "2"
        assert document.generation == 2
        removed = document.set_attribute(element, "x", None)
        assert removed is None and element.attribute("x") is None
        assert document.generation == 3
        # Removing an absent attribute is a no-op, not an edit.
        assert document.set_attribute(element, "x", None) is None
        assert document.generation == 3
        _assert_index_consistent(document)

    def test_id_map_follows_edits(self):
        document = doc('<r><a id="one"/></r>')
        element = document.document_element.children[0]
        document.set_attribute(element, "id", "two")
        assert document.element_by_id("one") is None
        assert document.element_by_id("two") is element
        inserted = document.insert_child(
            document.document_element, build_fragment("b", {"id": "three"})
        )
        assert document.element_by_id("three") is inserted
        document.remove(inserted)
        assert document.element_by_id("three") is None

    def test_stale_handle_after_cow_is_rejected(self):
        document = doc("<r><a/></r>")
        handle = document.document_element.children[0]
        document.snapshot()
        document.insert_child(document.document_element, build_fragment("b"))
        # The copy-on-write replaced the tree; the old handle no longer
        # belongs to the writer's current nodes.
        with pytest.raises(ValueError, match="current tree"):
            document.rename(handle, "c")

    def test_snapshot_views_are_read_only(self):
        document = doc("<r><a/></r>")
        view = document.snapshot()
        with pytest.raises(RuntimeError, match="read-only"):
            view.insert_child(view.document_element, build_fragment("b"))


# ----------------------------------------------------------------------
# Repair vs rebuild accounting
# ----------------------------------------------------------------------
class TestRepairAccounting:
    def test_small_edits_repair_in_place(self):
        document = doc("<r><a/><b/><c/></r>")
        index_before = document.index
        document.insert_child(document.document_element, build_fragment("d"))
        assert document.index is index_before  # repaired, not discarded
        assert document.mutation_stats.repairs == 1
        assert document.mutation_stats.rebuilds == 0

    def test_front_insert_repairs_the_live_index(self):
        document = doc("<r>" + "<a/>" * 100 + "</r>")
        index_before = document.index
        # Inserting at the very front shifts the whole tail; it still
        # repairs in place.
        document.insert_child(document.document_element, build_fragment("z"), 0)
        assert document.mutation_stats.repairs == 1
        assert document.mutation_stats.rebuilds == 0
        assert document.index is index_before
        _assert_index_consistent(document)

    @pytest.mark.parametrize("query_between", [False, True], ids=["bare", "queried"])
    def test_front_edits_never_drop_the_index(self, query_between):
        document = doc("<r>" + "<a>t</a>" * 100 + "</r>")
        parent = document.document_element
        index_before = document.index
        for step in range(40):
            if step % 3 == 2:
                document.remove(parent.children[step % 5])
            else:
                document.insert_child(
                    parent, build_fragment("b", {"n": str(step)}, ["t"]), 0
                )
            if query_between:
                matched = api.select("//b[. = 't']", document, engine="compiled")
                assert matched == document.nodes_of_type_and_name(NodeType.ELEMENT, "b")
        assert document.index is index_before
        assert document.mutation_stats.repairs == 40
        assert document.mutation_stats.rebuilds == 0
        reparsed = parse_xml(serialize(document))
        assert _index_columns(document.index) == _index_columns(reparsed.index)

    def test_compiled_engine_sees_the_repaired_index(self):
        document = doc("<r><a/><a/></r>")
        assert len(api.select("//a", document, engine="compiled")) == 2
        document.insert_child(document.document_element, build_fragment("a"))
        # The compiled engine reads the repaired columns directly.
        assert len(api.select("//a", document, engine="compiled")) == 3

    def test_string_match_cache_follows_edits(self):
        document = doc("<r><b>x</b><b>y</b></r>")
        query = "//b[. = 'x']"

        def assert_matches_reparse():
            compiled = api.select(query, document, engine="compiled")
            reparsed = parse_xml(serialize(document))
            expected = api.select(query, reparsed, engine="topdown")
            assert [node.order for node in compiled] == [
                node.order for node in expected
            ]

        assert_matches_reparse()
        second = document.document_element.children[1]
        document.set_text(second.children[0], "x")
        assert_matches_reparse()
        document.insert_child(document.document_element, build_fragment("b"), 0)
        assert_matches_reparse()
        # The entry was repaired across both edits, never dropped.
        assert "x" in document.index._string_match_cache._entries

    def test_scan_overlapping_an_edit_leaves_no_entry(self):
        document = doc("<r><b>x</b><b>y</b></r>")
        index = document.index
        cache = index._string_match_cache

        def values_with_an_edit_midway():
            for position, node in enumerate(list(index.nodes)):
                if position == 2:
                    document.insert_child(
                        document.document_element, build_fragment("b", None, ["x"]), 0
                    )
                yield node.string_value()

        cache.match("x", False, len(index.nodes), values_with_an_edit_midway)
        assert "x" not in cache._entries
        # The next lookup scans the edited document afresh.
        reparsed = parse_xml(serialize(document))
        assert list(index.string_match("x", False)) == [
            node.order for node in reparsed.index.nodes if node.string_value() == "x"
        ]


class TestStringValuesFollowEdits:
    """``Node.string_value`` reuses descendant elements' cached values, so
    every edit must leave each cached value exact, not only the edited
    node's and its ancestors'."""

    SOURCE = (
        "<r><a>one<!--note--><b>two<c>three</c></b>four<?pi data?></a>"
        "<d x='1'>five<e/>six</d><f>seven</f></r>"
    )

    def test_each_edit_kind_keeps_every_string_value_exact(self):
        document = doc(self.SOURCE)
        a, d, f = document.document_element.children
        b = a.children[2]
        c = b.children[1]
        edits = [
            lambda: document.set_text(c.children[0], "THREE"),
            lambda: document.insert_child(b, build_fragment("g", None, ["new"]), 0),
            # Removing <e/> merges 'five' and 'six' into one text node.
            lambda: document.remove(d.children[1]),
            lambda: document.rename(f, "h"),
            lambda: document.set_attribute(d, "y", "2"),
        ]
        for edit in edits:
            for node in document.index.nodes:
                node.string_value()
            edit()
            reparsed = parse_xml(serialize(document))
            assert [node.string_value() for node in document.index.nodes] == [
                node.string_value() for node in reparsed.index.nodes
            ]
        assert serialize(document) == (
            "<r><a>one<!--note--><b><g>new</g>two<c>THREE</c></b>four<?pi data?></a>"
            "<d x=\"1\" y=\"2\">fivesix</d><h>seven</h></r>"
        )

    def test_value_edits_outside_text_keep_ancestor_values(self):
        # Element and root string values concatenate descendant text only,
        # so an attribute, comment or PI write leaves every ancestor's
        # cached value in place.
        document = doc(self.SOURCE)
        a, d, _f = document.document_element.children
        comment, pi = a.children[1], a.children[4]
        edits = [
            (d, lambda: document.set_attribute(d, "x", "9")),
            (d, lambda: document.set_attribute(d, "z", "new")),
            (d, lambda: document.set_attribute(d, "x", None)),
            (d, lambda: document.set_text(d.attribute("z"), "newer")),
            (a, lambda: document.set_text(comment, "remark")),
            (a, lambda: document.set_text(pi, "other")),
        ]
        for owner, edit in edits:
            for node in document.index.nodes:
                node.string_value()
            edit()
            ancestors = [owner, *owner.iter_ancestors()]
            assert all(node._string_value is not None for node in ancestors)
            reparsed = parse_xml(serialize(document))
            assert [node.string_value() for node in document.index.nodes] == [
                node.string_value() for node in reparsed.index.nodes
            ]


# ----------------------------------------------------------------------
# Repair ≡ rebuild (property tests over random edit scripts)
# ----------------------------------------------------------------------
REPAIR_SEEDS = (5, 18, 19, 26, 37)


class _Unqueried:
    """A document whose targets ``apply_edit`` resolves through the node
    table, so replaying a script never reads the index: only the edits
    build it."""

    def __init__(self, document: Document):
        self._document = document

    @property
    def index(self):
        return SimpleNamespace(nodes=self._document.dom)

    def __getattr__(self, name):
        return getattr(self._document, name)


class TestRepairEqualsRebuild:
    @pytest.mark.parametrize("seed", REPAIR_SEEDS)
    def test_repaired_index_matches_a_twin_indexed_by_its_first_edit(self, seed):
        document = random_document(seed, max_depth=4, max_children=4)
        twin = parse_xml(serialize(document))
        document.index  # the document repairs a live index on every edit
        script = random_edit_script(document, 12, seed=seed * 31 + 1)
        assert script, "seed produced no edits"
        # Nothing queries the twin: its first edit builds the index before
        # it changes anything, and every edit repairs it.
        assert twin._index is None
        assert apply_script(_Unqueried(twin), script) == len(script)
        assert twin.mutation_stats.as_dict() == document.mutation_stats.as_dict()
        assert twin.mutation_stats.rebuilds == 0
        assert serialize(twin) == serialize(document)
        assert _index_columns(document.index) == _index_columns(twin.index)
        _assert_index_consistent(twin)
        assert document.generation == twin.generation == len(script)

    @pytest.mark.parametrize("seed", REPAIR_SEEDS)
    def test_repaired_index_matches_reparse(self, seed):
        document = random_document(seed, max_depth=4, max_children=4)
        document.index
        random_edit_script(document, 12, seed=seed * 31 + 2)
        reparsed = parse_xml(serialize(document))
        assert _index_columns(document.index) == _index_columns(reparsed.index)
        assert document.id_map().keys() == reparsed.id_map().keys()

    @pytest.mark.parametrize("seed", REPAIR_SEEDS[:3])
    def test_script_json_round_trip_replays_identically(self, seed):
        document = random_document(seed, max_depth=4, max_children=4)
        twin = parse_xml(serialize(document))
        script = random_edit_script(document, 10, seed=seed)
        replayed = script_from_json(script_to_json(script))
        assert replayed == script
        apply_script(twin, replayed)
        assert serialize(twin) == serialize(document)


# ----------------------------------------------------------------------
# The string-match cache is repaired, never cleared (property test)
# ----------------------------------------------------------------------
CACHE_SEEDS = (2, 5, 18, 26, 37, 41)


def _fresh_matches(document: Document, literals) -> dict:
    """Each literal's ``strval(x) = s`` orders, scanned over a reparse."""
    values = [
        node.string_value()
        for node in parse_xml(serialize(document)).index.nodes
    ]
    return {
        literal: tuple(order for order, value in enumerate(values) if value == literal)
        for literal in literals
    }


def _assert_cache_equals_scan(document: Document) -> None:
    entries = dict(document.index._string_match_cache._entries)
    assert entries == _fresh_matches(document, entries)


class TestStringMatchCacheRepair:
    @pytest.mark.parametrize("seed", CACHE_SEEDS)
    def test_cached_matches_equal_a_fresh_scan_after_every_edit(self, seed):
        document = random_document(seed, max_depth=4, max_children=4)
        rng = random.Random(seed)
        kinds = set()
        view = None

        def warm():
            index = document.index
            for value in {node.string_value() for node in index.nodes}:
                index.string_match(value, False)
            for literal in ("L", "R", "LR", "v1", "v2"):
                index.string_match(literal, False)

        def element():
            return rng.choice(document.nodes_of_type(NodeType.ELEMENT)[1:]
                              or [document.document_element])

        def merge_texts():
            host = document.insert_child(
                document.document_element,
                build_fragment("m", None, ["L", ("x", None, ["v1"]), "R"]),
            )
            warm()
            _assert_cache_equals_scan(document)
            document.remove(host.children[1])
            assert [child.value for child in host.children] == ["LR"]
            return "merge"

        def attribute_cycle():
            target = element()
            for value in ("v1", "v2", None):
                document.set_attribute(target, "k", value)
                _assert_cache_equals_scan(document)
                warm()
            return "attribute"

        def snapshot_then_edit():
            nonlocal view
            view = document.snapshot()
            document.rename(element(), "q")
            assert document.mutation_stats.cow_copies >= 1
            return "cow"

        scripted = {3: merge_texts, 6: attribute_cycle, 9: snapshot_then_edit}
        for step in range(30):
            warm()
            index = document.index
            if step in scripted:
                kinds.add(scripted[step]())
            else:
                for _attempt in range(20):
                    op = _try_op(rng, document)
                    if op is not None:
                        kinds.add(op.op)
                        break
            if document.index is index:  # repaired, not cleared
                assert len(index._string_match_cache) > 0
            _assert_cache_equals_scan(document)
        assert kinds >= {"insert", "remove", "rename", "set_text",
                         "set_attribute", "merge", "attribute", "cow"}
        # The copy-on-write left the snapshot's index and cache untouched.
        view_entries = dict(view.index._string_match_cache._entries)
        assert view_entries == _fresh_matches(view, view_entries)


# ----------------------------------------------------------------------
# The axes over the repaired columns, and the index's Node views (property
# test)
# ----------------------------------------------------------------------
VIEW_SEEDS = (3, 5, 18, 26, 41)


def _descendants(node: Node, include_self: bool) -> list[Node]:
    """Typed descendant(-or-self) of one node by a structural walk."""
    own = [node] if include_self and not node.is_special_child else []
    return own + list(node.iter_descendants())


def _assert_views_match_dom(document: Document, rng: random.Random) -> None:
    """The interval axes, which run on the index's order columns, and the
    index's ``Node`` views, at random probes, equal a filter over
    ``document.dom`` by order, type and name."""
    index = document.index
    dom = document.dom
    size = len(dom)
    regular = [node for node in dom if not node.is_special_child]
    subtree_last = [
        max(item.order for item in node.iter_self_and_descendants(include_special=True))
        for node in dom
    ]

    for _ in range(6):
        probe = rng.choice(dom)
        node_type, name = probe.node_type, probe.name or "nope"
        typed = [node for node in dom if node.node_type is node_type]
        labelled = [node for node in typed if node.name == name]
        include_self = rng.random() < 0.5
        descendant = Axis.DESCENDANT_OR_SELF if include_self else Axis.DESCENDANT
        sources = rng.sample(dom, rng.randrange(1, min(size, 5) + 1))
        assert axis_nodes(probe, descendant) == _descendants(probe, include_self)
        assert axis_nodes(probe, Axis.FOLLOWING) == [
            node for node in regular if node.order > subtree_last[probe.order]
        ]
        assert axis_nodes(probe, Axis.PRECEDING) == [
            node for node in regular if subtree_last[node.order] < probe.order
        ]
        assert index.nodes_of_type(node_type) == typed
        assert index.nodes_of_label(node_type, name) == labelled
        reached = {item for source in sources for item in _descendants(source, include_self)}
        assert axis_set(document, sources, descendant) == reached


class TestDerivedNodeViews:
    @pytest.mark.parametrize("seed", VIEW_SEEDS)
    def test_views_equal_a_filter_over_dom_after_every_edit(self, seed):
        document = random_document(seed, max_depth=4, max_children=4, with_namespaces=True)
        rng = random.Random(seed)
        index = document.index
        _assert_views_match_dom(document, rng)
        edits = 0
        for step in range(25):
            edits += len(random_edit_script(document, 1, seed=seed * 100 + step))
            assert document.index is index  # repaired, never rebuilt
            _assert_views_match_dom(document, rng)
        assert edits >= 20

    def test_membership_is_the_current_node_table(self):
        document = doc("<r><a><b/></a><c x='1'/></r>")
        other = doc("<r><a><b/></a><c x='1'/></r>")
        a, c = document.document_element.children
        assert document.root in document and a in document
        assert c.attributes[0] in document
        # Same order, another document's tree.
        assert other.document_element.children[0] not in document
        assert build_fragment("z") not in document
        assert "a" not in document and None not in document
        removed = document.remove(a)
        assert removed not in document and removed.children[0] not in document
        assert c in document  # renumbered, still current
        assert document.dom_set == set(document.dom)
        view = document.snapshot()
        document.set_attribute(document.document_element.children[0], "y", "2")
        assert document.mutation_stats.cow_copies == 1
        copied = document.document_element.children[0]
        assert c in view and c not in document
        assert copied in document and copied not in view


# ----------------------------------------------------------------------
# Snapshots (copy-on-write)
# ----------------------------------------------------------------------
class TestSnapshots:
    def test_snapshot_shares_until_first_edit(self):
        document = doc("<r><a/><b/></r>")
        view = document.snapshot()
        assert view.is_snapshot and not document.is_snapshot
        assert view.root is document.root  # nothing copied yet
        assert view.generation == document.generation
        assert document.snapshot() is view  # cached between edits
        assert view.snapshot() is view  # snapshot of a snapshot

    def test_edit_after_snapshot_copies_writer_not_view(self):
        document = doc("<r><a/><b/></r>")
        view = document.snapshot()
        old_root = document.root
        document.insert_child(document.document_element, build_fragment("c"))
        assert document.mutation_stats.cow_copies == 1
        assert view.root is old_root  # the view kept the old tree
        assert document.root is not old_root
        assert serialize(view) == "<r><a/><b/></r>"
        assert serialize(document) == "<r><a/><b/><c/></r>"
        assert view.generation == 0 and document.generation == 1
        # A new snapshot after the edit pins the new state.
        assert document.snapshot() is not view

    def test_snapshot_results_never_go_stale(self):
        document = doc("<r><a/><a/></r>")
        session = XPathSession()
        view = document.snapshot()
        result = session.run("//a", view)
        document.remove(document.document_element.children[0])
        # The writer moved on; the pinned result still orders fine.
        assert [n.name for n in result.nodes] == ["a", "a"]
        assert result.generation == view.generation == 0

    def test_only_one_cow_per_snapshot(self):
        document = doc("<r><a/></r>")
        document.snapshot()
        document.insert_child(document.document_element, build_fragment("b"))
        document.insert_child(document.document_element, build_fragment("c"))
        assert document.mutation_stats.cow_copies == 1  # second edit is free

    def test_edits_after_a_copy_on_write_renumber_the_tree_once(self, monkeypatch):
        document = doc("<r>" + "<a/>" * 50 + "</r>")
        document.index
        refreshes = []
        refresh = Document._refresh

        def counting_refresh(self):
            refreshes.append(self)
            refresh(self)

        monkeypatch.setattr(Document, "_refresh", counting_refresh)
        view = document.snapshot()
        document.insert_child(document.document_element, build_fragment("b"))
        document.remove(document.document_element.children[0])
        document.insert_child(document.document_element, build_fragment("c"), 0)
        # The copy renumbers the writer's tree; the three edits repair the
        # index the first of them built.
        assert refreshes == [document]
        assert document.mutation_stats.repairs == 3
        assert document.mutation_stats.cow_copies == 1
        _assert_index_consistent(document)
        assert len(view) == 52


# ----------------------------------------------------------------------
# Result staleness and session hooks
# ----------------------------------------------------------------------
class TestStaleness:
    def test_stale_node_set_raises_positioned_error(self):
        document = doc("<r><a/><a/></r>")
        session = XPathSession()
        result = session.run("//a", document)
        assert result.generation == 0
        assert len(result.nodes) == 2  # fresh: fine
        document.insert_child(document.document_element, build_fragment("a"))
        with pytest.raises(StaleResultError) as excinfo:
            result.nodes
        assert excinfo.value.computed_at == 0
        assert excinfo.value.current == 1
        assert "generation 0" in str(excinfo.value)

    def test_scalar_results_are_not_stamped(self):
        document = doc("<r><a/></r>")
        session = XPathSession()
        result = session.run("count(//a)", document)
        document.insert_child(document.document_element, build_fragment("a"))
        assert result.value == 1.0  # scalars cannot dangle; no staleness

    def test_rerun_after_edit_is_fresh(self):
        document = doc("<r><a/></r>")
        session = XPathSession()
        session.run("//a", document)
        document.insert_child(document.document_element, build_fragment("a"))
        result = session.run("//a", document)
        assert len(result.nodes) == 2
        assert result.generation == 1

    def test_session_watch_counts_mutation_events(self):
        session = XPathSession()
        document = session.watch(doc("<r><a/></r>"))
        document.index  # live index: the first edit takes the repair path
        document.insert_child(document.document_element, build_fragment("b"))
        document.snapshot()
        # The copy-on-write leaves the shared index with the snapshot; the
        # rename builds the writer a new one and repairs it.
        document.rename(document.document_element.children[0], "z")
        stats = session.stats.as_dict()
        assert stats["document_edits"] == 2
        assert stats["index_repairs"] == 2
        assert stats["cow_copies"] == 1
        session.unwatch(document)
        document.insert_child(document.document_element, build_fragment("c"))
        assert session.stats.document_edits == 2  # unwatched: no longer folded

    def test_plan_cache_survives_edits(self):
        session = XPathSession()
        document = doc("<r><a/></r>")
        first = session.run("//a", document)
        document.insert_child(document.document_element, build_fragment("a"))
        second = session.run("//a", document)
        assert first.cache_hit is False and second.cache_hit is True
        assert second.plan is first.plan  # plans are generation-independent


# ----------------------------------------------------------------------
# Pickling mutated documents (satellite 1)
# ----------------------------------------------------------------------
class TestMutatedPickle:
    def test_flat_payload_preserves_edits(self):
        document = doc('<r><a id="1">x</a></r>')
        document.insert_child(document.document_element, build_fragment("b"))
        clone = pickle.loads(pickle.dumps(document))
        assert serialize(clone) == serialize(document)
        # Generations are per-process edit epochs, not content versions.
        assert clone.generation == 0
        _assert_index_consistent(clone)

    def test_store_documents_lose_fast_path_once_edited(self, tmp_path):
        path = str(tmp_path / "docs.reproxs")
        DocumentStore.build(path, [doc("<r><a/></r>")], names=["d"])
        with DocumentStore.open(path) as store:
            document = store.document_at(0).materialize()
            clone0 = pickle.loads(pickle.dumps(document))
            assert serialize(clone0) == "<r><a/></r>"  # fast path, same content
            document.insert_child(document.document_element, build_fragment("b"))
            assert document.store_detached
            clone1 = pickle.loads(pickle.dumps(document))
            # The stale store content must not resurrect in the receiver.
            assert serialize(clone1) == "<r><a/><b/></r>"

    def test_process_backend_sees_the_edit(self, tmp_path):
        path = str(tmp_path / "docs.reproxs")
        DocumentStore.build(path, [doc("<r><a/></r>")], names=["d"])
        with DocumentStore.open(path) as store:
            document = store.document_at(0).materialize()
            document.insert_child(document.document_element, build_fragment("a"))
            session = XPathSession()
            collection = session.collection([document])
            with ParallelExecutor(backend="process", max_workers=2) as pool:
                batch = list(collection.select("//a", parallel=pool))
            assert batch[0].ok
            assert len(batch[0].nodes) == 2  # the worker saw the edit


# ----------------------------------------------------------------------
# Store lifecycle with mutable trees (satellite 2)
# ----------------------------------------------------------------------
class TestStoreLifecycle:
    def _build(self, tmp_path) -> str:
        path = str(tmp_path / "docs.reproxs")
        DocumentStore.build(
            path, [doc("<r><a/><a/></r>"), doc("<r><b/></r>")], names=["d0", "d1"]
        )
        return path

    def test_materialize_recaches_after_edit(self, tmp_path):
        path = self._build(tmp_path)
        with DocumentStore.open(path) as store:
            handle = store.document_at(0)
            document = handle.materialize()
            assert handle.materialize() is document  # cached while pristine
            document.remove(document.document_element.children[0])
            fresh = handle.materialize()
            # The handle describes the *stored* content: a fresh
            # generation-0 tree, not the edited one.
            assert fresh is not document
            assert fresh.generation == 0
            assert serialize(fresh) == "<r><a/><a/></r>"
            assert serialize(document) == "<r><a/></r>"

    def test_info_reports_materialized_generations(self, tmp_path):
        path = self._build(tmp_path)
        with DocumentStore.open(path) as store:
            document = store.document_at(0).materialize()
            assert store.info()["materialized_generations"] == {0: 0}
            document.insert_child(document.document_element, build_fragment("c"))
            assert store.info()["materialized_generations"] == {0: 1}

    def test_close_detaches_live_trees(self, tmp_path):
        path = self._build(tmp_path)
        store = DocumentStore.open(path)
        document = store.document_at(0).materialize()
        store.close()
        assert document.store_detached
        assert document._store_origin is None
        # The tree must keep answering — including through the compiled
        # engine, which would otherwise read the released mmap views.
        assert len(api.select("//a", document, engine="compiled")) == 2
        document.insert_child(document.document_element, build_fragment("a"))
        assert len(api.select("//a", document, engine="compiled")) == 3

    def test_invalidate_does_not_orphan_live_trees(self, tmp_path):
        path = self._build(tmp_path)
        store = open_cached(path)
        document = store.document_at(0).materialize()
        assert invalidate(path)  # drops the cache entry and closes the map
        assert len(api.select("//a", document, engine="compiled")) == 2
        document.insert_child(document.document_element, build_fragment("a"))
        assert len(api.select("//a", document)) == 3
        # A later open_cached builds a fresh mapping with the stored content.
        reopened = open_cached(path)
        try:
            fresh = reopened.document_at(0).materialize()
            assert serialize(fresh) == "<r><a/><a/></r>"
        finally:
            invalidate(path)
