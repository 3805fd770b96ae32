"""The Document container: dom, document order and node-test indexes.

The paper (Section 3) works with a set ``dom`` of nodes, primitive relations
``firstchild``/``nextsibling`` and, in Section 4, a node-test function ``T``
mapping each node test to the subset of ``dom`` satisfying it.  A
:class:`Document` owns the node tree and provides:

* ``dom`` — all nodes in document order (list and set views);
* the frozen ``first_child`` / ``next_sibling`` / ``prev_sibling`` links;
* node-test indexes (by type, and by (type, name));
* ID lookup used by ``id()`` / ``deref_ids`` (Section 4).

Mutation (the generation model)
-------------------------------
Documents are frozen once (:meth:`Document.freeze`) but no longer immutable
afterwards: the edit API — :meth:`~Document.insert_child`,
:meth:`~Document.remove`, :meth:`~Document.rename`, :meth:`~Document.set_text`,
:meth:`~Document.set_attribute` — applies in-place edits, each bumping the
monotone ``document.generation``.  Every edit repairs a live index in place
— the order/extent columns, the posting lists and the cached string
matches, O(tail + depth) — and never discards it; an edit on a document
that has no index yet builds one before it changes anything.
:meth:`~Document.snapshot` pins the current generation as a cheap
copy-on-write read view for concurrent readers: the first edit after a
snapshot copies the tree for the writer, so the view's nodes and columns
are never touched again.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Optional

from .index import DocumentIndex
from .nodes import Node, NodeType

_ORDER = attrgetter("order")

#: Pragmatic XML-Name check for ``rename``/``set_attribute``: a serialized
#: edited document must reparse, so names the lexer would reject are refused
#: up front (NCName characters, one optional colon for prefixed names).
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*(?::[A-Za-z_][A-Za-z0-9_.\-]*)?$")

#: Child node types the edit API accepts under ``insert_child`` (attribute
#: and namespace nodes go through ``set_attribute`` / are not insertable).
_REGULAR_CHILD_TYPES = frozenset(
    {
        NodeType.ELEMENT,
        NodeType.TEXT,
        NodeType.COMMENT,
        NodeType.PROCESSING_INSTRUCTION,
    }
)


@dataclass
class MutationStats:
    """Index-maintenance accounting of one document's edit history.

    Attributes
    ----------
    edits:
        Number of successful edit operations (generation bumps).
    repairs:
        Edits whose index maintenance was a local in-place repair.
    rebuilds:
        Edits that dropped the index: a copy-on-write leaves the shared
        index with the snapshot, and the edit that copied builds the
        writer a new one before it changes anything.
    cow_copies:
        Times the writer had to copy the tree because a pinned snapshot
        view was holding the previous generation.
    """

    edits: int = 0
    repairs: int = 0
    rebuilds: int = 0
    cow_copies: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "edits": self.edits,
            "repairs": self.repairs,
            "rebuilds": self.rebuilds,
            "cow_copies": self.cow_copies,
        }


def _validate_value(node_type: NodeType, value: str) -> None:
    """Shared value checks for ``set_text``: the edited document must
    serialize to XML that reparses to the identical tree."""
    if not isinstance(value, str):
        raise TypeError("node value must be a string")
    if node_type in (NodeType.ELEMENT, NodeType.ROOT):
        raise ValueError(
            "element/root nodes have no direct value; edit their text children"
        )
    if node_type is NodeType.TEXT and value == "":
        raise ValueError(
            "empty text would vanish on serialize; remove the node instead"
        )
    if node_type is NodeType.COMMENT and ("--" in value or value.endswith("-")):
        raise ValueError("comment text cannot contain '--' or end with '-'")
    if node_type is NodeType.PROCESSING_INSTRUCTION and "?>" in value:
        raise ValueError("processing-instruction data cannot contain '?>'")


def _rewire_child0(parent: Node) -> None:
    """Re-derive ``first_child``/sibling links from ``parent``'s child lists."""
    seq = parent.child0_sequence()
    parent.first_child = seq[0] if seq else None
    previous: Optional[Node] = None
    for child in seq:
        child.prev_sibling = previous
        if previous is not None:
            previous.next_sibling = child
        previous = child
    if previous is not None:
        previous.next_sibling = None


class Document:
    """A frozen-then-editable XML document tree.

    Parameters
    ----------
    root:
        A node of type :data:`NodeType.ROOT`.  The tree below it must be
        fully built before the document is frozen.
    id_attribute:
        Name of the attribute treated as an ID (DTD ID/IDREF substitute).
        The paper's ``deref_ids`` function needs only a node-id mapping; we
        follow the common convention of using attributes named ``id``.

    After :meth:`freeze` the document can be queried, and edited through the
    mutation API (see the module docstring): every edit bumps
    :attr:`generation`, node handles from *before* an edit stay valid while
    the edits are in place (orders are renumbered on the shared node
    objects) but are invalidated by a copy-on-write — obtain fresh handles
    by re-querying.  All edits and :meth:`snapshot` are serialised by an
    internal lock; concurrent *readers* are safe only against a pinned
    snapshot, never against a document being edited under them.
    """

    #: ``(store_path, position)`` when this document was materialised from a
    #: persistent store (set by ``StoredDocument.materialize``); lets
    #: ``__reduce__`` ship a path instead of the whole tree.
    _store_origin: Optional[tuple[str, int]] = None

    #: True once an edit divorced this document from its persistent store
    #: (the on-disk columns describe generation 0, not this tree).
    store_detached: bool = False

    def __init__(self, root: Node, id_attribute: str = "id"):
        if root.node_type is not NodeType.ROOT:
            raise ValueError("Document requires a root-type node")
        self.root = root
        self.id_attribute = id_attribute
        self._nodes: list[Node] = []
        self._ids: dict[str, Node] = {}
        self._index: Optional[DocumentIndex] = None
        self._frozen = False
        #: Monotone edit epoch: 0 at parse, +1 per successful edit.
        self.generation = 0
        self.mutation_stats = MutationStats()
        self._edit_lock = threading.RLock()
        self._pinned_view: Optional["Document"] = None
        self._snapshot_of: Optional["Document"] = None
        self._listeners: list = []

    # ------------------------------------------------------------------
    # Pickling (the parallel executor ships documents to worker processes)
    # ------------------------------------------------------------------
    def __reduce__(self):
        """Pickle as a flat preorder node table, not as a linked tree.

        The default recursive pickling walks ``parent``/``next_sibling``/
        ``first_child`` chains and blows the recursion limit on documents
        only a few hundred nodes wide.  The flat form is also far smaller
        (no per-node back links, no indexes) and rebuilding through
        :meth:`freeze` restores the identical document orders — orders are
        assigned by a deterministic preorder walk of the structure this
        payload preserves exactly.

        Documents that came out of a persistent store skip the flat payload
        entirely: they pickle as their ``(path, position)`` origin, and the
        receiving process re-materialises from its own (cached) mapping of
        the store file — per-batch serialization cost becomes O(1) per
        document and the OS page cache is shared across workers.  If the
        store file has meanwhile disappeared, the flat form below is the
        fallback, so the pickle never breaks.  A *mutated* document
        (``generation > 0``) must never take the fast path either: the
        on-disk columns still describe generation 0, so shipping the origin
        would silently resurrect the stale store content in the worker.  The
        rebuilt document always starts at generation 0 — generations are a
        per-process edit epoch, not a content version.
        """
        origin = self._store_origin
        if origin is not None and self.generation == 0 and os.path.exists(origin[0]):
            return (_rebuild_from_store, origin)
        payload = []
        stack = [(self.root, -1)]
        while stack:
            node, parent_position = stack.pop()
            position = len(payload)
            payload.append((node.node_type, node.name, node.value, parent_position))
            stack.extend(
                (child, position) for child in reversed(node.child0_sequence())
            )
        return (_rebuild_document, (payload, self.id_attribute, self._frozen))

    # ------------------------------------------------------------------
    # Freezing: assign document order and build indexes
    # ------------------------------------------------------------------
    def freeze(self) -> "Document":
        """Assign document order, wire sibling links and build indexes.

        Returns ``self`` so the call can be chained.  Freezing twice is a
        no-op.
        """
        if self._frozen:
            return self
        self._refresh()
        self._frozen = True
        return self

    def _refresh(self) -> None:
        """(Re-)derive orders, links, the node table and the ID map from
        the tree.

        The body of :meth:`freeze`, reused by :meth:`_copy_on_write` for
        the writer's new tree; the edit that copied then builds the
        writer's index (:meth:`_begin_edit`).
        """
        order = 0
        stack: list[Node] = [self.root]
        nodes: list[Node] = []
        while stack:
            node = stack.pop()
            node.order = order
            node.document = self
            order += 1
            nodes.append(node)
            seq = node.child0_sequence()
            # Wire primitive relations over the child0 sequence.
            node.first_child = seq[0] if seq else None
            previous: Optional[Node] = None
            for child in seq:
                child.prev_sibling = previous
                if previous is not None:
                    previous.next_sibling = child
                previous = child
            if previous is not None:
                previous.next_sibling = None
            stack.extend(reversed(seq))
        self._nodes = nodes
        self._build_indexes()

    def _build_indexes(self) -> None:
        ids: dict[str, Node] = {}
        for node in self._nodes:
            if node.node_type is NodeType.ELEMENT:
                id_value = node.attribute_value(self.id_attribute)
                if id_value is not None and id_value not in ids:
                    ids[id_value] = node
        self._ids = ids

    @property
    def index(self) -> DocumentIndex:
        """The per-document :class:`DocumentIndex` (order arrays, subtree
        extents, parents, label postings).  Built lazily on first use (a
        query or an edit) and owned by the document, so the index cannot
        outlive or leak past its document."""
        index = self._index
        if index is None:
            self._require_frozen()
            # The lazy build must not race an in-flight edit: a
            # copy-on-write renumbers the writer's new tree under the lock,
            # and an unsynchronised build here could cache an index derived
            # from that half-renumbered state.  Double-checked under the
            # edit lock; re-entrant from edit internals because it is an
            # RLock.
            with self._edit_lock:
                index = self._index
                if index is None:
                    index = DocumentIndex(self)
                    self._index = index
        return index

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise RuntimeError("Document must be frozen before it is queried")

    # ------------------------------------------------------------------
    # Snapshots (copy-on-write read views)
    # ------------------------------------------------------------------
    def snapshot(self) -> "Document":
        """A read-only view pinned at the current generation.

        The view shares this document's tree, dom arrays, ID map and index —
        creating it copies nothing.  The *next* edit on this document copies
        the tree for the writer (copy-on-write), so the view's nodes,
        orders and index columns are never touched again: concurrent
        readers evaluating against the snapshot can never observe a
        half-applied edit, and results computed against it never go stale
        (its generation is frozen).

        Shared nodes are re-pointed at the view (``node.document``), so
        axis navigation that resolves ``node.document.index`` mid-edit also
        lands on the pinned columns.  Repeated calls between edits return
        the same cached view; calling on a snapshot returns the snapshot
        itself.
        """
        self._require_frozen()
        if self._snapshot_of is not None:
            return self
        with self._edit_lock:
            pinned = self._pinned_view
            if pinned is not None:
                return pinned
            pinned = Document.__new__(Document)
            pinned.root = self.root
            pinned.id_attribute = self.id_attribute
            pinned._nodes = self._nodes
            pinned._ids = self._ids
            pinned._index = self._index
            pinned._frozen = True
            pinned.generation = self.generation
            pinned.mutation_stats = self.mutation_stats
            pinned._edit_lock = threading.RLock()
            pinned._pinned_view = None
            pinned._snapshot_of = self
            pinned._listeners = []
            pinned.store_detached = self.store_detached
            if self.generation == 0 and self._store_origin is not None:
                pinned._store_origin = self._store_origin
            for node in self._nodes:
                node.document = pinned
            self._pinned_view = pinned
            return pinned

    @property
    def is_snapshot(self) -> bool:
        """True for pinned views produced by :meth:`snapshot`."""
        return self._snapshot_of is not None

    # ------------------------------------------------------------------
    # Mutation listeners (session invalidation hooks)
    # ------------------------------------------------------------------
    def add_mutation_listener(self, callback) -> None:
        """Register ``callback(document, event)`` for mutation events.

        Events: ``"edit"`` after every successful edit, ``"repair"`` when
        it repaired the live index, ``"cow"`` when a pinned snapshot forced
        the writer to copy the tree.
        Callbacks run under the edit lock — keep them small.
        """
        if callback not in self._listeners:
            self._listeners.append(callback)

    def remove_mutation_listener(self, callback) -> None:
        try:
            self._listeners.remove(callback)
        except ValueError:
            pass

    def _emit(self, event: str) -> None:
        for listener in tuple(self._listeners):
            listener(self, event)

    # ------------------------------------------------------------------
    # Edit API
    # ------------------------------------------------------------------
    def insert_child(
        self, parent: Node, node: Node, position: Optional[int] = None
    ) -> Node:
        """Insert a detached subtree as a child of ``parent``.

        ``position`` indexes ``parent.children`` (the regular children);
        ``None`` appends.  ``node`` must be detached — freshly built
        (:func:`~repro.xmlmodel.builder.build_fragment`) or lifted from
        another tree with :meth:`~repro.xmlmodel.nodes.Node.detached_copy`.
        Returns the inserted node, now owned by this document.
        """
        with self._edit_lock:
            parent_order = self._resolve_target(parent)
            if parent.node_type not in (NodeType.ROOT, NodeType.ELEMENT):
                raise ValueError(
                    f"{parent.node_type.value} nodes cannot take children"
                )
            if not isinstance(node, Node):
                raise TypeError("insert_child expects a Node")
            if node.parent is not None or node.document is not None or node.order != -1:
                raise ValueError(
                    "insert_child expects a detached node; use "
                    "Node.detached_copy() to lift a subtree out of a document"
                )
            if node.node_type not in _REGULAR_CHILD_TYPES:
                raise ValueError(
                    f"{node.node_type.value} nodes cannot be inserted as children"
                )
            self._validate_fragment(node)
            children_count = len(parent._children)
            if position is None:
                position = children_count
            if not 0 <= position <= children_count:
                raise IndexError(
                    f"insert position {position} out of range 0..{children_count}"
                )
            if parent.node_type is NodeType.ROOT:
                if node.node_type is NodeType.TEXT:
                    raise ValueError(
                        "text nodes cannot be inserted at the document root"
                    )
                if (
                    node.node_type is NodeType.ELEMENT
                    and self.document_element is not None
                ):
                    raise ValueError("document already has a document element")
            if node.node_type is NodeType.TEXT:
                before = parent._children[position - 1] if position > 0 else None
                after = (
                    parent._children[position]
                    if position < children_count
                    else None
                )
                if (before is not None and before.node_type is NodeType.TEXT) or (
                    after is not None and after.node_type is NodeType.TEXT
                ):
                    raise ValueError(
                        "adjacent text nodes would merge on serialize/reparse; "
                        "use set_text on the existing text node instead"
                    )
            self._begin_edit()
            parent = self._nodes[parent_order]
            node.parent = parent
            parent._children.insert(position, node)
            _rewire_child0(parent)
            inserted = self._attach_structural(node)
            self._patch_ids_after_insert(inserted)
            self._finish_edit(_text_path(parent, inserted), id_rescan=False)
            return node

    def remove(self, node: Node) -> Node:
        """Remove ``node`` (and its whole subtree) from the document.

        Returns the detached subtree root, reusable via ``insert_child``
        into any document.  Removing a node from between two text siblings
        merges them (the serialized form would merge on reparse anyway).
        The root and the document element cannot be removed.
        """
        with self._edit_lock:
            order = self._resolve_target(node)
            if node.node_type is NodeType.ROOT:
                raise ValueError("cannot remove the root node")
            if node is self.document_element:
                raise ValueError("cannot remove the document element")
            self._begin_edit()
            node = self._nodes[order]
            parent = node.parent
            before = node.prev_sibling
            after = node.next_sibling
            removed = [node, *node.iter_descendants(include_special=True)]
            id_rescan = self._removal_disturbs_ids(removed)
            self._detach_structural(node, removed)
            changed = _text_path(parent, removed)
            if (
                before is not None
                and after is not None
                and before.node_type is NodeType.TEXT
                and after.node_type is NodeType.TEXT
            ):
                # Merge the adjacency this removal created, mirroring what a
                # serialize→reparse round trip would do.
                before.value = (before.value or "") + (after.value or "")
                self._detach_structural(after, [after])
                changed.insert(0, before)
            self._finish_edit(changed, id_rescan=id_rescan)
            return node

    def rename(self, node: Node, name: str) -> Node:
        """Rename an element, attribute or processing-instruction node."""
        with self._edit_lock:
            order = self._resolve_target(node)
            if node.node_type not in (
                NodeType.ELEMENT,
                NodeType.ATTRIBUTE,
                NodeType.PROCESSING_INSTRUCTION,
            ):
                raise ValueError(f"cannot rename a {node.node_type.value} node")
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid XML name {name!r}")
            if (
                node.node_type is NodeType.PROCESSING_INSTRUCTION
                and name.lower() == "xml"
            ):
                raise ValueError("'xml' is a reserved processing-instruction target")
            if node.node_type is NodeType.ATTRIBUTE:
                existing = node.parent.attribute(name)
                if existing is not None and existing is not node:
                    raise ValueError(f"duplicate attribute {name!r}")
            if name == node.name:
                return node
            self._begin_edit()
            node = self._nodes[order]
            old_name = node.name
            node.name = name
            self._index.repair_rename(node, old_name)
            self.mutation_stats.repairs += 1
            self._emit("repair")
            id_rescan = node.node_type is NodeType.ATTRIBUTE and (
                old_name == self.id_attribute or name == self.id_attribute
            )
            self._finish_edit([], id_rescan=id_rescan)
            return node

    def set_text(self, node: Node, value: str) -> Node:
        """Replace the value of a text, comment, PI or attribute node."""
        with self._edit_lock:
            order = self._resolve_target(node)
            _validate_value(node.node_type, value)
            self._begin_edit()
            node = self._nodes[order]
            node.value = value
            id_rescan = (
                node.node_type is NodeType.ATTRIBUTE
                and node.name == self.id_attribute
            )
            # Only a text node's value reaches its ancestors' string values.
            changed = _text_path(node, [node]) or [node]
            self._finish_edit(changed, id_rescan=id_rescan)
            return node

    def set_attribute(
        self, element: Node, name: str, value: Optional[str]
    ) -> Optional[Node]:
        """Set, replace or (with ``value=None``) remove an attribute.

        Returns the attribute node, or ``None`` after a removal (removing
        an absent attribute is a no-op that does not bump the generation).
        """
        with self._edit_lock:
            order = self._resolve_target(element)
            if element.node_type is not NodeType.ELEMENT:
                raise ValueError("set_attribute expects an element node")
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid XML name {name!r}")
            if value is None:
                if element.attribute(name) is None:
                    return None
                self._begin_edit()
                element = self._nodes[order]
                attr = element.attribute(name)
                id_rescan = name == self.id_attribute
                self._detach_structural(attr, [attr])
                self._finish_edit([], id_rescan=id_rescan)
                return None
            if not isinstance(value, str):
                raise TypeError("attribute value must be a string or None")
            self._begin_edit()
            element = self._nodes[order]
            attr = element.attribute(name)
            id_rescan = name == self.id_attribute
            if attr is not None:
                attr.value = value
                self._finish_edit([attr], id_rescan=id_rescan)
                return attr
            attr = Node(NodeType.ATTRIBUTE, name, value)
            attr.parent = element
            element._attributes.append(attr)
            _rewire_child0(element)
            self._attach_structural(attr)
            self._finish_edit([], id_rescan=id_rescan)
            return attr

    # ------------------------------------------------------------------
    # Edit internals
    # ------------------------------------------------------------------
    def _resolve_target(self, node: Node) -> int:
        """Validate that ``node`` is in this document's *current* tree.

        Returns its order so the caller can re-resolve the handle after a
        possible copy-on-write (``self._nodes[order]`` is then the copy at
        the same preorder position).
        """
        self._require_frozen()
        if self._snapshot_of is not None:
            raise RuntimeError(
                "snapshot views are read-only; edit the source document"
            )
        if not isinstance(node, Node):
            raise TypeError(f"expected a Node, got {type(node).__name__}")
        if node not in self:
            raise ValueError(
                "node does not belong to this document's current tree "
                "(stale handle after a copy-on-write? re-query for fresh nodes)"
            )
        return node.order

    def _begin_edit(self) -> None:
        """Copy-on-write away from any pinned view, build the index the
        edit repairs if none is live, and divorce the store.

        The index is built here, before the edit changes anything, so every
        edit repairs a live index and none renumbers the whole tree.
        """
        if self._pinned_view is not None:
            self._copy_on_write()
        if self._index is None:
            self._index = DocumentIndex(self)
        if self._store_origin is not None:
            self._store_origin = None
            self.store_detached = True

    def _copy_on_write(self) -> None:
        """Give the writer a private tree; the pinned view keeps the old one."""
        self.root = self.root.detached_copy()
        if self._index is not None:
            # The shared index stays with the snapshot; the edit builds
            # this side a new one over the new tree.
            self._index = None
            self.mutation_stats.rebuilds += 1
        self._refresh()
        self._pinned_view = None
        self.mutation_stats.cow_copies += 1
        self._emit("cow")

    def _finish_edit(self, changed: list[Node], id_rescan: bool) -> None:
        """Bookkeeping after every edit.

        ``changed`` lists the nodes still in the tree whose string value
        the edit changed, ancestors nearest first: their cached values are
        dropped and a live index re-tests them against its cached string
        matches.
        """
        if id_rescan:
            self._build_indexes()
        for node in changed:
            node._string_value = None
        self._index.repair_string_matches(changed)
        self.generation += 1
        self.mutation_stats.edits += 1
        self._emit("edit")

    def _attach_structural(self, node: Node) -> list[Node]:
        """Renumber + index maintenance for a freshly attached subtree.

        ``node`` is already wired into its parent's lists and sibling links.
        Returns the subtree in child0 preorder.
        """
        inserted = [node, *node.iter_descendants(include_special=True)]
        index = self._index
        prev = node.prev_sibling
        position = (
            index.subtree_end[prev.order] + 1
            if prev is not None
            else node.parent.order + 1
        )
        count = len(inserted)
        self._wire_subtree(inserted, position)
        nodes = self._nodes
        for i in range(position, len(nodes)):
            nodes[i].order += count
        nodes[position:position] = inserted
        index.repair_insert(inserted)
        self.mutation_stats.repairs += 1
        self._emit("repair")
        return inserted

    def _detach_structural(self, node: Node, removed: list[Node]) -> None:
        """Index maintenance + physical detach of ``node``'s subtree.

        ``removed`` is the subtree in child0 preorder (``node`` first),
        still attached and carrying current orders when called.
        """
        position = node.order
        count = len(removed)
        self._index.repair_remove(removed)
        self.mutation_stats.repairs += 1
        self._emit("repair")
        parent = node.parent
        if node.node_type is NodeType.ATTRIBUTE:
            parent._attributes.remove(node)
        elif node.node_type is NodeType.NAMESPACE:
            parent._namespaces.remove(node)
        else:
            parent._children.remove(node)
        _rewire_child0(parent)
        node.parent = None
        node.prev_sibling = None
        node.next_sibling = None
        nodes = self._nodes
        del nodes[position : position + count]
        for i in range(position, len(nodes)):
            nodes[i].order = i
        for item in removed:
            item.document = None
            item.order = -1

    def _wire_subtree(self, nodes_preorder: list[Node], start: int) -> None:
        """Assign orders ``start..`` and wire links inside a new subtree."""
        order = start
        for node in nodes_preorder:
            node.order = order
            node.document = self
            order += 1
            seq = node.child0_sequence()
            node.first_child = seq[0] if seq else None
            previous: Optional[Node] = None
            for child in seq:
                child.prev_sibling = previous
                if previous is not None:
                    previous.next_sibling = child
                previous = child
            if previous is not None:
                previous.next_sibling = None

    def _validate_fragment(self, node: Node) -> None:
        """Refuse fragments whose serialized form would not reparse to them."""
        for item in node.iter_self_and_descendants(include_special=True):
            if item.node_type is NodeType.ROOT:
                raise ValueError("fragments cannot contain root nodes")
            if item.node_type is NodeType.TEXT and not item.value:
                raise ValueError(
                    "empty text nodes would vanish on a serialize/reparse "
                    "round trip"
                )
            if item.node_type is NodeType.COMMENT:
                value = item.value or ""
                if "--" in value or value.endswith("-"):
                    raise ValueError(
                        "comment text cannot contain '--' or end with '-'"
                    )
            if item.node_type is NodeType.PROCESSING_INSTRUCTION:
                if "?>" in (item.value or ""):
                    raise ValueError(
                        "processing-instruction data cannot contain '?>'"
                    )
                if item.name is not None and item.name.lower() == "xml":
                    raise ValueError(
                        "'xml' is a reserved processing-instruction target"
                    )
            if item.name is not None and not _NAME_RE.match(item.name):
                raise ValueError(f"invalid XML name {item.name!r}")
            previous: Optional[Node] = None
            for child in item._children:
                if (
                    previous is not None
                    and previous.node_type is NodeType.TEXT
                    and child.node_type is NodeType.TEXT
                ):
                    raise ValueError("fragment contains adjacent text nodes")
                previous = child

    def _patch_ids_after_insert(self, inserted: list[Node]) -> None:
        """Incremental ID-map maintenance after an insert.

        First-in-document-order wins, matching :meth:`_build_indexes`.
        """
        attr_name = self.id_attribute
        for node in inserted:
            if node.node_type is NodeType.ELEMENT:
                value = node.attribute_value(attr_name)
                if value is not None:
                    current = self._ids.get(value)
                    if current is None or node.order < current.order:
                        self._ids[value] = node

    def _removal_disturbs_ids(self, removed: list[Node]) -> bool:
        attr_name = self.id_attribute
        for node in removed:
            if node.node_type is NodeType.ELEMENT:
                value = node.attribute_value(attr_name)
                if value is not None and self._ids.get(value) is node:
                    return True
            elif node.node_type is NodeType.ATTRIBUTE and node.name == attr_name:
                return True
        return False

    # ------------------------------------------------------------------
    # dom views
    # ------------------------------------------------------------------
    @property
    def dom(self) -> list[Node]:
        """All nodes of the document in document order."""
        self._require_frozen()
        return list(self._nodes)

    @property
    def dom_set(self) -> set[Node]:
        """All nodes of the document as a set (membership checks)."""
        self._require_frozen()
        return set(self._nodes)

    def __len__(self) -> int:
        self._require_frozen()
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        self._require_frozen()
        return iter(self._nodes)

    def __contains__(self, node: object) -> bool:
        """True when ``node`` is in this document's current tree."""
        self._require_frozen()
        if not isinstance(node, Node):
            return False
        nodes = self._nodes
        return 0 <= node.order < len(nodes) and nodes[node.order] is node

    @property
    def document_element(self) -> Optional[Node]:
        """The single element child of the root (the document element)."""
        self._require_frozen()
        for child in self.root.children:
            if child.node_type is NodeType.ELEMENT:
                return child
        return None

    # ------------------------------------------------------------------
    # Node tests (paper Section 4, function T)
    # ------------------------------------------------------------------
    def nodes_of_type(self, node_type: NodeType) -> list[Node]:
        """T(τ()) — all nodes of the given type, in document order."""
        return self.index.nodes_of_type(node_type)

    def nodes_of_type_and_name(self, node_type: NodeType, name: str) -> list[Node]:
        """T(τ(n)) — all nodes of the given type carrying the given name."""
        return self.index.nodes_of_label(node_type, name)

    # ------------------------------------------------------------------
    # IDs (paper Section 4, deref_ids)
    # ------------------------------------------------------------------
    def element_by_id(self, identifier: str) -> Optional[Node]:
        """Return the element whose ID attribute equals ``identifier``."""
        self._require_frozen()
        return self._ids.get(identifier)

    def deref_ids(self, value: str) -> list[Node]:
        """Interpret ``value`` as a whitespace-separated list of IDs.

        Returns the referenced element nodes in document order, without
        duplicates (paper Section 4, function ``deref_ids``).
        """
        self._require_frozen()
        seen: set[Node] = set()
        result: list[Node] = []
        for token in value.split():
            node = self._ids.get(token)
            if node is not None and node not in seen:
                seen.add(node)
                result.append(node)
        result.sort(key=_ORDER)
        return result

    def id_map(self) -> dict[str, Node]:
        """A copy of the id → element mapping."""
        self._require_frozen()
        return dict(self._ids)

    # ------------------------------------------------------------------
    # Utility
    # ------------------------------------------------------------------
    def first_in_document_order(self, nodes: Iterable[Node]) -> Optional[Node]:
        """``first_<doc``: the first node of ``nodes`` in document order."""
        best: Optional[Node] = None
        for node in nodes:
            if best is None or node.order < best.order:
                best = node
        return best

    def sorted_by_document_order(self, nodes: Iterable[Node]) -> list[Node]:
        """Return ``nodes`` as a list sorted by document order."""
        return sorted(nodes, key=_ORDER)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        size = len(self._nodes) if self._frozen else "unfrozen"
        return f"<Document nodes={size}>"


def _text_path(node: Node, subtree: list[Node]) -> list[Node]:
    """``node`` and its ancestors, nearest first, when ``subtree`` holds a
    text node; otherwise nothing.

    Element and root string values concatenate descendant text nodes only,
    so adding, removing or rewriting ``subtree`` below (or at) ``node``
    changes exactly these string values — or none, when it has no text.
    """
    if any(item.node_type is NodeType.TEXT for item in subtree):
        return [node, *node.iter_ancestors()]
    return []


def tree_from_preorder(rows: Iterable[tuple]) -> Optional[Node]:
    """Link ``(node_type, name, value, parent_position)`` rows, listed in
    preorder, into a tree and return its root: the row whose parent position
    is negative, or ``None`` when no row is.

    Every parent precedes its children, so one linear pass rebuilds the
    tree without recursion, and freezing a document over the root
    reassigns the identical orders.  Unpickling a :class:`Document` and
    materializing a stored one both rebuild through here.
    """
    nodes: list[Node] = []
    root: Optional[Node] = None
    for node_type, name, value, parent_position in rows:
        node = Node(node_type, name, value)
        if parent_position < 0:
            root = node
        else:
            parent = nodes[parent_position]
            node.parent = parent
            if node_type is NodeType.ATTRIBUTE:
                parent._attributes.append(node)
            elif node_type is NodeType.NAMESPACE:
                parent._namespaces.append(node)
            else:
                parent._children.append(node)
        nodes.append(node)
    return root


def _rebuild_document(payload, id_attribute: str, frozen: bool) -> "Document":
    """Unpickle counterpart of :meth:`Document.__reduce__`; ``payload`` is
    the tree's :func:`tree_from_preorder` rows."""
    document = Document(tree_from_preorder(payload), id_attribute)
    if frozen:
        document.freeze()
    return document


def _rebuild_from_store(path: str, position: int) -> "Document":
    """Unpickle counterpart of the store-origin fast path of
    :meth:`Document.__reduce__`: reopen the store (one cached mapping per
    process) and materialise the document from its columns."""
    from ..store.reader import open_cached  # deferred: store sits above us

    return open_cached(path).document_at(position).materialize()


def as_document(obj) -> "Document":
    """Coerce ``obj`` to a :class:`Document`.

    Accepts documents as-is and duck-types stored-document handles (anything
    with a ``materialize()`` method), so every evaluation entry point —
    sessions, batch loops, worker backends — transparently takes documents
    straight from a persistent store.  Materialisation failures (e.g. a
    corrupt store block) propagate from here, which is why the batch paths
    call this *inside* their per-document isolation boundary.
    """
    if isinstance(obj, Document):
        return obj
    materialize = getattr(obj, "materialize", None)
    if materialize is not None:
        return materialize()
    raise TypeError(
        f"expected a Document or a stored document handle, "
        f"got {type(obj).__name__}"
    )
