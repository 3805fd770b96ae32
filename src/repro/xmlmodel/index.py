"""Document-order index: the order columns of one document (paper §3–§4).

The paper's complexity results (Lemma 3.3's O(|dom|) set-at-a-time axes, the
polynomial CVT engines of Sections 6–8, the O(|D|·|Q|) Core XPath algebra of
Section 10) all assume that applying an axis is cheap.  This module turns
document order itself into the primary data structure, as flat columns
indexed by ``node.order``:

* ``subtree_end``: because document order is a preorder traversal of the
  child0 tree, every subtree occupies the *contiguous* order interval
  ``[node.order, subtree_end[node.order]]`` — the classic interval
  encoding of trees.
* ``parent`` (the parent's order, -1 for the root) and ``special`` (1 for
  attribute/namespace nodes), so parent chains are walked and the typing
  rule applied without dereferencing a ``Node``.
* ``regular``: the sorted order array of the non-attribute/non-namespace
  nodes, the candidates of every bare navigational step.
* an inverted label index mapping ``(node_type, name)`` and ``node_type`` to
  sorted order arrays ("posting lists"), so a name or kind test is a
  posting list rather than a filter over every candidate.

The index holds columns only: the typed axes over them live in
:func:`repro.axes.functions.axis_orders`, the one implementation every
engine runs.  ``nodes`` is the document's own node table, the one ``Node``
container; its only ``Node`` views are ``nodes_of_type`` /
``nodes_of_label``, which ``Document.nodes_of_type*`` return.

Invariants (established by :meth:`~repro.xmlmodel.document.Document.freeze`):

* ``nodes[k].order == k`` for all ``k`` (orders are dense, preorder);
* ``parent[k] < k`` for every non-root ``k`` (parents precede children);
* ``subtree_end[k] >= k``, and the intervals ``[k, subtree_end[k]]`` are
  laminar: two intervals are either disjoint or one contains the other;
* ``n.order < threshold and subtree_end[n.order] >= threshold`` holds exactly
  for the strict ancestors of ``nodes[threshold]`` (used by ``preceding``);
* every posting list is strictly increasing (a sub-sequence of 0..n-1).

The build is O(n), lazily once per document.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .nodes import SPECIAL_CHILD_TYPES, Node, NodeType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .document import Document

_EMPTY_ORDERS: tuple[int, ...] = ()

#: Most literals one document's :class:`StringMatchCache` keeps; the oldest
#: goes first.  The same bound as :class:`~repro.plan.PlanCache`'s default.
STRING_MATCH_CACHE_SIZE = 256


def complement_orders(size: int, orders: Sequence[int]) -> Sequence[int]:
    """``range(size)`` minus the sorted ``orders``, in ascending order."""
    if not len(orders):
        return range(size)
    out: list[int] = []
    cursor = 0
    for order in orders:
        out.extend(range(cursor, order))
        cursor = order + 1
    out.extend(range(cursor, size))
    return out


class StringMatchCache:
    """One document's ``strval(x) = s`` results, keyed by the literal ``s``.

    Both column sets (:class:`DocumentIndex` and the store's
    ``StoredIndexArrays``) answer ``string_match`` through one of these, so
    the set-algebra engines' queries share one scan per literal.  Only ``=`` results are stored: entries for distinct literals
    are disjoint, so together they hold at most ``size`` orders.  ``!=`` is
    their complement, computed on each call.  At most
    :data:`STRING_MATCH_CACHE_SIZE` literals are kept, oldest first out.

    An edit repairs the entries instead of dropping them: :meth:`splice`
    renumbers them like the posting lists, and :meth:`retest` moves the
    nodes whose string value the edit changed.  Lookups are lock-free; the
    lock orders inserts, evictions and repairs.  Every repair bumps a
    version, and a scan inserts its result only if no repair ran while it
    scanned, so a result computed across an edit is never kept.
    """

    __slots__ = ("_entries", "_lock", "_version")

    def __init__(self) -> None:
        self._entries: dict[str, tuple[int, ...]] = {}
        self._lock = threading.Lock()
        self._version = 0

    def __len__(self) -> int:
        return len(self._entries)

    def match(
        self,
        value: str,
        negated: bool,
        size: int,
        string_values: Callable[[], Iterable[str]],
    ) -> Sequence[int]:
        """Orders whose string-value equals (or, negated, differs from)
        ``value``; ``string_values()`` yields every node's string-value in
        document order and is called only on a miss."""
        equal = self._entries.get(value)
        if equal is None:
            version = self._version
            equal = tuple(
                order for order, text in enumerate(string_values()) if text == value
            )
            entries = self._entries
            with self._lock:
                if self._version == version:
                    if value not in entries and len(entries) >= STRING_MATCH_CACHE_SIZE:
                        del entries[next(iter(entries))]
                    entries[value] = equal
        return complement_orders(size, equal) if negated else equal

    def splice(
        self,
        position: int,
        removed: int,
        added: int = 0,
        added_values: Iterable[tuple[int, str]] = (),
    ) -> None:
        """Renumber the entries for a structural edit.

        The edit replaced the ``removed`` orders from ``position`` on with
        ``added`` new nodes, and shifted every later order by the
        difference.  ``added_values`` yields each new node's ``(order,
        string value)`` and is consumed only while some literal is cached.
        """
        with self._lock:
            self._version += 1
            entries = self._entries
            if not entries:
                return
            delta = added - removed
            for value, equal in entries.items():
                start = bisect_left(equal, position)
                if start < len(equal):
                    stop = bisect_left(equal, position + removed, start)
                    entries[value] = equal[:start] + tuple(
                        order + delta for order in equal[stop:]
                    )
            for order, value in added_values:
                equal = entries.get(value)
                if equal is not None:
                    entries[value] = _with_order(equal, order)

    def retest(self, changed: Iterable[tuple[int, str]]) -> None:
        """Move each ``(order, new string value)`` into the entry of its new
        value, out of whichever entry held it before.  ``changed`` is
        consumed only while some literal is cached."""
        with self._lock:
            self._version += 1
            entries = self._entries
            if not entries:
                return
            for order, value in changed:
                for literal, equal in entries.items():
                    i = bisect_left(equal, order)
                    if i < len(equal) and equal[i] == order:
                        entries[literal] = equal[:i] + equal[i + 1 :]
                        break  # entries are disjoint
                equal = entries.get(value)
                if equal is not None:
                    entries[value] = _with_order(equal, order)


def _with_order(orders: tuple[int, ...], order: int) -> tuple[int, ...]:
    """``orders`` (sorted, without ``order``) with ``order`` inserted."""
    i = bisect_left(orders, order)
    return orders[:i] + (order,) + orders[i:]


def _shift_orders(orders: list[int], threshold: int, delta: int) -> None:
    """Add ``delta`` to every entry of a sorted order list ≥ ``threshold``."""
    start = bisect_left(orders, threshold)
    orders[start:] = [order + delta for order in orders[start:]]


class DocumentIndex:
    """Per-document navigation index over document order.

    The one in-memory column set, of order columns only, which every
    engine's axes read through :func:`~repro.axes.functions.axis_orders`.
    ``nodes`` is the document's own node table, not a copy, and the only
    ``Node`` container the index holds.

    Built by the first :attr:`Document.index` read or the first edit,
    whichever comes first; the document must be frozen.
    The arrays are read-only from the query side; the document's edit API
    repairs them in place through :meth:`repair_insert` /
    :meth:`repair_remove` / :meth:`repair_rename`, and the string-match
    cache with them (:meth:`repair_string_matches`) — an edit never
    discards a live index.  See ``Document``'s mutation docs.
    """

    __slots__ = (
        "nodes",
        "parent",
        "special",
        "subtree_end",
        "regular",
        "_by_type_orders",
        "_by_label_orders",
        "_string_match_cache",
    )

    def __init__(self, document: "Document"):
        nodes: list[Node] = document._nodes
        self.nodes = nodes
        size = len(nodes)

        # Subtree extents: document order is a preorder over child0, so a
        # node's extent is its last child0 child's extent (children appear in
        # order, hence the last one reaches furthest) or its own order.
        subtree_end = [0] * size
        parent = [-1] * size
        for k in range(size - 1, -1, -1):
            node = nodes[k]
            last = node.last_child0()
            subtree_end[k] = k if last is None else subtree_end[last.order]
            up = node.parent
            if up is not None:
                parent[k] = up.order
        self.subtree_end = subtree_end
        self.parent = parent

        # The order array of the non-special nodes, and the inverted label
        # index (sorted posting lists, one per type and per (type, name)
        # pair).
        special = bytearray(size)
        regular: list[int] = []
        by_type: dict[NodeType, list[int]] = {t: [] for t in NodeType}
        by_label: dict[tuple[NodeType, str], list[int]] = {}
        for node in nodes:
            # ``node.order`` rather than a counter: the columns share the
            # nodes' own int objects instead of allocating one per entry.
            order = node.order
            node_type = node.node_type
            if node_type in SPECIAL_CHILD_TYPES:
                special[order] = 1
            else:
                regular.append(order)
            by_type[node_type].append(order)
            if node.name is not None:
                by_label.setdefault((node_type, node.name), []).append(order)
        self.special = special
        self.regular = regular
        self._by_type_orders = by_type
        self._by_label_orders = by_label
        #: ``string_match`` results, repaired by every edit.
        self._string_match_cache = StringMatchCache()

    # ------------------------------------------------------------------
    # The compiled engine's column contract (also served, zero-copy over a
    # mmap, by repro.store.StoredIndexArrays)
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.nodes)

    def type_orders(self, node_type: NodeType) -> Sequence[int]:
        return self._by_type_orders[node_type]

    def label_orders(self, node_type: NodeType, name: str) -> Sequence[int]:
        return self._by_label_orders.get((node_type, name), _EMPTY_ORDERS)

    def string_value(self, order: int) -> str:
        """The XPath string-value of the node at ``order`` (cached per node)."""
        return self.nodes[order].string_value()

    def string_match(self, value: str, negated: bool) -> Sequence[int]:
        """Orders of nodes whose string-value equals (or differs from) ``value``.

        One linear pre-scan per distinct literal, shared by every
        ``strmatch`` instruction of the array programs.  The result stays
        cached across edits, which repair it (see :class:`StringMatchCache`).
        """
        nodes = self.nodes
        return self._string_match_cache.match(
            value, negated, len(nodes),
            lambda: (node.string_value() for node in nodes),
        )

    # ------------------------------------------------------------------
    # Incremental repair (document edit API)
    # ------------------------------------------------------------------
    def repair_insert(self, inserted: list[Node]) -> None:
        """Splice an inserted subtree into every column of this index.

        ``inserted`` is the new subtree in child0 preorder; the document has
        already renumbered itself and spliced its node table (``nodes``), so
        ``inserted[0].order`` is the insertion point ``p`` and the inserted
        nodes carry orders ``p..p+k-1`` while the old nodes keep consistent
        (shifted) orders.  Cost: O(k + tail + depth) where tail is the number
        of postings/extents at or after ``p``.
        """
        position = inserted[0].order
        count = len(inserted)

        # Subtree extents.  New-node extents are computed locally (children
        # of an inserted node are inserted nodes, later in the list); old
        # entries at/after the splice point shift by k; the only earlier
        # nodes whose extent changes are the ancestors of the insertion
        # point — walked explicitly, which also covers a last-child insert
        # (their extent grows even though no old order after p belongs to
        # their subtree).
        new_ends = [0] * count
        for i in range(count - 1, -1, -1):
            node = inserted[i]
            last = node.last_child0()
            new_ends[i] = node.order if last is None else new_ends[last.order - position]
        subtree_end = self.subtree_end
        subtree_end[position:] = new_ends + [end + count for end in subtree_end[position:]]
        for ancestor in inserted[0].iter_ancestors():
            subtree_end[ancestor.order] += count

        # Parents: only tail entries can point at/after the splice point
        # (parents precede children); the new nodes' parents are renumbered.
        parent = self.parent
        parent[position:] = [node.parent.order for node in inserted] + [
            p + count if p >= position else p for p in parent[position:]
        ]
        self.special[position:position] = bytes(
            node.is_special_child for node in inserted
        )

        # Regular orders: shift the tail, splice the new regulars.
        regular = self.regular
        idx = bisect_left(regular, position)
        regular[idx:] = [
            node.order for node in inserted if not node.is_special_child
        ] + [order + count for order in regular[idx:]]

        # Posting lists: shift every order array past the splice point, then
        # insort the new orders.
        by_type = self._by_type_orders
        by_label = self._by_label_orders
        for orders in by_type.values():
            _shift_orders(orders, position, count)
        for orders in by_label.values():
            _shift_orders(orders, position, count)
        for node in inserted:
            insort(by_type[node.node_type], node.order)
            if node.name is not None:
                insort(by_label.setdefault((node.node_type, node.name), []), node.order)

        # Cached string matches: shift like a posting list, then test the
        # new nodes, deepest first so each element's walk reuses its
        # descendants' just-cached values.
        self._string_match_cache.splice(
            position, 0, count,
            ((node.order, node.string_value()) for node in reversed(inserted)),
        )

    def repair_remove(self, removed: list[Node]) -> None:
        """Remove a subtree from every column of this index.

        Called *before* the document renumbers and splices its node table:
        ``removed`` is the detached subtree in child0 preorder still carrying
        its old orders ``p..p+k-1``, and ``removed[0].parent`` still points
        at the old parent.  Symmetric to :meth:`repair_insert`.
        """
        position = removed[0].order
        count = len(removed)

        # Posting lists first — the bisect targets are the old orders.
        by_type = self._by_type_orders
        for node in removed:
            orders = by_type[node.node_type]
            del orders[bisect_left(orders, node.order)]
            if node.name is not None:
                self._unlabel((node.node_type, node.name), node.order)
        for orders in by_type.values():
            _shift_orders(orders, position, -count)
        for orders in self._by_label_orders.values():
            _shift_orders(orders, position, -count)

        # Extents: ancestors shrink, the removed span disappears, the tail
        # shifts down.
        subtree_end = self.subtree_end
        for ancestor in removed[0].iter_ancestors():
            subtree_end[ancestor.order] -= count
        subtree_end[position:] = [end - count for end in subtree_end[position + count :]]

        # No tail parent lies inside the removed (closed) subtree.
        parent = self.parent
        parent[position:] = [
            p - count if p >= position else p for p in parent[position + count :]
        ]
        del self.special[position : position + count]

        regular = self.regular
        low = bisect_left(regular, position)
        high = bisect_left(regular, position + count)
        regular[low:] = [order - count for order in regular[high:]]
        self._string_match_cache.splice(position, count)

    def repair_string_matches(self, changed: list[Node]) -> None:
        """Re-test the nodes whose string value an edit changed against
        every cached literal.

        ``changed`` lists them with their final orders and their cached
        values already dropped; ancestors come nearest first, so each
        ancestor's walk reuses the value just computed below it.
        """
        self._string_match_cache.retest(
            (node.order, node.string_value()) for node in changed
        )

    def repair_rename(self, node: Node, old_name: str) -> None:
        """Move one node between label buckets after a rename.

        Orders and extents are untouched by a rename; only the
        ``(type, name)`` posting membership changes.
        """
        label = (node.node_type, node.name)
        self._unlabel((node.node_type, old_name), node.order)
        insort(self._by_label_orders.setdefault(label, []), node.order)

    def _unlabel(self, label: tuple[NodeType, str], order: int) -> None:
        """Remove ``order`` from a label's posting list.  An emptied list is
        pruned, so a repaired index stays key-for-key identical to a fresh
        build."""
        orders = self._by_label_orders[label]
        del orders[bisect_left(orders, order)]
        if not orders:
            del self._by_label_orders[label]

    # ------------------------------------------------------------------
    # Node views of the posting lists (``Document.nodes_of_type*``)
    # ------------------------------------------------------------------
    def nodes_of_type(self, node_type: NodeType) -> list[Node]:
        """T(τ()) — all nodes of the given type, in document order."""
        return list(map(self.nodes.__getitem__, self._by_type_orders[node_type]))

    def nodes_of_label(self, node_type: NodeType, name: str) -> list[Node]:
        """T(τ(n)) — all nodes of the given type carrying the given name."""
        orders = self._by_label_orders.get((node_type, name), _EMPTY_ORDERS)
        return list(map(self.nodes.__getitem__, orders))
