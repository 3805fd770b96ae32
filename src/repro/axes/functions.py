"""Typed XPath axes over document-order columns (paper §3–§4, §10).

One kernel serves every engine.  :func:`axis_orders` applies a typed axis
to a sorted array of source orders, restricted to a sorted candidate array
(a posting list from :mod:`repro.axes.nodetests`), reading only the order
columns of a :class:`~repro.xmlmodel.index.DocumentIndex` or of the store's
mmap twin.  Document order is a preorder, so every subtree is a contiguous
order interval: ``descendant``, ``following`` and ``preceding`` are
bisect-and-slice queries, O(log |dom| + output), and every axis applied to
a set is O(|dom|) (Lemma 3.3).  :func:`inverse_axis_orders` is χ⁻¹ (Lemma
10.1).  The array programs of the set-algebra engines call both directly.

The interpreters reach the kernel through thin ``Node`` adapters, which take
the source nodes' orders in and hand nodes out through ``index.nodes``:
:func:`axis_set`, :func:`axis_test_set` (the axis fused with a node test)
and :func:`inverse_axis_set` set-at-a-time, :func:`axis_nodes` and
:func:`step_candidates` node-at-a-time, where the four interval axes run on
the kernel and the others follow the node's links.  :func:`proximity_order`
orders a step's result by the axis' proximity relation <doc,χ.  The
structural walks of :mod:`repro.axes.reference` are the oracle the
differential tests compare all of these against.

Every axis follows the paper's typing rule (Section 4)::

    attribute(S) := child0(S) ∩ T(attribute())
    namespace(S) := child0(S) ∩ T(namespace())
    χ(S)         := χ0(S) − (T(attribute()) ∪ T(namespace()))   otherwise

Note that, as written in the paper, the last rule removes attribute and
namespace nodes from the result of *every* other axis, including ``self``;
we follow the paper exactly (see DESIGN.md, "Key design decisions").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from ..xmlmodel.document import Document
from ..xmlmodel.index import DocumentIndex
from ..xmlmodel.nodes import Node, NodeType
from .nodetests import NodeTest, candidate_orders, default_candidates, principal_node_type
from .regex import Axis, inverse_axis, is_reverse_axis

Orders = Sequence[int]

_EMPTY: tuple[int, ...] = ()

_ORDER = attrgetter("order")


# ----------------------------------------------------------------------
# Sorted-order set primitives
# ----------------------------------------------------------------------
def intersect_orders(a: Orders, b: Orders) -> list[int]:
    """``a ∩ b`` of two sorted order arrays, bisecting the longer one."""
    if len(a) > len(b):
        a, b = b, a
    out: list[int] = []
    j = 0
    limit = len(b)
    for value in a:
        j = bisect_left(b, value, j)
        if j >= limit:
            break
        if b[j] == value:
            out.append(value)
            j += 1
    return out


def union_orders(a: Orders, b: Orders) -> list[int]:
    """``a ∪ b`` of two sorted order arrays, by a merge."""
    out: list[int] = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x < y:
            out.append(x)
            i += 1
        elif y < x:
            out.append(y)
            j += 1
        else:
            out.append(x)
            i += 1
            j += 1
    out.extend(a[i:la])
    out.extend(b[j:lb])
    return out


# ----------------------------------------------------------------------
# The kernel: χ(source) ∩ cand over order columns, one routine per family
# ----------------------------------------------------------------------
def _self_orders(view: DocumentIndex, axis: Axis, source: Orders, cand: Orders) -> Orders:
    return intersect_orders(source, cand)


def _child_orders(view: DocumentIndex, axis: Axis, source: Orders, cand: Orders) -> Orders:
    """child, attribute and namespace: the candidates whose parent is a source."""
    if axis is not Axis.CHILD:
        # attribute/namespace results are exactly that node type; a kind
        # test like text() must come back empty.
        cand = intersect_orders(cand, view.type_orders(principal_node_type(axis)))
        if not cand:
            return _EMPTY
    parent = view.parent
    sources = set(source)
    lo = bisect_left(cand, source[0] + 1)
    hi = bisect_right(cand, max(map(view.subtree_end.__getitem__, source)))
    return [c for c in cand[lo:hi] if parent[c] in sources]


def _parent_orders(view: DocumentIndex, axis: Axis, source: Orders, cand: Orders) -> Orders:
    parent = view.parent
    parents = {parent[s] for s in source}
    parents.discard(-1)
    return intersect_orders(sorted(parents), cand)


def _descendant_orders(
    view: DocumentIndex, axis: Axis, source: Orders, cand: Orders
) -> Orders:
    """descendant(-or-self): one candidate slice per maximal source subtree.

    A source inside an earlier source's interval is skipped: by laminarity
    its whole subtree is already covered.
    """
    include_self = axis is Axis.DESCENDANT_OR_SELF
    subtree_end = view.subtree_end
    out: list[int] = []
    current_end = -1
    for order in source:
        if order <= current_end:
            continue
        current_end = subtree_end[order]
        start = order if include_self else order + 1
        if start > current_end:
            continue
        lo = bisect_left(cand, start)
        hi = bisect_right(cand, current_end)
        out.extend(cand[lo:hi])
    return out


def _ancestor_orders(view: DocumentIndex, axis: Axis, source: Orders, cand: Orders) -> Orders:
    """ancestor(-or-self): parent-chain walks, each stopping at a seen node."""
    include_self = axis is Axis.ANCESTOR_OR_SELF
    parent = view.parent
    special = view.special
    seen: set[int] = set()
    for order in source:
        if include_self and not special[order]:
            seen.add(order)
        current = parent[order]
        while current >= 0 and current not in seen:
            seen.add(current)
            current = parent[current]
    return intersect_orders(sorted(seen), cand)


def _following_orders(view: DocumentIndex, axis: Axis, source: Orders, cand: Orders) -> Orders:
    """Everything after the earliest-ending source subtree."""
    threshold = min(map(view.subtree_end.__getitem__, source))
    return cand[bisect_right(cand, threshold) :]


def _strict_ancestor_orders(view: DocumentIndex, order: int) -> set[int]:
    ancestors: set[int] = set()
    parent = view.parent
    current = parent[order]
    while current >= 0:
        ancestors.add(current)
        current = parent[current]
    return ancestors


def _preceding_orders(view: DocumentIndex, axis: Axis, source: Orders, cand: Orders) -> Orders:
    """Everything before the last source, minus that source's ancestors.

    By laminarity the only nodes before ``threshold`` whose subtree reaches
    it are its strict ancestors, so they are subtracted in O(depth) instead
    of testing ``subtree_end`` for every candidate.
    """
    threshold = source[-1]
    prefix = cand[: bisect_left(cand, threshold)]
    ancestors = _strict_ancestor_orders(view, threshold)
    if not ancestors:
        return prefix
    return [c for c in prefix if c not in ancestors]


def _sibling_orders(view: DocumentIndex, axis: Axis, source: Orders, cand: Orders) -> Orders:
    """following/preceding-sibling: per parent, past its nearest-to-the-edge source."""
    following = axis is Axis.FOLLOWING_SIBLING
    parent = view.parent
    thresholds: dict[int, int] = {}
    for s in source:
        p = parent[s]
        if p < 0:
            continue
        best = thresholds.get(p)
        if best is None or (s < best if following else s > best):
            thresholds[p] = s
    if not thresholds:
        return _EMPTY
    out = []
    for c in cand:
        best = thresholds.get(parent[c])
        if best is not None and (c > best if following else c < best):
            out.append(c)
    return out


#: One routine per axis family; a table lookup, not a chain of tests, so a
#: single-node step pays one dispatch whatever its axis.
_AXIS_ORDERS = {
    Axis.SELF: _self_orders,
    Axis.CHILD: _child_orders,
    Axis.ATTRIBUTE: _child_orders,
    Axis.NAMESPACE: _child_orders,
    Axis.PARENT: _parent_orders,
    Axis.DESCENDANT: _descendant_orders,
    Axis.DESCENDANT_OR_SELF: _descendant_orders,
    Axis.ANCESTOR: _ancestor_orders,
    Axis.ANCESTOR_OR_SELF: _ancestor_orders,
    Axis.FOLLOWING: _following_orders,
    Axis.PRECEDING: _preceding_orders,
    Axis.FOLLOWING_SIBLING: _sibling_orders,
    Axis.PRECEDING_SIBLING: _sibling_orders,
}


def axis_orders(view: DocumentIndex, axis: Axis, source: Orders, cand: Orders) -> Orders:
    """``χ(source) ∩ cand``, where both operands are sorted order arrays.

    Definition 3.1 (χ(X₀) = {x | ∃x₀ ∈ X₀ : x₀χx}) with the Section 4
    typing rule, over the order columns of ``view``.  The rule is enforced
    by the candidate lists themselves (regular orders, or a posting list
    of the axis' principal type) and explicitly where needed.
    """
    if not len(source) or not len(cand):
        return _EMPTY
    return _AXIS_ORDERS[axis](view, axis, source, cand)


#: The inverses of the axes that lead somewhere from an attribute or
#: namespace node: parent, ancestor, ancestor-or-self, following, preceding
#: and following-sibling.  (No regular sibling precedes a special node:
#: namespaces and attributes come first in their parent's child0.)
_INVERSES_REACHING_SPECIAL = frozenset({
    Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF,
    Axis.FOLLOWING, Axis.PRECEDING, Axis.PRECEDING_SIBLING,
})


def inverse_axis_orders(view: DocumentIndex, axis: Axis, source: Orders) -> Orders:
    """χ⁻¹(source) = {x | χ(x) ∩ source ≠ ∅}, as sorted orders.

    Lemma 10.1 (x χ y iff y χ⁻¹ x) holds for the untyped axes; under the
    typing rule χ never reaches a special node except on the attribute and
    namespace axes, while χ from an attribute or namespace node does reach
    regular ones.  So the source is cut to the nodes χ can reach, and the
    inverse axis draws from all of dom where it can land on a special node.
    """
    if axis is Axis.ATTRIBUTE or axis is Axis.NAMESPACE:
        source = intersect_orders(source, view.type_orders(principal_node_type(axis)))
    else:
        special = view.special
        if any(map(special.__getitem__, source)):
            source = [order for order in source if not special[order]]
    inverse = inverse_axis(axis)
    cand = range(view.size) if inverse in _INVERSES_REACHING_SPECIAL else view.regular
    return axis_orders(view, inverse, source, cand)


# ----------------------------------------------------------------------
# Node adapters: orders in, nodes out through the node table
# ----------------------------------------------------------------------
def _source_orders(nodes: Iterable[Node]) -> list[int]:
    return sorted({node.order for node in nodes})


def _node_set(index: DocumentIndex, orders: Orders) -> set[Node]:
    return set(map(index.nodes.__getitem__, orders))


#: The axes whose node-at-a-time step runs on the kernel: their result is
#: an order interval, where a link walk would visit every node of it.
_INTERVAL_AXES = frozenset(
    {Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF, Axis.FOLLOWING, Axis.PRECEDING}
)


def axis_nodes(node: Node, axis: Axis) -> list[Node]:
    """Nodes reached from ``node`` via the typed axis, in document order."""
    document = node.document
    if document is not None and axis in _INTERVAL_AXES:
        index = document.index
        orders = axis_orders(index, axis, (node.order,), index.regular)
        return list(map(index.nodes.__getitem__, orders))
    if axis is Axis.SELF:
        return [] if node.is_special_child else [node]
    if axis is Axis.ATTRIBUTE:
        return list(node.attributes) if node.node_type is NodeType.ELEMENT else []
    if axis is Axis.NAMESPACE:
        return list(node.namespaces) if node.node_type is NodeType.ELEMENT else []
    if axis is Axis.CHILD:
        return list(node.children)
    if axis is Axis.PARENT:
        return [node.parent] if node.parent is not None else []
    if axis is Axis.ANCESTOR:
        return list(reversed(list(node.iter_ancestors())))
    if axis is Axis.ANCESTOR_OR_SELF:
        result = list(reversed(list(node.iter_ancestors())))
        if not node.is_special_child:
            result.append(node)
        return result
    if axis is Axis.FOLLOWING_SIBLING:
        result = []
        sibling = node.next_sibling
        while sibling is not None:
            if not sibling.is_special_child:
                result.append(sibling)
            sibling = sibling.next_sibling
        return result
    if axis is Axis.PRECEDING_SIBLING:
        result = []
        sibling = node.prev_sibling
        while sibling is not None:
            if not sibling.is_special_child:
                result.append(sibling)
            sibling = sibling.prev_sibling
        return list(reversed(result))
    # The interval axes of a node outside a frozen document (no orders, no
    # index), by structural walks.
    if axis is Axis.DESCENDANT:
        return list(node.iter_descendants())
    if axis is Axis.DESCENDANT_OR_SELF:
        return axis_nodes(node, Axis.SELF) + list(node.iter_descendants())
    if axis is Axis.FOLLOWING:
        return _walk_following(node)
    if axis is Axis.PRECEDING:
        return _walk_preceding(node)
    raise ValueError(f"unknown axis {axis}")  # pragma: no cover


def _walk_following(node: Node) -> list[Node]:
    """following(x) by structural walk: ancestor-or-self . nextsibling⁺ .
    descendant-or-self, typed.  Fallback for nodes outside a frozen document
    (no orders, no index); also the Table-I-shaped oracle reference.py reuses.
    """
    result: list[Node] = []
    anchor: Optional[Node] = node
    while anchor is not None:
        sibling = anchor.next_sibling
        while sibling is not None:
            if not sibling.is_special_child:
                result.append(sibling)
                result.extend(sibling.iter_descendants())
            sibling = sibling.next_sibling
        anchor = anchor.parent
    return sorted(result, key=_ORDER)


def _walk_preceding(node: Node) -> list[Node]:
    """preceding(x) by structural walk: symmetric to :func:`_walk_following`."""
    result: list[Node] = []
    anchor: Optional[Node] = node
    while anchor is not None:
        sibling = anchor.prev_sibling
        while sibling is not None:
            if not sibling.is_special_child:
                result.append(sibling)
                result.extend(sibling.iter_descendants())
            sibling = sibling.prev_sibling
        anchor = anchor.parent
    return sorted(result, key=_ORDER)


def proximity_order(candidates: Sequence[Node], axis: Axis) -> list[Node]:
    """Reorder an already document-ordered sequence by <doc,χ in O(n).

    Forward axes keep document order; reverse axes (parent, ancestor,
    ancestor-or-self, preceding, preceding-sibling) reverse it.  Applying the
    function twice restores document order, which is how the engines convert
    predicate survivors back without re-sorting.
    """
    if is_reverse_axis(axis):
        return list(reversed(candidates))
    return list(candidates)


def proximity_sorted(nodes: Iterable[Node], axis: Axis) -> list[Node]:
    """Sort arbitrary ``nodes`` by the proximity relation <doc,χ of the axis.

    Prefer :func:`proximity_order` when the input is already in document
    order (everything produced by :func:`axis_nodes` / :func:`step_candidates`
    is); this general form exists for unordered inputs.
    """
    return sorted(nodes, key=_ORDER, reverse=is_reverse_axis(axis))


def step_candidates(node: Node, axis: Axis, test: NodeTest) -> list[Node]:
    """Nodes reachable from ``node`` via ``axis`` that satisfy ``test``.

    Returned in document order; use :func:`proximity_order` for positions.
    The interval axes (descendant, descendant-or-self, following, preceding)
    draw their result from the test's posting list instead of filtering
    every candidate.
    """
    document = node.document
    if document is not None and axis in _INTERVAL_AXES:
        index = document.index
        orders = axis_orders(index, axis, (node.order,), candidate_orders(index, test, axis))
        return list(map(index.nodes.__getitem__, orders))
    return [candidate for candidate in axis_nodes(node, axis) if test.matches(candidate, axis)]


def axis_set(document: Document, nodes: Iterable[Node], axis: Axis) -> set[Node]:
    """χ(S) for a whole node set, in time O(|dom|) (Lemma 3.3)."""
    index = document.index
    orders = axis_orders(index, axis, _source_orders(nodes), default_candidates(index, axis))
    return _node_set(index, orders)


def axis_test_set(
    document: Document, nodes: Iterable[Node], axis: Axis, test: NodeTest
) -> set[Node]:
    """χ(S) ∩ T(t): axis application fused with a node test.

    The result is drawn from the test's posting list, so the interval axes
    cost is proportional to the *matching* nodes rather than to every node
    the bare axis reaches.
    """
    index = document.index
    orders = axis_orders(
        index, axis, _source_orders(nodes), candidate_orders(index, test, axis)
    )
    return _node_set(index, orders)


def inverse_axis_set(document: Document, nodes: Iterable[Node], axis: Axis) -> set[Node]:
    """χ⁻¹(S) (see :func:`inverse_axis_orders`).  Used by the backward
    propagation of the Extended Wadler evaluator (§11)."""
    index = document.index
    return _node_set(index, inverse_axis_orders(index, axis, _source_orders(nodes)))
