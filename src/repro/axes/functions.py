"""Typed XPath axes: efficient direct implementations (paper §3–§4).

Two flavours of axis application are provided:

* **node-at-a-time** — :func:`axis_nodes` returns, for a single context node,
  the list of nodes reached via a typed axis, in document order.  The
  engines use it through :func:`step_candidates` (axis + node test), combined
  with :func:`proximity_order` which orders the result by the axis' proximity
  relation <doc,χ (document order for forward axes, reverse document order
  for reverse axes) so that context positions come out right.

* **set-at-a-time** — :func:`axis_set` applies a typed axis to a whole node
  set in time O(|dom|) (and usually far less, see below).  This is the
  workhorse of the Core XPath algebra (Section 10.1), of the Extended Wadler
  backward propagation (Section 11) and of the S↓ location-path evaluation of
  the top-down engine.  :func:`axis_test_set` fuses the axis with a node
  test, intersecting order intervals with the label posting lists.

Both are built on the per-document :class:`~repro.xmlmodel.index.DocumentIndex`
(``document.index``): document order is a preorder, so every subtree is a
contiguous order interval, and ``descendant``, ``following`` and ``preceding``
are bisect-and-slice interval queries over the index's sorted order arrays —
O(log |dom| + output) instead of the full-document scans and walk-and-sort
loops of the pre-index implementation (retained for differential testing in
:mod:`repro.axes.reference`).

Both follow the paper's typing rule (Section 4)::

    attribute(S) := child0(S) ∩ T(attribute())
    namespace(S) := child0(S) ∩ T(namespace())
    χ(S)         := χ0(S) − (T(attribute()) ∪ T(namespace()))   otherwise

Note that, as written in the paper, the last rule removes attribute and
namespace nodes from the result of *every* other axis, including ``self``;
we follow the paper exactly (see DESIGN.md, "Key design decisions").
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Optional, Sequence

from ..xmlmodel.document import Document
from ..xmlmodel.index import DocumentIndex
from ..xmlmodel.nodes import Node, NodeType
from .nodetests import KindTest, NameTest, NodeTest, principal_node_type
from .regex import Axis, inverse_axis, is_reverse_axis

_ORDER = attrgetter("order")


# ----------------------------------------------------------------------
# Node-at-a-time axis application
# ----------------------------------------------------------------------
def axis_nodes(node: Node, axis: Axis) -> list[Node]:
    """Nodes reached from ``node`` via the typed axis, in document order."""
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
    if axis is Axis.DESCENDANT:
        if node.document is None:
            return list(node.iter_descendants())
        return node.document.index.descendants(node)
    if axis is Axis.DESCENDANT_OR_SELF:
        if node.document is None:
            result = [] if node.is_special_child else [node]
            result.extend(node.iter_descendants())
            return result
        return node.document.index.descendants(node, include_self=True)
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
    if axis is Axis.FOLLOWING:
        if node.document is None:
            return _walk_following(node)
        index = node.document.index
        return index.nodes_after(index.subtree_end[node.order])
    if axis is Axis.PRECEDING:
        if node.document is None:
            return _walk_preceding(node)
        return node.document.index.nodes_with_subtree_before(node.order)
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


# ----------------------------------------------------------------------
# Node tests over order intervals (posting-list intersection)
# ----------------------------------------------------------------------
def _test_in_interval(
    index: DocumentIndex, test: NodeTest, axis: Axis, low: int, high: int
) -> Optional[list[Node]]:
    """Nodes in the order interval [low, high] satisfying ``test``.

    Returns ``None`` when the test cannot be answered from a posting list
    (then the caller falls back to per-candidate matching); never returns
    attribute/namespace nodes unless the posting list itself is typed so.
    """
    if isinstance(test, NameTest):
        node_type = principal_node_type(axis)
        if test.name is None:
            return index.typed_in_interval(node_type, low, high)
        return index.labelled_in_interval(node_type, test.name, low, high)
    if isinstance(test, KindTest):
        if test.kind == "node":
            return index.regular_interval(low, high)
        node_type = KindTest._KIND_TO_TYPE[test.kind]
        if test.kind == "processing-instruction" and test.target is not None:
            return index.labelled_in_interval(node_type, test.target, low, high)
        return index.typed_in_interval(node_type, low, high)
    return None


def _without_ancestors(candidates: list[Node], node: Node) -> list[Node]:
    """Drop the (few) ancestors of ``node`` from a doc-ordered candidate list."""
    ancestors = set(node.iter_ancestors())
    if not ancestors:
        return candidates
    return [candidate for candidate in candidates if candidate not in ancestors]


def step_candidates(node: Node, axis: Axis, test: NodeTest) -> list[Node]:
    """Nodes reachable from ``node`` via ``axis`` that satisfy ``test``.

    Returned in document order; use :func:`proximity_order` for positions.
    The interval axes (descendant, descendant-or-self, following, preceding)
    answer name/kind tests by bisecting the label posting lists instead of
    filtering every candidate.
    """
    document = node.document
    if document is not None:
        index = document.index
        if axis is Axis.DESCENDANT or axis is Axis.DESCENDANT_OR_SELF:
            low = node.order if axis is Axis.DESCENDANT_OR_SELF else node.order + 1
            high = index.subtree_end[node.order]
            fast = _test_in_interval(index, test, axis, low, high)
            if fast is not None:
                # Note: a special (attribute/namespace) self can never appear
                # here — posting lists for these tests are element/text/…
                # typed and regular_interval excludes special nodes.
                return fast
        elif axis is Axis.FOLLOWING:
            low = index.subtree_end[node.order] + 1
            fast = _test_in_interval(index, test, axis, low, len(index.nodes) - 1)
            if fast is not None:
                return fast
        elif axis is Axis.PRECEDING:
            fast = _test_in_interval(index, test, axis, 0, node.order - 1)
            if fast is not None:
                return _without_ancestors(fast, node)
    return [candidate for candidate in axis_nodes(node, axis) if test.matches(candidate, axis)]


# ----------------------------------------------------------------------
# Set-at-a-time axis application (O(|dom|), interval queries where possible)
# ----------------------------------------------------------------------
def axis_set(document: Document, nodes: Iterable[Node], axis: Axis) -> set[Node]:
    """χ(S) for a whole node set, in time O(|dom|).

    The implementation mirrors Definition 3.1 (χ(X₀) = {x | ∃x₀ ∈ X₀ : x₀χx})
    with the typing rule of Section 4 applied; descendant, following and
    preceding are interval queries over the document index rather than
    per-source tree walks.
    """
    source = nodes if isinstance(nodes, (set, frozenset)) else set(nodes)
    if not source:
        return set()
    if axis is Axis.SELF:
        return {node for node in source if not node.is_special_child}
    if axis is Axis.ATTRIBUTE:
        result: set[Node] = set()
        for node in source:
            result.update(node.attributes)
        return result
    if axis is Axis.NAMESPACE:
        result = set()
        for node in source:
            result.update(node.namespaces)
        return result
    if axis is Axis.CHILD:
        result = set()
        for node in source:
            result.update(node.children)
        return result
    if axis is Axis.PARENT:
        return {
            node.parent
            for node in source
            if node.parent is not None and not node.parent.is_special_child
        }
    if axis is Axis.DESCENDANT or axis is Axis.DESCENDANT_OR_SELF:
        include_self = axis is Axis.DESCENDANT_OR_SELF
        return set(document.index.descendant_nodes(source, include_self))
    if axis is Axis.ANCESTOR or axis is Axis.ANCESTOR_OR_SELF:
        return _ancestor_set(source, include_self=axis is Axis.ANCESTOR_OR_SELF)
    if axis is Axis.FOLLOWING_SIBLING:
        result = set()
        for node in source:
            sibling = node.next_sibling
            while sibling is not None:
                if not sibling.is_special_child:
                    result.add(sibling)
                sibling = sibling.next_sibling
        return result
    if axis is Axis.PRECEDING_SIBLING:
        result = set()
        for node in source:
            sibling = node.prev_sibling
            while sibling is not None:
                if not sibling.is_special_child:
                    result.add(sibling)
                sibling = sibling.prev_sibling
        return result
    if axis is Axis.FOLLOWING:
        index = document.index
        threshold = min(index.subtree_end[node.order] for node in source)
        return set(index.nodes_after(threshold))
    if axis is Axis.PRECEDING:
        index = document.index
        threshold = max(node.order for node in source)
        return set(index.nodes_with_subtree_before(threshold))
    raise ValueError(f"unknown axis {axis}")  # pragma: no cover


def axis_test_set(
    document: Document, nodes: Iterable[Node], axis: Axis, test: NodeTest
) -> set[Node]:
    """χ(S) ∩ T(t): axis application fused with a node test.

    For the interval axes the node test is answered by posting-list bisects
    over the merged subtree intervals, so the cost is proportional to the
    *matching* nodes rather than to every node the bare axis reaches.
    """
    source = nodes if isinstance(nodes, (set, frozenset)) else set(nodes)
    if not source:
        return set()
    if axis is Axis.DESCENDANT or axis is Axis.DESCENDANT_OR_SELF:
        index = document.index
        include_self = axis is Axis.DESCENDANT_OR_SELF
        result: set[Node] = set()
        fused_failed = False
        for low, high in index.merged_subtree_intervals(source, include_self):
            fast = _test_in_interval(index, test, axis, low, high)
            if fast is None:
                fused_failed = True
                break
            result.update(fast)
        if not fused_failed:
            return result
    elif axis is Axis.FOLLOWING:
        index = document.index
        threshold = min(index.subtree_end[node.order] for node in source)
        fast = _test_in_interval(index, test, axis, threshold + 1, len(index.nodes) - 1)
        if fast is not None:
            return set(fast)
    elif axis is Axis.PRECEDING:
        index = document.index
        threshold = max(node.order for node in source)
        fast = _test_in_interval(index, test, axis, 0, threshold - 1)
        if fast is not None:
            return set(_without_ancestors(fast, index.nodes[threshold]))
    return {node for node in axis_set(document, source, axis) if test.matches(node, axis)}


def _ancestor_set(source: Iterable[Node], include_self: bool) -> set[Node]:
    """All ancestors (or self) of nodes in ``source``; amortised O(|dom|)."""
    result: set[Node] = set()
    for start in source:
        if include_self and not start.is_special_child:
            result.add(start)
        node = start.parent
        while node is not None and node not in result:
            result.add(node)
            node = node.parent
    return result


def inverse_axis_set(document: Document, nodes: Iterable[Node], axis: Axis) -> set[Node]:
    """χ⁻¹(S): apply the natural inverse of ``axis`` to the node set.

    By Lemma 10.1, x χ y iff y χ⁻¹ x, so this is simply :func:`axis_set` on
    the inverse axis.  Used by the Core XPath algebra (S←) and by the
    backward propagation of the Extended Wadler evaluator (§11).
    """
    return axis_set(document, nodes, inverse_axis(axis))
