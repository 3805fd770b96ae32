"""Reference (pre-index) typed axis implementations, retained for testing.

These are the original structural-walk implementations of the typed axes that
:mod:`repro.axes.functions` used before the document-order index layer was
introduced.  They follow the paper's definitions directly — pointer chasing
over ``parent`` / ``next_sibling`` / ``iter_descendants`` plus an explicit
``sorted`` — and are deliberately *not* optimised: the property-based
differential tests (``tests/test_axes_indexed.py``) assert that the indexed
implementations return node-for-node identical results across all thirteen
axes, so any future change to the index layer is checked against this module.

Do not use these functions from engine code; they are O(|dom|) or worse per
call by design.  (The following/preceding anchor walks themselves live in
:mod:`repro.axes.functions` as ``_walk_following`` / ``_walk_preceding``,
where they double as the fallback for nodes outside a frozen document; the
oracle value of this module is the per-call scans and sorts around them.)
"""

from __future__ import annotations

from typing import Iterable

from ..xmlmodel.document import Document
from ..xmlmodel.nodes import Node, NodeType
from .functions import _walk_following, _walk_preceding
from .regex import Axis


def _subtree_ends(document: Document) -> dict[Node, int]:
    """Per-call post-order accumulation of subtree extents."""
    ends: dict[Node, int] = {}
    for node in reversed(document.dom):
        end = node.order
        for child in node.child0_sequence():
            child_end = ends.get(child, child.order)
            if child_end > end:
                end = child_end
        ends[node] = end
    return ends


def reference_axis_nodes(node: Node, axis: Axis) -> list[Node]:
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
        return list(node.iter_descendants())
    if axis is Axis.DESCENDANT_OR_SELF:
        result = [] if node.is_special_child else [node]
        result.extend(node.iter_descendants())
        return result
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
        return _walk_following(node)
    if axis is Axis.PRECEDING:
        return _walk_preceding(node)
    raise ValueError(f"unknown axis {axis}")  # pragma: no cover


def reference_axis_set(document: Document, nodes: Iterable[Node], axis: Axis) -> set[Node]:
    """χ(S) for a whole node set (Definition 3.1 with the Section 4 typing)."""
    source = set(nodes)
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
        result = set()
        for start in source:
            if include_self and not start.is_special_child:
                result.add(start)
            result.update(start.iter_descendants())
        return result
    if axis is Axis.ANCESTOR or axis is Axis.ANCESTOR_OR_SELF:
        include_self = axis is Axis.ANCESTOR_OR_SELF
        result = set()
        for start in source:
            if include_self and not start.is_special_child:
                result.add(start)
            node = start.parent
            while node is not None and node not in result:
                result.add(node)
                node = node.parent
        return result
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
        ends = _subtree_ends(document)
        threshold = min(ends[node] for node in source)
        return {
            node
            for node in document.dom
            if not node.is_special_child and node.order > threshold
        }
    if axis is Axis.PRECEDING:
        ends = _subtree_ends(document)
        threshold = max(node.order for node in source)
        return {
            node
            for node in document.dom
            if not node.is_special_child and ends[node] < threshold
        }
    raise ValueError(f"unknown axis {axis}")  # pragma: no cover
