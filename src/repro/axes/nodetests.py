"""Node tests and the function T mapping node tests to node sets (paper §4).

A node test is either

* a *kind test* — ``node()``, ``text()``, ``comment()``,
  ``processing-instruction()`` or ``processing-instruction('target')``; or
* a *name test* — a name or the wildcard ``*``, which is shorthand for
  τ(name) where τ is the principal node type of the axis it appears under
  (element for most axes, attribute for the attribute axis, namespace for the
  namespace axis).

Both forms are represented by :class:`NodeTest` instances that know how to
check a single node (``matches``) and how to enumerate T(t) over a whole
document (``select``).

T itself is computed over posting lists, once for every engine:
:func:`select_orders` is T(t) as a sorted order array, and
:func:`candidate_orders` is the posting list a fused axis step
χ(S) ∩ T(t) draws from.  Both read the columns of a
:class:`~repro.xmlmodel.index.DocumentIndex` (or of its mmap twin in the
store); ``select`` maps their orders through the document's node table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..xmlmodel.document import Document
from ..xmlmodel.index import DocumentIndex
from ..xmlmodel.nodes import Node, NodeType
from .regex import PRINCIPAL_NODE_TYPE, Axis

Orders = Sequence[int]

_PRINCIPAL_TYPE_MAP = {
    "element": NodeType.ELEMENT,
    "attribute": NodeType.ATTRIBUTE,
    "namespace": NodeType.NAMESPACE,
}


def principal_node_type(axis: Axis) -> NodeType:
    """The principal node type of an axis (element/attribute/namespace)."""
    return _PRINCIPAL_TYPE_MAP[PRINCIPAL_NODE_TYPE[axis]]


class NodeTest:
    """Abstract base of all node tests."""

    def matches(self, node: Node, axis: Axis) -> bool:
        """Does ``node`` satisfy this test when reached via ``axis``?"""
        raise NotImplementedError

    def select(self, document: Document, axis: Axis) -> set[Node]:
        """T(t) relative to the principal node type of ``axis``."""
        index = document.index
        return set(map(index.nodes.__getitem__, select_orders(index, self, axis)))

    def is_wildcard(self) -> bool:
        """True for ``*`` and ``node()`` (no name restriction)."""
        return False

    def to_xpath(self) -> str:
        """Render the node test back to XPath syntax."""
        raise NotImplementedError


@dataclass(frozen=True)
class NameTest(NodeTest):
    """A name test: ``n`` or ``*`` (principal node type of the axis)."""

    name: Optional[str]  # None encodes the wildcard "*"

    def matches(self, node: Node, axis: Axis) -> bool:
        if node.node_type is not principal_node_type(axis):
            return False
        return self.name is None or node.name == self.name

    def is_wildcard(self) -> bool:
        return self.name is None

    def to_xpath(self) -> str:
        return "*" if self.name is None else self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NameTest({self.to_xpath()!r})"


@dataclass(frozen=True)
class KindTest(NodeTest):
    """A kind test: node(), text(), comment(), processing-instruction([t])."""

    kind: str  # "node", "text", "comment", "processing-instruction"
    target: Optional[str] = None  # only for processing-instruction('target')

    _KIND_TO_TYPE = {
        "text": NodeType.TEXT,
        "comment": NodeType.COMMENT,
        "processing-instruction": NodeType.PROCESSING_INSTRUCTION,
    }

    def matches(self, node: Node, axis: Axis) -> bool:
        if self.kind == "node":
            return True
        expected = self._KIND_TO_TYPE[self.kind]
        if node.node_type is not expected:
            return False
        if self.kind == "processing-instruction" and self.target is not None:
            return node.name == self.target
        return True

    def is_wildcard(self) -> bool:
        return self.kind == "node"

    def to_xpath(self) -> str:
        if self.kind == "processing-instruction" and self.target is not None:
            return f"processing-instruction('{self.target}')"
        return f"{self.kind}()"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KindTest({self.to_xpath()})"


#: Convenience singletons used throughout the engines and the normaliser.
ANY_NODE = KindTest("node")
ANY_NAME = NameTest(None)
TEXT_TEST = KindTest("text")
COMMENT_TEST = KindTest("comment")


def node_test_function(document: Document, test: NodeTest, axis: Axis) -> set[Node]:
    """The paper's function T, relative to an axis' principal node type."""
    return test.select(document, axis)


# ----------------------------------------------------------------------
# T over posting lists
# ----------------------------------------------------------------------
def default_candidates(view: DocumentIndex, axis: Axis) -> Orders:
    """The candidates of a bare ``axis`` step, i.e. under ``node()``.

    The Section 4 typing rule: every navigational axis removes attribute
    and namespace nodes, so its candidates are the *regular* orders; the
    attribute and namespace axes draw from those special nodes themselves.
    """
    if axis is Axis.ATTRIBUTE or axis is Axis.NAMESPACE:
        return view.type_orders(principal_node_type(axis))
    return view.regular


def candidate_orders(view: DocumentIndex, test: NodeTest, axis: Axis) -> Orders:
    """Fused-step candidates: the posting list χ(S) ∩ T(t) is drawn from."""
    if isinstance(test, NameTest):
        node_type = principal_node_type(axis)
        if test.name is None:
            return view.type_orders(node_type)
        return view.label_orders(node_type, test.name)
    assert isinstance(test, KindTest)
    if test.kind == "node":
        return default_candidates(view, axis)
    expected = KindTest._KIND_TO_TYPE[test.kind]
    if test.kind == "processing-instruction" and test.target is not None:
        return view.label_orders(expected, test.target)
    return view.type_orders(expected)


def select_orders(view: DocumentIndex, test: NodeTest, axis: Axis) -> Orders:
    """Standalone T(t) as sorted orders: ``node()`` is all of dom."""
    if isinstance(test, KindTest) and test.kind == "node":
        return range(view.size)
    return candidate_orders(view, test, axis)
