"""XPath data model: node types and the document tree (paper Section 4).

The paper views an XML document as an unranked, ordered, labeled tree whose
nodes are of one of seven types: root, element, text, comment, attribute,
namespace and processing instruction.  Navigation is defined in terms of two
primitive partial functions::

    firstchild, nextsibling : dom -> dom

and their inverses (paper Section 3, Table I).  This module provides the node
classes and those primitives.

Design notes
------------
* Attribute and namespace nodes are, as in the paper, reachable through the
  *untyped* child relation ("child0"); the typed XPath axes filter them out
  (see :mod:`repro.axes.functions`).  Their document order follows the XPath
  recommendation: namespace nodes precede attribute nodes precede the
  element's content.
* Every node carries a ``order`` integer (its position in document order), a
  parent pointer, and ``first_child`` / ``next_sibling`` links over the full
  child0 sequence.  The :class:`~repro.xmlmodel.document.Document` assigns
  orders when the tree is frozen.
* String values follow the XPath recommendation: the string value of an
  element or the root is the concatenation of the string values of its text
  node descendants in document order.
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional


class NodeType(enum.Enum):
    """The seven node types of the XPath 1.0 data model."""

    ROOT = "root"
    ELEMENT = "element"
    TEXT = "text"
    COMMENT = "comment"
    ATTRIBUTE = "attribute"
    NAMESPACE = "namespace"
    PROCESSING_INSTRUCTION = "processing-instruction"

    # Members are singletons compared by identity, so the identity hash
    # (in C) replaces Enum's, which hashes the name in Python on every
    # posting-list lookup.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeType.{self.name}"


#: Node types that carry a name (paper Section 4: all types besides text and
#: comment have a name associated with them; the root is unnamed as well).
NAMED_TYPES = frozenset(
    {
        NodeType.ELEMENT,
        NodeType.ATTRIBUTE,
        NodeType.NAMESPACE,
        NodeType.PROCESSING_INSTRUCTION,
    }
)

#: Node types excluded from the results of ordinary (non attribute/namespace)
#: axes, cf. paper Section 4.
SPECIAL_CHILD_TYPES = frozenset({NodeType.ATTRIBUTE, NodeType.NAMESPACE})


class Node:
    """A single node of an XML document tree.

    Instances are created through :class:`repro.xmlmodel.builder.TreeBuilder`
    or the XML parser; client code normally treats them as read-only once the
    owning document has been frozen.

    Attributes
    ----------
    node_type:
        One of :class:`NodeType`.
    name:
        The node name (tag name, attribute name, PI target, namespace
        prefix) or ``None`` for unnamed node types.
    value:
        The textual content for text, comment, attribute, namespace and
        processing-instruction nodes; ``None`` for element and root nodes.
    parent:
        The parent node, or ``None`` for the root.
    order:
        Document-order index (0 for the root), assigned when the document is
        frozen.  Comparable across nodes of the same document.
    """

    __slots__ = (
        "node_type",
        "name",
        "value",
        "parent",
        "order",
        "_children",
        "_attributes",
        "_namespaces",
        "first_child",
        "next_sibling",
        "prev_sibling",
        "document",
        "_string_value",
    )

    def __init__(
        self,
        node_type: NodeType,
        name: Optional[str] = None,
        value: Optional[str] = None,
    ):
        if name is not None and node_type not in NAMED_TYPES:
            raise ValueError(f"{node_type.value} nodes cannot carry a name")
        self.node_type = node_type
        self.name = name
        self.value = value
        self.parent: Optional[Node] = None
        self.order: int = -1
        self._children: list[Node] = []
        self._attributes: list[Node] = []
        self._namespaces: list[Node] = []
        self.first_child: Optional[Node] = None
        self.next_sibling: Optional[Node] = None
        self.prev_sibling: Optional[Node] = None
        self.document = None  # set by Document.freeze()
        self._string_value: Optional[str] = None

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def children(self) -> tuple["Node", ...]:
        """Regular children: element, text, comment and PI nodes."""
        return tuple(self._children)

    @property
    def attributes(self) -> tuple["Node", ...]:
        """Attribute nodes of this element, in the order they were declared."""
        return tuple(self._attributes)

    @property
    def namespaces(self) -> tuple["Node", ...]:
        """Namespace nodes of this element."""
        return tuple(self._namespaces)

    def child0_sequence(self) -> tuple["Node", ...]:
        """The untyped child sequence of the paper ("child0").

        Namespace nodes come first, then attribute nodes, then the regular
        children; this matches XPath document order.
        """
        return tuple(self._namespaces) + tuple(self._attributes) + tuple(self._children)

    def last_child0(self) -> Optional["Node"]:
        """The last node of the child0 sequence (the one whose subtree ends
        last in document order), or ``None`` for a leaf."""
        if self._children:
            return self._children[-1]
        if self._attributes:
            return self._attributes[-1]
        if self._namespaces:
            return self._namespaces[-1]
        return None

    def attribute(self, name: str) -> Optional["Node"]:
        """Return the attribute node with the given name, or ``None``."""
        for attr in self._attributes:
            if attr.name == name:
                return attr
        return None

    def attribute_value(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the string value of the named attribute, or ``default``."""
        attr = self.attribute(name)
        if attr is None:
            return default
        return attr.value or ""

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    @property
    def is_root(self) -> bool:
        return self.node_type is NodeType.ROOT

    @property
    def is_element(self) -> bool:
        return self.node_type is NodeType.ELEMENT

    @property
    def is_text(self) -> bool:
        return self.node_type is NodeType.TEXT

    @property
    def is_attribute(self) -> bool:
        return self.node_type is NodeType.ATTRIBUTE

    @property
    def is_special_child(self) -> bool:
        """True for attribute and namespace nodes (excluded from most axes)."""
        return self.node_type in SPECIAL_CHILD_TYPES

    # ------------------------------------------------------------------
    # Tree mutation (used by the builder/parser before freezing)
    # ------------------------------------------------------------------
    def append_child(self, child: "Node") -> "Node":
        """Append ``child`` to this node's regular children and return it."""
        if child.node_type in SPECIAL_CHILD_TYPES:
            raise ValueError(
                "attribute/namespace nodes must be added with append_attribute/"
                "append_namespace"
            )
        if self.node_type not in (NodeType.ROOT, NodeType.ELEMENT):
            raise ValueError(f"{self.node_type.value} nodes cannot have children")
        child.parent = self
        self._children.append(child)
        return child

    def append_attribute(self, attr: "Node") -> "Node":
        """Attach an attribute node to this element and return it.

        The name is not checked against the element's other attributes, so
        k attributes cost O(k): the builder attaches a mapping's keys and
        :meth:`detached_copy` an element's own attributes, both unique (the
        reader refuses duplicates in XML text).
        """
        if attr.node_type is not NodeType.ATTRIBUTE:
            raise ValueError("append_attribute expects an attribute node")
        if self.node_type is not NodeType.ELEMENT:
            raise ValueError("only element nodes carry attributes")
        attr.parent = self
        self._attributes.append(attr)
        return attr

    def append_namespace(self, ns: "Node") -> "Node":
        """Attach a namespace node to this element and return it."""
        if ns.node_type is not NodeType.NAMESPACE:
            raise ValueError("append_namespace expects a namespace node")
        if self.node_type is not NodeType.ELEMENT:
            raise ValueError("only element nodes carry namespace nodes")
        ns.parent = self
        self._namespaces.append(ns)
        return ns

    # ------------------------------------------------------------------
    # Traversal helpers
    # ------------------------------------------------------------------
    def iter_descendants(self, include_special: bool = False) -> Iterator["Node"]:
        """Yield descendants (excluding self) in document order.

        With ``include_special`` the attribute and namespace nodes of each
        visited element are included as well (the "descendant0" closure of
        the paper's primitive relations).
        """
        stack: list[Node]
        if include_special:
            stack = list(reversed(self.child0_sequence()))
        else:
            stack = list(reversed(self._children))
        while stack:
            node = stack.pop()
            yield node
            if include_special:
                stack.extend(reversed(node.child0_sequence()))
            else:
                stack.extend(reversed(node._children))

    def iter_self_and_descendants(self, include_special: bool = False) -> Iterator["Node"]:
        """Yield this node followed by its descendants in document order."""
        yield self
        yield from self.iter_descendants(include_special=include_special)

    def iter_ancestors(self) -> Iterator["Node"]:
        """Yield the ancestors of this node, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    # ------------------------------------------------------------------
    # Mutation support (used by Document's edit API)
    # ------------------------------------------------------------------
    def detached_copy(self) -> "Node":
        """A deep copy of this subtree, detached from any document.

        The copy carries the same types, names, values, attributes and
        namespaces but no parent, no orders and no document — suitable for
        :meth:`~repro.xmlmodel.document.Document.insert_child` into any
        (possibly different) document.
        """
        copy = Node(self.node_type, self.name, self.value)
        for ns in self._namespaces:
            copy.append_namespace(ns.detached_copy())
        for attr in self._attributes:
            copy.append_attribute(attr.detached_copy())
        for child in self._children:
            copy.append_child(child.detached_copy())
        return copy

    # ------------------------------------------------------------------
    # String value (paper Section 4, `strval`)
    # ------------------------------------------------------------------
    def string_value(self) -> str:
        """The XPath string value of this node.

        * element / root: concatenation of descendant text nodes in document
          order;
        * text, comment, attribute, namespace, PI: the node's own value.

        The value is cached after the first computation.  The document's
        edit API drops it again for every node whose value an edit changes:
        a text change inside a subtree changes the ``strval`` of the text
        node, of every ancestor element and of the root, and of nothing
        else.  So every cached element value stays exact, and the walk over
        an element's subtree takes a descendant element's cached value
        instead of descending into it: after an edit the root and the
        document element are rebuilt from their untouched children's cached
        values.  Only this node's value is stored.
        """
        if self._string_value is not None:
            return self._string_value
        if self.node_type in (NodeType.ELEMENT, NodeType.ROOT):
            parts: list[str] = []
            stack = self._children[::-1]
            while stack:
                node = stack.pop()
                if node.node_type is NodeType.TEXT:
                    parts.append(node.value or "")
                elif node.node_type is NodeType.ELEMENT:
                    cached = node._string_value
                    if cached is not None:
                        parts.append(cached)
                    else:
                        stack.extend(node._children[::-1])
            result = "".join(parts)
        else:
            result = self.value or ""
        self._string_value = result
        return result

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name if self.name is not None else ""
        if self.node_type is NodeType.TEXT:
            label = (self.value or "")[:20]
        return f"<{self.node_type.value} {label!r} order={self.order}>"

    def __lt__(self, other: "Node") -> bool:
        """Document-order comparison (valid within a single document)."""
        if not isinstance(other, Node):
            return NotImplemented
        return self.order < other.order
