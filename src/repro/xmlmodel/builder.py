"""Programmatic construction of document trees.

The :class:`TreeBuilder` offers a small push-style API (``start``, ``end``,
``text``, ``comment`` …) used both by the XML parser and by test code and
workload generators that assemble documents without going through XML text.

Example
-------
>>> builder = TreeBuilder()
>>> builder.start("a", {"id": "1"})
>>> builder.text("hello")
>>> builder.end("a")
>>> doc = builder.finish()
>>> doc.document_element.name
'a'
"""

from __future__ import annotations

from itertools import groupby
from typing import Mapping, Optional, Sequence

from ..errors import XMLSyntaxError
from .document import Document
from .nodes import Node, NodeType


class TreeBuilder:
    """Incrementally build a :class:`~repro.xmlmodel.document.Document`.

    The builder validates element nesting: mismatched or missing end tags
    raise :class:`~repro.errors.XMLSyntaxError`, mirroring the behaviour of
    the XML parser which drives the same interface.
    """

    def __init__(self, id_attribute: str = "id"):
        self._root = Node(NodeType.ROOT)
        self._stack: list[Node] = [self._root]
        self._finished = False
        self._id_attribute = id_attribute
        #: The last text node built, and its runs while more than one merge
        #: into it; :meth:`_join_runs` joins them once, when another text
        #: node starts, an element closes or the document is finished.
        self._text: Optional[Node] = None
        self._runs: Optional[list[str]] = None

    # ------------------------------------------------------------------
    # Event API
    # ------------------------------------------------------------------
    def start(self, name: str, attributes: Optional[Mapping[str, str]] = None) -> Node:
        """Open an element with the given tag name and attributes."""
        self._check_open()
        element = Node(NodeType.ELEMENT, name=name)
        for attr_name, attr_value in (attributes or {}).items():
            element.append_attribute(Node(NodeType.ATTRIBUTE, name=attr_name, value=attr_value))
        self._stack[-1].append_child(element)
        self._stack.append(element)
        return element

    def end(self, name: Optional[str] = None) -> Node:
        """Close the current element; ``name`` is checked when given."""
        self._check_open()
        if len(self._stack) == 1:
            raise XMLSyntaxError("end tag without a matching start tag")
        element = self._stack.pop()
        if name is not None and element.name != name:
            raise XMLSyntaxError(
                f"mismatched end tag: expected </{element.name}>, got </{name}>"
            )
        if self._runs is not None:
            self._join_runs()
        return element

    def element(
        self,
        name: str,
        attributes: Optional[Mapping[str, str]] = None,
        text: Optional[str] = None,
    ) -> Node:
        """Convenience: an element with optional text content, immediately closed."""
        node = self.start(name, attributes)
        if text is not None:
            self.text(text)
        self.end(name)
        return node

    def text(self, data: str) -> Optional[Node]:
        """Append a text node with the given character data.

        Empty strings are ignored (they would not correspond to a text node
        in any XML serialisation).  Adjacent text nodes are merged, as
        required by the data model.  The runs of a merged node are joined
        once, at the latest when its element closes, so until then the
        returned node's ``value`` may hold its first run only.
        """
        self._check_open()
        if data == "":
            return None
        parent = self._stack[-1]
        node = self._text
        if node is not None and node.parent is parent and parent._children[-1] is node:
            if self._runs is None:
                self._runs = [node.value]
            self._runs.append(data)
            return node
        self._join_runs()
        node = self._text = Node(NodeType.TEXT, value=data)
        parent.append_child(node)
        return node

    def _join_runs(self) -> None:
        if self._runs is not None:
            self._text.value = "".join(self._runs)
            self._runs = None

    def comment(self, data: str) -> Node:
        """Append a comment node."""
        self._check_open()
        node = Node(NodeType.COMMENT, value=data)
        self._stack[-1].append_child(node)
        return node

    def processing_instruction(self, target: str, data: str = "") -> Node:
        """Append a processing-instruction node."""
        self._check_open()
        node = Node(NodeType.PROCESSING_INSTRUCTION, name=target, value=data)
        self._stack[-1].append_child(node)
        return node

    def namespace(self, prefix: str, uri: str) -> Node:
        """Attach a namespace node to the currently open element."""
        self._check_open()
        current = self._stack[-1]
        if current.node_type is not NodeType.ELEMENT:
            raise XMLSyntaxError("namespace declarations must appear on an element")
        node = Node(NodeType.NAMESPACE, name=prefix, value=uri)
        current.append_namespace(node)
        return node

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finish(self) -> Document:
        """Validate the tree, freeze it and return the document."""
        self._check_open()
        self._join_runs()
        if len(self._stack) != 1:
            open_tags = ", ".join(node.name or "?" for node in self._stack[1:])
            raise XMLSyntaxError(f"unclosed element(s): {open_tags}")
        element_children = [
            child for child in self._root.children if child.node_type is NodeType.ELEMENT
        ]
        if len(element_children) != 1:
            raise XMLSyntaxError(
                f"a document must have exactly one document element, found "
                f"{len(element_children)}"
            )
        self._finished = True
        return Document(self._root, id_attribute=self._id_attribute).freeze()

    def _check_open(self) -> None:
        if self._finished:
            raise RuntimeError("TreeBuilder has already produced its document")


def build_document(
    tag: str,
    attributes: Optional[Mapping[str, str]] = None,
    children: Sequence[object] = (),
    id_attribute: str = "id",
) -> Document:
    """Build a document from a lightweight nested-tuple description.

    ``children`` items may be strings (text nodes) or ``(tag, attributes,
    children)`` tuples; shorter tuples ``(tag,)`` and ``(tag, attributes)``
    are accepted.  This is convenient for tests and property-based document
    generators.
    """
    builder = TreeBuilder(id_attribute=id_attribute)

    def emit(name: str, attrs: Optional[Mapping[str, str]], kids: Sequence[object]) -> None:
        builder.start(name, attrs)
        for kid in kids:
            if isinstance(kid, str):
                builder.text(kid)
            else:
                kid_tag = kid[0]
                kid_attrs = kid[1] if len(kid) > 1 else None
                kid_children = kid[2] if len(kid) > 2 else ()
                emit(kid_tag, kid_attrs, kid_children)
        builder.end(name)

    emit(tag, attributes, children)
    return builder.finish()


def build_fragment(
    tag: str,
    attributes: Optional[Mapping[str, str]] = None,
    children: Sequence[object] = (),
) -> Node:
    """Build a detached element subtree from the same nested-tuple shape
    :func:`build_document` takes.

    The result has no document, parent or orders — exactly what
    :meth:`~repro.xmlmodel.document.Document.insert_child` expects.
    Adjacent string children are merged into one text node, mirroring the
    parser's behaviour.
    """
    element = Node(NodeType.ELEMENT, name=tag)
    for attr_name, attr_value in (attributes or {}).items():
        element.append_attribute(
            Node(NodeType.ATTRIBUTE, name=attr_name, value=attr_value)
        )
    for is_text, kids in groupby(children, key=lambda kid: isinstance(kid, str)):
        if is_text:
            text = "".join(kids)
            if text:
                element.append_child(Node(NodeType.TEXT, value=text))
            continue
        for kid in kids:
            kid_tag = kid[0]
            kid_attrs = kid[1] if len(kid) > 1 else None
            kid_children = kid[2] if len(kid) > 2 else ()
            element.append_child(build_fragment(kid_tag, kid_attrs, kid_children))
    return element
