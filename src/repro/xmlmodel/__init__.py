"""XML substrate: data model, parser, builder and serialiser (paper §3–§4).

This subpackage is self-contained (no dependency on the XPath layers) and
provides everything the paper assumes about XML documents:

* the seven node types and the tree structure with the primitive
  ``firstchild`` / ``nextsibling`` relations (:mod:`.nodes`);
* the document container with document order, node-test indexes and the ID
  machinery (:mod:`.document`, :mod:`.ids`);
* a from-scratch XML tokenizer/parser and a serialiser
  (:mod:`.lexer`, :mod:`.parser`, :mod:`.serializer`);
* a push-style tree builder for programmatic construction (:mod:`.builder`).
"""

from .builder import TreeBuilder, build_document, build_fragment
from .document import Document, MutationStats
from .ids import deref_ids
from .index import DocumentIndex
from .lexer import XMLLexer, XMLToken, XMLTokenType
from .nodes import Node, NodeType
from .parser import parse_xml
from .serializer import serialize, serialize_node

__all__ = [
    "Document",
    "DocumentIndex",
    "MutationStats",
    "Node",
    "NodeType",
    "TreeBuilder",
    "XMLLexer",
    "XMLToken",
    "XMLTokenType",
    "build_document",
    "build_fragment",
    "deref_ids",
    "parse_xml",
    "serialize",
    "serialize_node",
]
