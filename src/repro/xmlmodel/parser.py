"""XML parser: one checked event stream, and the tree built from it.

:func:`document_events` is the one reader of XML text.  It drives the
:class:`~repro.xmlmodel.lexer.XMLLexer` and enforces every document-level
well-formedness rule that matters for the XPath data model: the XML
declaration only as the first token and at most one DOCTYPE, before the
document element (the prolog of XML 1.0 §2.8), no character data outside
the document element, a single document element, matching end tags, unique
attributes and no unclosed element at the end.  It skips the DOCTYPE (the
lexer has already registered its internal-subset entities) and, on
request, whitespace-only text between elements.

Both consumers read that stream: :func:`parse_xml` builds a frozen
:class:`~repro.xmlmodel.document.Document` through a
:class:`~repro.xmlmodel.builder.TreeBuilder`, and the streaming scan
(:mod:`repro.streaming`) runs its automaton over it, so the two agree on
every node order and every error by construction.  Whitespace-only text
between elements is preserved by default — XPath's ``text()`` node test sees
it — but can be stripped for the synthetic evaluation documents.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import XMLSyntaxError
from .builder import TreeBuilder
from .document import Document
from .lexer import XMLLexer, XMLToken, XMLTokenType

#: Kinds of the events :func:`document_events` yields; each is the first item
#: of its event tuple.
START, END, TEXT, COMMENT, PI = range(5)

_END_EVENT = (END,)


def document_events(text: str, *, strip_whitespace: bool = False) -> Iterator[tuple]:
    """Yield the checked events of the XML document ``text``, in order.

    The events are tuples:

    * ``(START, name, attributes, namespaces)`` for a start or empty-element
      tag: ``attributes`` maps each ordinary attribute's name to its value,
      ``namespaces`` lists the ``xmlns`` declarations as ``(prefix, uri)``
      pairs, both in document order;
    * ``(END,)`` when an element closes, also right after an empty-element
      tag's ``START``;
    * ``(TEXT, data)`` for each non-empty text run or CDATA section, so
      adjacent events of one text node are the consumer's to merge;
    * ``(COMMENT, data)`` and ``(PI, target, data)``.

    An :class:`~repro.errors.XMLSyntaxError` carrying the offending token's
    line and column is raised at the token that breaks a rule, the end of
    input included; lexical errors come from the lexer with their positions.
    """
    open_names: list[str] = []
    saw_document_element = saw_doctype = False
    for token in XMLLexer(text).tokens():
        kind = token.kind
        if kind is XMLTokenType.TEXT or kind is XMLTokenType.CDATA:
            data = token.data
            if not open_names:
                if kind is XMLTokenType.CDATA or data.strip():
                    raise _error("character data outside the document element", token)
            elif data and not (
                strip_whitespace and kind is XMLTokenType.TEXT and data.isspace()
            ):
                yield TEXT, data
        elif kind is XMLTokenType.START_TAG or kind is XMLTokenType.EMPTY_TAG:
            if saw_document_element and not open_names:
                raise _error("multiple document elements", token)
            saw_document_element = True
            attributes: dict[str, str] = {}
            namespaces: list[tuple[str, str]] = []
            for name, value in token.attributes:
                if name == "xmlns":
                    namespaces.append(("", value))
                elif name.startswith("xmlns:"):
                    namespaces.append((name[6:], value))
                elif name in attributes:
                    raise _error(f"duplicate attribute {name!r} on <{token.name}>", token)
                else:
                    attributes[name] = value
            yield START, token.name, attributes, namespaces
            if kind is XMLTokenType.START_TAG:
                open_names.append(token.name)
            else:
                yield _END_EVENT
        elif kind is XMLTokenType.END_TAG:
            if not open_names:
                raise _error(f"unexpected end tag </{token.name}>", token)
            expected = open_names.pop()
            if token.name != expected:
                raise _error(
                    f"mismatched end tag: expected </{expected}>, got </{token.name}>",
                    token,
                )
            yield _END_EVENT
        elif kind is XMLTokenType.COMMENT:
            yield COMMENT, token.data
        elif kind is XMLTokenType.PROCESSING_INSTRUCTION:
            yield PI, token.name, token.data
        elif kind is XMLTokenType.DECLARATION:
            # The first token, and only it, starts at line 1, column 1.
            if token.line != 1 or token.column != 1:
                raise _error(
                    "XML declaration only allowed at the start of the document", token
                )
        elif kind is XMLTokenType.DOCTYPE:
            if saw_document_element:
                raise _error(
                    "DOCTYPE declaration only allowed before the document element", token
                )
            if saw_doctype:
                raise _error("only one DOCTYPE declaration allowed", token)
            saw_doctype = True
        elif kind is XMLTokenType.EOF:
            if open_names:
                raise _error("unexpected end of input: unclosed elements remain", token)
            if not saw_document_element:
                raise _error(
                    "a document must have exactly one document element, found 0", token
                )


def _error(message: str, token: XMLToken) -> XMLSyntaxError:
    return XMLSyntaxError(message, line=token.line, column=token.column)


def parse_xml(
    text: str,
    *,
    strip_whitespace: bool = False,
    id_attribute: str = "id",
) -> Document:
    """Parse XML ``text`` and return a frozen :class:`Document`.

    Parameters
    ----------
    text:
        The XML source.
    strip_whitespace:
        When true, text nodes consisting solely of whitespace are dropped.
        The paper's synthetic documents contain no meaningful whitespace, so
        the workload generators enable this to keep node counts exact.
    id_attribute:
        Attribute name that provides element IDs for ``id()`` / ``deref_ids``.

    The tree is built from :func:`document_events`, which raises every
    :class:`~repro.errors.XMLSyntaxError`.
    """
    builder = TreeBuilder(id_attribute=id_attribute)
    for event in document_events(text, strip_whitespace=strip_whitespace):
        kind = event[0]
        if kind == TEXT:
            builder.text(event[1])
        elif kind == START:
            builder.start(event[1], event[2])
            for prefix, uri in event[3]:
                builder.namespace(prefix, uri)
        elif kind == END:
            builder.end()
        elif kind == COMMENT:
            builder.comment(event[1])
        else:
            builder.processing_instruction(event[1], event[2])
    return builder.finish()
