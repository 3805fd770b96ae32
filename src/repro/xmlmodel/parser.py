"""XML parser: token stream → :class:`~repro.xmlmodel.document.Document`.

The parser enforces the well-formedness rules that matter for the XPath data
model (single document element, matching tags, unique attributes) and ignores
DOCTYPE content apart from skipping it.  Whitespace-only text between
elements is preserved by default — XPath's ``text()`` node test sees it — but
can be stripped for the synthetic evaluation documents.
"""

from __future__ import annotations

from ..errors import XMLSyntaxError
from .builder import TreeBuilder
from .document import Document
from .lexer import XMLLexer, XMLToken, XMLTokenType


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
    """
    builder = TreeBuilder(id_attribute=id_attribute)
    lexer = XMLLexer(text)
    depth = 0
    saw_document_element = False

    for token in lexer.tokens():
        if token.kind is XMLTokenType.EOF:
            break
        if token.kind is XMLTokenType.DECLARATION:
            if depth != 0:
                raise XMLSyntaxError(
                    "XML declaration only allowed at the start of the document",
                    line=token.line,
                    column=token.column,
                )
            continue
        if token.kind is XMLTokenType.DOCTYPE:
            continue
        if token.kind is XMLTokenType.TEXT:
            _handle_text(builder, token, depth, strip_whitespace)
            continue
        if token.kind is XMLTokenType.CDATA:
            if depth == 0:
                raise XMLSyntaxError(
                    "character data outside the document element",
                    line=token.line,
                    column=token.column,
                )
            builder.text(token.data)
            continue
        if token.kind is XMLTokenType.COMMENT:
            builder.comment(token.data)
            continue
        if token.kind is XMLTokenType.PROCESSING_INSTRUCTION:
            builder.processing_instruction(token.name, token.data)
            continue
        if token.kind in (XMLTokenType.START_TAG, XMLTokenType.EMPTY_TAG):
            if depth == 0 and saw_document_element:
                raise XMLSyntaxError(
                    "multiple document elements",
                    line=token.line,
                    column=token.column,
                )
            _start_element(builder, token)
            saw_document_element = True
            if token.kind is XMLTokenType.START_TAG:
                depth += 1
            else:
                builder.end(token.name)
            continue
        if token.kind is XMLTokenType.END_TAG:
            if depth == 0:
                raise XMLSyntaxError(
                    f"unexpected end tag </{token.name}>",
                    line=token.line,
                    column=token.column,
                )
            try:
                builder.end(token.name)
            except XMLSyntaxError as error:
                # The builder checks the name but knows no position.
                raise XMLSyntaxError(
                    error.args[0], line=token.line, column=token.column
                ) from None
            depth -= 1
            continue
        raise XMLSyntaxError(f"unexpected token {token.kind}")  # pragma: no cover

    # ``token`` is the EOF token here: both errors are positioned at the end.
    if depth != 0:
        raise XMLSyntaxError(
            "unexpected end of input: unclosed elements remain",
            line=token.line,
            column=token.column,
        )
    if not saw_document_element:
        raise XMLSyntaxError(
            "a document must have exactly one document element, found 0",
            line=token.line,
            column=token.column,
        )
    return builder.finish()


def _handle_text(builder: TreeBuilder, token: XMLToken, depth: int, strip: bool) -> None:
    data = token.data
    if depth == 0:
        if data.strip():
            raise XMLSyntaxError(
                "character data outside the document element",
                line=token.line,
                column=token.column,
            )
        return
    if strip and not data.strip():
        return
    builder.text(data)


def _start_element(builder: TreeBuilder, token: XMLToken) -> None:
    attributes: dict[str, str] = {}
    namespaces: list[tuple[str, str]] = []
    for name, value in token.attributes:
        if name == "xmlns":
            namespaces.append(("", value))
            continue
        if name.startswith("xmlns:"):
            namespaces.append((name.split(":", 1)[1], value))
            continue
        if name in attributes:
            raise XMLSyntaxError(
                f"duplicate attribute {name!r} on <{token.name}>",
                line=token.line,
                column=token.column,
            )
        attributes[name] = value
    element = builder.start(token.name, attributes)
    for prefix, uri in namespaces:
        builder.namespace(prefix, uri)
    del element
