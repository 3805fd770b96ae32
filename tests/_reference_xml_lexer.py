# The character-at-a-time XML tokenizer that src/repro/xmlmodel/lexer.py
# replaced, kept verbatim (apart from the absolute import of XMLSyntaxError)
# as the oracle of tests/test_xml_lexer.py's differential test, as
# src/repro/axes/reference.py is for the axes.  Nothing under src/ imports it.

"""A small XML tokenizer.

The evaluation documents of the paper (DOC(i), DOC'(i), deep paths) are plain
XML without DTDs, so the tokenizer covers the subset of XML 1.0 needed for a
faithful reproduction: start/end/empty tags with attributes, character data,
comments, CDATA sections, processing instructions, the XML declaration, and
the five predefined entities plus decimal/hexadecimal character references.

Entity / character-reference conformance:

* character references are validated against the XML 1.0 ``Char``
  production — ``#x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
  [#x10000-#x10FFFF]`` — so control characters (``&#2;``), surrogates
  (``&#xD800;``) and out-of-range code points (``&#x110000;``) are
  rejected with a positioned :class:`~repro.errors.XMLSyntaxError`, as are
  malformed references (``&#xZZ;``);
* general entities declared in a DOCTYPE *internal subset* (the DBLP-style
  corpus shape: ``<!ENTITY uuml "ü">``) are registered and expanded in
  text and attribute values, with recursive expansion bounded by a depth
  cap and a total-size cap (the classic billion-laughs guard); parameter
  entities, external (SYSTEM/PUBLIC) entities and entities expanding to
  markup are skipped or rejected rather than fetched.

The tokenizer is independent of the tree model; the parser in
:mod:`repro.xmlmodel.parser` consumes the token stream and drives a
:class:`~repro.xmlmodel.builder.TreeBuilder`.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import XMLSyntaxError


class XMLTokenType(enum.Enum):
    """Kinds of tokens produced by :class:`XMLLexer`."""

    START_TAG = "start-tag"
    END_TAG = "end-tag"
    EMPTY_TAG = "empty-tag"
    TEXT = "text"
    COMMENT = "comment"
    CDATA = "cdata"
    PROCESSING_INSTRUCTION = "processing-instruction"
    DECLARATION = "declaration"
    DOCTYPE = "doctype"
    EOF = "eof"


@dataclass
class XMLToken:
    """One lexical unit of the XML input."""

    kind: XMLTokenType
    #: Tag name, PI target, or empty for textual tokens.
    name: str = ""
    #: Character data, comment text, PI data.
    data: str = ""
    #: Attribute name/value pairs for start/empty tags, in document order.
    attributes: list[tuple[str, str]] = field(default_factory=list)
    #: 1-based line and column of the token start.
    line: int = 1
    column: int = 1


_NAME_START = re.compile(r"[A-Za-z_:]")
_NAME_CHARS = re.compile(r"[-A-Za-z0-9_:.·]")
_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}
_DECIMAL_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

#: Billion-laughs guard: maximum nesting of entity-in-entity expansion and
#: maximum total characters produced by expansion per text/attribute chunk.
MAX_ENTITY_DEPTH = 32
MAX_ENTITY_EXPANSION = 1_000_000


def _is_xml_char(code_point: int) -> bool:
    """The XML 1.0 ``Char`` production (well-formedness, §2.2)."""
    return (
        code_point in (0x9, 0xA, 0xD)
        or 0x20 <= code_point <= 0xD7FF
        or 0xE000 <= code_point <= 0xFFFD
        or 0x10000 <= code_point <= 0x10FFFF
    )


class XMLLexer:
    """Convert XML text into a stream of :class:`XMLToken`."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0
        self._line = 1
        self._column = 1
        #: General entities declared in the DOCTYPE internal subset.
        self._entities: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def tokens(self) -> Iterator[XMLToken]:
        """Yield tokens until end of input, finishing with an EOF token."""
        while self._pos < len(self._text):
            if self._peek() == "<":
                yield self._read_markup()
            else:
                yield self._read_text()
        yield XMLToken(XMLTokenType.EOF, line=self._line, column=self._column)

    # ------------------------------------------------------------------
    # Low-level cursor helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self._text):
            return ""
        return self._text[index]

    def _advance(self, count: int = 1) -> str:
        chunk = self._text[self._pos : self._pos + count]
        for ch in chunk:
            if ch == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
        self._pos += count
        return chunk

    def _error(self, message: str) -> XMLSyntaxError:
        return XMLSyntaxError(message, line=self._line, column=self._column)

    def _expect(self, literal: str) -> None:
        if not self._text.startswith(literal, self._pos):
            raise self._error(f"expected {literal!r}")
        self._advance(len(literal))

    def _skip_whitespace(self) -> None:
        while self._peek() and self._peek() in " \t\r\n":
            self._advance()

    def _read_name(self) -> str:
        start_char = self._peek()
        if not start_char or not _NAME_START.match(start_char):
            raise self._error("expected an XML name")
        chars = [self._advance()]
        while self._peek() and _NAME_CHARS.match(self._peek()):
            chars.append(self._advance())
        return "".join(chars)

    def _read_until(self, terminator: str, error: str) -> str:
        end = self._text.find(terminator, self._pos)
        if end < 0:
            raise self._error(error)
        data = self._text[self._pos : end]
        self._advance(end - self._pos)
        self._advance(len(terminator))
        return data

    # ------------------------------------------------------------------
    # Token readers
    # ------------------------------------------------------------------
    def _read_markup(self) -> XMLToken:
        line, column = self._line, self._column
        if self._text.startswith("<!--", self._pos):
            self._advance(4)
            data = self._read_until("-->", "unterminated comment")
            return XMLToken(XMLTokenType.COMMENT, data=data, line=line, column=column)
        if self._text.startswith("<![CDATA[", self._pos):
            self._advance(9)
            data = self._read_until("]]>", "unterminated CDATA section")
            return XMLToken(XMLTokenType.CDATA, data=data, line=line, column=column)
        if self._text.startswith("<!DOCTYPE", self._pos):
            self._advance(9)
            data = self._read_doctype()
            return XMLToken(XMLTokenType.DOCTYPE, data=data, line=line, column=column)
        if self._text.startswith("<?", self._pos):
            self._advance(2)
            target = self._read_name()
            self._skip_whitespace()
            data = self._read_until("?>", "unterminated processing instruction")
            kind = (
                XMLTokenType.DECLARATION
                if target.lower() == "xml"
                else XMLTokenType.PROCESSING_INSTRUCTION
            )
            return XMLToken(kind, name=target, data=data.rstrip(), line=line, column=column)
        if self._text.startswith("</", self._pos):
            self._advance(2)
            name = self._read_name()
            self._skip_whitespace()
            self._expect(">")
            return XMLToken(XMLTokenType.END_TAG, name=name, line=line, column=column)
        # Ordinary start or empty-element tag.
        self._expect("<")
        name = self._read_name()
        attributes = self._read_attributes()
        self._skip_whitespace()
        if self._text.startswith("/>", self._pos):
            self._advance(2)
            return XMLToken(
                XMLTokenType.EMPTY_TAG, name=name, attributes=attributes, line=line, column=column
            )
        self._expect(">")
        return XMLToken(
            XMLTokenType.START_TAG, name=name, attributes=attributes, line=line, column=column
        )

    def _read_doctype(self) -> str:
        """Read a DOCTYPE declaration, registering internal-subset entities.

        The name and external-ID part is skipped (external DTDs are never
        fetched); an internal subset ``[ … ]`` is walked declaration by
        declaration so that ``<!ENTITY name "value">`` general entities are
        registered for :func:`resolve_references`.  All other declarations
        (ELEMENT, ATTLIST, NOTATION, parameter/external entities, comments,
        PIs) are skipped, honouring quoted literals.
        """
        start = self._pos
        while True:
            ch = self._peek()
            if ch == "":
                raise self._error("unterminated DOCTYPE declaration")
            if ch == ">":
                self._advance()
                break
            if ch == "[":
                self._advance()
                self._read_internal_subset()
                continue
            if ch in ("'", '"'):
                self._skip_quoted()
                continue
            self._advance()
        return self._text[start : self._pos - 1].strip()

    def _skip_quoted(self) -> None:
        quote = self._advance()
        end = self._text.find(quote, self._pos)
        if end < 0:
            raise self._error("unterminated literal in DOCTYPE declaration")
        self._advance(end - self._pos + 1)

    def _read_internal_subset(self) -> None:
        while True:
            self._skip_whitespace()
            ch = self._peek()
            if ch == "":
                raise self._error("unterminated DOCTYPE internal subset")
            if ch == "]":
                self._advance()
                return
            if self._text.startswith("<!--", self._pos):
                self._advance(4)
                self._read_until("-->", "unterminated comment in DOCTYPE")
                continue
            if self._text.startswith("<?", self._pos):
                self._advance(2)
                self._read_until("?>", "unterminated processing instruction in DOCTYPE")
                continue
            if self._text.startswith("<!ENTITY", self._pos):
                self._read_entity_declaration()
                continue
            if ch == "<":
                self._skip_declaration()
                continue
            if ch == "%":
                # Parameter-entity reference: nothing to expand (we never
                # register parameter entities), skip the %name; form.
                self._advance()
                self._read_name()
                if self._peek() == ";":
                    self._advance()
                continue
            raise self._error("malformed DOCTYPE internal subset")

    def _read_entity_declaration(self) -> None:
        self._advance(len("<!ENTITY"))
        self._skip_whitespace()
        parameter = False
        if self._peek() == "%":
            parameter = True
            self._advance()
            self._skip_whitespace()
        name = self._read_name()
        self._skip_whitespace()
        quote = self._peek()
        if quote in ("'", '"'):
            self._advance()
            end = self._text.find(quote, self._pos)
            if end < 0:
                raise self._error("unterminated entity value")
            value = self._text[self._pos : end]
            self._advance(end - self._pos + 1)
            self._skip_whitespace()
            self._expect(">")
            # First binding wins (XML 1.0 §4.2); parameter entities are
            # declaration-level macros we never expand, so don't register.
            if not parameter and name not in self._entities:
                self._entities[name] = value
        else:
            # External entity (SYSTEM/PUBLIC …): never fetched, not
            # registered — references to it will fail as unknown.
            self._skip_declaration(consumed_open=True)

    def _skip_declaration(self, consumed_open: bool = False) -> None:
        """Skip a ``<!…>`` declaration, honouring quoted literals."""
        if not consumed_open:
            self._advance()
        while True:
            ch = self._peek()
            if ch == "":
                raise self._error("unterminated declaration in DOCTYPE internal subset")
            if ch in ("'", '"'):
                self._skip_quoted()
                continue
            self._advance()
            if ch == ">":
                return

    def _read_attributes(self) -> list[tuple[str, str]]:
        attributes: list[tuple[str, str]] = []
        while True:
            self._skip_whitespace()
            ch = self._peek()
            if ch in ("", ">", "/"):
                return attributes
            name = self._read_name()
            self._skip_whitespace()
            self._expect("=")
            self._skip_whitespace()
            quote = self._peek()
            if quote not in ("'", '"'):
                raise self._error("attribute values must be quoted")
            self._advance()
            end = self._text.find(quote, self._pos)
            if end < 0:
                raise self._error("unterminated attribute value")
            raw = self._text[self._pos : end]
            self._advance(end - self._pos + 1)
            attributes.append(
                (name, resolve_references(raw, self._error, self._entities))
            )

    def _read_text(self) -> XMLToken:
        line, column = self._line, self._column
        end = self._text.find("<", self._pos)
        if end < 0:
            end = len(self._text)
        raw = self._text[self._pos : end]
        self._advance(end - self._pos)
        return XMLToken(
            XMLTokenType.TEXT,
            data=resolve_references(raw, self._error, self._entities),
            line=line,
            column=column,
        )


def _character_reference(entity: str, fail) -> str:
    """Decode ``#NN`` / ``#xHH``, enforcing the XML 1.0 Char production."""
    if entity[1:2] in ("x", "X"):
        digits, base, charset = entity[2:], 16, _HEX_DIGITS
    else:
        digits, base, charset = entity[1:], 10, _DECIMAL_DIGITS
    # int() alone is too permissive ("+2", "1_0"); require plain digits so
    # malformed references fail here, as XMLSyntaxError, not as ValueError.
    if not digits or any(ch not in charset for ch in digits):
        raise fail(f"malformed character reference &{entity};")
    code_point = int(digits, base)
    if code_point > 0x10FFFF or not _is_xml_char(code_point):
        raise fail(
            f"character reference &{entity}; is not a legal XML 1.0 character"
        )
    return chr(code_point)


def resolve_references(raw: str, error_factory=None, entities=None) -> str:
    """Replace entity and character references in ``raw`` text.

    ``entities`` maps internal-subset general entity names to their (still
    unexpanded) replacement text; expansion is recursive with a depth cap of
    :data:`MAX_ENTITY_DEPTH` and a total output cap of
    :data:`MAX_ENTITY_EXPANSION` characters (billion-laughs guard).  Every
    failure is raised through ``error_factory`` (the lexer's positioned
    :class:`~repro.errors.XMLSyntaxError` builder) — never as a raw
    :class:`ValueError`.
    """
    budget = [MAX_ENTITY_EXPANSION]
    return _resolve_references(raw, error_factory, entities, 0, budget)


def _resolve_references(raw, error_factory, entities, depth, budget) -> str:
    def fail(message: str) -> Exception:
        if error_factory is not None:
            return error_factory(message)
        return XMLSyntaxError(message)

    if "&" not in raw:
        return raw
    out: list[str] = []
    index = 0
    while index < len(raw):
        ch = raw[index]
        if ch != "&":
            out.append(ch)
            index += 1
            continue
        end = raw.find(";", index)
        if end < 0:
            raise fail("unterminated entity reference")
        entity = raw[index + 1 : end]
        if entity.startswith("#"):
            out.append(_character_reference(entity, fail))
        elif entity in _ENTITIES:
            out.append(_ENTITIES[entity])
        elif entities and entity in entities:
            if depth >= MAX_ENTITY_DEPTH:
                raise fail(
                    f"entity &{entity}; nested more than "
                    f"{MAX_ENTITY_DEPTH} levels deep"
                )
            replacement = entities[entity]
            budget[0] -= len(replacement)
            if budget[0] < 0:
                raise fail(
                    f"entity expansion exceeds {MAX_ENTITY_EXPANSION} characters"
                )
            expanded = _resolve_references(
                replacement, error_factory, entities, depth + 1, budget
            )
            if "<" in expanded:
                raise fail(
                    f"entity &{entity}; expands to markup, which is unsupported"
                )
            out.append(expanded)
        else:
            raise fail(f"unknown entity &{entity};")
        index = end + 1
    return "".join(out)
