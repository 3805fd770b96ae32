"""A small XML tokenizer.

The evaluation documents of the paper (DOC(i), DOC'(i), deep paths) are plain
XML without DTDs, so the tokenizer covers the subset of XML 1.0 needed for a
faithful reproduction: start/end/empty tags with attributes, character data,
comments, CDATA sections, processing instructions, the XML declaration, and
the five predefined entities plus decimal/hexadecimal character references.

Scanning: start, empty and end tags are matched by anchored, compiled
patterns (``<Name``, then one pattern per attribute, then ``S? /?>``; and
``</Name S? >``), and character data runs to the next ``str.find("<")``.
Line and column come from newline counts over each token's span.  Comments,
CDATA sections, processing instructions, the XML declaration, the DOCTYPE
with its internal subset, and any tag the patterns do not match go to the
cursor readers, started at the token's first character; those raise the
positioned errors of a malformed tag.

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
  cap and a total-size cap (the classic billion-laughs guard) that one
  document's text runs and attribute values share; parameter
  entities, external (SYSTEM/PUBLIC) entities and entities expanding to
  markup are skipped or rejected rather than fetched.

The tokenizer is independent of the tree model and checks no rule that
spans tokens: :func:`repro.xmlmodel.parser.document_events` reads the token
stream, enforces the document-level rules and yields the checked events that
both :func:`~repro.xmlmodel.parser.parse_xml` (through a
:class:`~repro.xmlmodel.builder.TreeBuilder`) and the streaming scan consume.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Iterator

from ..errors import XMLSyntaxError


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


_NAME = r"[A-Za-z_:][-A-Za-z0-9_:.·]*"
_SPACE = r"[ \t\r\n]*"
_NAME_PATTERN = re.compile(_NAME)
_SPACE_PATTERN = re.compile(_SPACE)
#: ``<Name``, the start of a start or empty-element tag.
_START_TAG = re.compile(f"<({_NAME})")
#: One attribute, ``S? Name S? = S? ("…" | '…')``.  The space before the name
#: is optional, as for the cursor reader: ``<a x='1'y='2'>`` is accepted.
_ATTRIBUTE = re.compile(f"""{_SPACE}({_NAME}){_SPACE}={_SPACE}("[^"]*"|'[^']*')""")
#: ``S? /?>``, the end of a start or empty-element tag.
_TAG_CLOSE = re.compile(f"{_SPACE}(/?)>")
#: ``</Name S? >``, a whole end tag.
_END_TAG = re.compile(f"</({_NAME}){_SPACE}>")
#: The runs a DOCTYPE and a skipped declaration pass over up to their next
#: ``>``, quoted literal or (DOCTYPE only) internal subset.
_DOCTYPE_RUN = re.compile(r"""[^>\['"]*""")
_DECLARATION_RUN = re.compile(r"""[^>'"]*""")
_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}
_DECIMAL_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

#: Billion-laughs guard: maximum nesting of entity-in-entity expansion, and
#: the characters of replacement text one document may expand in all, shared
#: by its text runs and attribute values: ``max(MAX_ENTITY_EXPANSION,
#: MAX_ENTITY_EXPANSION_PER_CHAR * len(text))``.  A standalone
#: :func:`resolve_references` call gets ``MAX_ENTITY_EXPANSION`` of its own.
MAX_ENTITY_DEPTH = 32
MAX_ENTITY_EXPANSION = 1_000_000
MAX_ENTITY_EXPANSION_PER_CHAR = 10


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
        #: Offset of the first character of the current line.
        self._line_start = 0
        #: General entities declared in the DOCTYPE internal subset.
        self._entities: dict[str, str] = {}
        self._budget = _ExpansionBudget(
            max(MAX_ENTITY_EXPANSION, MAX_ENTITY_EXPANSION_PER_CHAR * len(text))
        )

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def tokens(self) -> Iterator[XMLToken]:
        """Yield tokens until end of input, finishing with an EOF token."""
        text = self._text
        size = len(text)
        while self._pos < size:
            pos = self._pos
            line, column = self._line, pos - self._line_start + 1
            if text[pos] == "<":
                token = self._scan_tag(line, column)
                yield token if token is not None else self._read_markup()
                continue
            end = text.find("<", pos)
            if end < 0:
                end = size
            data = text[pos:end]
            # The cursor moves first, so an entity error is positioned after
            # the run.
            self._move_to(end)
            if "&" in data:
                data = self._resolve(data)
            yield XMLToken(XMLTokenType.TEXT, data=data, line=line, column=column)
        yield XMLToken(XMLTokenType.EOF, line=self._line, column=self._column)

    # ------------------------------------------------------------------
    # Low-level cursor helpers
    # ------------------------------------------------------------------
    @property
    def _column(self) -> int:
        return self._pos - self._line_start + 1

    def _move_to(self, end: int) -> None:
        """Move the cursor forward to ``end``, counting the newlines passed."""
        text, pos = self._text, self._pos
        newlines = text.count("\n", pos, end)
        if newlines:
            self._line += newlines
            self._line_start = text.rfind("\n", pos, end) + 1
        self._pos = end

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self._text):
            return ""
        return self._text[index]

    def _advance(self, count: int = 1) -> str:
        start = self._pos
        self._move_to(start + count)
        return self._text[start : self._pos]

    def _error(self, message: str) -> XMLSyntaxError:
        return XMLSyntaxError(message, line=self._line, column=self._column)

    def _resolve(self, raw: str) -> str:
        return resolve_references(raw, self._error, self._entities, self._budget)

    def _expect(self, literal: str) -> None:
        if not self._text.startswith(literal, self._pos):
            raise self._error(f"expected {literal!r}")
        self._advance(len(literal))

    def _skip_whitespace(self) -> None:
        self._move_to(_SPACE_PATTERN.match(self._text, self._pos).end())

    def _read_name(self) -> str:
        match = _NAME_PATTERN.match(self._text, self._pos)
        if match is None:
            raise self._error("expected an XML name")
        self._move_to(match.end())
        return match[0]

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
    def _scan_tag(self, line: int, column: int) -> XMLToken | None:
        """Match a start, empty or end tag at the cursor with the patterns.

        Returns None, with the cursor left on the ``<``, for anything else:
        the cursor reader then reads the token, or raises its error.
        """
        text, pos = self._text, self._pos
        if text.startswith("</", pos):
            match = _END_TAG.match(text, pos)
            if match is None:
                return None
            self._move_to(match.end())
            return XMLToken(XMLTokenType.END_TAG, name=match[1], line=line, column=column)
        match = _START_TAG.match(text, pos)
        if match is None:
            return None
        end = match.end()
        scanned = []
        while (close := _TAG_CLOSE.match(text, end)) is None:
            attribute = _ATTRIBUTE.match(text, end)
            if attribute is None:
                return None
            end = attribute.end()
            scanned.append((attribute[1], attribute[2][1:-1], end))
        # Values are resolved once the whole tag has matched, so a malformed
        # tag reaches the cursor reader with the budget not yet charged; an
        # entity error is positioned after the value's closing quote.
        attributes = []
        for name, value, value_end in scanned:
            if "&" in value:
                self._move_to(value_end)
                value = self._resolve(value)
            attributes.append((name, value))
        self._move_to(close.end())
        kind = XMLTokenType.EMPTY_TAG if close[1] else XMLTokenType.START_TAG
        return XMLToken(
            kind, name=match[1], attributes=attributes, line=line, column=column
        )

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
            self._move_to(_DOCTYPE_RUN.match(self._text, self._pos).end())
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
            self._skip_quoted()
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
            self._move_to(_DECLARATION_RUN.match(self._text, self._pos).end())
            ch = self._peek()
            if ch == "":
                raise self._error("unterminated declaration in DOCTYPE internal subset")
            if ch == ">":
                self._advance()
                return
            self._skip_quoted()

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
            attributes.append((name, self._resolve(raw)))


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


class _ExpansionBudget:
    """Characters of entity replacement text that may still be expanded."""

    __slots__ = ("limit", "remaining")

    def __init__(self, limit: int):
        self.limit = limit
        self.remaining = limit


def resolve_references(raw: str, error_factory=None, entities=None, budget=None) -> str:
    """Replace entity and character references in ``raw`` text.

    ``entities`` maps internal-subset general entity names to their (still
    unexpanded) replacement text; expansion is recursive with a depth cap of
    :data:`MAX_ENTITY_DEPTH` and charges every replacement text to
    ``budget``, the billion-laughs guard: the lexer passes its document's
    budget, and a call without one gets :data:`MAX_ENTITY_EXPANSION`
    characters of its own.  Every failure is raised through
    ``error_factory`` (the lexer's positioned
    :class:`~repro.errors.XMLSyntaxError` builder) — never as a raw
    :class:`ValueError`.
    """

    def fail(message: str) -> Exception:
        if error_factory is not None:
            return error_factory(message)
        return XMLSyntaxError(message)

    if budget is None:
        budget = _ExpansionBudget(MAX_ENTITY_EXPANSION)
    return _resolve_references(raw, fail, entities, 0, budget)


def _resolve_references(raw, fail, entities, depth, budget) -> str:
    if "&" not in raw:
        return raw
    out: list[str] = []
    index = 0
    start = raw.find("&")
    while start >= 0:
        out.append(raw[index:start])
        end = raw.find(";", start)
        if end < 0:
            raise fail("unterminated entity reference")
        entity = raw[start + 1 : end]
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
            budget.remaining -= len(replacement)
            if budget.remaining < 0:
                raise fail(f"entity expansion exceeds {budget.limit} characters")
            expanded = _resolve_references(
                replacement, fail, entities, depth + 1, budget
            )
            if "<" in expanded:
                raise fail(
                    f"entity &{entity}; expands to markup, which is unsupported"
                )
            out.append(expanded)
        else:
            raise fail(f"unknown entity &{entity};")
        index = end + 1
        start = raw.find("&", index)
    out.append(raw[index:])
    return "".join(out)
