"""Tokenizer for XPath 1.0 expressions.

Follows the lexical structure of the XPath recommendation, including the
disambiguation rule of its Section 3.7: a ``*`` or a name such as ``and``,
``or``, ``div`` or ``mod`` is an *operator* exactly when the preceding token
is an operand-ending token (not ``@``, ``::``, ``(``, ``[``, ``,`` or another
operator).  The parser performs the remaining context-dependent
classification (function name vs. node-type vs. axis name).
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple, Optional

from ..errors import XPathSyntaxError


class TokenType(enum.Enum):
    """Lexical token kinds."""

    NUMBER = "number"
    LITERAL = "literal"
    NAME = "name"
    VARIABLE = "variable"
    OPERATOR_NAME = "operator-name"  # and, or, div, mod (operator position)
    STAR = "*"
    MULTIPLY = "multiply"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    DOT = "."
    DOTDOT = ".."
    AT = "@"
    COMMA = ","
    COLONCOLON = "::"
    SLASH = "/"
    DOUBLE_SLASH = "//"
    PIPE = "|"
    PLUS = "+"
    MINUS = "-"
    EQ = "="
    NEQ = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EOF = "eof"

    # Identity hash, as for NodeType and Axis: the lexer's operand-ending
    # test hashes one token kind per token.
    __hash__ = object.__hash__


#: Token types after which a ``*`` / name is interpreted as an operator.
_OPERAND_ENDING = frozenset(
    {
        TokenType.NUMBER,
        TokenType.LITERAL,
        TokenType.NAME,
        TokenType.VARIABLE,
        TokenType.STAR,
        TokenType.RPAREN,
        TokenType.RBRACKET,
        TokenType.DOT,
        TokenType.DOTDOT,
    }
)

_OPERATOR_NAMES = frozenset({"and", "or", "div", "mod"})

#: Punctuation, longest match first: the two-character tokens, then the
#: one-character ones (``*`` and ``.`` need context and are read apart).
_TWO_CHAR_TOKENS = {
    "//": TokenType.DOUBLE_SLASH,
    "::": TokenType.COLONCOLON,
    "!=": TokenType.NEQ,
    "<=": TokenType.LE,
    ">=": TokenType.GE,
    "..": TokenType.DOTDOT,
}
_ONE_CHAR_TOKENS = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    "@": TokenType.AT,
    ",": TokenType.COMMA,
    "/": TokenType.SLASH,
    "|": TokenType.PIPE,
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "=": TokenType.EQ,
    "<": TokenType.LT,
    ">": TokenType.GT,
}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")


class Token(NamedTuple):
    """One lexical token with its source position (0-based offset).

    A named tuple rather than a frozen dataclass, which sets its fields one
    ``object.__setattr__`` call at a time: every query makes one per token.
    """

    kind: TokenType
    text: str
    position: int

    @property
    def number_value(self) -> float:
        return float(self.text)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r})"


class XPathLexer:
    """Tokenize an XPath expression string."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0
        self._previous: Optional[Token] = None

    def tokenize(self) -> list[Token]:
        """Return the full token list, ending with an EOF token."""
        tokens: list[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenType.EOF:
                return tokens

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _error(self, message: str) -> XPathSyntaxError:
        return XPathSyntaxError(message, position=self._pos)

    def _emit(self, kind: TokenType, text: str, position: int) -> Token:
        token = Token(kind, text, position)
        self._previous = token
        return token

    def _operator_position(self) -> bool:
        """True when the next '*' / name must be read as an operator."""
        return self._previous is not None and self._previous.kind in _OPERAND_ENDING

    def _next_token(self) -> Token:
        text = self._text
        while self._pos < len(text) and text[self._pos] in " \t\r\n":
            self._pos += 1
        start = self._pos
        if self._pos >= len(text):
            return self._emit(TokenType.EOF, "", start)
        ch = text[self._pos]

        two = text[self._pos : self._pos + 2]
        kind = _TWO_CHAR_TOKENS.get(two)
        if kind is not None:
            self._pos += 2
            return self._emit(kind, two, start)
        kind = _ONE_CHAR_TOKENS.get(ch)
        if kind is not None:
            self._pos += 1
            return self._emit(kind, ch, start)

        if ch == "*":
            self._pos += 1
            if self._operator_position():
                return self._emit(TokenType.MULTIPLY, "*", start)
            return self._emit(TokenType.STAR, "*", start)

        if ch in "'\"":
            end = text.find(ch, self._pos + 1)
            if end < 0:
                raise self._error("unterminated string literal")
            value = text[self._pos + 1 : end]
            self._pos = end + 1
            return self._emit(TokenType.LITERAL, value, start)

        if ch.isdigit() or (ch == "." and self._peek_digit(1)):
            return self._read_number(start)

        if ch == ".":
            self._pos += 1
            return self._emit(TokenType.DOT, ".", start)

        if ch == "$":
            self._pos += 1
            name = self._read_qname()
            if not name:
                raise self._error("expected a variable name after '$'")
            return self._emit(TokenType.VARIABLE, name, start)

        if _NAME_RE.match(ch):
            name = self._read_qname()
            if name in _OPERATOR_NAMES and self._operator_position():
                return self._emit(TokenType.OPERATOR_NAME, name, start)
            return self._emit(TokenType.NAME, name, start)

        raise self._error(f"unexpected character {ch!r}")

    def _peek_digit(self, offset: int) -> bool:
        index = self._pos + offset
        return index < len(self._text) and self._text[index].isdigit()

    def _read_number(self, start: int) -> Token:
        text = self._text
        pos = self._pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos < len(text) and text[pos] == "." and not text.startswith("..", pos):
            pos += 1
            while pos < len(text) and text[pos].isdigit():
                pos += 1
        self._pos = pos
        return self._emit(TokenType.NUMBER, text[start:pos], start)

    def _read_qname(self) -> str:
        """Read an NCName, optionally 'prefix:local' or 'prefix:*'."""
        match = _NAME_RE.match(self._text, self._pos)
        if not match:
            return ""
        name = match.group(0)
        self._pos = match.end()
        # A following ':' that is not '::' extends the name (QName / prefix:*).
        if (
            self._pos < len(self._text)
            and self._text[self._pos] == ":"
            and not self._text.startswith("::", self._pos)
        ):
            self._pos += 1
            if self._pos < len(self._text) and self._text[self._pos] == "*":
                self._pos += 1
                return f"{name}:*"
            suffix = _NAME_RE.match(self._text, self._pos)
            if not suffix:
                raise self._error("expected a local name after ':'")
            self._pos = suffix.end()
            return f"{name}:{suffix.group(0)}"
        return name


def tokenize(text: str) -> list[Token]:
    """Convenience wrapper: tokenize an XPath expression string."""
    return XPathLexer(text).tokenize()
