"""Recursive-descent parser for XPath 1.0.

The parser accepts the *abbreviated* syntax and already performs the
expansions that define the unabbreviated form used throughout the paper
(Section 5):

* ``//``  →  a ``descendant-or-self::node()`` step,
* ``.``   →  ``self::node()``,
* ``..``  →  ``parent::node()``,
* ``@n``  →  ``attribute::n``,
* a missing axis →  ``child::``.

The remaining normalisation (numeric predicates → ``position() = e``) is a
separate pass in :mod:`repro.xpath.normalize`, so that tests can inspect both
forms.
"""

from __future__ import annotations

from typing import Optional

from ..axes.nodetests import ANY_NODE, KindTest, NameTest, NodeTest
from ..axes.regex import Axis, axis_by_name
from ..errors import XPathSyntaxError
from .ast import (
    CONTEXT_FUNCTIONS,
    BinaryOp,
    ContextFunction,
    Expression,
    FilterExpr,
    FunctionCall,
    LocationPath,
    Negate,
    NumberLiteral,
    PathExpr,
    Step,
    StringLiteral,
    UnionExpr,
    VariableReference,
)
from .lexer import Token, TokenType, tokenize

_NODE_TYPE_NAMES = frozenset({"node", "text", "comment", "processing-instruction"})

_AXIS_NAMES = frozenset(axis.value for axis in Axis)

_RELATIONAL_OPS = {
    TokenType.LT: "<",
    TokenType.LE: "<=",
    TokenType.GT: ">",
    TokenType.GE: ">=",
}


def parse_xpath(text: str) -> Expression:
    """Parse an XPath 1.0 expression string into an AST."""
    return _Parser(tokenize(text), text).parse()


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        # The index never moves past the EOF token, so one more EOF lets
        # _peek(1) look ahead without a bounds check.
        self._tokens = tokens + tokens[-1:]
        self._source = source
        self._index = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[self._index + offset]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenType.EOF:
            self._index += 1
        return token

    def _accept(self, kind: TokenType) -> Optional[Token]:
        if self._peek().kind is kind:
            return self._advance()
        return None

    def _expect(self, kind: TokenType) -> Token:
        token = self._peek()
        if token.kind is not kind:
            raise self._error(f"expected {kind.value!r}, found {token.text!r}")
        return self._advance()

    def _error(self, message: str) -> XPathSyntaxError:
        return XPathSyntaxError(
            f"{message} in query {self._source!r}", position=self._peek().position
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def parse(self) -> Expression:
        expression = self._parse_or()
        if self._peek().kind is not TokenType.EOF:
            raise self._error(f"unexpected trailing token {self._peek().text!r}")
        return expression

    # ------------------------------------------------------------------
    # Expression grammar (precedence climbing)
    # ------------------------------------------------------------------
    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._peek().kind is TokenType.OPERATOR_NAME and self._peek().text == "or":
            self._advance()
            left = BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_equality()
        while self._peek().kind is TokenType.OPERATOR_NAME and self._peek().text == "and":
            self._advance()
            left = BinaryOp("and", left, self._parse_equality())
        return left

    def _parse_equality(self) -> Expression:
        left = self._parse_relational()
        while self._peek().kind in (TokenType.EQ, TokenType.NEQ):
            op = "=" if self._advance().kind is TokenType.EQ else "!="
            left = BinaryOp(op, left, self._parse_relational())
        return left

    def _parse_relational(self) -> Expression:
        left = self._parse_additive()
        while self._peek().kind in _RELATIONAL_OPS:
            op = _RELATIONAL_OPS[self._advance().kind]
            left = BinaryOp(op, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while self._peek().kind in (TokenType.PLUS, TokenType.MINUS):
            op = "+" if self._advance().kind is TokenType.PLUS else "-"
            left = BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind is TokenType.MULTIPLY:
                self._advance()
                left = BinaryOp("*", left, self._parse_unary())
            elif token.kind is TokenType.OPERATOR_NAME and token.text in ("div", "mod"):
                self._advance()
                left = BinaryOp(token.text, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        if self._accept(TokenType.MINUS):
            return Negate(self._parse_unary())
        return self._parse_union()

    def _parse_union(self) -> Expression:
        left = self._parse_path()
        while self._accept(TokenType.PIPE):
            left = UnionExpr(left, self._parse_path())
        return left

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _parse_path(self) -> Expression:
        token = self._peek()
        if token.kind in (TokenType.SLASH, TokenType.DOUBLE_SLASH):
            return self._parse_absolute_path()
        if self._starts_filter_expr():
            return self._parse_filter_path()
        steps = self._parse_relative_steps()
        return LocationPath(False, steps)

    def _starts_filter_expr(self) -> bool:
        """Does the upcoming token begin a FilterExpr (not a location path)?"""
        token = self._peek()
        if token.kind in (TokenType.VARIABLE, TokenType.LITERAL, TokenType.NUMBER, TokenType.LPAREN):
            return True
        if token.kind is TokenType.NAME and self._peek(1).kind is TokenType.LPAREN:
            # A function call — unless the name is a node-type test.
            return token.text not in _NODE_TYPE_NAMES
        return False

    def _parse_absolute_path(self) -> Expression:
        steps: list[Step] = []
        if self._accept(TokenType.DOUBLE_SLASH):
            steps.append(Step(Axis.DESCENDANT_OR_SELF, ANY_NODE))
            steps.extend(self._parse_relative_steps())
            return LocationPath(True, steps)
        self._expect(TokenType.SLASH)
        if self._starts_step():
            steps.extend(self._parse_relative_steps())
        return LocationPath(True, steps)

    def _parse_filter_path(self) -> Expression:
        primary = self._parse_primary()
        predicates: list[Expression] = []
        while self._peek().kind is TokenType.LBRACKET:
            predicates.append(self._parse_predicate())
        filtered: Expression = FilterExpr(primary, predicates) if predicates else primary
        token = self._peek()
        if token.kind in (TokenType.SLASH, TokenType.DOUBLE_SLASH):
            steps: list[Step] = []
            if self._advance().kind is TokenType.DOUBLE_SLASH:
                steps.append(Step(Axis.DESCENDANT_OR_SELF, ANY_NODE))
            steps.extend(self._parse_relative_steps())
            return PathExpr(filtered, LocationPath(False, steps))
        return filtered

    def _starts_step(self) -> bool:
        token = self._peek()
        if token.kind in (TokenType.NAME, TokenType.STAR, TokenType.AT, TokenType.DOT, TokenType.DOTDOT):
            return True
        return False

    def _parse_relative_steps(self) -> list[Step]:
        steps = [self._parse_step()]
        while True:
            token = self._peek()
            if token.kind is TokenType.SLASH:
                self._advance()
                steps.append(self._parse_step())
            elif token.kind is TokenType.DOUBLE_SLASH:
                self._advance()
                steps.append(Step(Axis.DESCENDANT_OR_SELF, ANY_NODE))
                steps.append(self._parse_step())
            else:
                return steps

    def _parse_step(self) -> Step:
        token = self._peek()
        if token.kind is TokenType.DOT:
            self._advance()
            return Step(Axis.SELF, ANY_NODE)
        if token.kind is TokenType.DOTDOT:
            self._advance()
            return Step(Axis.PARENT, ANY_NODE)
        axis = self._parse_axis_specifier()
        node_test = self._parse_node_test()
        predicates: list[Expression] = []
        while self._peek().kind is TokenType.LBRACKET:
            predicates.append(self._parse_predicate())
        return Step(axis, node_test, predicates)

    def _parse_axis_specifier(self) -> Axis:
        token = self._peek()
        if token.kind is TokenType.AT:
            self._advance()
            return Axis.ATTRIBUTE
        if (
            token.kind is TokenType.NAME
            and token.text in _AXIS_NAMES
            and self._peek(1).kind is TokenType.COLONCOLON
        ):
            self._advance()
            self._advance()
            return axis_by_name(token.text)
        return Axis.CHILD

    def _parse_node_test(self) -> NodeTest:
        token = self._peek()
        if token.kind is TokenType.STAR:
            self._advance()
            return NameTest(None)
        if token.kind is TokenType.NAME:
            if token.text in _NODE_TYPE_NAMES and self._peek(1).kind is TokenType.LPAREN:
                self._advance()
                self._expect(TokenType.LPAREN)
                target: Optional[str] = None
                if token.text == "processing-instruction" and self._peek().kind is TokenType.LITERAL:
                    target = self._advance().text
                self._expect(TokenType.RPAREN)
                return KindTest(token.text, target)
            self._advance()
            if token.text.endswith(":*"):
                # Namespace wildcard NCName:* — matched structurally by prefix.
                return NameTest(token.text)
            return NameTest(token.text)
        raise self._error(f"expected a node test, found {token.text!r}")

    def _parse_predicate(self) -> Expression:
        self._expect(TokenType.LBRACKET)
        expression = self._parse_or()
        self._expect(TokenType.RBRACKET)
        return expression

    # ------------------------------------------------------------------
    # Primary expressions and function calls
    # ------------------------------------------------------------------
    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token.kind is TokenType.VARIABLE:
            self._advance()
            return VariableReference(token.text)
        if token.kind is TokenType.LITERAL:
            self._advance()
            return StringLiteral(token.text)
        if token.kind is TokenType.NUMBER:
            self._advance()
            return NumberLiteral(token.number_value)
        if token.kind is TokenType.LPAREN:
            self._advance()
            inner = self._parse_or()
            self._expect(TokenType.RPAREN)
            return inner
        if token.kind is TokenType.NAME and self._peek(1).kind is TokenType.LPAREN:
            return self._parse_function_call()
        raise self._error(f"expected a primary expression, found {token.text!r}")

    def _parse_function_call(self) -> Expression:
        name_token = self._expect(TokenType.NAME)
        self._expect(TokenType.LPAREN)
        args: list[Expression] = []
        if self._peek().kind is not TokenType.RPAREN:
            args.append(self._parse_or())
            while self._accept(TokenType.COMMA):
                args.append(self._parse_or())
        self._expect(TokenType.RPAREN)
        name = name_token.text
        if not args and name in CONTEXT_FUNCTIONS:
            return ContextFunction(name)
        return FunctionCall(name, args)
