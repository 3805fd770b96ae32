"""Static typing of XPath expressions.

XPath 1.0 is statically typed apart from variable references: every
expression has one of the four types num/str/bool/nset (Definition 5.1).
The engines and the fragment classifiers use :func:`static_type` to

* rewrite numeric predicates to ``position() = e`` (the unabbreviated form
  of the paper's Section 5),
* detect node-set-valued subexpressions for the Extended Wadler restrictions
  (Section 11.1), and
* give early errors for obviously ill-typed queries (e.g. a location path
  applied to a number).

Variable references type as :data:`ValueType.UNKNOWN`; anything combining an
unknown keeps the type dictated by the operator (XPath operators fix their
result type regardless of argument types).
"""

from __future__ import annotations

from ..errors import XPathTypeError
from .ast import (
    ARITHMETIC_OPS,
    BinaryOp,
    ContextFunction,
    Expression,
    FilterExpr,
    FunctionCall,
    LocationPath,
    Negate,
    NumberLiteral,
    PathExpr,
    StringLiteral,
    UnionExpr,
    VariableReference,
)
from .values import ValueType

#: Return type of every core-library function (explicit-argument forms).
FUNCTION_RETURN_TYPES: dict[str, ValueType] = {
    # node-set functions
    "id": ValueType.NODE_SET,
    # numeric functions
    "count": ValueType.NUMBER,
    "sum": ValueType.NUMBER,
    "floor": ValueType.NUMBER,
    "ceiling": ValueType.NUMBER,
    "round": ValueType.NUMBER,
    "string-length": ValueType.NUMBER,
    "number": ValueType.NUMBER,
    # string functions
    "string": ValueType.STRING,
    "concat": ValueType.STRING,
    "substring": ValueType.STRING,
    "substring-before": ValueType.STRING,
    "substring-after": ValueType.STRING,
    "normalize-space": ValueType.STRING,
    "translate": ValueType.STRING,
    "local-name": ValueType.STRING,
    "namespace-uri": ValueType.STRING,
    "name": ValueType.STRING,
    # boolean functions
    "boolean": ValueType.BOOLEAN,
    "not": ValueType.BOOLEAN,
    "true": ValueType.BOOLEAN,
    "false": ValueType.BOOLEAN,
    "contains": ValueType.BOOLEAN,
    "starts-with": ValueType.BOOLEAN,
    "lang": ValueType.BOOLEAN,
    # internal helper produced by the normaliser for lang()
    "__lang__": ValueType.BOOLEAN,
}

#: (min, max) argument counts; None means unbounded.
FUNCTION_ARITIES: dict[str, tuple[int, int | None]] = {
    "id": (1, 1),
    "count": (1, 1),
    "sum": (1, 1),
    "floor": (1, 1),
    "ceiling": (1, 1),
    "round": (1, 1),
    "string-length": (0, 1),
    "number": (0, 1),
    "string": (0, 1),
    "concat": (2, None),
    "substring": (2, 3),
    "substring-before": (2, 2),
    "substring-after": (2, 2),
    "normalize-space": (0, 1),
    "translate": (3, 3),
    "local-name": (0, 1),
    "namespace-uri": (0, 1),
    "name": (0, 1),
    "boolean": (1, 1),
    "not": (1, 1),
    "true": (0, 0),
    "false": (0, 0),
    "contains": (2, 2),
    "starts-with": (2, 2),
    "lang": (1, 1),
    "__lang__": (2, 2),
}

_CONTEXT_FUNCTION_TYPES = {
    "position": ValueType.NUMBER,
    "last": ValueType.NUMBER,
    "number": ValueType.NUMBER,
    "string": ValueType.STRING,
    "name": ValueType.STRING,
    "local-name": ValueType.STRING,
    "namespace-uri": ValueType.STRING,
}


def static_type(expression: Expression) -> ValueType:
    """The static XPath type of ``expression``."""
    if isinstance(expression, NumberLiteral):
        return ValueType.NUMBER
    if isinstance(expression, StringLiteral):
        return ValueType.STRING
    if isinstance(expression, VariableReference):
        return ValueType.UNKNOWN
    if isinstance(expression, ContextFunction):
        return _CONTEXT_FUNCTION_TYPES[expression.name]
    if isinstance(expression, Negate):
        return ValueType.NUMBER
    if isinstance(expression, BinaryOp):
        if expression.op in ARITHMETIC_OPS:
            return ValueType.NUMBER
        return ValueType.BOOLEAN
    if isinstance(expression, (LocationPath, FilterExpr, PathExpr, UnionExpr)):
        return ValueType.NODE_SET
    if isinstance(expression, FunctionCall):
        try:
            return FUNCTION_RETURN_TYPES[expression.name]
        except KeyError:
            raise XPathTypeError(f"unknown function {expression.name}()") from None
    # Step objects only occur inside LocationPath; if one is typed directly it
    # denotes the node set produced by the step.
    return ValueType.NODE_SET


def check_function_call(expression: FunctionCall) -> None:
    """Validate that a function exists and receives an allowed argument count."""
    if expression.name not in FUNCTION_RETURN_TYPES:
        raise XPathTypeError(f"unknown function {expression.name}()")
    minimum, maximum = FUNCTION_ARITIES[expression.name]
    count = len(expression.args)
    if count < minimum or (maximum is not None and count > maximum):
        if maximum is None:
            expected = f"at least {minimum}"
        elif minimum == maximum:
            expected = str(minimum)
        else:
            expected = f"{minimum}..{maximum}"
        raise XPathTypeError(
            f"{expression.name}() called with {count} argument(s), expected {expected}"
        )
