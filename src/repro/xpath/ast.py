"""Abstract syntax trees for XPath 1.0 expressions.

The parser produces these nodes; the normaliser rewrites them into the
paper's *unabbreviated form* (Section 5), and every engine consumes the
normalised tree.  Node classes are deliberately small and immutable-ish
(plain attributes, but engines never mutate them); parse trees are proper
trees, so engines may key memo tables by node identity.

Grammar coverage
----------------
The full XPath 1.0 expression grammar is represented:

* ``StringLiteral``, ``NumberLiteral``, ``VariableReference``
* ``ContextFunction`` — the context primitives ``position()``, ``last()``,
  ``string()``, ``number()``, ``name()``, ``local-name()``,
  ``namespace-uri()`` (zero-argument forms; cf. Definition 5.1)
* ``FunctionCall`` — every other core-library function
* ``BinaryOp`` (or, and, equality, relational, arithmetic), ``Negate``
* ``UnionExpr`` (``|``)
* ``LocationPath`` / ``Step`` — relative and absolute location paths
* ``FilterExpr`` — a primary expression with predicates, e.g. ``(//a)[1]``
* ``PathExpr`` — a filter expression followed by a relative path, e.g.
  ``id('x')/child::a``
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..axes.nodetests import NodeTest
from ..axes.regex import Axis

#: Functions treated as context primitives when called with zero arguments.
CONTEXT_FUNCTIONS = frozenset(
    {"position", "last", "string", "number", "name", "local-name", "namespace-uri"}
)


class Expression:
    """Base class of every AST node."""

    def children(self) -> Iterator["Expression"]:
        """Direct subexpressions, in syntactic order."""
        return iter(())

    def to_xpath(self) -> str:
        """Render back to (unabbreviated) XPath syntax."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_xpath()!r})"

    # Identity-based hashing: parse trees are trees, so identity keys are
    # exactly what the context-value tables and data pools need.
    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------
class StringLiteral(Expression):
    """A quoted string literal."""

    def __init__(self, value: str):
        self.value = value

    def to_xpath(self) -> str:
        if "'" not in self.value:
            return f"'{self.value}'"
        return f'"{self.value}"'


class NumberLiteral(Expression):
    """A numeric literal."""

    def __init__(self, value: float):
        self.value = float(value)

    def to_xpath(self) -> str:
        if self.value == int(self.value):
            return str(int(self.value))
        return repr(self.value)


class VariableReference(Expression):
    """``$name`` — resolved against the static context's bindings."""

    def __init__(self, name: str):
        self.name = name

    def to_xpath(self) -> str:
        return f"${self.name}"


class ContextFunction(Expression):
    """A zero-argument context primitive (position, last, string, …)."""

    def __init__(self, name: str):
        if name not in CONTEXT_FUNCTIONS:
            raise ValueError(f"{name}() is not a context primitive")
        self.name = name

    def to_xpath(self) -> str:
        return f"{self.name}()"


# ----------------------------------------------------------------------
# Operators and function calls
# ----------------------------------------------------------------------
class FunctionCall(Expression):
    """A core-library function applied to explicit arguments."""

    def __init__(self, name: str, args: Sequence[Expression]):
        self.name = name
        self.args = tuple(args)

    def children(self) -> Iterator[Expression]:
        return iter(self.args)

    def to_xpath(self) -> str:
        rendered = ", ".join(arg.to_xpath() for arg in self.args)
        return f"{self.name}({rendered})"


#: Operator categories, used by the typing and fragment layers.
BOOLEAN_OPS = frozenset({"or", "and"})
EQUALITY_OPS = frozenset({"=", "!="})
RELATIONAL_OPS = frozenset({"<", "<=", ">", ">="})
ARITHMETIC_OPS = frozenset({"+", "-", "*", "div", "mod"})
ALL_BINARY_OPS = BOOLEAN_OPS | EQUALITY_OPS | RELATIONAL_OPS | ARITHMETIC_OPS


class BinaryOp(Expression):
    """A binary operator: boolean, (in)equality, relational or arithmetic."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in ALL_BINARY_OPS:
            raise ValueError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Iterator[Expression]:
        yield self.left
        yield self.right

    def to_xpath(self) -> str:
        return f"({self.left.to_xpath()} {self.op} {self.right.to_xpath()})"


class Negate(Expression):
    """Unary minus."""

    def __init__(self, operand: Expression):
        self.operand = operand

    def children(self) -> Iterator[Expression]:
        yield self.operand

    def to_xpath(self) -> str:
        return f"-({self.operand.to_xpath()})"


class UnionExpr(Expression):
    """Node-set union π1 | π2."""

    def __init__(self, left: Expression, right: Expression):
        self.left = left
        self.right = right

    def children(self) -> Iterator[Expression]:
        yield self.left
        yield self.right

    def to_xpath(self) -> str:
        return f"{self.left.to_xpath()} | {self.right.to_xpath()}"


# ----------------------------------------------------------------------
# Location paths
# ----------------------------------------------------------------------
class Step(Expression):
    """A location step χ::t[e1]…[em]."""

    def __init__(self, axis: Axis, node_test: NodeTest, predicates: Sequence[Expression] = ()):
        self.axis = axis
        self.node_test = node_test
        self.predicates = tuple(predicates)

    def children(self) -> Iterator[Expression]:
        return iter(self.predicates)

    def to_xpath(self) -> str:
        preds = "".join(f"[{p.to_xpath()}]" for p in self.predicates)
        return f"{self.axis.value}::{self.node_test.to_xpath()}{preds}"


class LocationPath(Expression):
    """A (possibly absolute) location path: a sequence of steps."""

    def __init__(self, absolute: bool, steps: Sequence[Step]):
        self.absolute = absolute
        self.steps = tuple(steps)

    def children(self) -> Iterator[Expression]:
        return iter(self.steps)

    def to_xpath(self) -> str:
        rendered = "/".join(step.to_xpath() for step in self.steps)
        if self.absolute:
            return "/" + rendered
        return rendered


class FilterExpr(Expression):
    """A primary expression filtered by predicates, e.g. ``id('x')[2]``."""

    def __init__(self, primary: Expression, predicates: Sequence[Expression]):
        self.primary = primary
        self.predicates = tuple(predicates)

    def children(self) -> Iterator[Expression]:
        yield self.primary
        yield from self.predicates

    def to_xpath(self) -> str:
        preds = "".join(f"[{p.to_xpath()}]" for p in self.predicates)
        return f"({self.primary.to_xpath()}){preds}"


class PathExpr(Expression):
    """A filter expression followed by a relative location path."""

    def __init__(self, start: Expression, path: LocationPath):
        if path.absolute:
            raise ValueError("the path component of a PathExpr must be relative")
        self.start = start
        self.path = path

    def children(self) -> Iterator[Expression]:
        yield self.start
        yield self.path

    def to_xpath(self) -> str:
        return f"{self.start.to_xpath()}/{self.path.to_xpath()}"


# ----------------------------------------------------------------------
# Traversal helpers
# ----------------------------------------------------------------------
def walk(expression: Expression) -> Iterator[Expression]:
    """Yield ``expression`` and all of its descendants, pre-order."""
    yield expression
    for child in expression.children():
        yield from walk(child)


def subexpression_count(expression: Expression) -> int:
    """|Q| as used in the complexity statements: number of AST nodes."""
    return sum(1 for _ in walk(expression))


def find_steps(expression: Expression) -> list[Step]:
    """All location steps occurring anywhere in the expression."""
    return [node for node in walk(expression) if isinstance(node, Step)]


def query_size(expression: Expression) -> int:
    """Alias of :func:`subexpression_count`, matching the paper's |Q|."""
    return subexpression_count(expression)
