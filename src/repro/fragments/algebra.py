"""The set algebra underlying Core XPath evaluation (paper Section 10.1).

Core XPath queries are rewritten into expressions over the operations

    χ (axis application), χ⁻¹ (inverse axis), ∩, ∪, ‘−’, and dom/root(S),

as in Definition 10.2 and Example 10.3's "query tree".  This module defines
that algebra as a tiny IR.  The one compiler from query ASTs into the IR,
:class:`repro.engines.compiled.ArrayCompiler`, lives beside the lowering
that turns it into one array instruction per operation, and every engine
that runs the algebra runs that program.  Every operation evaluates in
O(|dom|), so an algebra expression of size O(|Q|) evaluates in O(|D|·|Q|)
(Theorem 10.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..axes.nodetests import NodeTest
from ..axes.regex import Axis
from ..xmlmodel.document import Document
from ..xmlmodel.nodes import Node


# ----------------------------------------------------------------------
# IR node classes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ContextSet:
    """The input context node set N0 (leaf of forward plans)."""

    def render(self) -> str:
        return "N0"


@dataclass(frozen=True)
class RootSet:
    """The singleton {root}."""

    def render(self) -> str:
        return "{root}"


@dataclass(frozen=True)
class DomSet:
    """The full node set dom."""

    def render(self) -> str:
        return "dom"


@dataclass(frozen=True)
class TestSet:
    """T(t): all nodes satisfying a node test (under a given axis' typing)."""

    test: NodeTest
    axis: Axis = Axis.CHILD

    def render(self) -> str:
        return f"T({self.test.to_xpath()})"


@dataclass(frozen=True)
class StringMatchSet:
    """The unary predicate "= s": nodes whose string value equals ``value``.

    Used by the XPatterns extension (Table VI); computable by a linear scan
    of the document before query evaluation.  Its ``strmatch`` instruction
    reads that scan from
    :meth:`~repro.xmlmodel.index.DocumentIndex.string_match`, which keeps
    it per document until the next edit.
    """

    value: str
    negated: bool = False

    def render(self) -> str:
        op = "!=" if self.negated else "="
        return f"{{x | strval(x) {op} {self.value!r}}}"


@dataclass(frozen=True)
class AxisApply:
    """χ(operand)."""

    axis: Axis
    operand: "AlgebraExpr"

    def render(self) -> str:
        return f"{self.axis.value}({self.operand.render()})"


@dataclass(frozen=True)
class InverseAxisApply:
    """χ⁻¹(operand)."""

    axis: Axis
    operand: "AlgebraExpr"

    def render(self) -> str:
        return f"{self.axis.value}⁻¹({self.operand.render()})"


@dataclass(frozen=True)
class IdApply:
    """The id "axis" of Section 10.2 (or its inverse)."""

    operand: "AlgebraExpr"
    inverse: bool = False

    def render(self) -> str:
        name = "id⁻¹" if self.inverse else "id"
        return f"{name}({self.operand.render()})"


@dataclass(frozen=True)
class Intersect:
    left: "AlgebraExpr"
    right: "AlgebraExpr"

    def render(self) -> str:
        return f"({self.left.render()} ∩ {self.right.render()})"


@dataclass(frozen=True)
class UnionOp:
    left: "AlgebraExpr"
    right: "AlgebraExpr"

    def render(self) -> str:
        return f"({self.left.render()} ∪ {self.right.render()})"


@dataclass(frozen=True)
class Complement:
    """dom − operand (used for not(...))."""

    operand: "AlgebraExpr"

    def render(self) -> str:
        return f"(dom − {self.operand.render()})"


@dataclass(frozen=True)
class DomIfRoot:
    """dom/root(S): dom if root ∈ S, else ∅ (absolute paths in S←)."""

    operand: "AlgebraExpr"

    def render(self) -> str:
        return f"dom/root({self.operand.render()})"


@dataclass(frozen=True)
class DomIfNonempty:
    """dom if S ≠ ∅, else ∅ — context-independent existential predicates.

    Used for predicates whose truth does not depend on the context node,
    e.g. ``[id('k')/π]`` in XPatterns: the id literal seeds a fixed node
    set, so the predicate holds everywhere or nowhere.
    """

    operand: "AlgebraExpr"

    def render(self) -> str:
        return f"dom-if-nonempty({self.operand.render()})"


AlgebraExpr = Union[
    ContextSet,
    RootSet,
    DomSet,
    TestSet,
    StringMatchSet,
    AxisApply,
    InverseAxisApply,
    IdApply,
    Intersect,
    UnionOp,
    Complement,
    DomIfRoot,
    DomIfNonempty,
]


def algebra_size(expression: AlgebraExpr) -> int:
    """Number of operations in an algebra expression (plan size)."""
    children: list[AlgebraExpr] = []
    if isinstance(
        expression,
        (AxisApply, InverseAxisApply, IdApply, Complement, DomIfRoot, DomIfNonempty),
    ):
        children = [expression.operand]
    elif isinstance(expression, (Intersect, UnionOp)):
        children = [expression.left, expression.right]
    return 1 + sum(algebra_size(child) for child in children)


# ----------------------------------------------------------------------
# Document-level unary predicates of XSLT Patterns '98 (Table VI)
# ----------------------------------------------------------------------
def first_of_any(document: Document) -> set[Node]:
    """Nodes that are the first (regular) child of their parent."""
    result: set[Node] = set()
    for node in document.dom:
        if node.is_special_child or node.parent is None:
            continue
        siblings = node.parent.children
        if siblings and siblings[0] is node:
            result.add(node)
    return result


def last_of_any(document: Document) -> set[Node]:
    """Nodes that are the last (regular) child of their parent."""
    result: set[Node] = set()
    for node in document.dom:
        if node.is_special_child or node.parent is None:
            continue
        siblings = node.parent.children
        if siblings and siblings[-1] is node:
            result.add(node)
    return result


def first_of_type(document: Document, names: Optional[set[str]] = None) -> set[Node]:
    """first-of-type(): elements with no earlier sibling of the same name."""
    result: set[Node] = set()
    for node in document.dom:
        if not node.is_element or (names is not None and node.name not in names):
            continue
        earlier_same = False
        sibling = node.prev_sibling
        while sibling is not None:
            if sibling.is_element and sibling.name == node.name:
                earlier_same = True
                break
            sibling = sibling.prev_sibling
        if not earlier_same:
            result.add(node)
    return result


def last_of_type(document: Document, names: Optional[set[str]] = None) -> set[Node]:
    """last-of-type(): elements with no later sibling of the same name."""
    result: set[Node] = set()
    for node in document.dom:
        if not node.is_element or (names is not None and node.name not in names):
            continue
        later_same = False
        sibling = node.next_sibling
        while sibling is not None:
            if sibling.is_element and sibling.name == node.name:
                later_same = True
                break
            sibling = sibling.next_sibling
        if not later_same:
            result.add(node)
    return result
