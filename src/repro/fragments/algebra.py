"""The set algebra underlying Core XPath evaluation (paper Section 10.1).

Core XPath queries are rewritten into expressions over the operations

    χ (axis application), χ⁻¹ (inverse axis), ∩, ∪, ‘−’, and dom/root(S),

as in Definition 10.2 and Example 10.3's "query tree".  This module defines a
tiny algebra IR plus an evaluator; the compiler from Core XPath ASTs into the
IR lives in :mod:`repro.fragments.core_xpath`.  Every operation evaluates in
O(|dom|), so an algebra expression of size O(|Q|) evaluates in O(|D|·|Q|)
(Theorem 10.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..axes.functions import axis_set, axis_test_set, inverse_axis_set
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
    of the document before query evaluation.  The evaluator reads that scan
    from :meth:`~repro.xmlmodel.index.DocumentIndex.string_match`, which
    keeps it per document until the next edit.
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


class AlgebraEvaluator:
    """Evaluate algebra expressions over one document.

    ``operations_performed`` counts O(|dom|) set operations — the quantity
    bounded by O(|Q|) in Theorem 10.5.  When ``stats`` is given (the
    fragment engines pass their :class:`~repro.engines.base.EvaluationStats`),
    each operation is also bumped there as ``algebra_evaluations`` and
    checkpointed, so resource limits interrupt algebra evaluation
    cooperatively.
    """

    def __init__(self, document: Document, stats=None):
        self.document = document
        self.operations_performed = 0
        self.stats = stats

    def evaluate(self, expression: AlgebraExpr, context_set: frozenset[Node]) -> set[Node]:
        self.operations_performed += 1
        if self.stats is not None:
            self.stats.bump("algebra_evaluations")
            self.stats.checkpoint()
        if isinstance(expression, Intersect):
            fused = self._fused_axis_test(expression, context_set)
            if fused is not None:
                return fused
        if isinstance(expression, ContextSet):
            return set(context_set)
        if isinstance(expression, RootSet):
            return {self.document.root}
        if isinstance(expression, DomSet):
            return self.document.dom_set
        if isinstance(expression, TestSet):
            return expression.test.select(self.document, expression.axis)
        if isinstance(expression, StringMatchSet):
            # The document index's per-literal scan, shared with the
            # compiled engine and cached across queries until an edit.
            index = self.document.index
            orders = index.string_match(expression.value, expression.negated)
            return set(map(index.nodes.__getitem__, orders))
        if isinstance(expression, AxisApply):
            return axis_set(self.document, self.evaluate(expression.operand, context_set), expression.axis)
        if isinstance(expression, InverseAxisApply):
            return inverse_axis_set(
                self.document, self.evaluate(expression.operand, context_set), expression.axis
            )
        if isinstance(expression, IdApply):
            from ..xmlmodel.ids import ref_relation_for

            relation = ref_relation_for(self.document)
            operand = self.evaluate(expression.operand, context_set)
            if expression.inverse:
                return relation.id_axis_inverse(operand)
            return relation.id_axis(operand)
        if isinstance(expression, Intersect):
            return self.evaluate(expression.left, context_set) & self.evaluate(
                expression.right, context_set
            )
        if isinstance(expression, UnionOp):
            return self.evaluate(expression.left, context_set) | self.evaluate(
                expression.right, context_set
            )
        if isinstance(expression, Complement):
            return self.document.dom_set - self.evaluate(expression.operand, context_set)
        if isinstance(expression, DomIfRoot):
            inner = self.evaluate(expression.operand, context_set)
            return self.document.dom_set if self.document.root in inner else set()
        if isinstance(expression, DomIfNonempty):
            inner = self.evaluate(expression.operand, context_set)
            return self.document.dom_set if inner else set()
        raise TypeError(f"unknown algebra expression {expression!r}")  # pragma: no cover

    def _fused_axis_test(
        self, expression: Intersect, context_set: frozenset[Node]
    ) -> Optional[set[Node]]:
        """χ(S) ∩ T(t) answered from the document index's posting lists.

        The compiler emits every location step as ``Intersect(AxisApply(χ, …),
        TestSet(t))``; fusing the pair lets the interval axes intersect with a
        bisect of the (type, name) posting list instead of materialising χ(S)
        in full.  Both fused plan operations are still counted — the fusion
        changes constants, not the O(|Q|) operation bound of Theorem 10.5.
        """
        left, right = expression.left, expression.right
        if isinstance(left, AxisApply) and isinstance(right, TestSet):
            apply_expr, test_expr = left, right
        elif isinstance(right, AxisApply) and isinstance(left, TestSet):
            apply_expr, test_expr = right, left
        else:
            return None
        if test_expr.axis is not apply_expr.axis:
            # The test's typing axis must match the applied axis for the
            # posting-list answer to be the same as matches() filtering.
            return None
        self.operations_performed += 2
        if self.stats is not None:
            self.stats.bump("algebra_evaluations", 2)
            self.stats.checkpoint()
        operand = self.evaluate(apply_expr.operand, context_set)
        return axis_test_set(self.document, operand, apply_expr.axis, test_expr.test)


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
