"""XPatterns: Core XPath + the id axis + XSLT'98-style unary predicates.

Section 10.2 extends the linear-time fragment with

* the **id axis**: ``id(...)`` at the start of a path (``id('k')/π``,
  ``id(π2)`` as a path start), whose ``id`` and ``id⁻¹`` set operations
  tokenise string values exactly as Table II's ``id()`` does, not the
  direct text of Theorem 10.7's ``ref`` relation;
* **unary predicates** (Table VI): attribute tests (``@n``, ``@*``),
  ``text()`` / ``comment()`` / ``processing-instruction()`` tests, and the
  string-equality test ``π = 's'`` (and its ``!=`` variant), whose extension
  is computed by one linear scan of the document before evaluation;
* the ``first-of-type()`` / ``last-of-type()`` / first/last-of-any predicate
  sets of XSLT Patterns'98, exposed programmatically from
  :mod:`repro.fragments.algebra` (they are not XPath syntax, as the paper
  notes).

Theorem 10.8: XPatterns queries still evaluate in time O(|D|·|Q|), with
the ``ref`` relation.  Over string values an ``id⁻¹`` splits every node's
string value, O(Σ|strval(x)|), the cost the ``π = 's'`` scan pays too.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..axes.regex import Axis
from ..errors import FragmentError
from ..xpath.ast import (
    BinaryOp,
    Expression,
    FilterExpr,
    FunctionCall,
    LocationPath,
    PathExpr,
    Step,
    StringLiteral,
)
from .algebra import (
    AlgebraExpr,
    DomIfNonempty,
    DomIfRoot,
    DomSet,
    IdApply,
    Intersect,
    InverseAxisApply,
    StringMatchSet,
    TestSet,
)
from .core_xpath import (
    CORE_AXES,
    CoreXPathCompiler,
    CoreXPathEngine,
    _is_core_predicate,
    is_core_xpath,
)

#: XPatterns additionally allows the attribute axis inside steps used as
#: unary predicates (``[@href]``) and at the end of paths.
XPATTERNS_AXES = CORE_AXES | {Axis.ATTRIBUTE}


# ----------------------------------------------------------------------
# Membership test
# ----------------------------------------------------------------------
def is_xpatterns(expression: Expression) -> bool:
    """Does the (normalised) query belong to the XPatterns fragment?"""
    if is_core_xpath(expression):
        return True
    if isinstance(expression, LocationPath):
        return all(_is_xpatterns_step(step) for step in expression.steps)
    if isinstance(expression, PathExpr):
        return _is_id_start(expression.start) and all(
            _is_xpatterns_step(step) for step in expression.path.steps
        )
    if isinstance(expression, (FunctionCall, FilterExpr)):
        return _is_id_start(expression)
    return False


def _is_id_start(expression: Expression) -> bool:
    """id('k'), id(π) — possibly nested — as the start of a path."""
    if isinstance(expression, FunctionCall) and expression.name == "id" and len(expression.args) == 1:
        argument = expression.args[0]
        if isinstance(argument, StringLiteral):
            return True
        if isinstance(argument, FunctionCall):
            return _is_id_start(argument)
        return _is_xpatterns_path(argument)
    return False


def _is_id_call(expression: Expression) -> bool:
    return isinstance(expression, FunctionCall) and expression.name == "id"


def _is_xpatterns_path(expression: Expression) -> bool:
    if isinstance(expression, LocationPath):
        return all(_is_xpatterns_step(step) for step in expression.steps)
    if isinstance(expression, PathExpr):
        return _is_id_start(expression.start) and all(
            _is_xpatterns_step(step) for step in expression.path.steps
        )
    return False


def _is_xpatterns_step(step: Step) -> bool:
    if step.axis not in XPATTERNS_AXES:
        return False
    return all(_is_xpatterns_predicate(p) for p in step.predicates)


def _is_xpatterns_predicate(expression: Expression) -> bool:
    if _is_core_predicate(expression):
        return True
    if isinstance(expression, BinaryOp) and expression.op in ("and", "or"):
        return _is_xpatterns_predicate(expression.left) and _is_xpatterns_predicate(expression.right)
    if isinstance(expression, FunctionCall) and expression.name == "not" and len(expression.args) == 1:
        return _is_xpatterns_predicate(expression.args[0])
    if isinstance(expression, BinaryOp) and expression.op in ("=", "!="):
        left, right = expression.left, expression.right
        if isinstance(right, StringLiteral) and _is_xpatterns_path(left):
            return True
        if isinstance(left, StringLiteral) and _is_xpatterns_path(right):
            return True
    if isinstance(expression, (LocationPath, PathExpr)):
        return _is_xpatterns_path(expression)
    if isinstance(expression, FunctionCall) and expression.name == "id":
        return _is_id_start(expression)
    return False


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _IdLiteral:
    """The node set id('k1 k2 …') — context independent algebra leaf.

    Kept out of :mod:`repro.fragments.algebra` so the base algebra stays
    exactly the paper's operator set; the lowering turns it into the
    ``id-literal`` instruction, which reads the document's ID map.
    """

    value: str

    def render(self) -> str:
        return f"id({self.value!r})"


class XPatternsCompiler(CoreXPathCompiler):
    """Extends the Core XPath compiler with the id axis and "=s" predicates."""

    # -- S→ with id() path starts --------------------------------------
    def compile_query(self, expression: Expression) -> AlgebraExpr:
        if isinstance(expression, PathExpr):
            return self._compile_id_path(expression)
        if isinstance(expression, (FunctionCall, FilterExpr)):
            return self._compile_id_start(expression)
        return super().compile_query(expression)

    def _compile_id_path(self, expression: PathExpr) -> AlgebraExpr:
        """S→ of ``id(…)/π``: the id start, then π's steps forwards."""
        plan = self._compile_id_start(expression.start)
        for step in expression.path.steps:
            plan = self._forward_step(plan, step)
        return plan

    def _compile_id_start(self, expression: Expression) -> AlgebraExpr:
        if isinstance(expression, FilterExpr) and _is_id_call(expression.primary):
            raise FragmentError(
                "predicates on id(...) starts are outside XPatterns: "
                f"{expression.to_xpath()}"
            )
        if not _is_id_call(expression):
            raise FragmentError(f"not an id(...) path start: {expression.to_xpath()}")
        argument = expression.args[0]
        if isinstance(argument, StringLiteral):
            # id('k1 k2 …'): a context-independent leaf, the literal's IDs
            # looked up in the document's ID map.
            return _IdLiteral(argument.value)
        # id(π): π evaluated forward from the context set, then the id axis.
        if isinstance(argument, LocationPath):
            return IdApply(super().compile_query(argument))
        if isinstance(argument, PathExpr):
            return IdApply(self._compile_id_path(argument))
        if _is_id_call(argument) or (
            isinstance(argument, FilterExpr) and _is_id_call(argument.primary)
        ):
            return IdApply(self._compile_id_start(argument))
        raise FragmentError(f"id(...) argument outside XPatterns: {argument.to_xpath()}")

    # -- E1 extension: "π = 's'" ----------------------------------------
    def compile_predicate(self, expression: Expression) -> AlgebraExpr:
        # Bare id(...) predicates: [id(π)] holds wherever π reaches a node
        # whose string value references any id at all; [id(π)/π2] wherever
        # the whole path is non-empty.  The membership test accepts these,
        # so the compiler must too.
        if isinstance(expression, FunctionCall) and _is_id_start(expression):
            return self._backward_id_start(expression, DomSet())
        if isinstance(expression, PathExpr) and _is_id_start(expression.start):
            return self._backward_with_target(expression, DomSet())
        if isinstance(expression, BinaryOp) and expression.op in ("=", "!="):
            left, right = expression.left, expression.right
            literal: StringLiteral | None = None
            path: Expression | None = None
            if isinstance(right, StringLiteral):
                literal, path = right, left
            elif isinstance(left, StringLiteral):
                literal, path = left, right
            if literal is not None and path is not None and _is_xpatterns_path(path):
                target = StringMatchSet(literal.value, negated=(expression.op == "!="))
                return self._backward_with_target(path, target)
        return super().compile_predicate(expression)

    def _backward_with_target(self, path: Expression, target: AlgebraExpr) -> AlgebraExpr:
        """S← of a path whose final node set is additionally intersected with ``target``."""
        if isinstance(path, PathExpr):
            inner = self._backward_with_target(path.path, target)
            # id(...) start: propagate backwards through the id axis.
            return self._backward_id_start(path.start, inner)
        assert isinstance(path, LocationPath)
        steps = list(path.steps)
        if not steps:
            plan: AlgebraExpr = target
        else:
            plan = None  # type: ignore[assignment]
            for index, step in enumerate(reversed(steps)):
                matched: AlgebraExpr = TestSet(step.node_test, step.axis)
                if index == 0:
                    matched = Intersect(matched, target)
                for predicate in step.predicates:
                    matched = Intersect(matched, self.compile_predicate(predicate))
                if plan is not None:
                    matched = Intersect(plan, matched)
                plan = InverseAxisApply(step.axis, matched)
        if path.absolute:
            return DomIfRoot(plan)
        return plan

    def _backward_id_start(self, start: Expression, downstream: AlgebraExpr) -> AlgebraExpr:
        if isinstance(start, FunctionCall) and start.name == "id":
            argument = start.args[0]
            inner = IdApply(downstream, inverse=True)
            if isinstance(argument, StringLiteral):
                # id('k') is context independent: the predicate holds at
                # *every* node iff the referenced nodes intersect the
                # downstream requirement, and nowhere otherwise.
                return DomIfNonempty(Intersect(_IdLiteral(argument.value), downstream))
            if isinstance(argument, FunctionCall):
                # id(id(…)): the inner call's nodes must reach ``inner``.
                return self._backward_id_start(argument, inner)
            return self._backward_with_target(argument, inner)
        raise FragmentError(f"unsupported path start in XPatterns: {start.to_xpath()}")


class XPatternsEngine(CoreXPathEngine):
    """Linear-time evaluation of XPatterns queries."""

    name = "xpatterns"

    def _accepts_plan(self, plan) -> bool:
        return plan.classification.in_xpatterns
