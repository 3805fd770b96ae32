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
  sets of XSLT Patterns'98, exposed programmatically here as
  :func:`first_of_any`, :func:`last_of_any`, :func:`first_of_type` and
  :func:`last_of_type` (they are not XPath syntax, as the paper notes).

:func:`is_xpatterns` is the Figure-1 membership test.  The compilation of
these shapes into the set algebra is
:class:`repro.engines.compiled.ArrayCompiler`'s, whose one path grammar
covers the fragment and which emits the array program that
:class:`XPatternsEngine` runs.
Theorem 10.8: XPatterns queries still evaluate in time O(|D|·|Q|), with
the ``ref`` relation.  Over string values an ``id⁻¹`` splits every node's
string value, O(Σ|strval(x)|), the cost the ``π = 's'`` scan pays too.
"""

from __future__ import annotations

from typing import Optional

from ..axes.regex import Axis
from ..xmlmodel.document import Document
from ..xmlmodel.nodes import Node
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
from .core_xpath import (
    CORE_AXES,
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


class XPatternsEngine(CoreXPathEngine):
    """Linear-time evaluation of XPatterns queries."""

    name = "xpatterns"

    def _accepts_plan(self, plan) -> bool:
        return plan.classification.in_xpatterns


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
