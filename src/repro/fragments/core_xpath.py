"""Core XPath: the grammar check and the linear-time engine.

Section 10.1 defines Core XPath as the fragment of XPath that manipulates
node sets only: full location paths with all axes, predicates that are
boolean combinations (``and``, ``or``, ``not``) of (existentially
interpreted) location paths, and nothing else — no arithmetic, no strings,
no positions.  :func:`is_core_xpath` is that membership test, which the
Figure-1 classification reads.

Evaluation maps a query onto the set algebra of Section 10.1 — χ (axis
application), χ⁻¹ (inverse axis), ∩, ∪, ‘−’ and dom/root(S) — using the
three semantics functions of Definition 10.2:

* ``S→`` — the outermost path, evaluated forwards from the context set;
* ``S←`` — paths inside predicates, evaluated *backwards* with the inverse
  axes (Lemma 10.1), yielding the set of nodes where the path "matches";
* ``E1`` — boolean predicate expressions as set operations.

That compilation is :class:`repro.engines.compiled.ArrayCompiler`, the one
compiler of the set algebra, which emits each set operation as one
instruction of an array program, and :class:`CoreXPathEngine` runs that
program.  Theorem 10.5: the program has O(|Q|) instructions, each O(|D|),
so Core XPath evaluates in time O(|D|·|Q|).
"""

from __future__ import annotations

from ..axes.nodetests import KindTest, NameTest
from ..axes.regex import Axis
from ..errors import FragmentError
from ..xpath.ast import (
    BinaryOp,
    Expression,
    FunctionCall,
    LocationPath,
    Step,
)
from ..xpath.context import Context, StaticContext
from ..xpath.values import NodeSet, XPathValue
from ..engines.base import EvaluationStats, XPathEngine

# engines.compiled imports this module while it loads: bind the module, whose
# execute_program exists by the time an engine runs.
from ..engines import compiled as _compiled

#: Axes available in Core XPath (all of them except the attribute/namespace
#: axes, which select non-element nodes — the paper's Core XPath grammar is
#: stated over the navigational axes; the XPatterns extension adds attribute
#: tests back as unary predicates).
CORE_AXES = frozenset(
    {
        Axis.SELF,
        Axis.CHILD,
        Axis.PARENT,
        Axis.DESCENDANT,
        Axis.ANCESTOR,
        Axis.DESCENDANT_OR_SELF,
        Axis.ANCESTOR_OR_SELF,
        Axis.FOLLOWING,
        Axis.PRECEDING,
        Axis.FOLLOWING_SIBLING,
        Axis.PRECEDING_SIBLING,
    }
)


# ----------------------------------------------------------------------
# Membership test
# ----------------------------------------------------------------------
def is_core_xpath(expression: Expression) -> bool:
    """Does the (normalised) query belong to Core XPath?"""
    return _is_core_path(expression)


def _is_core_path(expression: Expression) -> bool:
    if not isinstance(expression, LocationPath):
        return False
    return all(_is_core_step(step) for step in expression.steps)


def _is_core_step(step: Step) -> bool:
    if step.axis not in CORE_AXES:
        return False
    if not isinstance(step.node_test, (NameTest, KindTest)):
        return False
    return all(_is_core_predicate(predicate) for predicate in step.predicates)


def _is_core_predicate(expression: Expression) -> bool:
    if isinstance(expression, BinaryOp) and expression.op in ("and", "or"):
        return _is_core_predicate(expression.left) and _is_core_predicate(expression.right)
    if isinstance(expression, FunctionCall) and expression.name == "not" and len(expression.args) == 1:
        return _is_core_predicate(expression.args[0])
    if isinstance(expression, FunctionCall) and expression.name == "boolean" and len(expression.args) == 1:
        # boolean(π) is the explicit-conversion spelling of a bare path.
        return _is_core_path(expression.args[0])
    return _is_core_path(expression)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class CoreXPathEngine(XPathEngine):
    """Linear-time evaluation of Core XPath queries via the set algebra.

    The plan's one array program runs, one O(|D|) instruction per set
    operation (Theorem 10.5).  Subclasses change only which plans they
    accept: the fragment membership test.
    """

    name = "corexpath"

    def _evaluate(
        self,
        plan,
        static_context: StaticContext,
        context: Context,
        stats: EvaluationStats,
    ) -> XPathValue:
        if not self._accepts_plan(plan):
            return self._outside_fragment(plan, static_context, context, stats)
        # The program is memoised on the plan, so plan-cache hits and
        # Collection batches skip compilation.
        program = plan.array_program()
        document = static_context.document
        index = document.index
        orders = _compiled.execute_program(
            program, index, (context.node.order,), stats, document
        )
        if program.count:
            return float(len(orders))
        return NodeSet.from_sorted(map(index.nodes.__getitem__, orders))

    def _accepts_plan(self, plan) -> bool:
        """Fragment membership, read off the plan's classification."""
        return plan.classification.in_core_xpath

    def _outside_fragment(self, plan, static_context, context, stats) -> XPathValue:
        """Answer a plan outside the fragment: this engine refuses it."""
        raise FragmentError(
            f"query is outside the {self.name} fragment: {plan.to_xpath()}"
        )

    def compile(self, expression: Expression) -> "_compiled.ArrayProgram":
        """The array program the engine runs for a normalised query (used
        by examples and tests)."""
        return _compiled.ArrayCompiler().compile_query(expression)
