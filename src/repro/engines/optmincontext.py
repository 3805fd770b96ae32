"""The OptMinContext algorithm (paper Section 11).

OptMinContext = MinContext + bottom-up (backward) evaluation of *inner*
location paths that occur in the shapes

* ``boolean(π)``            — an existential test, or
* ``π RelOp c`` / ``c RelOp π``  — where ``c`` does not depend on any context,

(the shapes Restriction 2 of the Extended Wadler Fragment allows).  For such
subexpressions the dom × 2^dom relation of the inner-path machinery is never
needed: the set of context nodes for which the predicate holds can be found
by propagating a node set *backwards* through the path's steps with the
inverse axes (Section 11.1, procedures ``eval_bottomup_path`` and
``propagate_path_backwards`` of Appendix A).  On queries inside the Extended
Wadler Fragment this brings the space bound down to O(|D|·|Q|²) and the time
bound to O(|D|²·|Q|²) (Theorem 11.3); queries in Core XPath are handled in
O(|D|·|Q|) (Corollary 11.5).  Queries outside the fragment still evaluate
correctly — the engine simply falls back to plain MinContext for the parts
that do not match the shapes above.
"""

from __future__ import annotations

from typing import Optional

from ..axes.functions import inverse_axis_set, proximity_order, step_candidates
from ..xmlmodel.nodes import Node
from ..xpath.ast import (
    BinaryOp,
    EQUALITY_OPS,
    Expression,
    FunctionCall,
    LocationPath,
    RELATIONAL_OPS,
    walk,
)
from ..xpath.context import Context, StaticContext
from ..xpath.functions import _compare_booleans, _compare_numbers, _compare_strings, _flip
from ..xpath.values import (
    NodeSet,
    XPathValue,
    predicate_truth,
    string_to_number,
    to_string,
)
from .base import EvaluationStats
from .mincontext import MinContextEngine, MinContextEvaluator

_COMPARISON_OPS = EQUALITY_OPS | RELATIONAL_OPS


class OptMinContextEngine(MinContextEngine):
    """Algorithm 11.1 (OptMinContext)."""

    name = "optmincontext"

    def _make_evaluator(
        self, static_context: StaticContext, stats: EvaluationStats
    ) -> "OptMinContextEvaluator":
        return OptMinContextEvaluator(static_context, stats)


class OptMinContextEvaluator(MinContextEvaluator):
    """MinContext evaluator with a bottom-up pre-pass for eligible inner paths."""

    def __init__(self, static_context: StaticContext, stats: EvaluationStats):
        super().__init__(static_context, stats)
        self.bottomup_evaluated: set[Expression] = set()

    # ------------------------------------------------------------------
    # Algorithm 11.1
    # ------------------------------------------------------------------
    def run(
        self,
        expression: Expression,
        context: Context,
        relevance: Optional[dict] = None,
    ) -> XPathValue:
        from .relevance import compute_relevance

        if relevance:
            self.relevance = dict(relevance)
        else:
            self.relevance = compute_relevance(expression)
        # "Evaluate all bottom-up location paths inside Q (starting with the
        # innermost ones in case of nesting)": post-order traversal.
        for node in reversed(list(walk(expression))):
            if node is expression:
                continue  # the outermost expression is handled by MinContext
            if self._bottomup_shape(node) is not None:
                self.eval_bottomup_path(node)
        return super().run(expression, context, relevance=self.relevance)

    # ------------------------------------------------------------------
    # Shape detection
    # ------------------------------------------------------------------
    def _bottomup_shape(
        self, expression: Expression
    ) -> Optional[tuple[LocationPath, Optional[Expression], Optional[str], bool]]:
        """Return (π, c, op, path_on_left) when the node has an eligible shape."""
        if (
            isinstance(expression, FunctionCall)
            and expression.name == "boolean"
            and len(expression.args) == 1
            and isinstance(expression.args[0], LocationPath)
        ):
            return (expression.args[0], None, None, True)
        if isinstance(expression, BinaryOp) and expression.op in _COMPARISON_OPS:
            left, right = expression.left, expression.right
            if isinstance(left, LocationPath) and not self.relev(right):
                if not isinstance(right, LocationPath):
                    return (left, right, expression.op, True)
            if isinstance(right, LocationPath) and not self.relev(left):
                if not isinstance(left, LocationPath):
                    return (right, left, expression.op, False)
        return None

    # ------------------------------------------------------------------
    # eval_bottomup_path (Appendix A)
    # ------------------------------------------------------------------
    def eval_bottomup_path(self, expression: Expression) -> None:
        """Fill table(expression) for every context node via backward propagation."""
        if expression in self.bottomup_evaluated:
            return
        shape = self._bottomup_shape(expression)
        assert shape is not None
        path, scalar, op, path_on_left = shape

        # Step 1: the initial node set Y.
        boolean_mode = False
        scalar_value: XPathValue = True
        if scalar is None:
            initial = set(self.document.dom)
        else:
            self.eval_by_cnode_only(scalar, {self.document.root})
            scalar_value = self._table_value(scalar, self.document.root)
            effective_op = op if path_on_left else _flip(op)
            if isinstance(scalar_value, bool):
                boolean_mode = True
                initial = set(self.document.dom)
            elif isinstance(scalar_value, NodeSet):
                targets = [node.string_value() for node in scalar_value]
                initial = {
                    node
                    for node in self.document.dom
                    if any(
                        _compare_strings(effective_op, node.string_value(), target)
                        for target in targets
                    )
                }
            elif isinstance(scalar_value, (int, float)):
                initial = {
                    node
                    for node in self.document.dom
                    if _compare_numbers(
                        effective_op, string_to_number(node.string_value()), float(scalar_value)
                    )
                }
            else:
                initial = {
                    node
                    for node in self.document.dom
                    if _compare_strings(effective_op, node.string_value(), to_string(scalar_value))
                }

        # Step 2: propagate Y backwards through the location path.
        reachable_from = self.propagate_path_backwards(initial, path)

        # Step 3: fill the context-value table of the whole subexpression.
        effective_op = op if path_on_left else _flip(op) if op else None
        for node in self.document.dom:
            holds = node in reachable_from
            if boolean_mode:
                assert effective_op is not None
                value: XPathValue = _compare_booleans(effective_op, holds, bool(scalar_value))
            else:
                value = holds
            self._store(expression, self._table_key(expression, node), value)
        self.bottomup_evaluated.add(expression)
        self.stats.bump("bottomup_paths")

    # ------------------------------------------------------------------
    # propagate_path_backwards (Appendix A)
    # ------------------------------------------------------------------
    def propagate_path_backwards(self, targets: set[Node], path: LocationPath) -> set[Node]:
        """The set of context nodes from which ``path`` reaches into ``targets``."""
        current = set(targets)
        for step in reversed(path.steps):
            if not current:
                break
            current = self._backward_step(step, current)
        if path.absolute:
            if self.document.root in current or (not path.steps and current):
                return set(self.document.dom)
            return set()
        return current

    def _backward_step(self, step, targets: set[Node]) -> set[Node]:
        self.stats.location_step_applications += 1
        self.stats.checkpoint()
        filtered = {node for node in targets if step.node_test.matches(node, step.axis)}
        if not filtered:
            return set()
        for predicate in step.predicates:
            self.eval_by_cnode_only(predicate, filtered)
        position_dependent = any(self._position_dependent(p) for p in step.predicates)
        if not position_dependent:
            if step.predicates:
                filtered = {
                    node
                    for node in filtered
                    if all(
                        predicate_truth(self.eval_single_context(p, node, 1, 1), 1)
                        for p in step.predicates
                    )
                }
            return inverse_axis_set(self.document, filtered, step.axis)
        # Position/size-dependent predicates: loop over the candidate origins.
        # Note: predicate positions are computed over the *full* candidate set
        # reachable from each origin (standard XPath semantics); the check
        # against the propagated target set happens afterwards.
        origins = inverse_axis_set(self.document, filtered, step.axis)
        result: set[Node] = set()
        for origin in sorted(origins, key=lambda n: n.order):
            survivors = proximity_order(
                step_candidates(origin, step.axis, step.node_test), step.axis
            )
            survivors = self._filter_with_positions(survivors, step.predicates)
            if any(node in targets for node in survivors):
                result.add(origin)
        return result
