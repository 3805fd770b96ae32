"""The Extended Wadler Fragment (paper Section 11.1).

The fragment is defined by three restrictions on full XPath:

* **Restriction 1** — functions that copy data out of the document are
  excluded: ``local-name``, ``namespace-uri``, ``name``, ``string``,
  ``number``, ``string-length`` and ``normalize-space`` (this keeps all
  scalar values of size independent of |D|).
* **Restriction 2** — ``count``, ``sum`` and node-set-to-node-set comparisons
  are excluded, and in ``nset RelOp scalar`` the scalar side must not depend
  on any context.
* **Restriction 3** — in nested ``id(id(…(c)…))`` calls over a string
  expression, ``c`` must not depend on any context.

Node-set-valued subexpressions may therefore only occur (i) along the
outermost location path, (ii) under ``boolean(...)``, (iii) as the node-set
side of a comparison with a context-independent scalar, or (iv) under
``id(...)``.  Under these restrictions OptMinContext runs in space
O(|D|·|Q|²) and time O(|D|²·|Q|²) (Theorem 11.3).

This module provides the membership test :func:`is_extended_wadler` together
with :func:`wadler_violations`, which reports *why* a query falls outside the
fragment (useful in the examples and for query authors).
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

from ..xpath.ast import (
    BinaryOp,
    ContextFunction,
    EQUALITY_OPS,
    Expression,
    FilterExpr,
    FunctionCall,
    LocationPath,
    PathExpr,
    RELATIONAL_OPS,
    Step,
    UnionExpr,
)
from ..engines.relevance import compute_relevance
from ..xpath.typing import static_type
from ..xpath.values import ValueType

#: Functions excluded by Restriction 1.
DATA_SELECTING_FUNCTIONS = frozenset(
    {
        "local-name",
        "namespace-uri",
        "name",
        "string",
        "number",
        "string-length",
        "normalize-space",
    }
)

#: Aggregations excluded by Restriction 2.
EXCLUDED_AGGREGATES = frozenset({"count", "sum"})

_COMPARISONS = EQUALITY_OPS | RELATIONAL_OPS


def is_extended_wadler(expression: Expression) -> bool:
    """Does the (normalised) query belong to the Extended Wadler Fragment?"""
    return not wadler_violations(expression)


def wadler_violations(
    expression: Expression,
    relevance: Optional[Mapping[Expression, frozenset[str]]] = None,
) -> list[str]:
    """All reasons why ``expression`` falls outside the fragment (empty if none).

    ``relevance`` is the query's Relev(N) table (Section 8.2) when the
    caller already has it; otherwise it is computed here.
    """
    violations: list[str] = []
    if relevance is None:
        relevance = compute_relevance(expression)

    for node, parent in _walk_with_parents(expression):
        # Restriction 1: data-selecting functions.
        if isinstance(node, FunctionCall) and node.name in DATA_SELECTING_FUNCTIONS:
            violations.append(f"Restriction 1: {node.name}() is not allowed")
        if isinstance(node, ContextFunction) and node.name in DATA_SELECTING_FUNCTIONS:
            violations.append(f"Restriction 1: {node.name}() is not allowed")

        # Restriction 2: count/sum and node-set comparisons.
        if isinstance(node, FunctionCall) and node.name in EXCLUDED_AGGREGATES:
            violations.append(f"Restriction 2: {node.name}() is not allowed")
        if isinstance(node, BinaryOp) and node.op in _COMPARISONS:
            left_is_nset = _is_node_set_expression(node.left)
            right_is_nset = _is_node_set_expression(node.right)
            if left_is_nset and right_is_nset:
                violations.append(
                    "Restriction 2: node-set RelOp node-set comparisons are not allowed"
                )
            elif left_is_nset or right_is_nset:
                scalar = node.right if left_is_nset else node.left
                if relevance.get(scalar, frozenset()):
                    violations.append(
                        "Restriction 2: in 'nset RelOp scalar' the scalar must not "
                        f"depend on the context ({scalar.to_xpath()})"
                    )

        # Restriction 3: nested id(...) over a context-dependent string.
        if isinstance(node, FunctionCall) and node.name == "id":
            argument = node.args[0]
            if not _is_node_set_expression(argument) and not isinstance(argument, FunctionCall):
                if relevance.get(argument, frozenset()):
                    violations.append(
                        "Restriction 3: id(c) requires a context-independent string "
                        f"argument ({argument.to_xpath()})"
                    )

        # Structural rule: node-set expressions may only appear in the allowed
        # positions (outermost path, inside a path, boolean(), id(), or as the
        # node-set side of an allowed comparison).
        if _is_node_set_expression(node):
            if parent is None:
                continue  # the outermost location path
            if isinstance(parent, (LocationPath, Step, FilterExpr, PathExpr, UnionExpr)):
                continue
            if isinstance(parent, FunctionCall) and parent.name in (
                "boolean",
                "not",
                "id",
                "__lang__",
            ):
                continue
            if isinstance(parent, BinaryOp) and parent.op in _COMPARISONS:
                continue  # checked by the Restriction-2 rule above
            if isinstance(parent, BinaryOp) and parent.op in ("and", "or"):
                # A bare path under and/or/not is the implicit spelling of
                # boolean(π); the paper's explicit-conversion assumption makes
                # these the same queries.
                continue
            violations.append(
                f"node-set expression {node.to_xpath()} occurs under "
                f"{type(parent).__name__}, which the fragment does not allow"
            )
    return violations


def _walk_with_parents(
    expression: Expression, parent: Optional[Expression] = None
) -> Iterator[tuple[Expression, Optional[Expression]]]:
    """Every node of the parse tree with its parent, pre-order."""
    yield expression, parent
    for child in expression.children():
        yield from _walk_with_parents(child, expression)


def _is_node_set_expression(expression: Expression) -> bool:
    if isinstance(expression, (LocationPath, FilterExpr, PathExpr, UnionExpr)):
        return True
    if isinstance(expression, FunctionCall) and expression.name == "id":
        return True
    return static_type(expression) is ValueType.NODE_SET


def wadler_fragment_summary(expression: Expression) -> dict[str, object]:
    """A small report used by the fragment-analysis example."""
    violations = wadler_violations(expression)
    return {
        "query": expression.to_xpath(),
        "in_fragment": not violations,
        "violations": violations,
    }


#: Queries taken from Wadler's original fragment are also in the extended
#: fragment; re-exported names kept for clarity in examples.
__all__ = [
    "DATA_SELECTING_FUNCTIONS",
    "EXCLUDED_AGGREGATES",
    "is_extended_wadler",
    "wadler_fragment_summary",
    "wadler_violations",
]
