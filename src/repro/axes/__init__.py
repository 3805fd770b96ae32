"""Axes for navigation in document trees (paper Section 3).

Exports the axis enumeration, the regular-expression definitions of Table I,
the reference evaluator of Algorithm 3.2, the node tests of Section 4 and the
efficient typed axis functions used by the engines.
"""

from .algorithm32 import eval_axis, eval_expression
from .functions import (
    axis_nodes,
    axis_set,
    axis_test_set,
    inverse_axis_set,
    proximity_order,
    proximity_sorted,
    step_candidates,
)
from .reference import reference_axis_nodes, reference_axis_set
from .nodetests import (
    ANY_NAME,
    ANY_NODE,
    COMMENT_TEST,
    TEXT_TEST,
    KindTest,
    NameTest,
    NodeTest,
    node_test_function,
    principal_node_type,
)
from .primitives import (
    Primitive,
    apply_primitive,
    firstchild,
    firstchild_inverse,
    nextsibling,
    nextsibling_inverse,
    primitive_pairs,
)
from .regex import (
    AXIS_EXPRESSIONS,
    AXIS_INVERSES,
    REVERSE_AXES,
    Axis,
    axis_by_name,
    inverse_axis,
    is_reverse_axis,
)

__all__ = [
    "ANY_NAME",
    "ANY_NODE",
    "AXIS_EXPRESSIONS",
    "AXIS_INVERSES",
    "Axis",
    "COMMENT_TEST",
    "KindTest",
    "NameTest",
    "NodeTest",
    "Primitive",
    "REVERSE_AXES",
    "TEXT_TEST",
    "apply_primitive",
    "axis_by_name",
    "axis_nodes",
    "axis_set",
    "axis_test_set",
    "eval_axis",
    "eval_expression",
    "firstchild",
    "firstchild_inverse",
    "inverse_axis",
    "inverse_axis_set",
    "is_reverse_axis",
    "nextsibling",
    "nextsibling_inverse",
    "node_test_function",
    "primitive_pairs",
    "principal_node_type",
    "proximity_order",
    "proximity_sorted",
    "reference_axis_nodes",
    "reference_axis_set",
    "step_candidates",
]
