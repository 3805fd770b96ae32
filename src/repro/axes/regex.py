"""Axis definitions as limited regular expressions over primitives (Table I).

The paper defines every axis through a restricted regular expression built
from the primitive relations (and, in a few cases, other axes)::

    child            := firstchild.nextsibling*
    parent           := (nextsibling⁻¹)*.firstchild⁻¹
    descendant       := firstchild.(firstchild ∪ nextsibling)*
    ancestor         := (firstchild⁻¹ ∪ nextsibling⁻¹)*.firstchild⁻¹
    descendant-or-self := descendant ∪ self
    ancestor-or-self := ancestor ∪ self
    following        := ancestor-or-self.nextsibling.nextsibling*.descendant-or-self
    preceding        := ancestor-or-self.nextsibling⁻¹.(nextsibling⁻¹)*.descendant-or-self
    following-sibling:= nextsibling.nextsibling*
    preceding-sibling:= (nextsibling⁻¹)*.nextsibling⁻¹

The expression grammar (concatenation, union, star, primitive, axis
reference, self) is represented by small dataclasses; the interpreter lives
in :mod:`repro.axes.algorithm32` and is a faithful implementation of the
paper's Algorithm 3.2, which serves as the executable specification against
which the efficient direct axis functions are differentially tested.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from .primitives import Primitive


class Axis(enum.Enum):
    """The thirteen XPath axes (plus the derived ``id`` pseudo-axis)."""

    SELF = "self"
    CHILD = "child"
    PARENT = "parent"
    DESCENDANT = "descendant"
    ANCESTOR = "ancestor"
    DESCENDANT_OR_SELF = "descendant-or-self"
    ANCESTOR_OR_SELF = "ancestor-or-self"
    FOLLOWING = "following"
    PRECEDING = "preceding"
    FOLLOWING_SIBLING = "following-sibling"
    PRECEDING_SIBLING = "preceding-sibling"
    ATTRIBUTE = "attribute"
    NAMESPACE = "namespace"

    # Identity hash, as for NodeType: axis-table lookups and axis-set
    # membership tests run once per step.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Axis.{self.value}"


#: Axes whose result is ordered in *reverse* document order for the purposes
#: of context positions (paper Section 4, relation <doc,χ).
REVERSE_AXES = frozenset(
    {
        Axis.PARENT,
        Axis.ANCESTOR,
        Axis.ANCESTOR_OR_SELF,
        Axis.PRECEDING,
        Axis.PRECEDING_SIBLING,
    }
)

#: Natural inverses of each axis (paper Section 10.1).
AXIS_INVERSES: dict[Axis, Axis] = {
    Axis.SELF: Axis.SELF,
    Axis.CHILD: Axis.PARENT,
    Axis.PARENT: Axis.CHILD,
    Axis.DESCENDANT: Axis.ANCESTOR,
    Axis.ANCESTOR: Axis.DESCENDANT,
    Axis.DESCENDANT_OR_SELF: Axis.ANCESTOR_OR_SELF,
    Axis.ANCESTOR_OR_SELF: Axis.DESCENDANT_OR_SELF,
    Axis.FOLLOWING: Axis.PRECEDING,
    Axis.PRECEDING: Axis.FOLLOWING,
    Axis.FOLLOWING_SIBLING: Axis.PRECEDING_SIBLING,
    Axis.PRECEDING_SIBLING: Axis.FOLLOWING_SIBLING,
    # attribute/namespace behave like restricted child axes; their inverse is
    # parent (used only internally by the backward propagation of §11).
    Axis.ATTRIBUTE: Axis.PARENT,
    Axis.NAMESPACE: Axis.PARENT,
}

#: Principal node type of each axis (paper Section 4).
#: Values are strings to avoid importing NodeType here; see nodetests.py.
PRINCIPAL_NODE_TYPE: dict[Axis, str] = {axis: "element" for axis in Axis}
PRINCIPAL_NODE_TYPE[Axis.ATTRIBUTE] = "attribute"
PRINCIPAL_NODE_TYPE[Axis.NAMESPACE] = "namespace"


# ----------------------------------------------------------------------
# Regular expressions over primitive relations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PrimitiveStep:
    """A single primitive relation R."""

    primitive: Primitive


@dataclass(frozen=True)
class SelfStep:
    """The identity relation ``self``."""


@dataclass(frozen=True)
class AxisRef:
    """A reference to another axis' expression (Table I uses these)."""

    axis: Axis


@dataclass(frozen=True)
class Concat:
    """Concatenation R1.R2 of two expressions."""

    left: "AxisExpression"
    right: "AxisExpression"


@dataclass(frozen=True)
class UnionExpr:
    """Union R1 ∪ R2 of two expressions."""

    left: "AxisExpression"
    right: "AxisExpression"


@dataclass(frozen=True)
class Star:
    """Reflexive-transitive closure (R1 ∪ … ∪ Rn)* of primitive relations."""

    primitives: tuple[Primitive, ...]


AxisExpression = Union[PrimitiveStep, SelfStep, AxisRef, Concat, UnionExpr, Star]


def concat(*parts: AxisExpression) -> AxisExpression:
    """Concatenate a sequence of expressions (left associative)."""
    result = parts[0]
    for part in parts[1:]:
        result = Concat(result, part)
    return result


_FC = PrimitiveStep(Primitive.FIRSTCHILD)
_NS = PrimitiveStep(Primitive.NEXTSIBLING)
_FC_INV = PrimitiveStep(Primitive.FIRSTCHILD_INVERSE)
_NS_INV = PrimitiveStep(Primitive.NEXTSIBLING_INVERSE)


#: E(χ) — the regular expression defining each axis, exactly as in Table I.
AXIS_EXPRESSIONS: dict[Axis, AxisExpression] = {
    Axis.SELF: SelfStep(),
    Axis.CHILD: concat(_FC, Star((Primitive.NEXTSIBLING,))),
    Axis.PARENT: concat(Star((Primitive.NEXTSIBLING_INVERSE,)), _FC_INV),
    Axis.DESCENDANT: concat(_FC, Star((Primitive.FIRSTCHILD, Primitive.NEXTSIBLING))),
    Axis.ANCESTOR: concat(
        Star((Primitive.FIRSTCHILD_INVERSE, Primitive.NEXTSIBLING_INVERSE)), _FC_INV
    ),
    Axis.DESCENDANT_OR_SELF: UnionExpr(AxisRef(Axis.DESCENDANT), SelfStep()),
    Axis.ANCESTOR_OR_SELF: UnionExpr(AxisRef(Axis.ANCESTOR), SelfStep()),
    Axis.FOLLOWING: concat(
        AxisRef(Axis.ANCESTOR_OR_SELF),
        _NS,
        Star((Primitive.NEXTSIBLING,)),
        AxisRef(Axis.DESCENDANT_OR_SELF),
    ),
    Axis.PRECEDING: concat(
        AxisRef(Axis.ANCESTOR_OR_SELF),
        _NS_INV,
        Star((Primitive.NEXTSIBLING_INVERSE,)),
        AxisRef(Axis.DESCENDANT_OR_SELF),
    ),
    Axis.FOLLOWING_SIBLING: concat(_NS, Star((Primitive.NEXTSIBLING,))),
    Axis.PRECEDING_SIBLING: concat(Star((Primitive.NEXTSIBLING_INVERSE,)), _NS_INV),
    # attribute/namespace use the untyped child expression; the typed layer
    # (repro.axes.functions) intersects with the corresponding node type.
    Axis.ATTRIBUTE: concat(_FC, Star((Primitive.NEXTSIBLING,))),
    Axis.NAMESPACE: concat(_FC, Star((Primitive.NEXTSIBLING,))),
}


def axis_by_name(name: str) -> Axis:
    """Look up an axis by its XPath name; raises ``KeyError`` for unknown names."""
    for axis in Axis:
        if axis.value == name:
            return axis
    raise KeyError(name)


def is_reverse_axis(axis: Axis) -> bool:
    """True for axes whose proximity order is reverse document order."""
    return axis in REVERSE_AXES


def inverse_axis(axis: Axis) -> Axis:
    """The natural inverse χ⁻¹ of an axis (Lemma 10.1)."""
    return AXIS_INVERSES[axis]
