"""The effective semantics function F[[Op]] — XPath core library (Table II).

Every operator and core-library function of XPath 1.0 is implemented here as
a mapping from already-evaluated argument *values* to a result value, exactly
as the paper factors the semantics: context-dependent behaviour lives in the
engines (location paths and the context primitives), while this module is
purely value-level.  All engines share one :class:`FunctionLibrary` instance
per query evaluation, so their results are comparable by construction.

The few places where a function needs the document (``id``) or static
context take them from the :class:`~repro.xpath.context.StaticContext`
passed at construction.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence

from ..errors import XPathEvaluationError, XPathTypeError
from ..xmlmodel.nodes import Node
from .context import StaticContext
from .values import (
    NodeSet,
    XPathValue,
    node_number_value,
    to_boolean,
    to_number,
    to_string,
)


class FunctionLibrary:
    """Value-level implementation of F[[Op]] for one static context."""

    def __init__(self, static_context: StaticContext):
        self.static_context = static_context
        self._functions: dict[str, Callable[..., XPathValue]] = {
            "count": self._count,
            "sum": self._sum,
            "id": self._id,
            "floor": self._floor,
            "ceiling": self._ceiling,
            "round": self._round,
            "string": self._string,
            "number": self._number,
            "boolean": self._boolean,
            "not": self._not,
            "true": self._true,
            "false": self._false,
            "concat": self._concat,
            "starts-with": self._starts_with,
            "contains": self._contains,
            "substring-before": self._substring_before,
            "substring-after": self._substring_after,
            "substring": self._substring,
            "string-length": self._string_length,
            "normalize-space": self._normalize_space,
            "translate": self._translate,
            "name": self._name,
            "local-name": self._local_name,
            "namespace-uri": self._namespace_uri,
            "__lang__": self._lang,
        }

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def call(self, name: str, args: Sequence[XPathValue]) -> XPathValue:
        """Apply the named core-library function to evaluated arguments."""
        try:
            function = self._functions[name]
        except KeyError:
            raise XPathEvaluationError(f"unknown function {name}()") from None
        return function(*args)

    def binary(self, op: str, left: XPathValue, right: XPathValue) -> XPathValue:
        """Apply a binary operator (boolean, equality, relational, arithmetic)."""
        if op == "or":
            return to_boolean(left) or to_boolean(right)
        if op == "and":
            return to_boolean(left) and to_boolean(right)
        if op in ("=", "!="):
            return self._equality(op, left, right)
        if op in ("<", "<=", ">", ">="):
            return self._relational(op, left, right)
        if op in ("+", "-", "*", "div", "mod"):
            return self._arithmetic(op, to_number(left), to_number(right))
        raise XPathEvaluationError(f"unknown operator {op!r}")  # pragma: no cover

    def negate(self, value: XPathValue) -> float:
        """Unary minus."""
        return -to_number(value)

    # ------------------------------------------------------------------
    # Comparisons (Table II, RelOp / EqOp / GtOp rows)
    # ------------------------------------------------------------------
    def _equality(self, op: str, left: XPathValue, right: XPathValue) -> bool:
        if isinstance(left, NodeSet) or isinstance(right, NodeSet):
            return self._node_set_comparison(op, left, right)
        if isinstance(left, bool) or isinstance(right, bool):
            result = to_boolean(left) == to_boolean(right)
        elif isinstance(left, (int, float)) or isinstance(right, (int, float)):
            result = to_number(left) == to_number(right)
        else:
            result = to_string(left) == to_string(right)
        return result if op == "=" else not result

    def _relational(self, op: str, left: XPathValue, right: XPathValue) -> bool:
        if isinstance(left, NodeSet) or isinstance(right, NodeSet):
            return self._node_set_comparison(op, left, right)
        return _compare_numbers(op, to_number(left), to_number(right))

    def _node_set_comparison(self, op: str, left: XPathValue, right: XPathValue) -> bool:
        """Existential comparison semantics when node sets are involved."""
        if isinstance(left, NodeSet) and isinstance(right, NodeSet):
            right_values = [node.string_value() for node in right]
            for left_node in left:
                left_value = left_node.string_value()
                for right_value in right_values:
                    if _compare_strings(op, left_value, right_value):
                        return True
            return False
        if isinstance(left, NodeSet):
            return self._node_set_vs_scalar(op, left, right, flipped=False)
        assert isinstance(right, NodeSet)
        return self._node_set_vs_scalar(_flip(op), right, left, flipped=True)

    def _node_set_vs_scalar(
        self, op: str, nodes: NodeSet, scalar: XPathValue, flipped: bool
    ) -> bool:
        del flipped  # the operator has already been flipped by the caller
        if isinstance(scalar, bool):
            return _compare_booleans(op, to_boolean(nodes), scalar)
        if isinstance(scalar, (int, float)):
            value = float(scalar)
            return any(_compare_numbers(op, node_number_value(node), value) for node in nodes)
        if isinstance(scalar, str):
            if op in ("=", "!="):
                return any(_compare_strings(op, node.string_value(), scalar) for node in nodes)
            value = to_number(scalar)
            return any(_compare_numbers(op, node_number_value(node), value) for node in nodes)
        raise XPathTypeError(f"cannot compare a node set with {scalar!r}")

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _arithmetic(op: str, left: float, right: float) -> float:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "div":
            if right == 0:
                if math.isnan(left) or left == 0:
                    return math.nan
                return math.inf if (left > 0) == (not _is_negative_zero(right)) else -math.inf
            return left / right
        # mod: remainder with the sign of the dividend (IEEE remainder à la Java %).
        if right == 0 or math.isnan(left) or math.isnan(right) or math.isinf(left):
            return math.nan
        return math.fmod(left, right)

    # ------------------------------------------------------------------
    # Node-set functions
    # ------------------------------------------------------------------
    def _count(self, nodes: XPathValue) -> float:
        return float(len(_require_node_set(nodes, "count")))

    def _sum(self, nodes: XPathValue) -> float:
        node_set = _require_node_set(nodes, "sum")
        return float(sum(node_number_value(node) for node in node_set))

    def _id(self, value: XPathValue) -> NodeSet:
        document = self.static_context.document
        if isinstance(value, NodeSet):
            result: set[Node] = set()
            for node in value:
                result.update(document.deref_ids(node.string_value()))
            return NodeSet(result)
        return NodeSet(document.deref_ids(to_string(value)))

    # ------------------------------------------------------------------
    # Numeric functions
    # ------------------------------------------------------------------
    @staticmethod
    def _floor(value: XPathValue) -> float:
        number = to_number(value)
        if math.isnan(number) or math.isinf(number):
            return number
        # math.floor returns an int, losing the sign of -0.0; restore it
        # (floor(-0) is -0 per the spec's IEEE semantics).
        return _restore_zero_sign(float(math.floor(number)), number)

    @staticmethod
    def _ceiling(value: XPathValue) -> float:
        number = to_number(value)
        if math.isnan(number) or math.isinf(number):
            return number
        # ceiling of a negative fraction (and of -0) is negative zero:
        # ceiling(-0.3) = -0, observable via 1 div ceiling(-0.3).
        return _restore_zero_sign(float(math.ceil(number)), number)

    @staticmethod
    def _round(value: XPathValue) -> float:
        number = to_number(value)
        if math.isnan(number) or math.isinf(number):
            return number
        if number == 0:  # ±0 pass through with their sign
            return number
        # XPath rounds ties towards positive infinity; arguments in
        # [-0.5, -0) round to *negative* zero (XPath 1.0 §4.4).
        if -0.5 <= number < 0:
            return -0.0
        return float(math.floor(number + 0.5))

    # ------------------------------------------------------------------
    # Type conversions as functions
    # ------------------------------------------------------------------
    @staticmethod
    def _string(value: XPathValue) -> str:
        return to_string(value)

    @staticmethod
    def _number(value: XPathValue) -> float:
        return to_number(value)

    @staticmethod
    def _boolean(value: XPathValue) -> bool:
        return to_boolean(value)

    @staticmethod
    def _not(value: XPathValue) -> bool:
        return not to_boolean(value)

    @staticmethod
    def _true() -> bool:
        return True

    @staticmethod
    def _false() -> bool:
        return False

    # ------------------------------------------------------------------
    # String functions
    # ------------------------------------------------------------------
    @staticmethod
    def _concat(*values: XPathValue) -> str:
        return "".join(to_string(value) for value in values)

    @staticmethod
    def _starts_with(value: XPathValue, prefix: XPathValue) -> bool:
        return to_string(value).startswith(to_string(prefix))

    @staticmethod
    def _contains(value: XPathValue, needle: XPathValue) -> bool:
        return to_string(needle) in to_string(value)

    @staticmethod
    def _substring_before(value: XPathValue, needle: XPathValue) -> str:
        text, sep = to_string(value), to_string(needle)
        index = text.find(sep)
        return "" if index < 0 else text[:index]

    @staticmethod
    def _substring_after(value: XPathValue, needle: XPathValue) -> str:
        text, sep = to_string(value), to_string(needle)
        index = text.find(sep)
        return "" if index < 0 else text[index + len(sep):]

    @staticmethod
    def _substring(value: XPathValue, start: XPathValue, length: XPathValue = None) -> str:
        text = to_string(value)
        begin = FunctionLibrary._round(to_number(start))
        if math.isnan(begin):
            return ""
        if length is None:
            end = math.inf
        else:
            rounded_length = FunctionLibrary._round(to_number(length))
            if math.isnan(rounded_length):
                return ""
            end = begin + rounded_length
        # Character positions are 1-based; keep p with begin <= p < end.
        chars = [
            ch
            for position, ch in enumerate(text, start=1)
            if position >= begin and position < end
        ]
        return "".join(chars)

    @staticmethod
    def _string_length(value: XPathValue) -> float:
        return float(len(to_string(value)))

    @staticmethod
    def _normalize_space(value: XPathValue) -> str:
        return " ".join(to_string(value).split())

    @staticmethod
    def _translate(value: XPathValue, source: XPathValue, target: XPathValue) -> str:
        text = to_string(value)
        from_chars = to_string(source)
        to_chars = to_string(target)
        mapping: dict[str, str | None] = {}
        for index, ch in enumerate(from_chars):
            if ch in mapping:
                continue
            mapping[ch] = to_chars[index] if index < len(to_chars) else None
        out: list[str] = []
        for ch in text:
            if ch in mapping:
                replacement = mapping[ch]
                if replacement is not None:
                    out.append(replacement)
            else:
                out.append(ch)
        return "".join(out)

    # ------------------------------------------------------------------
    # Name functions (explicit-argument forms; see paper footnote 6)
    # ------------------------------------------------------------------
    @staticmethod
    def _name(nodes: XPathValue) -> str:
        first = _require_node_set(nodes, "name").first()
        if first is None or first.name is None:
            return ""
        return first.name

    @staticmethod
    def _local_name(nodes: XPathValue) -> str:
        first = _require_node_set(nodes, "local-name").first()
        if first is None or first.name is None:
            return ""
        return first.name.split(":")[-1]

    @staticmethod
    def _namespace_uri(nodes: XPathValue) -> str:
        first = _require_node_set(nodes, "namespace-uri").first()
        if first is None or first.name is None or ":" not in first.name:
            return ""
        prefix = first.name.split(":", 1)[0]
        element = first if first.is_element else first.parent
        while element is not None:
            for ns in getattr(element, "namespaces", ()):  # namespace nodes
                if ns.name == prefix:
                    return ns.value or ""
            element = element.parent
        return ""

    @staticmethod
    def _lang(ancestors: XPathValue, lang: XPathValue) -> bool:
        """Internal form of lang(): first argument is ancestor-or-self nodes."""
        wanted = to_string(lang).lower()
        node_set = _require_node_set(ancestors, "lang")
        for node in reversed(node_set.in_document_order()):
            value = node.attribute_value("xml:lang") if node.is_element else None
            if value is None:
                continue
            actual = value.lower()
            return actual == wanted or actual.startswith(wanted + "-")
        return False


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _require_node_set(value: XPathValue, function_name: str) -> NodeSet:
    if not isinstance(value, NodeSet):
        raise XPathTypeError(f"{function_name}() requires a node-set argument")
    return value


#: XPath 1.0 number comparisons.  Python's float operators already give
#: the NaN rule: every comparison with NaN is false except ``!=``.
NUMBER_COMPARISONS: dict[str, Callable[[float, float], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compare_numbers(op: str, left: float, right: float) -> bool:
    return NUMBER_COMPARISONS[op](left, right)


def _compare_strings(op: str, left: str, right: str) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    # Relational comparison of strings goes through numbers (Table II, GtOp).
    from .values import string_to_number

    return _compare_numbers(op, string_to_number(left), string_to_number(right))


def _compare_booleans(op: str, left: bool, right: bool) -> bool:
    if op in ("=", "!="):
        return (left == right) if op == "=" else (left != right)
    return _compare_numbers(op, float(left), float(right))


def _flip(op: str) -> str:
    """Mirror a comparison operator so the node set stays on the left."""
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}[op]


def _is_negative_zero(value: float) -> bool:
    return value == 0 and math.copysign(1.0, value) < 0


def _restore_zero_sign(result: float, source: float) -> float:
    """Give a zero ``result`` the sign of the number it was derived from."""
    if result == 0:
        return math.copysign(0.0, source)
    return result
