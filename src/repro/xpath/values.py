"""XPath 1.0 value system: number, string, boolean, node-set (paper §5).

XPath expressions evaluate to one of four types (Definition 5.1).  Numbers
are IEEE doubles (Python floats, including NaN and infinities), strings and
booleans are the native Python types, and node sets are represented by
:class:`NodeSet`, an immutable set of nodes that also knows how to produce
its members in document order (needed by ``string(nset)``, which picks the
first node, and by result reporting).

The conversion functions ``to_number`` / ``to_string`` / ``to_boolean``
implement the F[[number]], F[[string]] and F[[boolean]] rows of Table II and
the lexical rules of the XPath recommendation (e.g. integral numbers print
without a decimal point).
"""

from __future__ import annotations

import enum
import math
import re
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Union

from ..xmlmodel.nodes import Node

_ORDER = attrgetter("order")


class ValueType(enum.Enum):
    """The four XPath expression types (abbreviated num/str/bool/nset)."""

    NUMBER = "num"
    STRING = "str"
    BOOLEAN = "bool"
    NODE_SET = "nset"
    #: Static type of variable references, unknown until a binding is seen.
    UNKNOWN = "unknown"


def merge_union(
    left: tuple[Node, ...], right: tuple[Node, ...]
) -> Optional[tuple[Node, ...]]:
    """Union of two document-order node arrays as a linear merge.

    Returns ``None`` when an order collision between *distinct* nodes is
    found (operands from different documents); callers then fall back to
    identity-set semantics.
    """
    if not left:
        return right
    if not right:
        return left
    result: list[Node] = []
    i = j = 0
    len_left, len_right = len(left), len(right)
    while i < len_left and j < len_right:
        a, b = left[i], right[j]
        if a.order < b.order:
            result.append(a)
            i += 1
        elif b.order < a.order:
            result.append(b)
            j += 1
        elif a is b:
            result.append(a)
            i += 1
            j += 1
        else:
            return None
    result.extend(left[i:])
    result.extend(right[j:])
    return tuple(result)


def merge_intersection(
    left: tuple[Node, ...], right: tuple[Node, ...]
) -> Optional[tuple[Node, ...]]:
    """Intersection of two document-order node arrays as a linear merge.

    Returns ``None`` on a cross-document order collision (see merge_union).
    """
    result: list[Node] = []
    i = j = 0
    len_left, len_right = len(left), len(right)
    while i < len_left and j < len_right:
        a, b = left[i], right[j]
        if a.order < b.order:
            i += 1
        elif b.order < a.order:
            j += 1
        elif a is b:
            result.append(a)
            i += 1
            j += 1
        else:
            return None
    return tuple(result)


def merge_difference(
    left: tuple[Node, ...], right: tuple[Node, ...]
) -> Optional[tuple[Node, ...]]:
    """Difference of two document-order node arrays as a linear merge.

    Returns ``None`` on a cross-document order collision (see merge_union).
    """
    if not right:
        return left
    result: list[Node] = []
    i = j = 0
    len_left, len_right = len(left), len(right)
    while i < len_left:
        a = left[i]
        while j < len_right and right[j].order < a.order:
            j += 1
        if j >= len_right:
            result.extend(left[i:])
            break
        if right[j].order != a.order:
            result.append(a)
        elif right[j] is not a:
            return None
        i += 1
    return tuple(result)


class NodeSet:
    """An immutable set of document nodes.

    Iteration yields nodes in document order.  Set operations return new
    instances; the underlying nodes are shared (nodes are identity objects).

    Internally a node set carries up to two views: an unordered ``frozenset``
    (membership, equality with plain sets) and a document-order array (a
    tuple sorted by ``order``, as :meth:`from_sorted` takes it).  Either
    view is derived lazily from the other, and the set algebra uses linear
    merges whenever both operands already know their order — avoiding the
    ``sorted(set, key=lambda)`` round-trips of the pre-index implementation.
    """

    __slots__ = ("_nodes", "_ordered", "_origin")

    def __init__(self, nodes: Iterable[Node] = ()):
        if isinstance(nodes, NodeSet):
            self._nodes: Optional[frozenset[Node]] = nodes._nodes
            self._ordered: Optional[tuple[Node, ...]] = nodes._ordered
        else:
            self._nodes = frozenset(nodes)
            self._ordered = None
        self._origin = None

    @classmethod
    def from_sorted(cls, nodes: Iterable[Node]) -> "NodeSet":
        """Build a node set from nodes already distinct and in document order."""
        result = cls.__new__(cls)
        result._nodes = None
        result._ordered = tuple(nodes)
        result._origin = None
        return result

    # ------------------------------------------------------------------
    # Generation stamping (mutable-document staleness guard)
    # ------------------------------------------------------------------
    def stamp(self, document) -> "NodeSet":
        """Record the document generation this result was computed at.

        Called by the engine layer on final results.  Once the document
        moves to a newer generation, order-dependent uses of this set raise
        :class:`~repro.errors.StaleResultError` instead of silently
        returning wrong orders.  Results stamped against a pinned
        ``document.snapshot()`` never go stale.
        """
        self._origin = (document, document.generation)
        return self

    @property
    def generation(self) -> Optional[int]:
        """The document generation this set was computed at, when stamped."""
        origin = getattr(self, "_origin", None)
        return None if origin is None else origin[1]

    def _check_fresh(self) -> None:
        origin = getattr(self, "_origin", None)
        if origin is not None:
            document, generation = origin
            current = document.generation
            if current != generation:
                from ..errors import StaleResultError

                raise StaleResultError(generation, current)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def in_document_order(self) -> tuple[Node, ...]:
        """Members sorted by document order (cached).

        Raises :class:`~repro.errors.StaleResultError` when this set was
        stamped at an older generation of a since-edited document.
        """
        self._check_fresh()
        if self._ordered is None:
            self._ordered = tuple(sorted(self._nodes, key=_ORDER))
        return self._ordered

    def first(self) -> Optional[Node]:
        """first_<doc — the first member in document order, or ``None``."""
        ordered = self.in_document_order()
        return ordered[0] if ordered else None

    def as_set(self) -> frozenset[Node]:
        if self._nodes is None:
            self._nodes = frozenset(self._ordered)
        return self._nodes

    # ------------------------------------------------------------------
    # Set algebra (merge-based when both operands know their order)
    # ------------------------------------------------------------------
    def union(self, other: "NodeSet") -> "NodeSet":
        if self._ordered is not None and other._ordered is not None:
            merged = merge_union(self._ordered, other._ordered)
            if merged is not None:
                return NodeSet.from_sorted(merged)
        return NodeSet(self.as_set() | other.as_set())

    def intersection(self, other: "NodeSet") -> "NodeSet":
        if self._ordered is not None and other._ordered is not None:
            merged = merge_intersection(self._ordered, other._ordered)
            if merged is not None:
                return NodeSet.from_sorted(merged)
        return NodeSet(self.as_set() & other.as_set())

    def difference(self, other: "NodeSet") -> "NodeSet":
        if self._ordered is not None and other._ordered is not None:
            merged = merge_difference(self._ordered, other._ordered)
            if merged is not None:
                return NodeSet.from_sorted(merged)
        return NodeSet(self.as_set() - other.as_set())

    def __or__(self, other: "NodeSet") -> "NodeSet":
        return self.union(other)

    def __and__(self, other: "NodeSet") -> "NodeSet":
        return self.intersection(other)

    def __sub__(self, other: "NodeSet") -> "NodeSet":
        return self.difference(other)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._ordered is not None:
            return len(self._ordered)
        return len(self._nodes)

    def __bool__(self) -> bool:
        if self._ordered is not None:
            return bool(self._ordered)
        return bool(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.in_document_order())

    def __contains__(self, node: object) -> bool:
        return node in self.as_set()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NodeSet):
            if self._ordered is not None and other._ordered is not None:
                return self._ordered == other._ordered
            return self.as_set() == other.as_set()
        if isinstance(other, (set, frozenset)):
            return self.as_set() == frozenset(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.as_set())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(repr(node) for node in list(self.in_document_order())[:4])
        suffix = ", …" if len(self) > 4 else ""
        return f"NodeSet({{{preview}{suffix}}})"


#: Union of the Python types an XPath value may take.
XPathValue = Union[float, str, bool, NodeSet]


def value_type(value: XPathValue) -> ValueType:
    """The XPath type of a runtime value."""
    if isinstance(value, bool):
        return ValueType.BOOLEAN
    if isinstance(value, (int, float)):
        return ValueType.NUMBER
    if isinstance(value, str):
        return ValueType.STRING
    if isinstance(value, NodeSet):
        return ValueType.NODE_SET
    raise TypeError(f"not an XPath value: {value!r}")


# ----------------------------------------------------------------------
# Conversions (Table II: F[[number]], F[[string]], F[[boolean]])
# ----------------------------------------------------------------------
def to_number(value: XPathValue) -> float:
    """Convert any XPath value to a number (F[[number : T → num]])."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return string_to_number(value)
    if isinstance(value, NodeSet):
        return string_to_number(to_string(value))
    raise TypeError(f"cannot convert {value!r} to a number")


#: The XPath 1.0 *Number* production with an optional leading minus sign:
#: ``Number ::= Digits ('.' Digits?)? | '.' Digits``.  Deliberately narrower
#: than Python's ``float()``: no exponents (``1e2``), no ``+`` sign, no
#: ``Infinity``/``nan`` spellings, no underscores — all of those must convert
#: to NaN per the recommendation's number() rules.
_NUMBER_GRAMMAR = re.compile(r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)\Z")

#: XML whitespace (the only characters number() may strip; Python's ``strip``
#: would also eat unicode spaces the spec does not allow around a Number).
_XML_WHITESPACE = " \t\r\n"


def string_to_number(text: str) -> float:
    """The ``to_number`` lexical rule (XPath 1.0 §4.4).

    Optional XML whitespace, an optional minus sign, then the *Number*
    grammar: digits with an optional fraction part.  Anything else — an
    exponent, a ``+`` sign, ``Infinity``, a second sign — is NaN.
    """
    stripped = text.strip(_XML_WHITESPACE)
    if not _NUMBER_GRAMMAR.match(stripped):
        return math.nan
    return float(stripped)


def to_string(value: XPathValue) -> str:
    """Convert any XPath value to a string (F[[string : T → str]])."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return format_number(float(value))
    if isinstance(value, str):
        return value
    if isinstance(value, NodeSet):
        first = value.first()
        return "" if first is None else first.string_value()
    raise TypeError(f"cannot convert {value!r} to a string")


def format_number(number: float) -> str:
    """``to_string`` for numbers, following the XPath lexical rules.

    Integers are rendered without a decimal point or exponent; NaN and the
    infinities use the spec spellings.
    """
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "Infinity" if number > 0 else "-Infinity"
    if number == 0:
        return "0"
    if number == int(number) and abs(number) < 1e16:
        return str(int(number))
    text = repr(number)
    # Python may use exponent notation for very small/large magnitudes;
    # expand it losslessly, since XPath number-to-string never uses exponents.
    if "e" in text or "E" in text:
        from decimal import Decimal

        text = format(Decimal(text), "f")
        if "." in text:
            text = text.rstrip("0").rstrip(".")
    return text


def to_boolean(value: XPathValue) -> bool:
    """Convert any XPath value to a boolean (F[[boolean : T → bool]])."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        number = float(value)
        return not (number == 0 or math.isnan(number))
    if isinstance(value, str):
        return value != ""
    if isinstance(value, NodeSet):
        return len(value) > 0
    raise TypeError(f"cannot convert {value!r} to a boolean")


def node_number_value(node: Node) -> float:
    """to_number(strval(x)) — used by sum() and nset comparisons."""
    return string_to_number(node.string_value())


def predicate_truth(value: XPathValue, position: int) -> bool:
    """The truth of a predicate value relative to a context position.

    The XPath rule: a number predicate is true iff it equals the context
    position; anything else is taken through boolean().  The normaliser
    rewrites statically-known numeric predicates to ``position() = e``
    (paper Section 5), so this runtime rule only matters for dynamically
    numeric values (e.g. variables).
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value) == float(position)
    return to_boolean(value)
