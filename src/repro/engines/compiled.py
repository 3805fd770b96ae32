"""Compiled array-program backend: set algebra lowered to flat index ops.

The eight tree engines interpret queries node-at-a-time over ``Node``
objects.  This module adds a ninth engine that compiles the linear-time
fragment (Core XPath ⊆ XPatterns, Section 10 / Table VI) one level
further: the memoised set-algebra plan of a :class:`CompiledQuery` is
*lowered* into a short linear :class:`ArrayProgram` — a register machine
whose every instruction is an array operation over the flat
:class:`~repro.xmlmodel.index.DocumentIndex` columns (interval slices over
``subtree_end``, parent-chain walks, posting-list intersections, sorted
merge-unions) — the very columns the tree engines read, or their zero-copy
mmap twin :class:`~repro.store.StoredIndexArrays`.  Registers hold sorted
arrays of document orders; no ``Node`` object is touched until the final
result set is materialised.

Lowering rules (one instruction per algebra operator):

=====================================  ==================================
algebra expression                      instruction
=====================================  ==================================
``S`` (context set)                     ``context``
``{root}``                              ``root``
``dom``                                 ``dom``
``T(t)``                                ``test``
``{x | strval(x) = s}``                 ``strmatch``
``χ(E) ∩ T(t)`` (same axis)             ``axis-test`` (fused, like the
                                        interpreter's posting-list fusion)
``χ(E)``                                ``axis``
``χ⁻¹(E)``                              ``inverse-axis`` (Lemma 10.1:
                                        evaluated as the inverse axis)
``E1 ∩ E2`` / ``E1 ∪ E2``               ``intersect`` / ``union``
``dom ∖ E``                             ``complement``
``dom·[root ∈ E]``                      ``dom-if-root``
``dom·[E ≠ ∅]``                         ``dom-if-nonempty``
=====================================  ==================================

``engine="auto"`` resolves to this engine for every compilable plan (see
:mod:`repro.fragments.classify`).  ``id(…)`` (the XPatterns id axis) needs
the identifier relation and stays on the tree engines —
:func:`analyze_compilability` reports it as a violation, the classification
recommends ``xpatterns`` for it, and :class:`CompiledEngine` falls back
transparently to that recommendation, so ``engine="compiled"`` is always
safe to request.  Every program preserves the interpreter's semantics
node-for-node (the differential fuzz suite gates this against all eight
tree engines and the streaming evaluator).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..axes.nodetests import KindTest, NameTest, NodeTest, principal_node_type
from ..axes.regex import Axis, inverse_axis
from ..errors import FragmentError
from ..xmlmodel.index import DocumentIndex, complement_orders
from ..xmlmodel.nodes import NodeType
from ..xpath.ast import Expression, FunctionCall
from ..xpath.context import Context, StaticContext
from ..xpath.values import NodeSet, XPathValue
from .base import EvaluationStats, XPathEngine

Orders = Sequence[int]

_EMPTY: tuple[int, ...] = ()


# ----------------------------------------------------------------------
# Compilability analysis (consumed by Classification / explain())
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompilabilityReport:
    """Whether a normalised query lowers to an array program, and why not."""

    compilable: bool
    violations: tuple[str, ...] = ()


def _uses_id(expression: Expression) -> bool:
    if isinstance(expression, FunctionCall) and expression.name == "id":
        return True
    return any(_uses_id(child) for child in expression.children())


def analyze_compilability(expression: Expression) -> CompilabilityReport:
    """Check whether the normalised AST lowers to an :class:`ArrayProgram`.

    The compiled fragment is XPatterns minus the id axis: everything with a
    linear set-algebra plan whose leaves are index columns.  ``id(…)``
    needs the per-document identifier relation (a ``Node``-level structure)
    and is left to the tree engines.
    """
    from ..fragments.xpatterns import is_xpatterns  # deferred: cycle-free

    if not is_xpatterns(expression):
        return CompilabilityReport(
            compilable=False,
            violations=("outside XPatterns: no linear set-algebra plan to lower",),
        )
    if _uses_id(expression):
        return CompilabilityReport(
            compilable=False,
            violations=("id() needs the identifier relation (tree engines only)",),
        )
    return CompilabilityReport(compilable=True)


# ----------------------------------------------------------------------
# The program IR
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Instruction:
    """One array operation: ``dest ← op(srcs…)`` plus static operands."""

    op: str
    dest: int
    srcs: tuple[int, ...] = ()
    axis: Optional[Axis] = None
    test: Optional[NodeTest] = None
    value: Optional[str] = None
    negated: bool = False

    def render(self) -> str:
        args = [f"r{src}" for src in self.srcs]
        if self.test is not None:
            args.append(f"T({self.test.to_xpath()})")
        if self.value is not None:
            args.append(f"{'!=' if self.negated else '='}{self.value!r}")
        op = self.op if self.axis is None else f"{self.op}[{self.axis.value}]"
        return f"r{self.dest} = {op}({', '.join(args)})"


@dataclass(frozen=True)
class ArrayProgram:
    """A linear register program over :class:`DocumentIndex` columns."""

    instructions: tuple[Instruction, ...] = field(default_factory=tuple)
    register_count: int = 0

    @property
    def result_register(self) -> int:
        return self.instructions[-1].dest

    def __len__(self) -> int:
        return len(self.instructions)

    def render(self) -> str:
        lines = [instruction.render() for instruction in self.instructions]
        lines.append(f"result: r{self.result_register}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Lowering (set algebra → ArrayProgram)
# ----------------------------------------------------------------------
class _Lowering:
    def __init__(self) -> None:
        self.instructions: list[Instruction] = []
        self.next_register = 0

    def emit(self, op: str, srcs: tuple[int, ...] = (), **operands) -> int:
        dest = self.next_register
        self.next_register += 1
        self.instructions.append(Instruction(op, dest, srcs, **operands))
        return dest

    def lower(self, expression) -> int:
        # Deferred: fragments.algebra imports the engines package indirectly;
        # importing it lazily keeps engines importable from a cold start in
        # either order (engines first or fragments first).
        from ..fragments.algebra import (
            AxisApply,
            Complement,
            ContextSet,
            DomIfRoot,
            DomIfNonempty,
            DomSet,
            IdApply,
            Intersect,
            InverseAxisApply,
            RootSet,
            StringMatchSet,
            TestSet,
            UnionOp,
        )
        from ..fragments.xpatterns import _IdLiteral

        if isinstance(expression, Intersect):
            fused = self._fused_axis_test(expression, AxisApply, TestSet)
            if fused is not None:
                return fused
            left = self.lower(expression.left)
            right = self.lower(expression.right)
            return self.emit("intersect", (left, right))
        if isinstance(expression, ContextSet):
            return self.emit("context")
        if isinstance(expression, RootSet):
            return self.emit("root")
        if isinstance(expression, DomSet):
            return self.emit("dom")
        if isinstance(expression, TestSet):
            return self.emit("test", axis=expression.axis, test=expression.test)
        if isinstance(expression, StringMatchSet):
            return self.emit(
                "strmatch", value=expression.value, negated=expression.negated
            )
        if isinstance(expression, AxisApply):
            operand = self.lower(expression.operand)
            return self.emit("axis", (operand,), axis=expression.axis)
        if isinstance(expression, InverseAxisApply):
            operand = self.lower(expression.operand)
            return self.emit("inverse-axis", (operand,), axis=expression.axis)
        if isinstance(expression, UnionOp):
            left = self.lower(expression.left)
            right = self.lower(expression.right)
            return self.emit("union", (left, right))
        if isinstance(expression, Complement):
            operand = self.lower(expression.operand)
            return self.emit("complement", (operand,))
        if isinstance(expression, DomIfRoot):
            operand = self.lower(expression.operand)
            return self.emit("dom-if-root", (operand,))
        if isinstance(expression, DomIfNonempty):
            operand = self.lower(expression.operand)
            return self.emit("dom-if-nonempty", (operand,))
        if isinstance(expression, (IdApply, _IdLiteral)):
            raise FragmentError(
                "id() is outside the compiled fragment (identifier relation)"
            )
        raise FragmentError(
            f"algebra operator {type(expression).__name__} has no array lowering"
        )

    def _fused_axis_test(self, expression, AxisApply, TestSet) -> Optional[int]:
        """Fuse ``χ(E) ∩ T(t)`` into one ``axis-test`` instruction.

        Mirrors the interpreter's posting-list fusion exactly (same pattern,
        same axis-identity condition), so the compiled backend's candidate
        selection matches ``axis_test_set`` node-for-node.
        """
        left, right = expression.left, expression.right
        if isinstance(left, AxisApply) and isinstance(right, TestSet):
            apply_expr, test_expr = left, right
        elif isinstance(right, AxisApply) and isinstance(left, TestSet):
            apply_expr, test_expr = right, left
        else:
            return None
        if test_expr.axis is not apply_expr.axis:
            return None
        operand = self.lower(apply_expr.operand)
        return self.emit(
            "axis-test", (operand,), axis=apply_expr.axis, test=test_expr.test
        )


def lower_algebra(expression) -> ArrayProgram:
    """Lower a set-algebra expression to an :class:`ArrayProgram`."""
    lowering = _Lowering()
    lowering.lower(expression)
    return ArrayProgram(
        instructions=tuple(lowering.instructions),
        register_count=lowering.next_register,
    )


def lower_plan(plan) -> ArrayProgram:
    """Lower a compilable :class:`CompiledQuery` via its memoised algebra plan."""
    from ..fragments.xpatterns import XPatternsCompiler  # deferred: cycle-free

    return lower_algebra(plan.algebra_plan(XPatternsCompiler))


# ----------------------------------------------------------------------
# Sorted-order set primitives
# ----------------------------------------------------------------------
def _intersect(a: Orders, b: Orders) -> list[int]:
    if len(a) > len(b):
        a, b = b, a
    out: list[int] = []
    j = 0
    limit = len(b)
    for value in a:
        j = bisect_left(b, value, j)
        if j >= limit:
            break
        if b[j] == value:
            out.append(value)
            j += 1
    return out


def _union(a: Orders, b: Orders) -> list[int]:
    out: list[int] = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x < y:
            out.append(x)
            i += 1
        elif y < x:
            out.append(y)
            j += 1
        else:
            out.append(x)
            i += 1
            j += 1
    out.extend(a[i:la])
    out.extend(b[j:lb])
    return out


# ----------------------------------------------------------------------
# Node-test candidate selection (posting-list columns)
# ----------------------------------------------------------------------
def _select_orders(view: DocumentIndex, test: NodeTest, axis: Axis) -> Orders:
    """Standalone ``T(t)``: mirrors ``NodeTest.select`` (node() = dom)."""
    if isinstance(test, KindTest) and test.kind == "node":
        return range(view.size)
    return _candidate_orders(view, test, axis)


def _candidate_orders(view: DocumentIndex, test: NodeTest, axis: Axis) -> Orders:
    """Fused-step candidates: the posting list the axis result is drawn from.

    For ``node()`` this is the *regular* order array (the Section 4 typing
    rule: every navigational axis removes attribute/namespace nodes) except
    under the attribute/namespace axes, whose principal candidates are the
    special nodes themselves.
    """
    if isinstance(test, NameTest):
        node_type = principal_node_type(axis)
        if test.name is None:
            return view.type_orders(node_type)
        return view.label_orders(node_type, test.name)
    assert isinstance(test, KindTest)
    if test.kind == "node":
        if axis is Axis.ATTRIBUTE:
            return view.type_orders(NodeType.ATTRIBUTE)
        if axis is Axis.NAMESPACE:
            return view.type_orders(NodeType.NAMESPACE)
        return view.regular
    expected = KindTest._KIND_TO_TYPE[test.kind]
    if test.kind == "processing-instruction" and test.target is not None:
        return view.label_orders(expected, test.target)
    return view.type_orders(expected)


# ----------------------------------------------------------------------
# Array axis application: χ(S) ∩ candidates, entirely over order arrays
# ----------------------------------------------------------------------
def _default_candidates(view: DocumentIndex, axis: Axis) -> Orders:
    if axis is Axis.ATTRIBUTE:
        return view.type_orders(NodeType.ATTRIBUTE)
    if axis is Axis.NAMESPACE:
        return view.type_orders(NodeType.NAMESPACE)
    return view.regular


def _strict_ancestor_orders(view: DocumentIndex, order: int) -> set[int]:
    ancestors: set[int] = set()
    parent = view.parent
    current = parent[order]
    while current >= 0:
        ancestors.add(current)
        current = parent[current]
    return ancestors


def _axis_result(view: DocumentIndex, axis: Axis, source: Orders, cand: Orders) -> Orders:
    """``χ(source) ∩ cand`` where both operands are sorted order arrays.

    Implements the same semantics as :func:`repro.axes.functions.axis_set`
    restricted to the candidate posting list (i.e. ``axis_test_set``): the
    special-node typing rule is enforced by the candidate lists themselves
    for the interval axes and explicitly where needed.
    """
    if not len(source) or not len(cand):
        return _EMPTY

    if axis is Axis.SELF:
        return _intersect(source, cand)

    if axis in (Axis.CHILD, Axis.ATTRIBUTE, Axis.NAMESPACE):
        if axis is not Axis.CHILD:
            # attribute/namespace results are exactly that node type; a
            # kind test like text() must come back empty.
            node_type = (
                NodeType.ATTRIBUTE if axis is Axis.ATTRIBUTE else NodeType.NAMESPACE
            )
            cand = _intersect(cand, view.type_orders(node_type))
            if not cand:
                return _EMPTY
        parent = view.parent
        subtree_end = view.subtree_end
        sources = set(source)
        low = source[0] + 1
        high = max(subtree_end[s] for s in source)
        lo = bisect_left(cand, low)
        hi = bisect_right(cand, high)
        return [c for c in cand[lo:hi] if parent[c] in sources]

    if axis is Axis.PARENT:
        parent = view.parent
        parents = {parent[s] for s in source}
        parents.discard(-1)
        return _intersect(sorted(parents), cand)

    if axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
        include_self = axis is Axis.DESCENDANT_OR_SELF
        subtree_end = view.subtree_end
        out: list[int] = []
        current_end = -1
        for order in source:
            if order <= current_end:
                continue
            current_end = subtree_end[order]
            start = order if include_self else order + 1
            if start > current_end:
                continue
            lo = bisect_left(cand, start)
            hi = bisect_right(cand, current_end)
            out.extend(cand[lo:hi])
        return out

    if axis in (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
        parent = view.parent
        special = view.special
        seen: set[int] = set()
        for order in source:
            if axis is Axis.ANCESTOR_OR_SELF and not special[order]:
                seen.add(order)
            current = parent[order]
            while current >= 0 and current not in seen:
                seen.add(current)
                current = parent[current]
        return _intersect(sorted(seen), cand)

    if axis is Axis.FOLLOWING:
        subtree_end = view.subtree_end
        threshold = min(subtree_end[s] for s in source)
        return cand[bisect_right(cand, threshold) :]

    if axis is Axis.PRECEDING:
        threshold = source[-1]
        prefix = cand[: bisect_left(cand, threshold)]
        ancestors = _strict_ancestor_orders(view, threshold)
        if not ancestors:
            return prefix
        return [c for c in prefix if c not in ancestors]

    if axis in (Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING):
        following = axis is Axis.FOLLOWING_SIBLING
        parent = view.parent
        thresholds: dict[int, int] = {}
        for s in source:
            p = parent[s]
            if p < 0:
                continue
            best = thresholds.get(p)
            if best is None or (s < best if following else s > best):
                thresholds[p] = s
        if not thresholds:
            return _EMPTY
        out = []
        for c in cand:
            best = thresholds.get(parent[c])
            if best is not None and (c > best if following else c < best):
                out.append(c)
        return out

    raise FragmentError(f"axis {axis.value} has no array implementation")


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute_program(
    program: ArrayProgram,
    view: DocumentIndex,
    context_orders: Orders,
    stats: Optional[EvaluationStats] = None,
) -> Orders:
    """Run the program; returns the result register (sorted orders).

    ``view`` is a document's :class:`DocumentIndex` or a store's
    :class:`~repro.store.StoredIndexArrays` (the same columns over a mmap).
    Per instruction the executor bumps ``compiled_instructions`` and
    ``array_cells`` (cells written) and checkpoints the evaluation guard,
    so operation budgets and timeouts abort mid-program exactly like the
    interpreting engines.
    """
    registers: list[Orders] = [_EMPTY] * program.register_count
    size = view.size
    for instruction in program.instructions:
        op = instruction.op
        srcs = instruction.srcs
        if op == "axis-test":
            result = _axis_result(
                view,
                instruction.axis,
                registers[srcs[0]],
                _candidate_orders(view, instruction.test, instruction.axis),
            )
        elif op == "intersect":
            result = _intersect(registers[srcs[0]], registers[srcs[1]])
        elif op == "union":
            result = _union(registers[srcs[0]], registers[srcs[1]])
        elif op == "axis":
            axis = instruction.axis
            result = _axis_result(
                view, axis, registers[srcs[0]], _default_candidates(view, axis)
            )
        elif op == "inverse-axis":
            axis = inverse_axis(instruction.axis)
            result = _axis_result(
                view, axis, registers[srcs[0]], _default_candidates(view, axis)
            )
        elif op == "context":
            result = tuple(sorted(set(context_orders)))
        elif op == "root":
            result = (0,)
        elif op == "dom":
            result = range(size)
        elif op == "test":
            result = _select_orders(view, instruction.test, instruction.axis)
        elif op == "strmatch":
            result = view.string_match(instruction.value, instruction.negated)
        elif op == "complement":
            result = complement_orders(size, registers[srcs[0]])
        elif op == "dom-if-root":
            operand = registers[srcs[0]]
            result = range(size) if len(operand) and operand[0] == 0 else _EMPTY
        elif op == "dom-if-nonempty":
            result = range(size) if len(registers[srcs[0]]) else _EMPTY
        else:  # pragma: no cover - lowering emits a closed opcode set
            raise FragmentError(f"unknown array opcode {op!r}")
        registers[instruction.dest] = result
        if stats is not None:
            stats.bump("compiled_instructions")
            stats.bump("array_cells", len(result))
            stats.checkpoint()
    return registers[program.result_register]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class CompiledEngine(XPathEngine):
    """Array-program evaluation of compilable plans, tree fallback otherwise.

    ``engine="auto"`` picks this engine for every compilable plan.
    Requesting ``engine="compiled"`` is always safe: plans outside the
    compiled fragment (id(), arithmetic, positions, …) are delegated to the
    classification's recommended engine — ``xpatterns`` for id() plans,
    ``optmincontext`` outside XPatterns — bumping ``compiled_fallbacks`` in
    the stats, so batch traffic can pin the compiled backend without
    pre-sorting its queries.
    """

    name = "compiled"

    def __init__(self) -> None:
        super().__init__()
        self._fallbacks: dict[str, XPathEngine] = {}

    def _evaluate(
        self,
        plan,
        static_context: StaticContext,
        context: Context,
        stats: EvaluationStats,
    ) -> XPathValue:
        program = plan.array_program()
        if program is None:
            stats.bump("compiled_fallbacks")
            fallback = self._fallback_engine(plan)
            return fallback._evaluate(plan, static_context, context, stats)
        index = static_context.document.index
        orders = execute_program(program, index, (context.node.order,), stats)
        nodes = index.nodes
        return NodeSet.from_sorted(nodes[order] for order in orders)

    def _fallback_engine(self, plan) -> XPathEngine:
        # Only non-compilable plans fall back, and classify recommends this
        # engine exactly for the compilable ones: the pick is a tree engine.
        name = plan.classification.recommended_engine
        engine = self._fallbacks.get(name)
        if engine is None:
            from ..session import ENGINE_CLASSES  # deferred: registry layer above

            engine = ENGINE_CLASSES[name]()
            self._fallbacks[name] = engine
        return engine
