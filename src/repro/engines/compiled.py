"""Array programs: the one compiler and evaluator of the Section-10 set algebra.

:class:`ArrayCompiler` compiles a query into its :class:`ArrayProgram` in
one pass, as Definition 10.2 reads it: S→ for the outermost path, S← for
predicate paths (run backwards by Lemma 10.1) and E1 for boolean
predicates, with Section 10.2's id axis and ``= s``.  Every set operation
is one instruction, appended as the compiler walks the normalised AST, so
a plan has exactly one form.  It covers XPatterns (Section 10 / Table VI,
Core XPath included) plus four array-only shapes: ``count(π)`` as the
whole query, ``π op N`` numeric comparisons, and ``[k]`` / ``[last()]``
on child and sibling steps of the outermost path.
An :class:`ArrayProgram` is a short linear register machine whose every
instruction is an array operation over the flat
:class:`~repro.xmlmodel.index.DocumentIndex` columns, or over their
zero-copy mmap twin :class:`~repro.store.StoredIndexArrays`, and
:func:`execute_program` runs that one program for the ``corexpath``,
``xpatterns`` and ``compiled`` engines alike, so they differ only in which
plans they accept.  Registers hold sorted arrays of document orders; only
the id instructions read the document beside them.

The axis, node-test and set instructions call the order-column kernel of
:mod:`repro.axes` (``axis_orders``, ``inverse_axis_orders``, T over
posting lists, ``intersect_orders`` / ``union_orders``) that the tree
engines' axes run too.  This module keeps the compiler,
:func:`execute_program` and the instructions no tree engine shares:
``numfilter``, ``position`` and the id axis.

The instructions and the set each one computes:

=====================================  ==================================
set                                     instruction
=====================================  ==================================
``S`` (context set)                     ``context``
``{root}``                              ``root``
``dom``                                 ``dom``
``T(t)``                                ``test``
``{x | strval(x) = s}``                 ``strmatch``
``χ(E) ∩ T(t)``                         ``axis-test`` (t's posting list is
                                        the candidate list)
``child(dos(E) ∩ T(node())) ∩ T(t)``    ``axis-test[descendant]`` (``//t``:
                                        child ∘ descendant-or-self is
                                        descendant under the typing rule)
``χ⁻¹(E)``                              ``inverse-axis`` (Lemma 10.1
                                        under the typing rule)
``E1 ∩ E2`` / ``E1 ∪ E2``               ``intersect`` / ``union``
``dom ∖ E``                             ``complement``
``dom·[root ∈ E]``                      ``dom-if-root``
``dom·[E ≠ ∅]``                         ``dom-if-nonempty``
``E ∩ {x | number(strval(x)) op N}``    ``numfilter`` (only E's nodes are
                                        converted; ``π op N``)
``[k]`` / ``[last()]`` of a step        ``position[axis]`` (per parent on
                                        child, per context node on the
                                        sibling axes)
``count(E)``                            ``result: count(r)``
``id(E)`` / ``id⁻¹(E)``                 ``id`` / ``id-inverse`` (the ID
                                        tokens of string values, as
                                        Table II's ``id()``)
``id('k1 k2 …')``                       ``id-literal``
=====================================  ==================================

``engine="auto"`` resolves to the ``compiled`` engine for every
compilable plan (see :mod:`repro.fragments.classify`); ``fragment`` and
``complexity`` keep reporting the Figure-1 lattice, so ``//b[2]`` is still
Extended Wadler.  Everything else — positions on other axes or inside
predicates, arithmetic, string functions — is refused by
:class:`ArrayCompiler` with one reason per shape
(:func:`analyze_compilability` is a dry run of that compiler, so the
analysis and the program cannot disagree), and :class:`CompiledEngine`
falls back transparently to ``optmincontext``, so ``engine="compiled"`` is
always safe to request.  Every program preserves the tree engines'
semantics node-for-node; the differential fuzz suite gates this against
them and the streaming evaluator.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

from ..axes.functions import (
    axis_orders,
    intersect_orders,
    inverse_axis_orders,
    union_orders,
)
from ..axes.nodetests import ANY_NODE, NodeTest, candidate_orders, select_orders
from ..axes.regex import Axis
from ..errors import FragmentError
from ..fragments.xpatterns import XPATTERNS_AXES, XPatternsEngine
from ..xmlmodel.document import Document
from ..xmlmodel.index import DocumentIndex, complement_orders
from ..xpath.ast import (
    BinaryOp,
    ContextFunction,
    Expression,
    FilterExpr,
    FunctionCall,
    LocationPath,
    Negate,
    NumberLiteral,
    PathExpr,
    Step,
    StringLiteral,
    find_steps,
)
from ..xpath.functions import NUMBER_COMPARISONS, _flip
from ..xpath.values import XPathValue, format_number, string_to_number
from .base import EvaluationStats
from .optmincontext import OptMinContextEngine

Orders = Sequence[int]

_EMPTY: tuple[int, ...] = ()

#: The rank of ``[last()]``: like a Python index, -1 is the farthest node.
LAST = -1

_POSITION_AXES = frozenset({Axis.CHILD, Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING})

#: The instructions that read the document's ID map, which is not a column.
_ID_OPS = frozenset({"id", "id-inverse", "id-literal"})


# ----------------------------------------------------------------------
# The path grammar and the shapes past XPatterns, read off the normalised AST
# ----------------------------------------------------------------------
def _is_context_function(expression: Expression, name: str) -> bool:
    return isinstance(expression, ContextFunction) and expression.name == name


def _position_rank(predicate: Expression) -> Optional[int]:
    """k for ``position() = k`` (an integer k ≥ 1), :data:`LAST` for
    ``position() = last()`` (either side), else ``None``.

    Normalisation already turned ``[k]`` and ``[last()]`` into these forms.
    """
    if not (isinstance(predicate, BinaryOp) and predicate.op == "="):
        return None
    left, right = predicate.left, predicate.right
    if not _is_context_function(left, "position"):
        left, right = right, left
    if not _is_context_function(left, "position"):
        return None
    if _is_context_function(right, "last"):
        return LAST
    if isinstance(right, NumberLiteral) and right.value >= 1 and right.value.is_integer():
        return int(right.value)
    return None


def _number_literal(expression: Expression) -> Optional[float]:
    if isinstance(expression, NumberLiteral):
        return expression.value
    if isinstance(expression, Negate) and isinstance(expression.operand, NumberLiteral):
        return -expression.operand.value
    return None


def _is_path(expression: Expression) -> bool:
    """Whether ``expression`` stands where a path may: a location path, or
    an ``id(…)`` start followed by steps.  A filtered start (``id('k')[1]``)
    counts, so that :func:`_id_start` refuses it by name."""
    if isinstance(expression, LocationPath):
        return True
    if isinstance(expression, PathExpr):
        expression = expression.start
    if isinstance(expression, FilterExpr):
        expression = expression.primary
    return isinstance(expression, FunctionCall) and expression.name == "id"


def _id_start(path: Expression) -> tuple[Expression, Sequence[Step]]:
    """The argument of the ``id(…)`` call that starts ``path`` (a path, not
    a location path) and the steps after the call.  Refuses a filtered call
    and an argument that is neither a string literal nor a path."""
    start, steps = (path.start, path.path.steps) if isinstance(path, PathExpr) else (path, ())
    if isinstance(start, FilterExpr):
        raise FragmentError(
            f"predicates on id(...) starts are outside XPatterns: {start.to_xpath()}"
        )
    argument = start.args[0]
    if not (isinstance(argument, StringLiteral) or _is_path(argument)):
        raise FragmentError(f"id(...) argument outside XPatterns: {argument.to_xpath()}")
    return argument, steps


def _path_comparison(
    expression: Expression,
) -> Optional[tuple[Expression, str, Expression]]:
    """``(π, op, operand)`` for ``π op operand`` or ``operand op π`` (op
    flipped), where π is a path; else ``None``."""
    if not (isinstance(expression, BinaryOp) and expression.op in NUMBER_COMPARISONS):
        return None
    left, right, op = expression.left, expression.right, expression.op
    if not _is_path(left):
        left, right, op = right, left, _flip(op)
    if _is_path(left):
        return left, op, right
    return None


def _is_any_node_step(step: Step, axis: Axis) -> bool:
    """``axis::node()`` without predicates."""
    return step.axis is axis and step.node_test == ANY_NODE and not step.predicates


def _is_context_node(path: Expression) -> bool:
    """``.`` — the normalised ``self::node()`` without predicates."""
    return (
        isinstance(path, LocationPath)
        and not path.absolute
        and len(path.steps) == 1
        and _is_any_node_step(path.steps[0], Axis.SELF)
    )


def _shown(expression: Expression) -> str:
    """The expression as XPath, without the parentheses around an operator."""
    text = expression.to_xpath()
    return text[1:-1] if isinstance(expression, BinaryOp) else text


def _calls(expression: Expression, name: str) -> bool:
    if isinstance(expression, FunctionCall) and expression.name == name:
        return True
    return any(_calls(child, name) for child in expression.children())


def _mentions_position(expression: Expression) -> bool:
    """``position()`` / ``last()`` of this predicate's own context (nested
    paths and filters have contexts of their own)."""
    if isinstance(expression, ContextFunction):
        return expression.name in ("position", "last")
    if isinstance(expression, (LocationPath, FilterExpr, PathExpr)):
        return False
    return any(_mentions_position(child) for child in expression.children())


def _refusal(expression: Expression) -> str:
    """Why an expression that is neither a path nor a compiled predicate
    shape has no array form."""
    if _calls(expression, "count"):
        return "count() inside a larger expression: it lowers only as the whole query"
    return f"{_shown(expression)} has no array lowering"


# ----------------------------------------------------------------------
# The program IR
# ----------------------------------------------------------------------
class Instruction(NamedTuple):
    """One array operation: ``dest ← op(srcs…)`` plus static operands.

    A named tuple rather than a frozen dataclass, which sets its ten fields
    one ``object.__setattr__`` call at a time: every plan-cache miss
    compiles a fresh program.
    """

    op: str
    dest: int
    srcs: tuple[int, ...] = ()
    axis: Optional[Axis] = None
    test: Optional[NodeTest] = None
    value: Optional[str] = None
    negated: bool = False
    #: ``numfilter``: the comparison operator and its number literal.
    comparison: Optional[str] = None
    number: Optional[float] = None
    #: ``position``: k ≥ 1 counted from the nearest node, or :data:`LAST`.
    rank: Optional[int] = None

    def render(self) -> str:
        args = [f"r{src}" for src in self.srcs]
        if self.test is not None:
            args.append(f"T({self.test.to_xpath()})")
        if self.op == "id-literal":
            args.append(repr(self.value))
        elif self.value is not None:
            args.append(f"{'!=' if self.negated else '='}{self.value!r}")
        if self.comparison is not None:
            args.append(f"{self.comparison} {format_number(self.number)}")
        if self.rank is not None:
            args.append("last" if self.rank == LAST else str(self.rank))
        op = self.op if self.axis is None else f"{self.op}[{self.axis.value}]"
        return f"r{self.dest} = {op}({', '.join(args)})"


@dataclass(frozen=True)
class ArrayProgram:
    """A linear register program over :class:`DocumentIndex` columns.

    Instruction k writes register k, so a program has one register per
    instruction.  ``count`` programs answer ``count(π)``: their result is
    the length of the final register, a number, not a node set.
    """

    instructions: tuple[Instruction, ...] = field(default_factory=tuple)
    count: bool = False

    @property
    def result_register(self) -> int:
        return self.instructions[-1].dest

    @property
    def reads_document(self) -> bool:
        """Whether an id instruction reads ``execute_program``'s ``document``."""
        return any(instruction.op in _ID_OPS for instruction in self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def render(self) -> str:
        lines = [instruction.render() for instruction in self.instructions]
        result = f"r{self.result_register}"
        lines.append(f"result: count({result})" if self.count else f"result: {result}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Compilability analysis (consumed by Classification / explain())
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompilabilityReport:
    """Whether a normalised query compiles to an array program, and why not."""

    compilable: bool
    violations: tuple[str, ...] = ()
    #: The dry run's :class:`ArrayProgram` (``None`` when refused), which
    #: :func:`repro.plan.compile_plan` hands to plans that resolve to an
    #: array engine so their first evaluation does not compile it again.
    program: Optional[ArrayProgram] = field(default=None, repr=False, compare=False)


def analyze_compilability(expression: Expression) -> CompilabilityReport:
    """Check whether the normalised AST compiles to an :class:`ArrayProgram`.

    A dry run of :class:`ArrayCompiler`, which is the compiled fragment's
    only grammar: XPatterns — everything with a linear set-algebra plan,
    the id axis included — plus four shapes outside XPatterns: ``count(π)``
    as the whole query, ``π op N`` predicates against a number literal, and
    ``[k]`` / ``[last()]`` on the child and sibling steps of the outermost
    path (at most one per sibling step).  Every path in it, an ``id(…)``
    start and its steps included, follows the compiler's one path rule.  A
    refused query gets the compiler's reason, which names its shape; an
    accepted one gets its program.
    """
    try:
        program = ArrayCompiler().compile_query(expression)
    except FragmentError as refusal:
        return CompilabilityReport(compilable=False, violations=(str(refusal),))
    return CompilabilityReport(compilable=True, program=program)


# ----------------------------------------------------------------------
# The compiler (Definition 10.2 with Section 10.2's id axis and "= s")
# ----------------------------------------------------------------------
#: S←'s target set, not yet emitted: given the register of a path's last
#: step (``None`` when the path has no step), it emits the instructions
#: that keep the nodes in the set and returns their register.
Target = Callable[[Optional[int]], int]


class ArrayCompiler:
    """Compile a normalised query into its :class:`ArrayProgram`.

    S→ runs the outermost path forwards from the context set, E1 turns a
    boolean predicate into set operations, and S← runs a predicate path
    backwards with the inverse axes (Lemma 10.1).  Each appends one
    instruction per set operation as it walks the AST and returns the
    register holding its result.  Wherever a path may stand — the query,
    inside ``count(…)``, an id argument, a bare predicate, or the path
    operand of ``= 's'`` or ``op N`` — it is a location path or an
    ``id(…)`` start followed by steps, and positions compile on the
    outermost path only.

    The emission rules: every forward step is one ``axis-test[χ](E,
    T(t))``; ``descendant-or-self::node()/child::t`` is one
    ``axis-test[descendant](E, T(t))``; ``[. op N]`` on a step of regular
    nodes, and an ``op N`` target meeting a path's last step, are one
    ``numfilter``.  S←'s target (``strmatch``, ``numfilter``, or
    ``id-inverse`` of the rest of an id path) is a :data:`Target`, emitted
    right after the last step's ``test``.

    It is also the compiled fragment's grammar: every shape it cannot
    compile raises :class:`FragmentError` with a reason naming the shape,
    and :func:`analyze_compilability` is a dry run of it.
    """

    # -- S→ ------------------------------------------------------------
    def compile_query(self, expression: Expression) -> ArrayProgram:
        """The program of the whole query: S→ from the context set N0."""
        for step in find_steps(expression):
            if step.axis not in XPATTERNS_AXES:
                raise FragmentError(f"the {step.axis.value} axis has no array lowering")
        count = isinstance(expression, FunctionCall) and expression.name == "count"
        path = expression.args[0] if count else expression
        if not _is_path(path):
            raise FragmentError(_refusal(path))
        self._instructions: list[Instruction] = []
        self._forward_path(path)
        return ArrayProgram(tuple(self._instructions), count)

    def _emit(self, op: str, srcs: tuple[int, ...] = (), **operands) -> int:
        dest = len(self._instructions)
        self._instructions.append(Instruction(op, dest, srcs, **operands))
        return dest

    def _forward_path(self, path: Expression) -> int:
        """S→ of a path; an id argument runs forwards from the same context."""
        if isinstance(path, LocationPath):
            register = self._emit("root" if path.absolute else "context")
            steps: Sequence[Step] = path.steps
        else:
            argument, steps = _id_start(path)
            if isinstance(argument, StringLiteral):
                # id('k1 k2 …'): the literal's IDs in the document's ID map.
                register = self._emit("id-literal", value=argument.value)
            else:
                register = self._emit("id", (self._forward_path(argument),))
        descend = False
        for step, next_step in zip(steps, (*steps[1:], None)):
            if (
                next_step is not None
                and next_step.axis is Axis.CHILD
                and _is_any_node_step(step, Axis.DESCENDANT_OR_SELF)
            ):
                descend = True  # //t: the child step reads this step's input
                continue
            register = self._forward_step(register, step, descend)
            descend = False
        return register

    def _forward_step(self, context: int, step: Step, descend: bool) -> int:
        """S→ of one step of the outermost path, the one place positions
        compile.  With ``descend`` the step is the ``child::t`` of ``//t``
        and ``context`` the input of the ``descendant-or-self::node()``
        step before it: child ∘ descendant-or-self is descendant under the
        typing rule, so t's posting list is sliced once per subtree."""
        axis = Axis.DESCENDANT if descend else step.axis
        result = self._emit("axis-test", (context,), axis=axis, test=step.node_test)
        picked = False
        for predicate in step.predicates:
            rank = _position_rank(predicate)
            if rank is not None:
                if step.axis not in _POSITION_AXES:
                    raise FragmentError(
                        f"position on the {step.axis.value} axis: [k] and [last()] "
                        "lower on child and sibling steps only"
                    )
                if picked and step.axis is not Axis.CHILD:
                    raise FragmentError(
                        f"second position on a {step.axis.value} step: a sibling "
                        "step lowers one [k] or [last()]"
                    )
                picked = True
                # child ranks within parent groups and needs no context register.
                srcs = (result,) if step.axis is Axis.CHILD else (context, result)
                result = self._emit("position", srcs, axis=step.axis, rank=rank)
                continue
            if _mentions_position(predicate):
                raise FragmentError(
                    f"position arithmetic ({_shown(predicate)}): only a whole "
                    "[k] or [last()] predicate lowers"
                )
            comparison = _path_comparison(predicate)
            number = None if comparison is None else _number_literal(comparison[2])
            if (
                number is not None
                and _is_context_node(comparison[0])
                and step.axis is not Axis.ATTRIBUTE
            ):
                # [. op N] on a step of regular nodes: filter the step's own
                # nodes, not (as S← of "." would) every node of the document.
                result = self._emit_numfilter(result, comparison[1], number)
            else:
                result = self._emit("intersect", (result, self._compile_predicate(predicate)))
        return result

    # -- E1 ------------------------------------------------------------
    def _compile_predicate(self, expression: Expression) -> int:
        """E1: ``π = 's'``, ``π != 's'`` and ``π op N`` by S← of π into the
        literal's set, and/or/not/boolean as set operations, a path by S←."""
        comparison = _path_comparison(expression)
        if comparison is not None:
            path, op, operand = comparison
            number = _number_literal(operand)
            if number is not None:
                target: Target = partial(self._emit_numfilter, op=op, number=number)
            elif isinstance(operand, StringLiteral) and op in ("=", "!="):
                target = partial(self._emit_strmatch, value=operand.value, negated=(op == "!="))
            elif isinstance(operand, StringLiteral):
                raise FragmentError(
                    f"{op} against a string literal ({operand.to_xpath()}): "
                    "relational comparisons lower against numbers only"
                )
            else:
                raise FragmentError(
                    f"comparison with a non-literal operand ({_shown(operand)}): "
                    "only number and string literals lower"
                )
            return self._backward_path(path, target)
        if isinstance(expression, BinaryOp) and expression.op in ("and", "or"):
            return self._emit(
                "intersect" if expression.op == "and" else "union",
                (
                    self._compile_predicate(expression.left),
                    self._compile_predicate(expression.right),
                ),
            )
        if isinstance(expression, FunctionCall) and expression.name == "not":
            return self._emit("complement", (self._compile_predicate(expression.args[0]),))
        if isinstance(expression, FunctionCall) and expression.name == "boolean":
            return self._compile_predicate(expression.args[0])
        if _is_path(expression):
            return self._backward_path(expression)
        if _mentions_position(expression):
            raise FragmentError(
                f"position inside a predicate ({_shown(expression)}): "
                "positions lower on the outermost path only"
            )
        raise FragmentError(_refusal(expression))

    # -- S←'s targets: each meets the register of a path's last step ----
    def _emit_numfilter(self, last: Optional[int], op: str, number: float) -> int:
        """``E ∩ {x | number(strval(x)) op N}``: the numbers of E's nodes
        only, of the whole domain when there is no E."""
        if last is None:
            last = self._emit("dom")
        return self._emit("numfilter", (last,), comparison=op, number=number)

    def _emit_strmatch(self, last: Optional[int], value: str, negated: bool) -> int:
        return self._meet(last, self._emit("strmatch", value=value, negated=negated))

    def _emit_id_inverse(
        self, last: Optional[int], steps: Sequence[Step], target: Optional[Target]
    ) -> int:
        """``id⁻¹`` of the S← of the steps after an id call."""
        return self._meet(last, self._emit("id-inverse", (self._backward_steps(steps, target),)))

    def _meet(self, last: Optional[int], register: int) -> int:
        return register if last is None else self._emit("intersect", (last, register))

    # -- S← ------------------------------------------------------------
    def _backward_path(self, path: Expression, target: Optional[Target] = None) -> int:
        """S← of a path: the nodes from which it reaches a node of
        ``target``, or any node when there is none."""
        if isinstance(path, LocationPath):
            register = self._backward_steps(path.steps, target)
            return self._emit("dom-if-root", (register,)) if path.absolute else register
        try:
            argument, steps = _id_start(path)
        except FragmentError:
            # An id argument is checked after the steps that follow its id
            # call (they compile in ``target``): refuse in that order.
            if target is not None:
                target(None)
            raise
        if isinstance(argument, StringLiteral):
            # id('k') is context independent: the path holds at every node
            # iff a referenced node is in the steps' plan, and nowhere otherwise.
            literal = self._emit("id-literal", value=argument.value)
            if steps or target is None:
                found = self._emit("intersect", (literal, self._backward_steps(steps, target)))
            else:
                found = target(literal)
            return self._emit("dom-if-nonempty", (found,))
        inverse = partial(self._emit_id_inverse, steps=steps, target=target)
        return self._backward_path(argument, inverse)

    def _backward_steps(self, steps: Sequence[Step], target: Optional[Target]) -> int:
        """S← of a path's steps, last step first: ``target`` meets the last
        step's test; with no step, the target (or dom) is the whole plan."""
        if not steps:
            return self._emit("dom") if target is None else target(None)
        plan: Optional[int] = None
        for step in reversed(steps):
            matched = self._emit("test", axis=step.axis, test=step.node_test)
            if plan is None and target is not None:
                matched = target(matched)
            for predicate in step.predicates:
                matched = self._emit("intersect", (matched, self._compile_predicate(predicate)))
            if plan is not None:
                matched = self._emit("intersect", (plan, matched))
            plan = self._emit("inverse-axis", (matched,), axis=step.axis)
        return plan


# ----------------------------------------------------------------------
# numfilter and position: per-node numbers, per-group ranks
# ----------------------------------------------------------------------
def _number_filter(view: DocumentIndex, operand: Orders, op: str, number: float) -> Orders:
    compare = NUMBER_COMPARISONS[op]
    string_value = view.string_value
    return [
        order
        for order in operand
        if compare(string_to_number(string_value(order)), number)
    ]


def _parent_groups(view: DocumentIndex, orders: Orders) -> dict[int, list[int]]:
    """``orders`` split by parent, each group still in document order."""
    parent = view.parent
    groups: dict[int, list[int]] = {}
    for order in orders:
        groups.setdefault(parent[order], []).append(order)
    return groups


def _child_position(view: DocumentIndex, candidates: Orders, rank: int) -> Orders:
    """The rank-th candidate of each parent (``LAST``: its last one)."""
    index = LAST if rank == LAST else rank - 1
    groups = _parent_groups(view, candidates).values()
    return sorted(group[index] for group in groups if index < len(group))


def _sibling_position(
    view: DocumentIndex, axis: Axis, context: Orders, candidates: Orders, rank: int
) -> Orders:
    """For each context node, its rank-th candidate sibling along ``axis``,
    nearest first (``LAST``: the farthest)."""
    groups = _parent_groups(view, candidates)
    parent = view.parent
    picked: set[int] = set()
    for order in context:
        group = groups.get(parent[order])
        if group is None:
            continue
        if axis is Axis.FOLLOWING_SIBLING:
            start = bisect_right(group, order)  # group[start:], nearest first
            index = len(group) - 1 if rank == LAST else start + rank - 1
            if start < len(group) and index < len(group):
                picked.add(group[index])
        else:
            end = bisect_left(group, order)  # group[end - 1::-1], nearest first
            index = 0 if rank == LAST else end - rank
            if end > 0 and index >= 0:
                picked.add(group[index])
    return sorted(picked)


# ----------------------------------------------------------------------
# id and id⁻¹: the ID tokens of string values (Table II's id())
# ----------------------------------------------------------------------
def _id(view: DocumentIndex, document: Document, sources: Orders) -> Orders:
    """The nodes whose IDs occur among the tokens of a source's string value."""
    string_value = view.string_value
    deref_ids = document.deref_ids
    return sorted(
        {node.order for order in sources for node in deref_ids(string_value(order))}
    )


def _id_inverse(view: DocumentIndex, document: Document, targets: Orders) -> Orders:
    """The nodes whose string value has a token that is the ID of a target
    (``document.element_by_id(token)`` is one): one split of every node's
    string value."""
    owners = set(targets)
    keys = {key for key, node in document.id_map().items() if node.order in owners}
    if not keys:
        return _EMPTY
    string_value = view.string_value
    return [
        order
        for order in range(view.size)
        if not keys.isdisjoint(string_value(order).split())
    ]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute_program(
    program: ArrayProgram,
    view: DocumentIndex,
    context_orders: Orders,
    stats: Optional[EvaluationStats] = None,
    document: Optional[Document] = None,
) -> Orders:
    """Run the program; returns the result register (sorted orders).

    A ``count`` program's answer is the length of that register.
    ``view`` is a document's :class:`DocumentIndex` or a store's
    :class:`~repro.store.StoredIndexArrays` (the same columns over a mmap).
    The ``id`` / ``id-inverse`` / ``id-literal`` instructions also read
    ``document`` (the one ``view`` indexes), whose ID map is not a column.
    Per instruction the executor bumps ``compiled_instructions`` and
    ``array_cells`` (cells written) and checkpoints the evaluation guard,
    so operation budgets and timeouts abort mid-program exactly like the
    interpreting engines.
    """
    registers: list[Orders] = [_EMPTY] * len(program.instructions)
    size = view.size
    for instruction in program.instructions:
        op = instruction.op
        srcs = instruction.srcs
        if op == "axis-test":
            axis = instruction.axis
            result = axis_orders(
                view, axis, registers[srcs[0]], candidate_orders(view, instruction.test, axis)
            )
        elif op == "intersect":
            result = intersect_orders(registers[srcs[0]], registers[srcs[1]])
        elif op == "union":
            result = union_orders(registers[srcs[0]], registers[srcs[1]])
        elif op == "inverse-axis":
            result = inverse_axis_orders(view, instruction.axis, registers[srcs[0]])
        elif op == "context":
            result = tuple(sorted(set(context_orders)))
        elif op == "root":
            result = (0,)
        elif op == "dom":
            result = range(size)
        elif op == "test":
            result = select_orders(view, instruction.test, instruction.axis)
        elif op == "strmatch":
            result = view.string_match(instruction.value, instruction.negated)
        elif op == "numfilter":
            result = _number_filter(
                view, registers[srcs[0]], instruction.comparison, instruction.number
            )
        elif op == "position":
            if instruction.axis is Axis.CHILD:
                result = _child_position(view, registers[srcs[0]], instruction.rank)
            else:
                result = _sibling_position(
                    view,
                    instruction.axis,
                    registers[srcs[0]],
                    registers[srcs[1]],
                    instruction.rank,
                )
        elif op == "complement":
            result = complement_orders(size, registers[srcs[0]])
        elif op == "dom-if-root":
            operand = registers[srcs[0]]
            result = range(size) if len(operand) and operand[0] == 0 else _EMPTY
        elif op == "dom-if-nonempty":
            result = range(size) if len(registers[srcs[0]]) else _EMPTY
        elif op == "id":
            result = _id(view, document, registers[srcs[0]])
        elif op == "id-inverse":
            result = _id_inverse(view, document, registers[srcs[0]])
        elif op == "id-literal":
            result = [node.order for node in document.deref_ids(instruction.value)]
        else:  # pragma: no cover - the compiler emits a closed opcode set
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
class CompiledEngine(XPatternsEngine):
    """Array-program evaluation of :class:`ArrayCompiler` plans, fallback
    otherwise.

    ``engine="auto"`` picks this engine for every compilable plan: every
    XPatterns query, ``id()`` included, plus ``count(π)``, ``π op N``, and
    ``[k]`` / ``[last()]`` on the child and sibling steps of the outermost
    path.  Requesting ``engine="compiled"`` is always safe: plans outside
    the compiled fragment (arithmetic, positions on other axes or inside
    predicates, …) are delegated to the classification's recommended
    engine, ``optmincontext``, bumping ``compiled_fallbacks`` in the stats,
    so batch traffic can pin the compiled backend without pre-sorting its
    queries.
    """

    name = "compiled"

    def __init__(self) -> None:
        super().__init__()
        # Only non-compilable plans fall back, and classify recommends
        # optmincontext for every one of them.
        self._fallback = OptMinContextEngine()

    def _accepts_plan(self, plan) -> bool:
        return plan.classification.compilable

    def _outside_fragment(self, plan, static_context, context, stats) -> XPathValue:
        stats.bump("compiled_fallbacks")
        return self._fallback._evaluate(plan, static_context, context, stats)
