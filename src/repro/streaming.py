"""Single-pass streaming evaluation of streamable plans.

The linear-time fragments of the paper are dominated by *forward, downward*
location paths — exactly the queries that do not need a materialised tree.
This module compiles such a plan into a stack automaton driven directly by
the checked event stream of :func:`~repro.xmlmodel.parser.document_events`,
the one XML reader that :func:`~repro.xmlmodel.parser.parse_xml` also builds
its trees from: the document is scanned once, no
:class:`~repro.xmlmodel.document.Document` or
:class:`~repro.xmlmodel.index.DocumentIndex` is ever built, and the live
state is O(depth · |Q|) — a frame per open element carrying the set of
automaton states waiting below it.  Matches are emitted in document order as
lightweight :class:`StreamMatch` records whose ``order`` integers are
*identical* to the ``order`` a parsed :class:`Document` would assign the same
nodes, which is what lets the differential tests compare the streaming
backend node-for-node against the eight tree engines.

Streamability
-------------
A plan is *streamable* when every part of it can be decided the moment a
node's start event is seen:

* the query is a location path (or a union of location paths) evaluated from
  the document root;
* every step uses a forward, downward axis — ``self``, ``child``,
  ``attribute``, ``descendant`` or ``descendant-or-self``;
* every predicate is an *immediate* predicate: literals, ``position()``
  (not on the descendant axes, where distinct origins would need distinct
  counters), attribute/self-axis paths, whitelisted pure functions over
  those, and boolean/comparison/arithmetic combinations thereof.  Anything
  that would require lookahead (``last()``, paths descending into the
  candidate's subtree, string values of elements) or backward navigation
  (reverse axes, absolute paths inside predicates, ``id()``) makes the plan
  fall back to the tree engines.

:func:`analyze_streamability` performs this analysis on the normalised AST;
its result is recorded in the plan's Figure-1
:class:`~repro.fragments.classify.Classification` and surfaced by
``explain()``.

Resource limits
---------------
:class:`~repro.engines.base.EvalLimits` are enforced at event granularity:
every event the reader yields (one per start tag, end tag, text run or CDATA
section, comment and processing instruction; an empty-element tag is a start
and an end) is a counted operation checked against the operation budget
and the wall-clock deadline, and the result-node cap aborts the scan the
moment one match too many is emitted — the same cooperative
:class:`~repro.errors.ResourceLimitExceeded` contract as the tree engines,
with the partial :class:`~repro.engines.base.EvaluationStats` attached.

Typical usage::

    from repro import api

    for match in api.stream("//item[@id]", xml_text):
        print(match.order, match.name)

    run = api.default_session().stream("//item[@id]", xml_text)
    run.streamed          # True — evaluated in one pass, no tree
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from .axes.nodetests import NodeTest
from .axes.regex import Axis
from .engines.base import EvalLimits, EvaluationStats
from .errors import ResourceLimitExceeded, XPathEvaluationError
from .faultinject import active_plan
from .xmlmodel.nodes import NodeType
from .xmlmodel.parser import COMMENT, END, START, TEXT, document_events
from .xpath.ast import (
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
    UnionExpr,
    VariableReference,
    walk,
)
from .xpath.context import StaticContext
from .xpath.functions import FunctionLibrary
from .xpath.values import NodeSet, XPathValue, predicate_truth

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .plan import CompiledQuery
    from .xmlmodel.nodes import Node

#: Axes a streaming automaton can follow: forward and downward only.
STREAMABLE_AXES = frozenset(
    {Axis.SELF, Axis.CHILD, Axis.ATTRIBUTE, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF}
)

#: Axes inside predicate paths that stay local to the candidate's start
#: event (the candidate itself and its attributes).
_LOCAL_AXES = frozenset({Axis.SELF, Axis.ATTRIBUTE})

#: Pure core-library functions whose value is computable from immediate
#: operands.  ``existence_ok`` marks the ones that only need the *size* of a
#: node-set argument, so self-axis paths (whose string values are unknown at
#: start-event time) are acceptable arguments to them.
_IMMEDIATE_FUNCTIONS = frozenset(
    {
        "true", "false", "not", "boolean", "count",
        "string", "number", "concat", "contains", "starts-with",
        "substring", "substring-before", "substring-after",
        "string-length", "normalize-space", "translate",
        "floor", "ceiling", "round", "sum",
    }
)
_EXISTENCE_ONLY_FUNCTIONS = frozenset({"not", "boolean", "count"})


@dataclass(frozen=True)
class StreamabilityReport:
    """Outcome of the streamability analysis of one normalised query."""

    streamable: bool
    violations: tuple[str, ...]

    def describe(self) -> str:
        if self.streamable:
            return "streamable (single-pass, O(depth) state)"
        return "not streamable: " + "; ".join(self.violations)


def analyze_streamability(expression: Expression) -> StreamabilityReport:
    """Decide whether a normalised query can run on the streaming backend.

    The rule is conservative: every construct must be decidable at the
    candidate node's start event (see the module docstring).  Violations are
    collected rather than short-circuited, so ``explain()`` can report why a
    query fell back to the tree engines.
    """
    violations: list[str] = []
    _check_top(expression, violations)
    # Deduplicate while keeping first-seen order (a query repeats patterns).
    unique = tuple(dict.fromkeys(violations))
    return StreamabilityReport(not unique, unique)


def _check_top(expression: Expression, out: list[str]) -> None:
    if isinstance(expression, UnionExpr):
        _check_top(expression.left, out)
        _check_top(expression.right, out)
        return
    if isinstance(expression, LocationPath):
        for step in expression.steps:
            _check_step(step, out)
        return
    out.append(
        f"{type(expression).__name__} is not a streamable location path"
    )


def _check_step(step: Step, out: list[str]) -> None:
    if step.axis not in STREAMABLE_AXES:
        out.append(f"axis {step.axis.value} requires the materialised tree")
        return
    uses_position = any(_uses_position(p) for p in step.predicates)
    if uses_position and step.axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
        out.append(
            f"position() on the {step.axis.value} axis needs per-origin "
            f"counters the stream cannot keep"
        )
    for predicate in step.predicates:
        _check_predicate(predicate, out)


def _uses_position(expression: Expression) -> bool:
    return any(
        isinstance(node, ContextFunction) and node.name == "position"
        for node in walk(expression)
    )


def _check_predicate(expression: Expression, out: list[str]) -> None:
    """Boolean context: only the truth of the value is needed."""
    if isinstance(expression, BinaryOp) and expression.op in ("and", "or"):
        _check_predicate(expression.left, out)
        _check_predicate(expression.right, out)
        return
    if isinstance(expression, FunctionCall) and expression.name in ("not", "boolean"):
        for arg in expression.args:
            _check_predicate(arg, out)
        return
    if isinstance(expression, LocationPath):
        _check_local_path(expression, out, need_value=False)
        return
    _check_value(expression, out)


def _check_value(expression: Expression, out: list[str]) -> None:
    """Value context: the full XPath value must be computable at start time."""
    if isinstance(expression, (StringLiteral, NumberLiteral)):
        return
    if isinstance(expression, ContextFunction):
        if expression.name == "position":
            return
        if expression.name == "last":
            out.append("last() needs the full sibling list (lookahead)")
        else:
            out.append(
                f"{expression.name}() needs the context node's subtree"
            )
        return
    if isinstance(expression, VariableReference):
        out.append(f"variable ${expression.name} is bound at evaluation time")
        return
    if isinstance(expression, Negate):
        _check_value(expression.operand, out)
        return
    if isinstance(expression, BinaryOp):
        if expression.op in ("and", "or"):
            _check_predicate(expression.left, out)
            _check_predicate(expression.right, out)
        else:
            _check_operand(expression.left, out)
            _check_operand(expression.right, out)
        return
    if isinstance(expression, FunctionCall):
        if expression.name not in _IMMEDIATE_FUNCTIONS:
            out.append(f"{expression.name}() is not a streamable function")
            return
        existence_ok = expression.name in _EXISTENCE_ONLY_FUNCTIONS
        for arg in expression.args:
            if isinstance(arg, LocationPath):
                _check_local_path(arg, out, need_value=not existence_ok)
            else:
                _check_value(arg, out)
        return
    if isinstance(expression, LocationPath):
        # A bare path in value context: its nodes' string values are needed.
        _check_local_path(expression, out, need_value=True)
        return
    if isinstance(expression, (FilterExpr, PathExpr, UnionExpr)):
        out.append(
            f"{type(expression).__name__} inside a predicate is not streamable"
        )
        return
    out.append(f"{type(expression).__name__} is not streamable")  # pragma: no cover


def _check_operand(expression: Expression, out: list[str]) -> None:
    """Comparison/arithmetic operand: like value context, and node sets must
    carry known string values (attribute-valued paths)."""
    if isinstance(expression, LocationPath):
        _check_local_path(expression, out, need_value=True)
        return
    _check_value(expression, out)


def _check_local_path(path: LocationPath, out: list[str], *, need_value: bool) -> None:
    """A predicate path must stay local to the candidate's start event."""
    if path.absolute:
        out.append("absolute paths inside predicates re-enter the document")
        return
    for step in path.steps:
        if step.axis not in _LOCAL_AXES:
            out.append(
                f"axis {step.axis.value} inside a predicate needs lookahead "
                f"or backward navigation"
            )
            return
        for predicate in step.predicates:
            _check_predicate(predicate, out)
    if need_value and path.steps and path.steps[-1].axis is not Axis.ATTRIBUTE:
        out.append(
            "the string value of a non-attribute node is unknown at its "
            "start event"
        )


# ----------------------------------------------------------------------
# Matches and the lightweight node model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamMatch:
    """One matched node, as reported by the streaming evaluator.

    ``order`` is the node's document-order index — byte-for-byte the same
    integer :meth:`~repro.xmlmodel.document.Document.freeze` would assign
    the node after parsing the same text, so streamed results are directly
    comparable to tree-engine results.  ``value`` carries the textual
    content of attribute/text/comment/PI matches; element and root matches
    report ``None`` (an element's string value would require its subtree,
    which a single forward pass does not retain).
    """

    order: int
    node_type: NodeType
    name: Optional[str] = None
    value: Optional[str] = None

    @classmethod
    def from_node(cls, node: "Node") -> "StreamMatch":
        """The match record a streamed evaluation would report for ``node``.

        Used by the tree-engine fallback paths so streamed and fallback
        results share one shape.
        """
        if node.node_type in (NodeType.ELEMENT, NodeType.ROOT):
            value = None
        else:
            value = node.value or ""
        return cls(node.order, node.node_type, node.name, value)

    @property
    def label(self) -> str:
        """Display name: the node's name, or its type for unnamed nodes."""
        return self.name if self.name is not None else self.node_type.value


class _SNode:
    """A node as the automaton sees it at its start event.

    Carries exactly the information available when the event arrives: type,
    name, attribute list (elements), textual value (attributes, and leaf
    node kinds once complete) and the document order.  Implements enough of
    the :class:`~repro.xmlmodel.nodes.Node` protocol (``node_type``,
    ``name``, ``order``, ``string_value``) for the shared
    :class:`~repro.xpath.functions.FunctionLibrary` and node tests to work
    unchanged, which keeps predicate semantics identical to the tree
    engines by construction.
    """

    __slots__ = ("node_type", "name", "value", "attributes", "order")

    def __init__(self, node_type, name, value, attributes, order):
        self.node_type = node_type
        self.name = name
        self.value = value
        self.attributes = attributes
        self.order = order

    def string_value(self) -> str:
        return self.value or ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<stream {self.node_type.value} {self.name!r} order={self.order}>"


# ----------------------------------------------------------------------
# Automaton compilation
# ----------------------------------------------------------------------
class _StreamStep:
    """One compiled location step of a streamable path."""

    __slots__ = ("axis", "test", "predicates", "uses_position", "last")

    def __init__(self, axis: Axis, test: NodeTest, predicates, uses_position, last):
        self.axis = axis
        self.test = test
        self.predicates = predicates
        self.uses_position = uses_position
        self.last = last


class StreamAutomaton:
    """A streamable plan compiled to a stack automaton.

    The automaton is immutable and reusable; each :meth:`run` call scans one
    document.  States are indices into the flattened step list of all union
    branches; a frame per open element holds the states waiting to match
    among that element's children/descendants, so live state is
    O(depth · |Q|).
    """

    def __init__(self, expression: Expression):
        report = analyze_streamability(expression)
        if not report.streamable:
            raise XPathEvaluationError(
                "query is not streamable: " + "; ".join(report.violations)
            )
        self.steps: list[_StreamStep] = []
        self.starts: list[int] = []
        #: True when some branch is the bare ``/`` — a zero-step absolute
        #: path whose only match is the root node itself.
        self.match_root = False
        for path in _union_branches(expression):
            steps = path.steps
            if not steps:
                self.match_root = True
                continue
            self.starts.append(len(self.steps))
            for position, step in enumerate(steps):
                self.steps.append(
                    _StreamStep(
                        step.axis,
                        step.node_test,
                        step.predicates,
                        any(_uses_position(p) for p in step.predicates),
                        position == len(steps) - 1,
                    )
                )

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def run(
        self,
        text: str,
        *,
        limits: Optional[EvalLimits] = None,
        stats: Optional[EvaluationStats] = None,
        strip_whitespace: bool = False,
    ) -> Iterator[StreamMatch]:
        """Scan ``text`` once and yield matches in document order.

        The scan reads :func:`~repro.xmlmodel.parser.document_events`, the
        event stream :func:`~repro.xmlmodel.parser.parse_xml` builds its
        tree from, so the well-formedness errors and whitespace stripping
        are the parser's by construction; it merges adjacent text events
        as the tree builder does, so the emitted ``order`` integers line up
        with a parsed document's.  ``limits`` is enforced per event.
        """
        run = _StreamRun(self, limits=limits, stats=stats)
        return run.scan(text, strip_whitespace=strip_whitespace)


def _union_branches(expression: Expression) -> list[LocationPath]:
    if isinstance(expression, UnionExpr):
        return _union_branches(expression.left) + _union_branches(expression.right)
    assert isinstance(expression, LocationPath)
    return [expression]


def compile_stream(query) -> StreamAutomaton:
    """Compile a query (string, AST or plan) into a :class:`StreamAutomaton`.

    Plans memoise their automaton (``CompiledQuery.stream_automaton``), so
    a batch over many sources compiles it once, not once per source.
    """
    from .plan import CompiledQuery, plan_for  # local import to avoid a cycle

    if isinstance(query, Expression):
        return StreamAutomaton(query)
    plan = plan_for(query) if not isinstance(query, CompiledQuery) else query
    return plan.stream_automaton()


# ----------------------------------------------------------------------
# One scan of one document
# ----------------------------------------------------------------------
class _Frame:
    """Per-open-element automaton state: the O(depth) unit."""

    __slots__ = ("waiting", "counters", "pending_text")

    def __init__(self):
        #: Step indices waiting to match among this element's children
        #: (child axis) or anywhere below it (descendant axes).
        self.waiting: set[int] = set()
        #: Per-child-step sequential predicate counters (position()).
        self.counters: dict[int, list[int]] = {}
        #: An accumulating text node: (snode, parts, matched).
        self.pending_text: Optional[list] = None


class _StreamRun:
    """Mutable state of one scan (the automaton itself stays immutable)."""

    def __init__(self, automaton: StreamAutomaton, *, limits, stats):
        self.automaton = automaton
        self.steps = automaton.steps
        self.stats = stats if stats is not None else EvaluationStats()
        guard = limits.guard() if limits is not None else None
        if guard is not None:
            self.stats.guard = guard
        self.guard = self.stats.guard
        self.limits = limits
        self.emitted = 0
        #: Active fault-injection plan, consulted once per token event;
        #: ``None`` (the overwhelmingly common case) keeps the loop's extra
        #: cost to a single attribute test.
        self.faults = active_plan()
        # Predicate evaluation shares the engines' function library; the
        # static context carries no document (id() is not streamable).
        self.library = FunctionLibrary(StaticContext(None, {}))

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def scan(self, text: str, *, strip_whitespace: bool) -> Iterator[StreamMatch]:
        order = 0
        root = _SNode(NodeType.ROOT, None, None, (), order)
        order += 1
        frames = [_Frame()]
        emissions: list[_SNode] = []
        if self.automaton.match_root:  # the bare "/" selects the root
            emissions.append(root)
        for start in self.automaton.starts:
            self._arrive(start, root, frames[0], emissions)
        yield from self._flush(emissions)

        for event in document_events(text, strip_whitespace=strip_whitespace):
            self.stats.bump("stream_events")
            self.stats.checkpoint()
            if self.faults is not None:
                # An injected event delay is an *uncooperative* stall; the
                # unconditional deadline check right after it is what turns
                # the stall into a limit error, proving the deadline bounds
                # even code that never reaches a counter checkpoint.
                self.faults.fire(
                    "stream.token",
                    indices=(self.stats.extras.get("stream_events", 0),),
                )
                if self.guard is not None:
                    self.guard.check_deadline(self.stats)
            kind = event[0]
            if kind == TEXT:
                order = self._text_chunk(frames[-1], event[1], order)
                continue
            # Any other event ends a pending text run.
            if frames[-1].pending_text is not None:
                yield from self._flush_text(frames[-1])
            if kind == END:
                frames.pop()
                continue
            if kind == START:
                element, order = self._make_element(event, order)
                frames.append(self._open_element(frames[-1], element, emissions))
            else:
                if kind == COMMENT:
                    node = _SNode(NodeType.COMMENT, None, event[1], (), order)
                else:
                    node = _SNode(
                        NodeType.PROCESSING_INSTRUCTION, event[1], event[2], (), order
                    )
                order += 1
                self._match_leaf(frames[-1], node, emissions)
            if emissions:
                yield from self._flush(emissions)
        if self.guard is not None:
            self.guard.check_deadline(self.stats)

    # ------------------------------------------------------------------
    # Node construction per event
    # ------------------------------------------------------------------
    def _make_element(self, event: tuple, order: int) -> tuple[_SNode, int]:
        """Build the element's stream node from its start event and assign
        document orders.

        Order assignment mirrors ``Document.freeze``: the element first,
        then its namespace nodes, then its ordinary attributes, each in
        declaration order.
        """
        _kind, name, attributes, namespaces = event
        element_order = order
        order += 1 + len(namespaces)
        nodes = []
        for attribute_name, value in attributes.items():
            nodes.append(_SNode(NodeType.ATTRIBUTE, attribute_name, value, (), order))
            order += 1
        return _SNode(NodeType.ELEMENT, name, None, tuple(nodes), element_order), order

    def _open_element(self, parent: _Frame, element: _SNode, emissions) -> _Frame:
        frame = _Frame()
        for index in parent.waiting:
            step = self.steps[index]
            if step.axis is Axis.CHILD:
                if self._test_candidate(index, element, parent):
                    self._complete(index, element, frame, emissions)
            else:  # descendant / descendant-or-self: test and propagate
                frame.waiting.add(index)
                if self._test_candidate(index, element, None):
                    self._complete(index, element, frame, emissions)
        return frame

    def _match_leaf(self, parent: _Frame, node: _SNode, emissions) -> None:
        """Match a childless node (comment/PI) against waiting states."""
        for index in parent.waiting:
            step = self.steps[index]
            counting = parent if step.axis is Axis.CHILD else None
            if self._test_candidate(index, node, counting):
                self._complete(index, node, None, emissions)

    def _text_chunk(self, parent: _Frame, data: str, order: int) -> int:
        """Start or extend a text node (adjacent text events merge)."""
        if parent.pending_text is not None:
            parent.pending_text[1].append(data)
            return order
        node = _SNode(NodeType.TEXT, None, None, (), order)
        order += 1
        emissions: list[_SNode] = []
        # Matching is value-independent (analysis guarantees no predicate
        # reads a text node's content), so it is decided at the first chunk.
        for index in parent.waiting:
            step = self.steps[index]
            counting = parent if step.axis is Axis.CHILD else None
            if self._test_candidate(index, node, counting):
                self._complete(index, node, None, emissions)
        parent.pending_text = [node, [data], bool(emissions)]
        return order

    def _flush_text(self, parent: _Frame) -> Iterator[StreamMatch]:
        """Emit the pending text node once its last chunk has arrived."""
        node, parts, matched = parent.pending_text
        parent.pending_text = None
        if matched:
            node.value = "".join(parts)
            yield from self._flush([node])

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def _arrive(self, index: int, node: _SNode, frame: Optional[_Frame], emissions) -> None:
        """A prefix match just ended at ``node``; process ``steps[index]``."""
        step = self.steps[index]
        axis = step.axis
        if axis is Axis.SELF:
            if step.test.matches(node, axis) and self._filter([node], step):
                self._complete(index, node, frame, emissions)
        elif axis is Axis.ATTRIBUTE:
            candidates = [
                attr for attr in node.attributes if step.test.matches(attr, axis)
            ]
            for attr in self._filter(candidates, step):
                self._complete(index, attr, None, emissions)
        elif axis is Axis.DESCENDANT_OR_SELF:
            if step.test.matches(node, axis) and self._filter([node], step):
                self._complete(index, node, frame, emissions)
            if frame is not None:
                frame.waiting.add(index)
        else:  # CHILD / DESCENDANT wait for events below this node
            if frame is not None:
                frame.waiting.add(index)

    def _complete(self, index: int, node: _SNode, frame: Optional[_Frame], emissions) -> None:
        """``steps[index]`` matched at ``node``: emit or advance."""
        if self.steps[index].last:
            emissions.append(node)
        else:
            self._arrive(index + 1, node, frame, emissions)

    def _test_candidate(self, index: int, node: _SNode, counting: Optional[_Frame]) -> bool:
        """Node test + sequential predicates for one event-driven candidate.

        ``counting`` is the frame owning the position counters (the parent,
        for child-axis steps); descendant-axis steps never use position()
        (the analysis rejects that), so their predicates run position-free.
        """
        step = self.steps[index]
        if not step.test.matches(node, step.axis):
            return False
        predicates = step.predicates
        if not predicates:
            return True
        if counting is not None and step.uses_position:
            counters = counting.counters.get(index)
            if counters is None:
                counters = counting.counters[index] = [0] * len(predicates)
            for position_slot, predicate in enumerate(predicates):
                counters[position_slot] += 1
                position = counters[position_slot]
                if not predicate_truth(self._value(predicate, node, position), position):
                    return False
            return True
        for predicate in predicates:
            if not predicate_truth(self._value(predicate, node, 0), 0):
                return False
        return True

    def _filter(self, candidates: list, step: _StreamStep) -> list:
        """Batch predicate filtering for candidates available all at once
        (self and attribute axes) — the streaming twin of
        :func:`repro.engines.common.filter_by_predicates`."""
        survivors = candidates
        for predicate in step.predicates:
            retained = []
            for position, node in enumerate(survivors, start=1):
                if predicate_truth(self._value(predicate, node, position), position):
                    retained.append(node)
            survivors = retained
            if not survivors:
                break
        return survivors

    # ------------------------------------------------------------------
    # Immediate predicate evaluation
    # ------------------------------------------------------------------
    def _value(self, expression: Expression, node: _SNode, position: int) -> XPathValue:
        """Evaluate an immediate expression at ``node``.

        Delegates every operator and function to the engines' shared
        :class:`FunctionLibrary`, so value semantics (including the number
        grammar and comparison rules) cannot drift from the tree path.
        """
        self.stats.bump("stream_predicate_evals")
        if isinstance(expression, StringLiteral):
            return expression.value
        if isinstance(expression, NumberLiteral):
            return expression.value
        if isinstance(expression, ContextFunction):
            assert expression.name == "position"  # analysis guarantees
            return float(position)
        if isinstance(expression, Negate):
            return self.library.negate(self._value(expression.operand, node, position))
        if isinstance(expression, BinaryOp):
            op = expression.op
            if op in ("or", "and"):
                left = self._truth(expression.left, node, position)
                if op == "or":
                    return left or self._truth(expression.right, node, position)
                return left and self._truth(expression.right, node, position)
            return self.library.binary(
                op,
                self._value(expression.left, node, position),
                self._value(expression.right, node, position),
            )
        if isinstance(expression, FunctionCall):
            args = [self._value(arg, node, position) for arg in expression.args]
            return self.library.call(expression.name, args)
        if isinstance(expression, LocationPath):
            return NodeSet.from_sorted(self._local_path(expression, node))
        raise XPathEvaluationError(  # pragma: no cover - analysis guarantees
            f"unstreamable predicate expression {expression!r}"
        )

    def _truth(self, expression: Expression, node: _SNode, position: int) -> bool:
        from .xpath.values import to_boolean

        return to_boolean(self._value(expression, node, position))

    def _local_path(self, path: LocationPath, node: _SNode) -> list:
        """Evaluate a self/attribute-axis predicate path at ``node``."""
        current = [node]
        for step in path.steps:
            streamed = _StreamStep(
                step.axis, step.node_test, step.predicates, False, False
            )
            produced: list = []
            for context_node in current:
                if step.axis is Axis.SELF:
                    candidates = (
                        [context_node]
                        if step.node_test.matches(context_node, step.axis)
                        else []
                    )
                else:  # ATTRIBUTE
                    candidates = [
                        attr
                        for attr in context_node.attributes
                        if step.node_test.matches(attr, step.axis)
                    ]
                produced.extend(self._filter(candidates, streamed))
            current = produced
            if not current:
                break
        return current

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _flush(self, emissions: list) -> Iterator[StreamMatch]:
        """Yield this event's matches in document order, deduplicated."""
        if not emissions:
            return
        emissions.sort(key=lambda node: node.order)
        last_order = -1
        for node in emissions:
            if node.order == last_order:
                continue  # one node matched via several union branches
            last_order = node.order
            self.emitted += 1
            self.stats.bump("stream_matches")
            if (
                self.limits is not None
                and self.limits.max_result_nodes is not None
                and self.emitted > self.limits.max_result_nodes
            ):
                raise ResourceLimitExceeded(
                    "max_result_nodes",
                    f"streamed result exceeded the cap of "
                    f"{self.limits.max_result_nodes} nodes",
                    limits=self.limits,
                    stats=self.stats,
                )
            yield StreamMatch(node.order, node.node_type, node.name, node.value)
        emissions.clear()


# ----------------------------------------------------------------------
# Front door
# ----------------------------------------------------------------------
def stream_matches(
    query,
    text: str,
    *,
    limits: Optional[EvalLimits] = None,
    stats: Optional[EvaluationStats] = None,
    strip_whitespace: bool = False,
) -> Iterator[StreamMatch]:
    """Evaluate a streamable query over XML ``text`` in one pass.

    ``query`` may be a string, a normalised AST or a
    :class:`~repro.plan.CompiledQuery`.  Raises
    :class:`~repro.errors.XPathEvaluationError` when the query is not
    streamable — use :func:`analyze_streamability` (or the plan's
    classification) to decide beforehand, or the session layer's automatic
    fallback.
    """
    automaton = compile_stream(query)
    return automaton.run(
        text, limits=limits, stats=stats, strip_whitespace=strip_whitespace
    )


def stream_select(
    query,
    text: str,
    *,
    limits: Optional[EvalLimits] = None,
    stats: Optional[EvaluationStats] = None,
    strip_whitespace: bool = False,
) -> list[StreamMatch]:
    """Like :func:`stream_matches`, materialised into a list."""
    return list(
        stream_matches(
            query, text, limits=limits, stats=stats, strip_whitespace=strip_whitespace
        )
    )
