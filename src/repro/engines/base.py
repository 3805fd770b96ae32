"""Engine interface, evaluation statistics, resource limits and helpers.

Every algorithm of the paper is packaged as an :class:`XPathEngine` with a
uniform ``evaluate`` / ``select`` API, so the benchmark harness and the
differential tests can swap engines freely.  The engines also report
:class:`EvaluationStats` — deterministic operation counters that expose the
exponential-vs-polynomial behaviour independently of wall-clock noise (the
paper's figures report seconds; our experiment drivers report both).

The same counters double as the enforcement points for :class:`EvalLimits`:
every engine calls :meth:`EvaluationStats.checkpoint` at the sites where it
counts work, so an operation budget or wall-clock timeout aborts the
evaluation cooperatively — mid-flight, with the partial counters attached to
the raised :class:`~repro.errors.ResourceLimitExceeded`.  This is what makes
an exponential ``naive``-engine query safe to run under a budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Union

from typing import TYPE_CHECKING

from ..errors import ResourceLimitExceeded, XPathEvaluationError
from ..xmlmodel.document import Document
from ..xmlmodel.nodes import Node
from ..xpath.ast import Expression
from ..xpath.context import Context, StaticContext, root_context
from ..xpath.values import NodeSet, XPathValue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..plan import CompiledQuery

QueryLike = Union[str, Expression, "CompiledQuery"]


@dataclass(frozen=True)
class EvalLimits:
    """Cooperative resource limits for one query evaluation.

    All limits default to ``None`` (unlimited).  Enforcement is cooperative:
    the operation budget and the timeout are checked at the engines' counter
    sites (:meth:`EvaluationStats.checkpoint`), the result-node cap when the
    final value materialises.  A breach raises
    :class:`~repro.errors.ResourceLimitExceeded` carrying the partial stats.

    Attributes
    ----------
    max_result_nodes:
        Cap on the number of nodes in a node-set result.
    max_operations:
        Budget on :meth:`EvaluationStats.total_work` — the engine-independent
        scalar work proxy, so the same budget means "the same amount of
        work" whichever algorithm runs.
    timeout_seconds:
        Wall-clock budget for one evaluation, measured from the moment the
        engine starts executing (plan compilation is not included).
    """

    max_result_nodes: Optional[int] = None
    max_operations: Optional[int] = None
    timeout_seconds: Optional[float] = None

    @property
    def unlimited(self) -> bool:
        """True when no limit is set (the default: enforcement is free)."""
        return (
            self.max_result_nodes is None
            and self.max_operations is None
            and self.timeout_seconds is None
        )

    def guard(self) -> Optional["LimitGuard"]:
        """A fresh per-evaluation guard, or ``None`` when unlimited."""
        return None if self.unlimited else LimitGuard(self)

    def with_remaining(self, seconds: float) -> "EvalLimits":
        """These limits tightened to at most ``seconds`` of wall clock.

        The batch deadline-propagation hook: a batch-level deadline is
        converted, per document, into the smaller of the caller's
        ``timeout_seconds`` and the time remaining until the deadline, so a
        document started late in the batch cannot run past the batch's
        budget.  Never *loosens* an existing timeout.
        """
        if seconds < 0:
            seconds = 0.0
        if self.timeout_seconds is not None and self.timeout_seconds <= seconds:
            return self
        return replace(self, timeout_seconds=seconds)

    def describe(self) -> str:
        """Human-readable rendering used by ``QueryResult.explain()``."""
        parts = []
        if self.max_result_nodes is not None:
            parts.append(f"max_result_nodes={self.max_result_nodes}")
        if self.max_operations is not None:
            parts.append(f"max_operations={self.max_operations}")
        if self.timeout_seconds is not None:
            parts.append(f"timeout={self.timeout_seconds:g}s")
        return ", ".join(parts) if parts else "unlimited"


class LimitGuard:
    """Per-evaluation enforcement state for one :class:`EvalLimits`.

    A guard is created when an engine starts evaluating and attached to the
    evaluation's :class:`EvaluationStats`; the stats' ``checkpoint()`` calls
    back into :meth:`check`.  The wall clock is only consulted every
    ``_TIME_CHECK_INTERVAL`` checkpoints so the timeout adds no measurable
    overhead to the counting hot path.
    """

    __slots__ = ("limits", "deadline", "_countdown")

    _TIME_CHECK_INTERVAL = 128

    def __init__(self, limits: EvalLimits):
        self.limits = limits
        self.deadline = (
            time.monotonic() + limits.timeout_seconds
            if limits.timeout_seconds is not None
            else None
        )
        self._countdown = 1  # consult the clock on the first checkpoint

    def check(self, stats: "EvaluationStats") -> None:
        """Raise :class:`ResourceLimitExceeded` when a budget is exhausted."""
        max_operations = self.limits.max_operations
        if max_operations is not None and stats.total_work() > max_operations:
            raise ResourceLimitExceeded(
                "max_operations",
                f"operation budget of {max_operations} exhausted "
                f"({stats.total_work()} operations performed)",
                limits=self.limits,
                stats=stats,
            )
        if self.deadline is not None:
            self._countdown -= 1
            if self._countdown <= 0:
                self._countdown = self._TIME_CHECK_INTERVAL
                self.check_deadline(stats)

    def check_deadline(self, stats: "EvaluationStats") -> None:
        """Unconditional wall-clock check (also run once after evaluation)."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitExceeded(
                "timeout_seconds",
                f"evaluation exceeded the {self.limits.timeout_seconds:g}s "
                f"wall-clock budget",
                limits=self.limits,
                stats=stats,
            )

    def check_result(self, value: XPathValue, stats: "EvaluationStats") -> None:
        """Enforce the result-node cap on a final node-set value."""
        max_nodes = self.limits.max_result_nodes
        if (
            max_nodes is not None
            and isinstance(value, NodeSet)
            and len(value) > max_nodes
        ):
            raise ResourceLimitExceeded(
                "max_result_nodes",
                f"result has {len(value)} nodes, over the cap of {max_nodes}",
                limits=self.limits,
                stats=stats,
            )


@dataclass
class EvaluationStats:
    """Operation counters collected during one query evaluation.

    Attributes
    ----------
    expression_evaluations:
        Number of (subexpression, context) evaluations performed.  For the
        naive engine this grows exponentially with the query size on the
        paper's Experiment-1/2/3 workloads; for the CVT-based engines it is
        polynomial.
    location_step_applications:
        Number of times a location step was applied to a single context node.
    axis_nodes_visited:
        Number of nodes produced by axis applications (before node tests).
    table_rows:
        Total number of context-value-table rows materialised (CVT engines).
    memo_hits / memo_misses:
        Data-pool statistics (Section 9 engines).
    """

    expression_evaluations: int = 0
    location_step_applications: int = 0
    axis_nodes_visited: int = 0
    table_rows: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    extras: dict[str, int] = field(default_factory=dict)
    #: Limit guard attached by the engine front door; ``None`` when the
    #: evaluation runs unlimited (checkpoint() is then a no-op).
    guard: Optional[LimitGuard] = field(default=None, repr=False, compare=False)

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment an ad-hoc named counter."""
        self.extras[name] = self.extras.get(name, 0) + amount

    def checkpoint(self) -> None:
        """Cooperative limit check — engines call this at their counter sites."""
        if self.guard is not None:
            self.guard.check(self)

    def as_dict(self) -> dict[str, int]:
        """All counters as a flat dictionary (used by the reporting layer)."""
        result = {
            "expression_evaluations": self.expression_evaluations,
            "location_step_applications": self.location_step_applications,
            "axis_nodes_visited": self.axis_nodes_visited,
            "table_rows": self.table_rows,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
        }
        result.update(self.extras)
        return result

    def total_work(self) -> int:
        """A single scalar proxy for the amount of work performed."""
        return (
            self.expression_evaluations
            + self.location_step_applications
            + self.axis_nodes_visited
            + self.table_rows
            + sum(self.extras.values())
        )


class XPathEngine:
    """Common behaviour of all evaluation engines.

    Subclasses implement :meth:`_evaluate`, which receives a prebuilt
    :class:`~repro.plan.CompiledQuery`; the public methods resolve whatever
    the caller passed (string, AST or plan) through the plan pipeline —
    strings via the default :class:`~repro.plan.PlanCache` — and handle
    default contexts, variable bindings and statistics.
    """

    #: Short identifier used in benchmark output tables.
    name: str = "abstract"

    def __init__(self) -> None:
        self.last_stats: Optional[EvaluationStats] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(
        self,
        query: QueryLike,
        document: Document,
        context: Optional[Union[Context, Node]] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        *,
        limits: Optional[EvalLimits] = None,
    ) -> XPathValue:
        """Evaluate ``query`` over ``document`` and return its XPath value.

        ``context`` defaults to ⟨root, 1, 1⟩; passing a bare node is accepted
        and wrapped into a context with position = size = 1.  ``limits``
        bounds the evaluation cooperatively — a breach raises
        :class:`~repro.errors.ResourceLimitExceeded` with the partial stats.
        """
        from ..plan import plan_for  # local import to avoid a cycle

        plan = plan_for(query, engine=self.name, variables=variables)
        dynamic_context = self._coerce_context(context, document)
        static_context = StaticContext(document, dict(variables or {}))
        guard = limits.guard() if limits is not None else None
        stats = EvaluationStats(guard=guard)
        value = self._evaluate(plan, static_context, dynamic_context, stats)
        if guard is not None:
            guard.check_deadline(stats)
            guard.check_result(value, stats)
        if isinstance(value, NodeSet):
            # Stamp the result with the generation it was computed against so
            # later use after a document edit raises StaleResultError instead
            # of silently mixing epochs.
            value.stamp(document)
        self.last_stats = stats
        return value

    def select(
        self,
        query: QueryLike,
        document: Document,
        context: Optional[Union[Context, Node]] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        *,
        limits: Optional[EvalLimits] = None,
    ) -> list[Node]:
        """Evaluate a node-set query and return its nodes in document order."""
        value = self.evaluate(query, document, context, variables, limits=limits)
        if not isinstance(value, NodeSet):
            raise XPathEvaluationError(
                f"query does not produce a node set (got {type(value).__name__})"
            )
        return list(value.in_document_order())

    # ------------------------------------------------------------------
    # Subclass protocol
    # ------------------------------------------------------------------
    def _evaluate(
        self,
        plan: "CompiledQuery",
        static_context: StaticContext,
        context: Context,
        stats: EvaluationStats,
    ) -> XPathValue:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_context(context: Optional[Union[Context, Node]], document: Document) -> Context:
        if context is None:
            return root_context(document)
        if isinstance(context, Context):
            return context
        return Context(context, 1, 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} ({self.name})>"
