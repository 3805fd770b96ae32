"""Parallel batch execution: many documents, many workers, one answer.

A :class:`~repro.collection.Collection` guarantees per-document isolation —
every document is evaluated independently, failures included — which makes
its batches embarrassingly parallel.  :class:`ParallelExecutor` exploits
that: it partitions a collection's entries into contiguous chunks, runs
the chunks on a pool of workers, and merges the outcomes back in stable
collection order, indistinguishable from the serial path (asserted
node-for-node by the differential fuzz suite).

One pipeline serves every kind of batch entry — a pinned
:class:`~repro.xmlmodel.document.Document` snapshot, a stored-document
handle, or an XML source ``str`` — because the entry's type alone decides
how :func:`evaluate_entry` obtains its input.  :func:`evaluate_chunk` is the
one loop over entries that the collections' serial path, both worker
backends and the executor's degrade-to-serial fallback all run.

Two backends:

* ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor` over the
  owning session.  Workers share the session's (internally locked) plan
  cache and draw per-thread engine instances from its pool, so the only
  extra cost is thread scheduling.  Because the engines are pure Python,
  the GIL serialises their CPU work; this backend is for overlap with
  GIL-releasing work and for exercising the concurrent paths.
* ``"process"`` — a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Chunks of entries are shipped to worker processes; each worker
  compiles the query once through a **worker-local plan cache**, evaluates
  its chunk on a private engine instance, and sends back per-document
  outcomes: result *node orders* (every node's dense document-order id),
  scalar values, pickled errors and the per-document
  :class:`~repro.engines.base.EvaluationStats`.  The parent maps orders
  back onto its own node objects through ``document.index.nodes``, so the
  merged results reference the caller's documents, never worker copies.
  This is the backend that scales CPU-bound batches across cores.

Limits and statistics behave exactly like the serial path: the effective
:class:`~repro.engines.base.EvalLimits` applies *per document inside its
worker*, a breach fails only that document (carrying the partial stats),
and every outcome — success or failure — is folded into the owning
session's :class:`~repro.session.SessionStats` in collection order.

The executor is additionally *fault tolerant*: a chunk lost to a dead
worker (``BrokenProcessPool``), an unpicklable result, or an exception
escaping the worker call is split and resubmitted with capped exponential
backoff on a fresh pool (:class:`RetryPolicy`), degrading to in-parent
serial evaluation when attempts run out — with every recovery step
recorded in a :class:`FailureReport`.  A batch-level deadline
(``deadline``, a ``time.monotonic()`` instant — immune to NTP steps and
wall-clock jumps; process workers are shipped the *seconds remaining* at
submit time instead, because monotonic instants do not compare across
processes) tightens each document's ``EvalLimits`` timeout to the time
remaining, bounds the parent's future waits, and converts a worker that
hangs straight through the grace window into per-document
``batch_deadline`` :class:`~repro.errors.ResourceLimitExceeded` failures
instead of an unbounded stall.  ``fail_fast=True`` flips recovery off:
the first failure cancels everything not yet started
(:class:`~repro.errors.BatchAborted`).  Deterministic fault injection for
all of this lives in :mod:`repro.faultinject`.

Typical usage::

    from repro import api
    from repro.parallel import ParallelExecutor

    docs = api.parse_collection(sources)
    docs.select("//b", parallel=True, max_workers=4)         # ephemeral pool

    with ParallelExecutor(backend="process", max_workers=4) as executor:
        docs.select("//b", parallel=executor)                # reused pool
        docs.evaluate_many(queries, parallel=executor)
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from .engines.base import EvalLimits, EvaluationStats
from .errors import (
    BatchAborted,
    ReproError,
    ResourceLimitExceeded,
    UnexpectedEvaluationError,
    WorkerLostError,
    XPathEvaluationError,
)
from .faultinject import active_plan, inject
from .plan import CompiledQuery, PlanCache
from .streaming import StreamMatch, stream_matches
from .xmlmodel.document import Document, as_document
from .xmlmodel.parser import parse_xml
from .xpath.values import NodeSet, XPathValue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import XPathSession

#: Supported worker-pool backends.
BACKENDS = ("thread", "process")


def default_max_workers() -> int:
    """Worker count when the caller does not choose: the visible CPUs, ≤ 4."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


# ----------------------------------------------------------------------
# Per-document outcomes (the worker → parent wire format)
# ----------------------------------------------------------------------
@dataclass
class DocumentOutcome:
    """What one document's evaluation produced, in process-portable form.

    Nodes never cross the wire as objects: node-set results are carried as
    their dense document-order ids (``node.order``), which the parent maps
    back through ``document.index.nodes`` — the identical node objects in
    the thread backend, the caller's own nodes (not worker copies) in the
    process backend.
    """

    #: Position of the document in the collection.
    index: int
    #: Node orders of a node-set result over a document entry (``None`` on
    #: error / for scalars / for source entries).
    orders: Optional[list[int]] = None
    #: Scalar result of an ``evaluate`` call (``None`` for node sets/errors).
    value: Optional[XPathValue] = None
    #: Node-set result of a *source* entry as match records (streamed, or
    #: tree results converted — either way the tree, if any, died with it).
    matches: Optional[list[StreamMatch]] = None
    #: The per-document failure, when evaluation raised.
    error: Optional[ReproError] = None
    #: The evaluation's operation counters (partial on a limit breach).
    stats: Optional[EvaluationStats] = None
    #: Wall-clock seconds spent evaluating this document.
    elapsed: float = 0.0


def _deadline_error() -> ResourceLimitExceeded:
    return ResourceLimitExceeded(
        "batch_deadline",
        "batch deadline expired before this document completed",
    )


def _tighten_for_deadline(
    limits: Optional[EvalLimits], deadline: Optional[float]
) -> tuple[Optional[EvalLimits], bool]:
    """Fold a batch deadline into per-document limits.

    Returns ``(limits, expired)``: with the deadline already past, the
    document must not start at all and ``expired`` is true.  ``deadline``
    is a ``time.monotonic()`` instant — the same clock
    :class:`~repro.engines.base.LimitGuard` enforces timeouts on, so an
    NTP step or wall-clock jump mid-batch cannot inflate or collapse the
    per-document budgets.  Process workers never see this instant
    (monotonic clocks do not compare across processes); they are shipped
    the seconds remaining at submit time and rebase onto their own
    monotonic clock (:func:`_rebase_deadline`).
    """
    if deadline is None:
        return limits, False
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return limits, True
    base = limits if limits is not None else EvalLimits()
    return base.with_remaining(remaining), False


def _remaining_seconds(deadline: Optional[float]) -> Optional[float]:
    """Seconds left until a monotonic ``deadline`` (what process workers
    are shipped at submit time); ``None`` passes through, exhaustion
    clamps to ``0.0`` so the worker fails its documents immediately."""
    if deadline is None:
        return None
    return max(0.0, deadline - time.monotonic())


def _rebase_deadline(remaining: Optional[float]) -> Optional[float]:
    """Turn shipped remaining-seconds into a deadline on *this* process's
    monotonic clock (the first thing a process worker does).  Queue time
    between submit and worker start is deliberately not charged — the
    parent's own future-wait timeout still bounds the batch end to end."""
    if remaining is None:
        return None
    return time.monotonic() + remaining


def evaluate_entry(
    runner,
    plan: CompiledQuery,
    entry: Union[Document, str],
    index: int,
    variables: Optional[Mapping[str, XPathValue]],
    limits: Optional[EvalLimits],
    *,
    select_nodes: bool,
    stream: bool = False,
    strip_whitespace: bool = False,
    deadline: Optional[float] = None,
    attempt: int = 0,
) -> DocumentOutcome:
    """Evaluate one batch entry and capture the outcome, never raising.

    The single evaluation step every batch path shares, so per-entry
    semantics (error isolation, limit enforcement, stats capture) cannot
    drift apart.  The entry's type decides how the input is obtained:

    * a :class:`Document` (the batch's pinned snapshot) is evaluated as is;
    * a stored-document handle materialises here, inside the isolation
      boundary, so a corrupt store block fails this entry only;
    * an XML source ``str`` is scanned single-pass when ``stream`` is set
      and the plan is streamable — no tree is ever built; otherwise it is
      parsed (``strip_whitespace`` applies), evaluated, and the tree is
      dropped before the outcome returns, so a worker holds at most one
      tree at a time.  Node-set results of source entries travel as
      :class:`StreamMatch` records either way (there is no parent-side
      tree to map node orders back onto).

    Fault hooks fire first (``parse`` for sources, then ``document``), then
    the deadline is checked: ``deadline`` (a ``time.monotonic()`` instant)
    tightens the limits to the time remaining, and an entry whose turn
    comes after it fails with a ``batch_deadline`` limit error *before* its
    input is obtained — an expired source batch parses nothing.  Anything
    that is not a :class:`ReproError` is wrapped into
    :class:`~repro.errors.UnexpectedEvaluationError`, so the serial, thread
    and process paths all report the identical error.
    """
    started = time.perf_counter()
    source = entry if isinstance(entry, str) else None
    stats = None
    try:
        faults = active_plan()
        if faults is not None:
            if source is not None:
                faults.fire("parse", indices=(index,), attempt=attempt)
            faults.fire("document", indices=(index,), attempt=attempt)
        limits, expired = _tighten_for_deadline(limits, deadline)
        if expired:
            raise _deadline_error()
        if source is not None and stream and plan.streamable:
            stats = EvaluationStats()
            matches = list(
                stream_matches(
                    plan,
                    source,
                    limits=limits,
                    stats=stats,
                    strip_whitespace=strip_whitespace,
                )
            )
            return DocumentOutcome(
                index, matches=matches, stats=stats,
                elapsed=time.perf_counter() - started,
            )
        if source is not None:
            document = parse_xml(source, strip_whitespace=strip_whitespace)
        else:
            document = as_document(entry)
        value = runner.evaluate(plan, document, None, variables, limits=limits)
    except ReproError as error:
        return DocumentOutcome(
            index,
            error=error,
            stats=getattr(error, "stats", None) or stats,
            elapsed=time.perf_counter() - started,
        )
    except Exception as error:
        return DocumentOutcome(
            index,
            error=UnexpectedEvaluationError.wrap(error),
            stats=stats,
            elapsed=time.perf_counter() - started,
        )
    elapsed = time.perf_counter() - started
    outcome = DocumentOutcome(index, stats=runner.last_stats, elapsed=elapsed)
    if isinstance(value, NodeSet):
        nodes = value.in_document_order()
        if source is None:
            outcome.orders = [node.order for node in nodes]
        else:
            outcome.matches = [StreamMatch.from_node(node) for node in nodes]
    elif select_nodes:
        # Same failure the serial path reports through engine.select().
        outcome.error = XPathEvaluationError(
            f"query does not produce a node set (got {type(value).__name__})"
        )
    else:
        outcome.value = value
    return outcome


def evaluate_chunk(
    runner,
    plan: CompiledQuery,
    entries: Union[Sequence, Mapping[int, object]],
    chunk: Sequence[int],
    variables: Optional[Mapping[str, XPathValue]],
    limits: Optional[EvalLimits],
    *,
    select_nodes: bool,
    stream: bool = False,
    strip_whitespace: bool = False,
    deadline: Optional[float] = None,
    attempt: int = 0,
    fail_fast: bool = False,
) -> list[DocumentOutcome]:
    """Evaluate ``entries[index]`` for every ``index`` of ``chunk``, in order.

    The one chunk loop behind the collections' serial path, both worker
    backends and the executor's degrade-to-serial fallback — each entry
    goes through :func:`evaluate_entry` on ``runner``.  ``fail_fast`` (the
    serial path's) stops evaluating after the first failed entry; the rest
    carry :class:`~repro.errors.BatchAborted`.
    """
    outcomes = []
    failed = False
    for index in chunk:
        if failed:
            outcomes.append(_aborted_outcome(index))
            continue
        outcome = evaluate_entry(
            runner, plan, entries[index], index, variables, limits,
            select_nodes=select_nodes, stream=stream,
            strip_whitespace=strip_whitespace,
            deadline=deadline, attempt=attempt,
        )
        outcomes.append(outcome)
        failed = fail_fast and outcome.error is not None
    return outcomes


# ----------------------------------------------------------------------
# Fault tolerance: retry policy and failure reporting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How the executor responds to losing a whole worker chunk.

    A *chunk loss* is an infrastructure failure — a killed worker process
    (``BrokenProcessPool``), a result that failed to pickle, an exception
    escaping the worker call itself — as opposed to a per-document error,
    which is always captured in its own outcome and never retried.

    Lost chunks are resubmitted on a fresh pool with capped exponential
    backoff, split in half each round so a single poisonous document is
    bisected away from its innocent neighbours; after ``max_attempts``
    pool attempts the stragglers degrade to in-parent serial evaluation,
    which cannot lose a worker.
    """

    #: Pool attempts per chunk (1 = no retries) before degrading to serial.
    max_attempts: int = 3
    #: First backoff delay; doubles each round.
    backoff_base: float = 0.05
    #: Ceiling on the backoff delay.
    backoff_cap: float = 1.0
    #: Halve failed chunks on resubmission (bisects poisonous documents).
    split_chunks: bool = True

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def backoff(self, attempt: int) -> float:
        """Delay before resubmission round ``attempt`` (1-based)."""
        return min(self.backoff_base * (2 ** (attempt - 1)), self.backoff_cap)

    @classmethod
    def coerce(cls, value: Union[None, int, "RetryPolicy"]) -> "RetryPolicy":
        """Accept the batch entry points' ``retries`` argument: ``None``
        (defaults), an int (number of *retries*, so ``0`` disables them),
        or a full policy."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return cls(max_attempts=value + 1)
        raise ValueError(
            f"retries must be None, an int or a RetryPolicy (got {value!r})"
        )


@dataclass(frozen=True)
class ChunkFate:
    """One abnormal event (or recovery) in a batch's chunk schedule."""

    #: Document indices of the chunk.
    indices: tuple[int, ...]
    #: Executor attempt the event happened on (0 = first submission).
    attempt: int
    #: Backend the chunk ran on.
    backend: str
    #: ``"lost"`` (worker/chunk failure), ``"hung"`` (blew through the
    #: deadline grace), ``"deadline"`` (deadline expired before resolution),
    #: ``"cancelled"`` (fail_fast), ``"degraded"`` (in-parent fallback),
    #: or ``"ok"`` (a successful retry).
    outcome: str
    #: Short description of the triggering error, when there was one.
    error: Optional[str] = None

    def describe(self) -> str:
        detail = f" — {self.error}" if self.error else ""
        return (
            f"attempt {self.attempt} [{self.backend}] "
            f"docs {list(self.indices)}: {self.outcome}{detail}"
        )


@dataclass
class FailureReport:
    """The retry/degradation chain of one batch (``BatchRun.failure_report``).

    Built by the executor only when something abnormal happened; a clean
    batch carries ``failure_report=None``.  Picklable and value-comparable,
    so fault-injection tests can assert exact recovery chains.
    """

    #: Abnormal chunk events, in the order they were observed.
    fates: list = field(default_factory=list)
    #: Human-readable schedule changes (retry rounds, degradation).
    backend_transitions: list = field(default_factory=list)

    @property
    def worker_failures(self) -> int:
        """Chunks lost to worker/infrastructure failure."""
        return sum(1 for fate in self.fates if fate.outcome == "lost")

    @property
    def retries(self) -> int:
        """Chunk resubmissions performed (successful or not)."""
        return sum(
            1 for fate in self.fates if fate.attempt > 0 and fate.outcome != "degraded"
        )

    @property
    def degraded_chunks(self) -> int:
        """Chunks that fell back to in-parent serial evaluation."""
        return sum(1 for fate in self.fates if fate.outcome == "degraded")

    @property
    def hung_chunks(self) -> int:
        """Chunks whose workers blew through the deadline grace."""
        return sum(1 for fate in self.fates if fate.outcome == "hung")

    def summary(self) -> str:
        parts = [
            f"{self.worker_failures} worker failure(s)",
            f"{self.retries} retried chunk(s)",
            f"{self.degraded_chunks} degraded",
        ]
        if self.hung_chunks:
            parts.append(f"{self.hung_chunks} hung")
        if self.backend_transitions:
            parts.append(f"transitions: {', '.join(self.backend_transitions)}")
        return ", ".join(parts)

    def describe(self) -> str:
        lines = [self.summary()]
        lines.extend(fate.describe() for fate in self.fates)
        return "\n".join(lines)


def _split_chunk(chunk: range) -> list[range]:
    if len(chunk) <= 1:
        return [chunk]
    middle = len(chunk) // 2
    return [chunk[:middle], chunk[middle:]]


def _deadline_outcome(index: int) -> DocumentOutcome:
    return DocumentOutcome(index, error=_deadline_error())


def _failed_future(error: BaseException) -> Future:
    """A future already resolved to ``error``: a chunk lost before it ran."""
    future: Future = Future()
    future.set_exception(error)
    return future


def _aborted_outcome(index: int) -> DocumentOutcome:
    return DocumentOutcome(
        index,
        error=BatchAborted("batch entry cancelled by fail_fast after an earlier failure"),
    )


# ----------------------------------------------------------------------
# Process-backend workers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _PlanSpec:
    """How a worker process obtains the plan: recompile or unpickle.

    Shipping the query *source* is both cheaper on the wire and lets the
    worker hit its process-local plan cache across chunks; plans without
    source text (compiled from raw ASTs) travel as pickled plans.
    """

    source: Optional[str]
    engine_name: str
    plan: Optional[CompiledQuery] = None


#: Process-local plan cache: one per worker process, shared by every chunk
#: that worker serves, so a 100-document batch compiles the query once per
#: worker instead of once per chunk.
_WORKER_PLAN_CACHE: Optional[PlanCache] = None


def _worker_plan(
    spec: _PlanSpec, variables: Optional[Mapping[str, XPathValue]]
) -> CompiledQuery:
    global _WORKER_PLAN_CACHE
    if spec.source is None:
        assert spec.plan is not None
        return spec.plan
    if _WORKER_PLAN_CACHE is None:
        _WORKER_PLAN_CACHE = PlanCache()
    return _WORKER_PLAN_CACHE.get_or_compile(
        spec.source, engine=spec.engine_name, variables=variables
    )


def _process_chunk(
    spec: _PlanSpec,
    entries: Mapping[int, object],
    chunk: range,
    variables: Optional[Mapping[str, XPathValue]],
    limits: Optional[EvalLimits],
    select_nodes: bool,
    stream: bool = False,
    strip_whitespace: bool = False,
    deadline_remaining: Optional[float] = None,
    attempt: int = 0,
    fault_plan=None,
) -> list[DocumentOutcome]:
    """Worker-process entry point: evaluate one chunk on a private engine.

    ``entries`` maps each index of ``chunk`` to its entry — documents,
    store handles (O(1) ``(path, position)`` pickles) or XML sources (plain
    strings, far cheaper on the wire than pickled trees).

    ``fault_plan`` is the parent's active :class:`~repro.faultinject.FaultPlan`
    (injected plans do not cross process boundaries by themselves); it is
    reinstalled here so chunk- and document-site faults fire in the worker.
    """
    from .session import ENGINE_CLASSES  # deferred: workers import lazily

    with inject(fault_plan):
        deadline = _rebase_deadline(deadline_remaining)
        faults = active_plan()
        indices = tuple(chunk)
        if faults is not None:
            faults.fire(
                "chunk", indices=indices, attempt=attempt, process_worker=True
            )
        plan = _worker_plan(spec, variables)
        outcomes = evaluate_chunk(
            ENGINE_CLASSES[plan.engine_name](), plan, entries, chunk,
            variables, limits,
            select_nodes=select_nodes, stream=stream,
            strip_whitespace=strip_whitespace,
            deadline=deadline, attempt=attempt,
        )
        if faults is not None and faults.match(
            "chunk", action="corrupt", indices=indices, attempt=attempt
        ):
            # Deliberately unpicklable: the result send fails, the parent
            # sees the chunk as lost, and the retry machinery takes over.
            return lambda: outcomes  # type: ignore[return-value]
        return outcomes


def _ensure_process_portable(
    variables: Optional[Mapping[str, XPathValue]],
) -> None:
    """Reject bindings the process backend cannot ship faithfully."""
    for name, value in (variables or {}).items():
        if isinstance(value, NodeSet):
            raise XPathEvaluationError(
                f"variable ${name} is bound to a node set; the process "
                f"backend cannot ship nodes across processes — use the "
                f"thread backend for node-set variables"
            )


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class ParallelExecutor:
    """A reusable worker pool that evaluates collection batches in parallel.

    Parameters
    ----------
    backend:
        ``"thread"`` (default) or ``"process"`` — see the module docstring
        for the trade-off.
    max_workers:
        Pool size; defaults to :func:`default_max_workers`.
    chunk_size:
        Documents per worker task.  Defaults to an even split of the batch
        over the workers (one task per worker), which minimises shipping
        overhead; set it smaller for skewed per-document costs.
    retry:
        Default :class:`RetryPolicy` for chunk-loss recovery (overridable
        per batch via the collection entry points' ``retries`` argument).

    The underlying pool is created lazily on first use and reused across
    batches; :meth:`close` (or the context-manager form) releases it.
    A pool that loses a worker (or holds a hung one) is abandoned and
    lazily replaced — the executor object stays usable throughout.
    Executors are thread-safe and may serve several collections at once.
    """

    #: Extra wait beyond the batch deadline before declaring a worker hung:
    #: cooperative per-document timeouts need a moment to fire and report.
    DEADLINE_GRACE = 0.25

    def __init__(
        self,
        *,
        backend: str = "thread",
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        retry: Union[None, int, RetryPolicy] = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown parallel backend {backend!r}; choose from {BACKENDS}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.backend = backend
        self.max_workers = max_workers if max_workers is not None else default_max_workers()
        self.chunk_size = chunk_size
        self.retry = RetryPolicy.coerce(retry)
        self._pool = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        with self._lock:
            if self._pool is None:
                if self.backend == "thread":
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.max_workers,
                        thread_name_prefix="repro-parallel",
                    )
                else:
                    self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; the executor may be reused —
        a later batch lazily builds a fresh pool)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _abandon_pool(self) -> None:
        """Drop a pool we no longer trust — broken, or holding a hung
        worker — without waiting on it; the next submission builds a fresh
        one.  Pending work is cancelled where possible.  Process workers
        are terminated outright: ``concurrent.futures`` joins surviving
        workers at interpreter exit, so a hung process left behind would
        hold the whole program hostage until the hang ends.  (Hung
        *threads* cannot be killed — the thread backend relies on the
        deadline-tightened EvalLimits interrupting cooperative work.)"""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            # Snapshot the workers first: shutdown() drops the _processes
            # reference even with wait=False.
            processes = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                process.terminate()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def run_batch(
        self,
        entries: Sequence[Union[Document, str]],
        plan: CompiledQuery,
        *,
        variables: Optional[Mapping[str, XPathValue]],
        limits: Optional[EvalLimits],
        select_nodes: bool,
        session: "XPathSession",
        stream: bool = False,
        strip_whitespace: bool = False,
        retry: Optional[RetryPolicy] = None,
        deadline: Optional[float] = None,
        fail_fast: bool = False,
    ) -> tuple[list[DocumentOutcome], Optional[FailureReport]]:
        """Evaluate ``plan`` over every entry, in parallel, in order.

        ``entries`` are what :func:`evaluate_entry` takes: the caller's
        generation-pinned document snapshots (so a writer mutating
        mid-batch can never tear a worker's read), stored-document handles,
        or XML sources — each worker then streams its sources single-pass
        (``stream`` and a streamable plan) or parses-evaluates-drops one
        tree at a time, so peak memory per worker is one tree at most.

        Returns ``(outcomes, failure_report)``: one
        :class:`DocumentOutcome` per entry, in collection order, with
        per-entry failures captured exactly like the serial path, plus a
        :class:`FailureReport` when the batch needed fault recovery
        (``None`` for a clean run).  The caller
        (:meth:`Collection._run_batch`) folds the outcomes into
        :class:`~repro.collection.BatchResult` objects and the session
        statistics.

        Fault semantics: a lost chunk (dead worker, unpicklable result) is
        split and resubmitted per ``retry`` (default :attr:`retry`) on a
        fresh pool, degrading to in-parent serial evaluation when pool
        attempts run out — successful entries stay byte-identical to the
        serial path because every backend runs :func:`evaluate_chunk`.
        ``deadline`` (a ``time.monotonic()`` instant) bounds the whole
        batch: per-document limits are tightened to the remaining time,
        future waits time out shortly after the deadline, and a worker
        that blows through the grace is declared hung — its documents (and any still-unresolved ones) fail
        with ``batch_deadline`` limit errors instead of stalling the batch.
        ``fail_fast`` disables retries and cancels unstarted chunks after
        the first failure (cancelled entries carry
        :class:`~repro.errors.BatchAborted`); chunks already in flight
        still complete and report.

        Known wire cost of the process backend: every call ships its chunk
        documents to the workers, so a multi-query run over one collection
        re-ships the documents once per query.  Worker-side document
        caching would need a miss-and-retry protocol (chunk→worker
        assignment is nondeterministic); per-batch shipping is the simple
        correct trade-off for the CPU-bound workloads this backend targets.
        """
        if not entries:
            return [], None

        def run_chunk(chunk: range, attempt: int) -> list[DocumentOutcome]:
            # session.engine() pools per (name, thread): each worker thread
            # gets its own instance, so concurrent chunks never share
            # last_stats.
            return evaluate_chunk(
                session.engine(plan.engine_name), plan, entries, chunk,
                variables, limits,
                select_nodes=select_nodes, stream=stream,
                strip_whitespace=strip_whitespace,
                deadline=deadline, attempt=attempt,
            )

        if self.backend == "thread":
            def submit(chunk: range, attempt: int):
                return self._ensure_pool().submit(
                    self._thread_chunk, run_chunk, chunk, attempt
                )
        else:
            _ensure_process_portable(variables)
            spec = _PlanSpec(
                source=plan.source,
                engine_name=plan.engine_name,
                plan=plan if plan.source is None else None,
            )
            fault_plan = active_plan()

            def submit(chunk: range, attempt: int):
                return self._ensure_pool().submit(
                    _process_chunk,
                    spec, {index: entries[index] for index in chunk}, chunk,
                    variables, limits, select_nodes, stream, strip_whitespace,
                    _remaining_seconds(deadline), attempt, fault_plan,
                )

        # run_chunk doubles as the in-parent degrade-to-serial fallback.
        return self._execute(
            self._chunks(len(entries)), submit, run_chunk,
            retry=retry if retry is not None else self.retry,
            deadline=deadline, fail_fast=fail_fast,
        )

    # ------------------------------------------------------------------
    # The fault-tolerant gather loop
    # ------------------------------------------------------------------
    def _execute(
        self,
        chunks: list[range],
        submit,
        fallback,
        *,
        retry: RetryPolicy,
        deadline: Optional[float],
        fail_fast: bool,
    ) -> tuple[list[DocumentOutcome], Optional[FailureReport]]:
        """Submit chunks, gather outcomes, recover from lost/hung workers.

        The engine room behind :meth:`run_batch`.  ``submit(chunk,
        attempt)`` returns a future resolving to the chunk's outcomes;
        ``fallback(chunk, attempt)`` evaluates a chunk in-parent (the
        degradation path, which cannot lose a worker).  Chunks are
        contiguous ascending ranges, so outcomes merge back into collection
        order by index regardless of the retry schedule.
        """
        outcomes: dict[int, DocumentOutcome] = {}
        report = FailureReport()

        def settle(chunk, outs, attempt, outcome="ok", error=None):
            for out in outs:
                outcomes[out.index] = out
            if outcome != "ok" or attempt > 0:
                report.fates.append(
                    ChunkFate(tuple(chunk), attempt, self.backend, outcome, error)
                )

        pending = list(chunks)
        attempt = 0
        while pending:
            futures = []
            for position, chunk in enumerate(pending):
                try:
                    futures.append((chunk, submit(chunk, attempt)))
                except BrokenExecutor as error:
                    # A worker died while the round was still being
                    # submitted.  This chunk and the unsubmitted rest are
                    # lost like a chunk whose worker died, so the gather
                    # loop below retries or aborts them the same way.
                    self._abandon_pool()
                    futures.extend(
                        (lost, _failed_future(error)) for lost in pending[position:]
                    )
                    break
            failed: list[range] = []
            aborting = False      # fail_fast tripped: cancel the rest
            deadline_over = False  # a worker hung: resolve the rest now
            for chunk, future in futures:
                if aborting or deadline_over:
                    # Resolve without waiting: keep chunks that finished,
                    # synthesise per-document outcomes for the rest.
                    done = future.done() and not future.cancelled()
                    future.cancel()
                    if done:
                        try:
                            settle(chunk, future.result(timeout=0), attempt)
                            continue
                        except Exception:
                            pass  # a lost finished chunk: fall through
                    make = _aborted_outcome if aborting else _deadline_outcome
                    settle(
                        chunk, [make(index) for index in chunk], attempt,
                        "cancelled" if aborting else "deadline",
                    )
                    continue
                timeout = None
                if deadline is not None:
                    timeout = (
                        max(0.0, deadline - time.monotonic()) + self.DEADLINE_GRACE
                    )
                try:
                    outs = future.result(timeout=timeout)
                except FuturesTimeoutError:
                    # The worker blew straight through the cooperative
                    # timeout window — it is hung for real.  Convert its
                    # documents to deadline failures and stop trusting the
                    # pool (the hung worker is still squatting in it).
                    self._abandon_pool()
                    settle(
                        chunk, [_deadline_outcome(index) for index in chunk],
                        attempt, "hung",
                    )
                    deadline_over = True
                except Exception as error:
                    # The chunk itself was lost: a killed worker
                    # (BrokenProcessPool poisons every sibling future of the
                    # round — they all land here and are retried together),
                    # an unpicklable result, or an exception escaping the
                    # worker call.
                    if isinstance(error, BrokenExecutor):
                        self._abandon_pool()
                    detail = f"{type(error).__name__}: {error}"
                    if fail_fast:
                        settle(
                            chunk,
                            [
                                DocumentOutcome(
                                    index,
                                    error=WorkerLostError(
                                        f"worker lost evaluating document {index} "
                                        f"({detail})",
                                        attempts=attempt + 1,
                                    ),
                                )
                                for index in chunk
                            ],
                            attempt, "lost", detail,
                        )
                        aborting = True
                    else:
                        report.fates.append(
                            ChunkFate(
                                tuple(chunk), attempt, self.backend, "lost", detail
                            )
                        )
                        failed.append(chunk)
                else:
                    settle(chunk, outs, attempt)
                    if fail_fast and any(out.error is not None for out in outs):
                        aborting = True
            if deadline_over and failed:
                # Chunks lost before the hang was detected: no time left to
                # retry them.
                for chunk in failed:
                    settle(
                        chunk, [_deadline_outcome(index) for index in chunk],
                        attempt, "deadline",
                    )
                failed = []
            if not failed:
                break
            attempt += 1
            if attempt >= retry.max_attempts:
                # Out of pool attempts: degrade the stragglers to in-parent
                # serial evaluation, which cannot lose a worker.
                report.backend_transitions.append(f"{self.backend}->serial")
                for chunk in failed:
                    settle(chunk, fallback(chunk, attempt), attempt, "degraded")
                break
            report.backend_transitions.append(f"{self.backend} retry {attempt}")
            delay = retry.backoff(attempt)
            if deadline is not None:
                delay = min(delay, max(0.0, deadline - time.monotonic()))
            if delay > 0:
                time.sleep(delay)
            if retry.split_chunks:
                pending = [
                    half for chunk in failed for half in _split_chunk(chunk)
                ]
            else:
                pending = failed
        ordered = [outcomes[index] for index in sorted(outcomes)]
        abnormal = bool(report.fates or report.backend_transitions)
        return ordered, (report if abnormal else None)

    @staticmethod
    def _thread_chunk(run_chunk, chunk: range, attempt: int) -> list[DocumentOutcome]:
        """Thread-worker entry point: fire the chunk-site faults, then
        ``run_chunk(chunk, attempt)`` (the batch's :func:`evaluate_chunk`
        call, which the in-parent fallback runs without the faults)."""
        faults = active_plan()
        if faults is not None:
            faults.fire("chunk", indices=tuple(chunk), attempt=attempt)
        return run_chunk(chunk, attempt)

    def _chunks(self, count: int) -> list[range]:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-count // self.max_workers))  # ceil division
        return [range(start, min(start + size, count)) for start in range(0, count, size)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "idle" if self._pool is None else "pooled"
        return (
            f"<ParallelExecutor backend={self.backend!r} "
            f"workers={self.max_workers} {state}>"
        )


# ----------------------------------------------------------------------
# Resolution of the collection-level ``parallel=`` argument
# ----------------------------------------------------------------------
def resolve_executor(
    parallel: Union[None, bool, ParallelExecutor],
    *,
    max_workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> tuple[Optional[ParallelExecutor], bool]:
    """Turn the batch entry points' ``parallel=`` argument into an executor.

    Returns ``(executor, ephemeral)``: ``executor`` is ``None`` for the
    serial path; ``ephemeral`` tells the caller to close the pool after the
    batch (true only when this call created it).

    * ``parallel=None`` (the default) goes parallel only when
      ``max_workers`` or ``backend`` is given explicitly (they imply the
      intent), otherwise serial;
    * ``parallel=False`` forces the serial path (and rejects the parallel
      tuning arguments as contradictory);
    * ``parallel=True`` builds an ephemeral executor from ``backend`` /
      ``max_workers``;
    * a :class:`ParallelExecutor` is used as given (and left open).
    """
    if isinstance(parallel, ParallelExecutor):
        if max_workers is not None or backend is not None:
            raise ValueError(
                "pass max_workers/backend to the ParallelExecutor, "
                "not alongside one"
            )
        return parallel, False
    if parallel is None:
        parallel = max_workers is not None or backend is not None
    if not parallel:
        if max_workers is not None or backend is not None:
            raise ValueError("max_workers/backend require parallel=True")
        return None, False
    return (
        ParallelExecutor(backend=backend or "thread", max_workers=max_workers),
        True,
    )
