"""Batch evaluation: one compiled plan over many documents (and vice versa).

The ROADMAP's target traffic shape is *repeated queries over many
documents*: the same handful of XPath queries evaluated against streams of
similar documents.  A :class:`Collection` holds a fixed, ordered set of
parsed documents — each with its frozen
:class:`~repro.xmlmodel.index.DocumentIndex` built exactly once — and
evaluates compiled plans across all of them:

* :meth:`Collection.select` / :meth:`Collection.evaluate` — one plan, every
  document (the plan is compiled once, through the plan cache);
* :meth:`Collection.select_many` / :meth:`Collection.evaluate_many` — many
  plans over the whole collection, compiling each query once.

Collections are **session-aware**: each collection is bound to an
:class:`~repro.session.XPathSession` (the default session unless one is
given), so batch traffic shares the session's plan cache, pooled engine
instances, resource limits and aggregated statistics.  Batch entry points
return :class:`BatchRun` — a plain ``list`` of :class:`BatchResult` that
additionally reports the plan and whether it was a cache hit or freshly
compiled; :meth:`Collection.select_many` / :meth:`Collection.evaluate_many`
return a :class:`MultiQueryRun` whose :attr:`~MultiQueryRun.plan_reports`
show the hit/compiled provenance of every query in the batch.

Failures are isolated per document: a query that raises on one document
(e.g. an unbound variable met only on some documents' contexts, a fragment
engine rejecting at evaluation time, or a per-document resource-limit
breach) yields a :class:`BatchResult` carrying the error while every other
document still produces its result.  Result ordering is stable: results
always come back in collection order, and node lists are in document order
(the engines guarantee that).

Typical usage::

    from repro import api

    docs = api.parse_collection(["<a><b/></a>", "<a><b/><b/></a>"])
    for result in docs.select("//b"):
        print(result.index, len(result.nodes))

    runs = docs.select_many(["//b", "//a"])
    [(r.query, r.cache_hit) for r in runs.plan_reports]
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import ReproError
from .parallel import (
    DocumentOutcome,
    FailureReport,
    ParallelExecutor,
    RetryPolicy,
    evaluate_chunk,
    resolve_executor,
)
from .streaming import StreamMatch
from .xmlmodel.document import Document
from .xmlmodel.nodes import Node
from .xmlmodel.parser import parse_xml
from .xpath.values import NodeSet, XPathValue


@dataclass(frozen=True)
class BatchResult:
    """Outcome of evaluating one plan against one document of a collection."""

    #: Position of the document in the collection (stable across queries).
    index: int
    #: Collection-assigned name of the document (defaults to ``doc[index]``).
    name: str
    #: The document the plan was evaluated against (``None`` for
    #: :class:`SourceCollection` batches — the tree was never built, or died
    #: inside its worker).
    document: Optional[Document]
    #: Node-set result of :meth:`Collection.select` (``None`` on error or
    #: for :meth:`Collection.evaluate`, which fills :attr:`value` instead).
    nodes: Optional[list[Node]] = None
    #: Scalar/value result of :meth:`Collection.evaluate` (``None`` on error).
    value: Optional[XPathValue] = None
    #: Node-set result of a :class:`SourceCollection` batch, as
    #: :class:`~repro.streaming.StreamMatch` records (streamed single-pass,
    #: or converted from the tree fallback — same shape either way).
    matches: Optional[list[StreamMatch]] = None
    #: The per-document failure, when evaluation raised.
    error: Optional[ReproError] = None

    @property
    def ok(self) -> bool:
        """True when evaluation succeeded on this document."""
        return self.error is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.ok:
            return f"<BatchResult {self.name}: error {self.error}>"
        if self.nodes is not None:
            payload = f"{len(self.nodes)} nodes"
        elif self.matches is not None:
            payload = f"{len(self.matches)} matches"
        else:
            payload = repr(self.value)
        return f"<BatchResult {self.name}: {payload}>"


@dataclass(frozen=True)
class PlanReport:
    """Compile-time provenance of one batch query: what ran, from where."""

    #: The query as given (source text, or rendered XPath for ASTs/plans).
    query: str
    #: Engine the plan resolved to.
    engine_name: str
    #: Figure-1 fragment of the query.
    fragment: str
    #: ``True`` = served from the session's plan cache, ``False`` = compiled
    #: on this call, ``None`` = prebuilt plan / AST (no cache involved).
    cache_hit: Optional[bool]


class BatchRun(list):
    """``list[BatchResult]`` plus the plan provenance of the batch.

    Subclasses ``list`` so every pre-existing consumer of
    :meth:`Collection.select` keeps working; the extras are the compiled
    :attr:`plan`, the :attr:`cache_hit` flag and a :attr:`report`.
    """

    def __init__(
        self,
        results=(),
        *,
        plan,
        cache_hit: Optional[bool] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        streamed: Optional[bool] = None,
        failure_report: Optional[FailureReport] = None,
    ):
        super().__init__(results)
        self.plan = plan
        self.cache_hit = cache_hit
        #: ``"thread"`` / ``"process"`` when the batch ran through a
        #: :class:`~repro.parallel.ParallelExecutor`; ``None`` for serial.
        self.backend = backend
        #: Worker-pool size of a parallel batch; ``None`` for serial.
        self.workers = workers
        #: ``True`` when a :class:`SourceCollection` batch ran on the
        #: single-pass streaming backend, ``False`` for its tree fallback,
        #: ``None`` for ordinary (pre-parsed) collections.
        self.streamed = streamed
        #: The batch's :class:`~repro.parallel.FailureReport` when fault
        #: recovery had to step in (retries, degradation, hung workers,
        #: deadline cancellations); ``None`` for a clean run.  A batch can
        #: be *degraded-but-ok*: every document succeeded, yet a report is
        #: attached because some chunks needed recovery.
        self.failure_report = failure_report

    @property
    def ok(self) -> bool:
        """True when every document evaluated without error."""
        return all(result.ok for result in self)

    @property
    def degraded(self) -> bool:
        """True when fault recovery stepped in (even if every result is ok)."""
        return self.failure_report is not None

    @property
    def report(self) -> PlanReport:
        return PlanReport(
            query=self.plan.source if self.plan.source is not None else self.plan.to_xpath(),
            engine_name=self.plan.engine_name,
            fragment=self.plan.fragment_name,
            cache_hit=self.cache_hit,
        )

    def explain(self) -> str:
        """Render the batch's plan decision, outcome tally, and — when
        fault recovery stepped in — the per-chunk fates and backend
        transitions of the :attr:`failure_report`."""
        from .session import render_explanation  # local import (cycle)

        lines = [render_explanation(self.plan, cache_hit=self.cache_hit)]
        where = (
            f"{self.backend} x {self.workers}" if self.backend else "serial"
        )
        if self.streamed is not None:
            where += ", streamed" if self.streamed else ", tree"
        lines.append(f"batch:      {len(self)} document(s) [{where}]")
        failed = sum(1 for result in self if not result.ok)
        lines.append(
            f"outcomes:   {len(self) - failed} ok, {failed} failed"
        )
        if self.failure_report is not None:
            lines.append(f"faults:     {self.failure_report.summary()}")
            for fate in self.failure_report.fates:
                lines.append(f"            {fate.describe()}")
        return "\n".join(lines)


class MultiQueryRun(list):
    """``list[BatchRun]`` (one per query) with per-plan hit/compiled reports."""

    @property
    def plan_reports(self) -> list[PlanReport]:
        """Which plan-cache entries were hits vs freshly compiled."""
        return [run.report for run in self]

    @property
    def cache_hits(self) -> int:
        return sum(1 for run in self if run.cache_hit)

    @property
    def compiled(self) -> int:
        return sum(1 for run in self if run.cache_hit is False)


class Collection:
    """An ordered, immutable set of documents evaluated as a batch.

    Construct directly from parsed documents, or from XML sources via
    :meth:`from_sources` / :func:`repro.api.parse_collection`.  Documents
    keep their identity (and their :class:`~repro.xmlmodel.index.DocumentIndex`)
    for the collection's lifetime, so every query against the collection
    reuses the indexes instead of rebuilding per call.

    A collection is bound to an :class:`~repro.session.XPathSession`
    (``session=None`` binds it to the process default session): plans come
    from the session's cache, engines from its pool, the session's
    :class:`~repro.engines.base.EvalLimits` bound every per-document
    evaluation, and all work is folded into the session's stats.
    """

    #: Whether source entries drop whitespace-only text when parsed; only a
    #: :class:`SourceCollection` holds sources.
    strip_whitespace = False

    def __init__(
        self,
        documents: Iterable[Document],
        names: Optional[Sequence[str]] = None,
        *,
        session=None,
    ):
        self._session = session
        self._documents: tuple[Document, ...] = tuple(documents)
        if names is None:
            self._names: tuple[str, ...] = tuple(
                f"doc[{index}]" for index in range(len(self._documents))
            )
        else:
            names = tuple(names)
            if len(names) != len(self._documents):
                raise ValueError(
                    f"{len(names)} names given for {len(self._documents)} documents"
                )
            self._names = names

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sources(
        cls,
        sources: Iterable[str],
        *,
        strip_whitespace: bool = False,
        names: Optional[Sequence[str]] = None,
        session=None,
    ) -> "Collection":
        """Parse XML texts into a collection (indexes built once, here)."""
        documents = [
            parse_xml(source, strip_whitespace=strip_whitespace) for source in sources
        ]
        return cls(documents, names=names, session=session)

    @property
    def session(self):
        """The session this collection is bound to (default session if none)."""
        if self._session is not None:
            return self._session
        from .api import default_session  # local import to avoid a cycle

        return default_session()

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    @property
    def documents(self) -> tuple[Document, ...]:
        return self._documents

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def __getitem__(self, index: int) -> Document:
        return self._documents[index]

    # ------------------------------------------------------------------
    # Batch evaluation
    # ------------------------------------------------------------------
    def select(
        self,
        query,
        *,
        engine: Optional[str] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        limits=None,
        parallel: Union[None, bool, ParallelExecutor] = None,
        max_workers: Optional[int] = None,
        backend: Optional[str] = None,
        deadline: Optional[float] = None,
        fail_fast: bool = False,
        retries: Union[None, int, RetryPolicy] = None,
    ) -> BatchRun:
        """Evaluate one node-set query over every document.

        The query is compiled exactly once (through the session's plan
        cache when it is a string); each document is evaluated with the
        session's pooled engine under the session's limits, and errors —
        including per-document limit breaches — are captured per document.
        Results arrive in collection order with nodes in document order.

        ``parallel=True`` fans the documents out over a worker pool
        (``backend="thread"`` by default, ``"process"`` for CPU-bound
        scaling; ``max_workers`` sizes the pool — giving either implies
        ``parallel=True``), or pass a reusable
        :class:`~repro.parallel.ParallelExecutor`.  Results, ordering,
        per-document failures and session statistics are identical to the
        serial path.

        Fault tolerance: ``deadline`` (seconds for the whole batch, on the
        monotonic clock) tightens every document's timeout to the time
        remaining and converts hangs into per-document ``batch_deadline``
        limit errors; ``fail_fast=True`` stops evaluating after the first
        failed document (the rest carry :class:`~repro.errors.BatchAborted`);
        ``retries`` — an attempt count or a
        :class:`~repro.parallel.RetryPolicy` — overrides the executor's
        worker-loss recovery policy.  A batch that needed recovery attaches
        a :class:`~repro.parallel.FailureReport` as
        :attr:`BatchRun.failure_report`.
        """
        return self._run_batch(
            query, select_nodes=True,
            engine=engine, variables=variables, limits=limits,
            parallel=parallel, max_workers=max_workers, backend=backend,
            deadline=deadline, fail_fast=fail_fast, retries=retries,
        )

    def evaluate(
        self,
        query,
        *,
        engine: Optional[str] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        limits=None,
        parallel: Union[None, bool, ParallelExecutor] = None,
        max_workers: Optional[int] = None,
        backend: Optional[str] = None,
        deadline: Optional[float] = None,
        fail_fast: bool = False,
        retries: Union[None, int, RetryPolicy] = None,
    ) -> BatchRun:
        """Evaluate one query of any result type over every document
        (same fault-tolerance keywords as :meth:`select`)."""
        return self._run_batch(
            query, select_nodes=False,
            engine=engine, variables=variables, limits=limits,
            parallel=parallel, max_workers=max_workers, backend=backend,
            deadline=deadline, fail_fast=fail_fast, retries=retries,
        )

    def select_many(
        self,
        queries: Iterable,
        *,
        engine: Optional[str] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        limits=None,
        parallel: Union[None, bool, ParallelExecutor] = None,
        max_workers: Optional[int] = None,
        backend: Optional[str] = None,
        deadline: Optional[float] = None,
        fail_fast: bool = False,
        retries: Union[None, int, RetryPolicy] = None,
    ) -> MultiQueryRun:
        """Evaluate several queries over the whole collection.

        Returns one :class:`BatchRun` per query, in query order — each
        compiled once and evaluated across every document, so the cost is
        |queries| compilations + |queries|·|documents| evaluations.  The
        returned :class:`MultiQueryRun`'s :attr:`~MultiQueryRun.plan_reports`
        say which plans were cache hits and which had to be compiled.

        With ``parallel=True`` (or an executor) each query's batch fans out
        over the worker pool; one pool is shared by all queries of the call.
        ``deadline`` applies *per query batch*, not to the whole call.
        """
        return self._run_many(
            self.select, queries, engine, variables, limits,
            parallel, max_workers, backend, deadline, fail_fast, retries,
        )

    def evaluate_many(
        self,
        queries: Iterable,
        *,
        engine: Optional[str] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        limits=None,
        parallel: Union[None, bool, ParallelExecutor] = None,
        max_workers: Optional[int] = None,
        backend: Optional[str] = None,
        deadline: Optional[float] = None,
        fail_fast: bool = False,
        retries: Union[None, int, RetryPolicy] = None,
    ) -> MultiQueryRun:
        """Like :meth:`select_many`, for queries of any result type."""
        return self._run_many(
            self.evaluate, queries, engine, variables, limits,
            parallel, max_workers, backend, deadline, fail_fast, retries,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _run_many(
        self, run_one, queries, engine, variables, limits,
        parallel, max_workers, backend,
        deadline=None, fail_fast=False, retries=None,
    ) -> MultiQueryRun:
        """Shared select_many/evaluate_many scaffolding: resolve the
        executor once so all queries share one pool, close it if ephemeral."""
        executor, ephemeral = resolve_executor(
            parallel, max_workers=max_workers, backend=backend
        )
        try:
            return MultiQueryRun(
                run_one(
                    query, engine=engine, variables=variables, limits=limits,
                    parallel=executor if executor is not None else False,
                    deadline=deadline, fail_fast=fail_fast, retries=retries,
                )
                for query in queries
            )
        finally:
            if ephemeral and executor is not None:
                executor.close()

    def _run_batch(
        self,
        query,
        *,
        select_nodes: bool,
        stream: Optional[bool] = None,
        engine: Optional[str] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        limits=None,
        parallel: Union[None, bool, ParallelExecutor] = None,
        max_workers: Optional[int] = None,
        backend: Optional[str] = None,
        deadline: Optional[float] = None,
        fail_fast: bool = False,
        retries: Union[None, int, RetryPolicy] = None,
    ) -> BatchRun:
        """The one batch path of every collection kind.  ``stream`` is
        ``None`` for document batches (nothing to stream) and the caller's
        choice for :class:`SourceCollection` batches."""
        session = self.session
        merged = session._merged(variables)
        plan, cache_hit = session._plan(query, engine, merged)
        effective_limits = limits if limits is not None else session.limits
        streamed = None if stream is None else bool(stream and plan.streamable)
        # Monotonic instant: immune to wall-clock steps (NTP, DST, admin).
        batch_deadline = (
            time.monotonic() + deadline if deadline is not None else None
        )
        executor, ephemeral = resolve_executor(
            parallel, max_workers=max_workers, backend=backend
        )
        # Pin every document at one generation before the first evaluation:
        # a writer mutating a document mid-batch copies the tree for itself
        # (copy-on-write) while the batch keeps reading the pinned columns —
        # no worker can observe a half-applied edit, serial or parallel.
        pinned = self._pin_documents()
        options = dict(
            select_nodes=select_nodes, stream=bool(streamed),
            strip_whitespace=self.strip_whitespace, deadline=batch_deadline,
        )
        if executor is None:
            outcomes = evaluate_chunk(
                session.engine(plan.engine_name), plan, pinned,
                range(len(pinned)), merged or None, effective_limits,
                fail_fast=fail_fast, **options,
            )
            results = BatchRun(plan=plan, cache_hit=cache_hit, streamed=streamed)
        else:
            retry = RetryPolicy.coerce(retries) if retries is not None else None
            try:
                outcomes, failure_report = executor.run_batch(
                    pinned, plan, variables=merged or None,
                    limits=effective_limits, session=session,
                    retry=retry, fail_fast=fail_fast, **options,
                )
            finally:
                if ephemeral:
                    executor.close()
            results = BatchRun(
                plan=plan, cache_hit=cache_hit, streamed=streamed,
                backend=executor.backend, workers=executor.max_workers,
                failure_report=failure_report,
            )
            if failure_report is not None:
                session.stats.record_faults(failure_report)
        label = "streaming" if streamed else plan.engine_name
        for outcome in outcomes:
            results.append(
                self._fold_outcome(outcome, label, session, pinned, select_nodes)
            )
        return results

    def _pin_documents(self) -> tuple:
        """One evaluation view per document, each pinned at a single
        generation (:meth:`Document.snapshot`).  Non-``Document`` entries —
        store handles that materialise lazily inside the evaluation
        isolation boundary, XML sources — pass through unchanged."""
        return tuple(
            document.snapshot() if isinstance(document, Document) else document
            for document in self._documents
        )

    def _fold_outcome(
        self, outcome: DocumentOutcome, label: str, session, pinned,
        select_nodes: bool,
    ) -> BatchResult:
        """Turn one per-entry outcome into a :class:`BatchResult`,
        folding it into the session statistics (under ``label``) exactly
        like the serial path always did (failures pull partial stats off
        the error itself).

        Result node orders are mapped back through the *pinned* view the
        outcome was evaluated against — after a mid-batch copy-on-write the
        writer's columns describe a different tree — while
        :attr:`BatchResult.document` keeps the caller's document identity.
        """
        index, name = outcome.index, self._names[outcome.index]
        if outcome.error is not None:
            session.stats.record_failure(label, outcome.elapsed, outcome.error)
            return BatchResult(
                index, name, self._failure_document(index), error=outcome.error
            )
        session.stats.record(label, outcome.stats, outcome.elapsed)
        document = self._document_at(index)
        if outcome.orders is None:
            return BatchResult(
                index, name, document, value=outcome.value, matches=outcome.matches
            )
        evaluated = pinned[index] if isinstance(pinned[index], Document) else document
        nodes = [evaluated.index.nodes[order] for order in outcome.orders]
        if select_nodes:
            return BatchResult(index, name, document, nodes=nodes)
        value = NodeSet.from_sorted(nodes).stamp(evaluated)
        return BatchResult(index, name, document, value=value)

    def _document_at(self, index: int) -> Document:
        """The evaluable document at ``index``.  Overridden by store-backed
        collections to materialise handles lazily."""
        return self._documents[index]

    def _failure_document(self, index: int) -> Optional[Document]:
        """The document attached to a failed :class:`BatchResult` — must
        never raise (store-backed collections return what is already
        materialised, possibly ``None``)."""
        return self._documents[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Collection of {len(self)} documents>"


class SourceCollection(Collection):
    """An ordered set of XML *sources* evaluated without retaining trees.

    Where :class:`Collection` parses everything up front and keeps the
    trees (fast for repeated queries over a resident corpus), a source
    collection keeps only the texts — the ROADMAP's "documents bigger than
    the working set" shape.  Each batch evaluates every source with bounded
    memory per worker:

    * plan streamable and ``stream=True`` — the source is scanned in one
      pass, **zero** trees are built;
    * otherwise each source is parsed, evaluated with the session's pooled
      engine, and the tree is dropped before the next source — at most
      **one** tree per worker at any time.

    Node-set results come back as :class:`~repro.streaming.StreamMatch`
    records (there is no tree left for ``Node`` objects to live in), with
    identical shape from both backends.  Per-source isolation covers
    parsing too: a malformed source fails only its own entry.  Batches run
    through the same pipeline as :class:`Collection` — the sources are the
    entries, so parallel batches fan them (plain strings — cheap to ship
    across processes) out over a :class:`~repro.parallel.ParallelExecutor`
    exactly like documents.
    """

    def __init__(
        self,
        sources: Iterable[str],
        names: Optional[Sequence[str]] = None,
        *,
        strip_whitespace: bool = False,
        session=None,
    ):
        super().__init__(sources, names=names, session=session)
        self.strip_whitespace = strip_whitespace

    @property
    def sources(self) -> tuple[str, ...]:
        return self._documents

    # ------------------------------------------------------------------
    # Batch evaluation
    # ------------------------------------------------------------------
    def select(self, query, *, stream: bool = False, **options) -> BatchRun:
        """Evaluate one node-set query over every source.

        ``stream=True`` prefers the single-pass backend for streamable
        plans (with automatic tree fallback otherwise); ``stream=False``
        (the default) forces the parse-evaluate-drop path.  Results carry
        :attr:`BatchResult.matches` in collection order.  ``options`` are
        :meth:`Collection.select`'s keywords (``engine``, ``variables``,
        ``limits``, ``parallel``, ``max_workers``, ``backend``,
        ``deadline``, ``fail_fast``, ``retries``) and behave exactly as
        there — the deadline also bounds the streaming token loop.
        """
        return self._run_batch(query, select_nodes=True, stream=stream, **options)

    def evaluate(self, query, *, stream: bool = False, **options) -> BatchRun:
        """Evaluate one query of any result type over every source
        (node-set results arrive as matches, scalars as values; same
        keywords as :meth:`select`)."""
        return self._run_batch(query, select_nodes=False, stream=stream, **options)

    # ------------------------------------------------------------------
    # Collection internals: no tree outlives its entry
    # ------------------------------------------------------------------
    def _document_at(self, index: int) -> None:
        return None

    def _failure_document(self, index: int) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SourceCollection of {len(self)} sources>"
