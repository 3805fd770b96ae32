"""Session-scoped evaluation: :class:`XPathSession` and :class:`QueryResult`.

The module-level convenience API (``repro.select`` and friends) is a thin
veneer over this layer.  An :class:`XPathSession` is the unit of isolation
for one client / tenant of the library: it owns

* its own :class:`~repro.plan.PlanCache` — two sessions never share compiled
  plans or cache statistics;
* a pool of engine instances, created once per engine name and reused for
  every call (the pre-session API instantiated a fresh engine per query);
* a default engine-selection policy (a concrete engine name, or ``"auto"``
  to resolve per query from the classification: ``compiled`` for
  compilable plans, else the fragment's engine);
* default variable bindings merged under each call's own ``variables``;
* an :class:`~repro.engines.base.EvalLimits` applied to every evaluation
  (overridable per call), enforced cooperatively inside the engines'
  operation counters;
* aggregated :class:`SessionStats` across all queries the session served.

Every session call returns a :class:`QueryResult` carrying the value *and*
the provenance the paper says matters — which fragment the query fell into,
which algorithm ran, whether the plan came from the cache, and the
deterministic operation counters — with :meth:`QueryResult.explain`
rendering the whole decision as text.

Typical usage::

    from repro import XPathSession, EvalLimits

    session = XPathSession(engine="auto",
                           limits=EvalLimits(max_operations=1_000_000))
    doc = session.parse("<a><b>1</b><b>2</b></a>")

    result = session.run("//b[. = '2']", doc)
    result.nodes                  # the match, in document order
    result.engine_name            # 'compiled' — resolved from the classification
    result.cache_hit              # False on first sight, True after
    print(result.explain())       # plan / fragment / engine / stats report

    session.select("//b", doc)    # plain list[Node], same session state
    session.stats.queries         # aggregated across all calls

Sessions are thread-safe for evaluation traffic: the plan cache is
internally locked, :class:`SessionStats` aggregation is lock-guarded, and
the engine pool hands out one engine instance per (engine name, thread) —
engines carry mutable per-evaluation state (``last_stats``), so threads must
never share one.  This is what lets the parallel batch executor
(:mod:`repro.parallel`) and N client threads hammer a single session
concurrently.  Configuration attributes (``default_engine``, ``variables``,
``limits``) are read-mostly: mutate them only while no other thread is
evaluating.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from .engines.base import EvalLimits, EvaluationStats, XPathEngine
from .engines.bottomup import BottomUpEngine
from .engines.compiled import CompiledEngine
from .engines.datapool import DataPoolEngine
from .engines.mincontext import MinContextEngine
from .engines.naive import NaiveEngine
from .engines.optmincontext import OptMinContextEngine
from .engines.topdown import TopDownEngine
from .errors import ReproError, ResourceLimitExceeded, XPathEvaluationError
from .fragments.classify import Classification
from .fragments.core_xpath import CoreXPathEngine
from .fragments.xpatterns import XPatternsEngine
from .plan import DEFAULT_ENGINE, CompiledQuery, PlanCache, plan_for
from .streaming import StreamMatch, stream_matches
from .xmlmodel.document import Document, as_document
from .xmlmodel.nodes import Node
from .xmlmodel.parser import parse_xml
from .xpath.context import Context
from .xpath.values import NodeSet, ValueType, XPathValue

#: Registry of all engines by name (re-exported as ``repro.api.ENGINE_CLASSES``).
ENGINE_CLASSES: dict[str, type[XPathEngine]] = {
    NaiveEngine.name: NaiveEngine,
    DataPoolEngine.name: DataPoolEngine,
    BottomUpEngine.name: BottomUpEngine,
    TopDownEngine.name: TopDownEngine,
    MinContextEngine.name: MinContextEngine,
    OptMinContextEngine.name: OptMinContextEngine,
    CoreXPathEngine.name: CoreXPathEngine,
    XPatternsEngine.name: XPatternsEngine,
    CompiledEngine.name: CompiledEngine,
}

QueryLike = Union[str, CompiledQuery, object]


# ----------------------------------------------------------------------
# Aggregated per-session statistics
# ----------------------------------------------------------------------
@dataclass
class SessionStats:
    """Counters aggregated over every query a session has served.

    ``total_work`` sums the engines' :meth:`EvaluationStats.total_work`
    scalar — including the partial work of evaluations aborted by a
    resource limit, which also increment ``limit_breaches``.

    Recording is lock-guarded, so concurrent threads folding results into
    one session keep the counters consistent: after any quiescent point,
    ``queries == sum(engine_use.values())`` and
    ``errors >= limit_breaches`` hold exactly.
    """

    queries: int = 0
    errors: int = 0
    limit_breaches: int = 0
    total_seconds: float = 0.0
    total_work: int = 0
    engine_use: dict[str, int] = field(default_factory=dict)
    #: Fault-tolerance aggregates, fed by batch
    #: :class:`~repro.parallel.FailureReport` objects (see
    #: :meth:`record_faults`): chunks lost to dead workers / corrupt result
    #: wires, chunks recovered by resubmission, and chunks degraded to the
    #: in-parent serial path.
    worker_failures: int = 0
    retries: int = 0
    degraded_chunks: int = 0
    #: Mutation aggregates for documents the session watches (see
    #: :meth:`XPathSession.watch`): edits applied, incremental index
    #: repairs, and copy-on-write tree copies forced by live snapshots.
    document_edits: int = 0
    index_repairs: int = 0
    cow_copies: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(
        self,
        engine_name: str,
        stats: Optional[EvaluationStats],
        elapsed_seconds: float,
        *,
        error: bool = False,
        limit_breach: bool = False,
    ) -> None:
        """Fold one finished (or aborted) evaluation into the aggregates."""
        with self._lock:
            self.queries += 1
            self.total_seconds += elapsed_seconds
            if stats is not None:
                self.total_work += stats.total_work()
            self.engine_use[engine_name] = self.engine_use.get(engine_name, 0) + 1
            if error:
                self.errors += 1
            if limit_breach:
                self.limit_breaches += 1

    def record_failure(
        self, engine_name: str, elapsed_seconds: float, error: ReproError
    ) -> None:
        """Fold a failed evaluation in, classifying limit breaches and
        salvaging the partial stats a :class:`ResourceLimitExceeded` carries."""
        self.record(
            engine_name,
            getattr(error, "stats", None),
            elapsed_seconds,
            error=True,
            limit_breach=isinstance(error, ResourceLimitExceeded),
        )

    def record_mutation(self, event: str) -> None:
        """Fold one document mutation event (``"edit"`` / ``"repair"`` /
        ``"cow"``) into the aggregates."""
        with self._lock:
            if event == "edit":
                self.document_edits += 1
            elif event == "repair":
                self.index_repairs += 1
            elif event == "cow":
                self.cow_copies += 1

    def record_faults(self, report) -> None:
        """Fold a batch :class:`~repro.parallel.FailureReport` into the
        fault aggregates (the per-document outcomes are recorded separately,
        through :meth:`record` / :meth:`record_failure`, as always)."""
        with self._lock:
            self.worker_failures += report.worker_failures
            self.retries += report.retries
            self.degraded_chunks += report.degraded_chunks

    def as_dict(self) -> dict:
        with self._lock:  # a consistent snapshot, even mid-traffic
            return {
                "queries": self.queries,
                "errors": self.errors,
                "limit_breaches": self.limit_breaches,
                "total_seconds": self.total_seconds,
                "total_work": self.total_work,
                "engine_use": dict(self.engine_use),
                "worker_failures": self.worker_failures,
                "retries": self.retries,
                "degraded_chunks": self.degraded_chunks,
                "document_edits": self.document_edits,
                "index_repairs": self.index_repairs,
                "cow_copies": self.cow_copies,
            }


# ----------------------------------------------------------------------
# QueryResult
# ----------------------------------------------------------------------
@dataclass
class QueryResult:
    """One evaluated query, with full provenance.

    Returned by :meth:`XPathSession.run` (and the module-level
    :func:`repro.api.run`).  The payload is :attr:`value`; everything else
    records *how* the answer was produced: the compiled plan (and through it
    the Figure-1 classification), the engine that ran, whether the plan was
    a cache hit, the engine's deterministic operation counters, the limits
    in force, and the wall-clock time.
    """

    #: The XPath value (number / string / boolean / node set).
    value: XPathValue
    #: The compiled plan that produced the value.
    plan: CompiledQuery
    #: Name of the engine that evaluated the plan.
    engine_name: str
    #: ``True``/``False`` for string queries served through the session's
    #: plan cache; ``None`` when the caller supplied a prebuilt plan or AST
    #: (nothing to look up).
    cache_hit: Optional[bool]
    #: Operation counters of this evaluation.
    stats: EvaluationStats
    #: Wall-clock seconds spent in the engine (excludes plan compilation).
    elapsed_seconds: float
    #: The limits that were in force (the session's, unless overridden).
    limits: EvalLimits = field(default_factory=EvalLimits)
    #: Generation of the evaluated document at evaluation time; ``None``
    #: only for results predating the mutation epoch model.  Node-set
    #: payloads carry the same stamp and raise
    #: :class:`~repro.errors.StaleResultError` when ordered after an edit.
    generation: Optional[int] = None

    # -- payload accessors ---------------------------------------------
    @property
    def is_node_set(self) -> bool:
        return isinstance(self.value, NodeSet)

    @property
    def nodes(self) -> list[Node]:
        """The result nodes in document order (node-set results only)."""
        if not isinstance(self.value, NodeSet):
            raise XPathEvaluationError(
                f"query does not produce a node set (got {type(self.value).__name__})"
            )
        return list(self.value.in_document_order())

    # -- provenance accessors ------------------------------------------
    @property
    def classification(self) -> Classification:
        return self.plan.classification

    @property
    def fragment_name(self) -> str:
        return self.plan.fragment_name

    def explain(self, *, include_timing: bool = True) -> str:
        """Render the plan / fragment / engine decision and the counters.

        The output is deterministic except for the final ``time:`` line,
        which ``include_timing=False`` omits (the golden tests do).
        """
        summary = (
            f"node-set, {len(self.value)} node(s)"
            if isinstance(self.value, NodeSet)
            else f"{type(self.value).__name__} = {self.value!r}"
        )
        return render_explanation(
            self.plan,
            cache_hit=self.cache_hit,
            limits=self.limits,
            result_summary=summary,
            stats=self.stats,
            elapsed_seconds=self.elapsed_seconds if include_timing else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        payload = (
            f"{len(self.value)} nodes" if isinstance(self.value, NodeSet) else repr(self.value)
        )
        return (
            f"<QueryResult {self.plan.source or self.plan.to_xpath()!r}: "
            f"{payload} via {self.engine_name}>"
        )


def render_explanation(
    plan: CompiledQuery,
    *,
    cache_hit: Optional[bool] = None,
    limits: Optional[EvalLimits] = None,
    result_summary: Optional[str] = None,
    stats: Optional[EvaluationStats] = None,
    elapsed_seconds: Optional[float] = None,
) -> str:
    """The text report behind ``QueryResult.explain()`` and ``cli explain``.

    Also usable for a compile-only explanation (no result / stats / time),
    which is what :meth:`XPathSession.explain` produces without a document.
    """
    lines = []
    if plan.source is not None:
        lines.append(f"query:      {plan.source}")
    lines.append(f"normalized: {plan.to_xpath()}")
    classification = plan.classification
    lines.append(f"fragment:   {classification.fragment.value}  [{classification.complexity}]")
    if classification.streamable:
        lines.append("streaming:  yes (single-pass, O(depth) state)")
    else:
        reason = (
            classification.streaming_violations[0]
            if classification.streaming_violations
            else "not a streamable location path"
        )
        lines.append(f"streaming:  no ({reason})")
    if classification.compilable:
        program = plan.array_program()
        lines.append(f"compiled:   yes ({len(program)}-instruction array program)")
        if plan.engine_name == CompiledEngine.name:
            for program_line in program.render().splitlines():
                lines.append(f"              {program_line}")
    else:
        reason = (
            classification.compile_violations[0]
            if classification.compile_violations
            else "outside the compiled fragment"
        )
        lines.append(f"compiled:   no ({reason})")
    notes = []
    if plan.requested_engine == "auto":
        notes.append("resolved from 'auto'")
    if plan.engine_name == classification.recommended_engine:
        notes.append("recommended for this fragment")
    else:
        notes.append(f"fragment recommends {classification.recommended_engine}")
    lines.append(f"engine:     {plan.engine_name}  ({', '.join(notes)})")
    if cache_hit is not None:
        lines.append(f"cache:      {'hit' if cache_hit else 'miss (compiled)'}")
    if limits is not None:
        lines.append(f"limits:     {limits.describe()}")
    if result_summary is not None:
        lines.append(f"result:     {result_summary}")
    if stats is not None:
        counters = ", ".join(
            f"{name}={count}" for name, count in stats.as_dict().items() if count
        )
        lines.append(f"stats:      {counters or 'none'}")
    if elapsed_seconds is not None:
        lines.append(f"time:       {elapsed_seconds * 1000:.3f} ms")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# StreamRun
# ----------------------------------------------------------------------
class StreamRun(list):
    """``list[StreamMatch]`` plus the provenance of one source evaluation.

    Returned by :meth:`XPathSession.stream` (and :func:`repro.api.stream`
    when materialised).  :attr:`streamed` says which backend produced the
    matches: ``True`` for the single-pass automaton (no tree was ever
    built), ``False`` for the tree-engine fallback a non-streamable plan
    takes — either way the matches are the same records, so callers need
    not care unless they want to.
    """

    def __init__(
        self,
        matches=(),
        *,
        plan: CompiledQuery,
        streamed: bool,
        stats: Optional[EvaluationStats] = None,
        elapsed_seconds: float = 0.0,
        cache_hit: Optional[bool] = None,
    ):
        super().__init__(matches)
        self.plan = plan
        self.streamed = streamed
        self.stats = stats
        self.elapsed_seconds = elapsed_seconds
        self.cache_hit = cache_hit

    @property
    def orders(self) -> list[int]:
        """Document orders of the matches (the differential-test currency)."""
        return [match.order for match in self]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backend = "streamed" if self.streamed else "tree fallback"
        return f"<StreamRun {len(self)} match(es) via {backend}>"


# ----------------------------------------------------------------------
# XPathSession
# ----------------------------------------------------------------------
class XPathSession:
    """Isolated evaluation state for one client of the library.

    Parameters
    ----------
    engine:
        Default engine name for string queries (``"auto"`` resolves per
        query from the classification's recommended engine).  Defaults to
        :data:`~repro.plan.DEFAULT_ENGINE`.
    cache:
        A :class:`~repro.plan.PlanCache` to adopt; by default the session
        creates its own of ``cache_size`` entries.
    limits:
        Session-wide :class:`~repro.engines.base.EvalLimits`, applied to
        every call unless the call overrides them.
    variables:
        Default variable bindings, merged *under* each call's own
        ``variables`` mapping.
    """

    def __init__(
        self,
        *,
        engine: Optional[str] = None,
        cache: Optional[PlanCache] = None,
        cache_size: int = 256,
        limits: Optional[EvalLimits] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
    ):
        self.default_engine = engine if engine is not None else DEFAULT_ENGINE
        self.cache = cache if cache is not None else PlanCache(cache_size)
        self.limits = limits if limits is not None else EvalLimits()
        self.variables: dict[str, XPathValue] = dict(variables or {})
        self.stats = SessionStats()
        self._engines = threading.local()

    # ------------------------------------------------------------------
    # Engine pool
    # ------------------------------------------------------------------
    def engine(self, name: Optional[str] = None) -> XPathEngine:
        """The session's pooled engine instance for ``name``.

        Pooling is per (engine name, calling thread): within one thread,
        repeated calls return the identical instance — the pre-session API
        re-instantiated per query — while two threads always get distinct
        instances, because engines carry mutable per-evaluation state
        (``last_stats``) that must not be shared.  The per-thread pools die
        with their threads.
        """
        if name is None:
            name = self.default_engine
        pool = getattr(self._engines, "pool", None)
        if pool is None:
            pool = self._engines.pool = {}
        engine = pool.get(name)
        if engine is None:
            engine_class = ENGINE_CLASSES.get(name)
            if engine_class is None:
                raise XPathEvaluationError(
                    f"unknown engine {name!r}; available: "
                    f"{', '.join(sorted(ENGINE_CLASSES))}"
                )
            engine = engine_class()
            pool[name] = engine
        return engine

    # ------------------------------------------------------------------
    # Mutation watching
    # ------------------------------------------------------------------
    def watch(self, document: Document) -> Document:
        """Fold ``document``'s mutation events into :attr:`stats`.

        Registers a listener on the document so every edit, index repair
        and copy-on-write is counted in the session's ``document_edits`` /
        ``index_repairs`` / ``cow_copies`` aggregates.  Idempotent; returns
        the document for chaining.
        """
        document.add_mutation_listener(self._on_mutation)
        return document

    def unwatch(self, document: Document) -> None:
        """Stop folding ``document``'s mutation events into :attr:`stats`."""
        document.remove_mutation_listener(self._on_mutation)

    def _on_mutation(self, document: Document, event: str) -> None:
        self.stats.record_mutation(event)

    # ------------------------------------------------------------------
    # Parsing front door
    # ------------------------------------------------------------------
    def parse(self, text: str, *, strip_whitespace: bool = False) -> Document:
        """Parse XML text (documents are session-independent values)."""
        return parse_xml(text, strip_whitespace=strip_whitespace)

    def parse_collection(
        self,
        sources: Iterable[str],
        *,
        strip_whitespace: bool = False,
        names: Optional[Sequence[str]] = None,
    ):
        """Parse XML texts into a :class:`~repro.collection.Collection`
        bound to this session (shared plans, limits and stats)."""
        from .collection import Collection  # local import to avoid a cycle

        return Collection.from_sources(
            sources, strip_whitespace=strip_whitespace, names=names, session=self
        )

    def collection(self, documents: Iterable[Document], names=None):
        """Wrap parsed documents in a session-bound collection."""
        from .collection import Collection  # local import to avoid a cycle

        return Collection(documents, names=names, session=self)

    def stream_collection(
        self,
        sources: Iterable[str],
        names: Optional[Sequence[str]] = None,
        *,
        strip_whitespace: bool = False,
    ):
        """Wrap XML *texts* in a session-bound
        :class:`~repro.collection.SourceCollection` — batches hold at most
        one tree per worker (zero when the plan streams)."""
        from .collection import SourceCollection  # local import to avoid a cycle

        return SourceCollection(
            sources, names=names, strip_whitespace=strip_whitespace, session=self
        )

    def open_store(self, path):
        """Open a persistent document store file as a session-bound
        :class:`~repro.store.collection.StoredCollection` — the file is
        mapped, not parsed, and each document materialises from its
        columns, at most once, when a query (or the caller) first reaches
        it."""
        from .store import DocumentStore, StoredCollection  # avoid a cycle

        return StoredCollection(DocumentStore.open(path), session=self)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(
        self,
        query: QueryLike,
        *,
        engine: Optional[str] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
    ) -> CompiledQuery:
        """Compile ``query`` through this session's plan cache."""
        plan, _ = self._plan(query, engine, self._merged(variables))
        return plan

    def _plan(
        self,
        query: QueryLike,
        engine: Optional[str],
        variables: Mapping[str, XPathValue],
    ) -> tuple[CompiledQuery, Optional[bool]]:
        """Resolve a query to a plan, reporting cache hit/miss for strings."""
        requested = engine
        if requested is None and not isinstance(query, CompiledQuery):
            requested = self.default_engine
        if isinstance(query, str):
            # fetch() reports the hit flag of *this* lookup; diffing the
            # counter before/after would misreport under concurrency.
            return self.cache.fetch(
                query, engine=requested, variables=variables or None
            )
        # Prebuilt plans pass through (retargeted only on explicit mismatch);
        # raw ASTs compile uncached — neither touches the cache.
        plan = plan_for(query, engine=requested, variables=variables or None, cache=None)
        return plan, None

    def _merged(
        self, variables: Optional[Mapping[str, XPathValue]]
    ) -> dict[str, XPathValue]:
        if not variables:
            return dict(self.variables)
        if not self.variables:
            return dict(variables)
        merged = dict(self.variables)
        merged.update(variables)
        return merged

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def run(
        self,
        query: QueryLike,
        document: Document,
        context: Optional[Union[Context, Node]] = None,
        *,
        engine: Optional[str] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        limits: Optional[EvalLimits] = None,
    ) -> QueryResult:
        """Evaluate ``query`` and return a rich :class:`QueryResult`.

        The primary entry point: plans go through the session cache, the
        engine comes from the session pool, the session's limits apply
        (unless ``limits`` overrides them) and the outcome — success, error
        or limit breach — is folded into :attr:`stats`.
        """
        merged = self._merged(variables)
        plan, cache_hit = self._plan(query, engine, merged)
        effective_limits = limits if limits is not None else self.limits
        runner = self.engine(plan.engine_name)
        started = time.perf_counter()
        try:
            # Stored-document handles materialise here, inside the error
            # accounting: a corrupt store block is recorded like any other
            # failed evaluation.
            document = as_document(document)
            value = runner.evaluate(
                plan, document, context, merged or None, limits=effective_limits
            )
        except ReproError as error:
            self.stats.record_failure(
                plan.engine_name, time.perf_counter() - started, error
            )
            raise
        elapsed = time.perf_counter() - started
        stats = runner.last_stats
        assert stats is not None
        self.stats.record(plan.engine_name, stats, elapsed)
        return QueryResult(
            value=value,
            plan=plan,
            engine_name=plan.engine_name,
            cache_hit=cache_hit,
            stats=stats,
            elapsed_seconds=elapsed,
            limits=effective_limits,
            generation=document.generation,
        )

    def evaluate(
        self,
        query: QueryLike,
        document: Document,
        context: Optional[Union[Context, Node]] = None,
        *,
        engine: Optional[str] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        limits: Optional[EvalLimits] = None,
    ) -> XPathValue:
        """Evaluate and return the bare XPath value (back-compat shape)."""
        return self.run(
            query, document, context, engine=engine, variables=variables, limits=limits
        ).value

    def select(
        self,
        query: QueryLike,
        document: Document,
        context: Optional[Union[Context, Node]] = None,
        *,
        engine: Optional[str] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        limits: Optional[EvalLimits] = None,
    ) -> list[Node]:
        """Evaluate a node-set query and return nodes in document order."""
        return self.run(
            query, document, context, engine=engine, variables=variables, limits=limits
        ).nodes

    def stream(
        self,
        query: QueryLike,
        source: str,
        *,
        engine: Optional[str] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        limits: Optional[EvalLimits] = None,
        strip_whitespace: bool = False,
        require: bool = False,
    ) -> StreamRun:
        """Evaluate a node-set query over XML *text*, single-pass when possible.

        When the plan is streamable, the source is scanned once by the
        streaming automaton — no :class:`Document` is built, live state is
        O(depth) — and the matches arrive as :class:`StreamMatch` records in
        document order.  Otherwise the source is parsed and the plan's tree
        engine evaluates it (the automatic fallback); the result is converted
        to the same match records, so both backends return one shape.

        ``require=True`` raises instead of falling back (used by tests and
        benchmarks that must not silently build a tree).  The session's
        limits, plan cache and statistics apply to both backends; streamed
        evaluations appear in :attr:`stats` under the pseudo-engine name
        ``"streaming"``.
        """
        merged = self._merged(variables)
        plan, cache_hit = self._plan(query, engine, merged)
        # Fail fast on statically non-node-set queries: the fallback would
        # otherwise parse and evaluate the whole source before .nodes
        # rejects the scalar result.  UNKNOWN (variable-typed) passes
        # through — it may be a node set at run time.
        if plan.static_type not in (ValueType.NODE_SET, ValueType.UNKNOWN):
            raise XPathEvaluationError(
                f"stream() needs a node-set query "
                f"(got static type {plan.static_type.value})"
            )
        effective_limits = limits if limits is not None else self.limits
        if plan.streamable:
            stats = EvaluationStats()
            started = time.perf_counter()
            try:
                matches = list(
                    stream_matches(
                        plan,
                        source,
                        limits=effective_limits,
                        stats=stats,
                        strip_whitespace=strip_whitespace,
                    )
                )
            except ReproError as error:
                self.stats.record_failure(
                    "streaming", time.perf_counter() - started, error
                )
                raise
            elapsed = time.perf_counter() - started
            self.stats.record("streaming", stats, elapsed)
            return StreamRun(
                matches,
                plan=plan,
                streamed=True,
                stats=stats,
                elapsed_seconds=elapsed,
                cache_hit=cache_hit,
            )
        if require:
            reasons = "; ".join(plan.streaming_violations) or "not a location path"
            raise XPathEvaluationError(f"query is not streamable: {reasons}")
        document = parse_xml(source, strip_whitespace=strip_whitespace)
        result = self.run(
            plan, document, engine=engine, variables=variables, limits=effective_limits
        )
        return StreamRun(
            (StreamMatch.from_node(node) for node in result.nodes),
            plan=result.plan,
            streamed=False,
            stats=result.stats,
            elapsed_seconds=result.elapsed_seconds,
            cache_hit=cache_hit,
        )

    def explain(
        self,
        query: QueryLike,
        document: Optional[Document] = None,
        context: Optional[Union[Context, Node]] = None,
        *,
        engine: Optional[str] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        limits: Optional[EvalLimits] = None,
    ) -> str:
        """Explain a query: with a document, evaluate and report everything;
        without one, report the compile-time decisions only."""
        if document is None:
            plan, cache_hit = self._plan(query, engine, self._merged(variables))
            return render_explanation(
                plan,
                cache_hit=cache_hit,
                limits=limits if limits is not None else self.limits,
            )
        return self.run(
            query, document, context, engine=engine, variables=variables, limits=limits
        ).explain()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<XPathSession engine={self.default_engine!r} "
            f"plans={len(self.cache)} queries={self.stats.queries}>"
        )
