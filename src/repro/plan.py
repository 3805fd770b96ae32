"""Compiled query plans and the plan cache.

Every query that reaches an engine passes through the same front-end
pipeline: lex/parse → normalisation to the paper's unabbreviated form
(Section 5) → static typing → fragment classification (Figure 1) → engine
selection.  Before this module existed each ``api.select`` call re-ran that
pipeline from scratch; :class:`CompiledQuery` captures its outcome once as an
immutable, reusable *plan*:

* the normalised AST (shared by all engines);
* the Figure-1 :class:`~repro.fragments.classify.Classification` and the
  engine resolved from it (``engine="auto"`` is decided at compile time);
* the relevant-context analysis Relev(N) of Section 8.2, precomputed so the
  CVT engines do not redo it per evaluation;
* the plan's one array program — its Section-10 set algebra as
  ``ArrayCompiler`` emits it — run by the ``corexpath``, ``xpatterns`` and
  ``compiled`` engines alike; a plan that resolves to one of them starts
  with the program its compilability check built, and any other plan
  compiles it on first use;
* the free-variable and function-library signatures that key the cache.

:class:`PlanCache` is a bounded LRU over ``(query, engine, library,
variable-signature)`` keys.  :func:`plan_for` is the single entry point the
engines, :mod:`repro.api` and :mod:`repro.cli` share: strings are compiled
through the default cache, prebuilt plans pass through untouched, and raw
ASTs (identity-hashed, so useless as cache keys) are compiled uncached.

Typical usage::

    from repro import api

    plan = api.compile_query("//a/b[position() = last()]", engine="auto")
    plan.engine_name            # resolved once, here 'optmincontext'
    plan.select(document)       # reuse across many documents
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Optional, Union

from .errors import XPathEvaluationError
from .fragments.classify import Classification, classify_normalized
from .xmlmodel.document import Document, as_document
from .xmlmodel.nodes import Node
from .xpath.ast import Expression, VariableReference, walk
from .xpath.context import Context
from .xpath.normalize import compile_query as normalize_query
from .xpath.typing import FUNCTION_RETURN_TYPES, static_type
from .xpath.values import ValueType, XPathValue

#: Signature of the built-in core function library (Table II).  A future
#: extension-function registry would contribute its own signature; plans
#: compiled against different libraries never share cache entries.
CORE_LIBRARY_SIGNATURE: str = "core/" + str(len(FUNCTION_RETURN_TYPES))

#: Engine used when none is requested — the single source of truth shared
#: with :data:`repro.api.DEFAULT_ENGINE`.  ``engine=None`` throughout this
#: module means "no preference": strings compile for this default, while an
#: existing plan is used exactly as compiled.
DEFAULT_ENGINE: str = "topdown"

#: The engines that run a plan's array program (:meth:`CompiledQuery.array_program`).
_ARRAY_ENGINES = frozenset({"corexpath", "xpatterns", "compiled"})

QueryLike = Union[str, Expression, "CompiledQuery"]


def referenced_variables(expression: Expression) -> frozenset[str]:
    """Names of all variables the (normalised) expression references."""
    return frozenset(
        node.name for node in walk(expression) if isinstance(node, VariableReference)
    )


def _variables_signature(
    variables: Optional[Mapping[str, XPathValue]],
) -> frozenset[str]:
    """The part of a variable binding that can influence a plan: its names."""
    if not variables:
        return frozenset()
    return frozenset(variables)


@dataclass(frozen=True)
class CompiledQuery:
    """The immutable result of running the front-end pipeline once.

    Instances are produced by :func:`compile_plan` (or ``api.compile_query``)
    and may be evaluated any number of times, over any number of documents,
    by any engine.  Equality/hashing is identity-based (plans wrap
    identity-hashed ASTs), which is exactly what the per-plan memo tables of
    the engines need.
    """

    #: Original query text; ``None`` when compiled from a prebuilt AST.
    source: Optional[str]
    #: The normalised (unabbreviated-form) AST all engines consume.
    expression: Expression
    #: Figure-1 fragment classification of the query.
    classification: Classification
    #: Engine requested at compile time (possibly ``"auto"``).
    requested_engine: str
    #: Engine the plan resolves to (``"auto"`` decided by the fragment).
    engine_name: str
    #: Free variables the query references (must be bound at evaluation).
    variable_names: frozenset[str]
    #: Variable names the plan was compiled against (cache-key component).
    variables_signature: frozenset[str]
    #: Identifies the function library the query was validated against.
    library_signature: str = CORE_LIBRARY_SIGNATURE
    #: Relev(N) for every node of the parse tree (Section 8.2), precomputed.
    relevance: Mapping[Expression, frozenset[str]] = field(default_factory=dict)
    #: Memoised streaming automaton (one-slot dict; see stream_automaton()).
    _stream_automata: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )
    #: The memoised array program (one-slot dict; see array_program()).
    _array_program: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return id(self)

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def static_type(self) -> ValueType:
        """The static XPath type of the whole query (Definition 5.1)."""
        return static_type(self.expression)

    @property
    def fragment_name(self) -> str:
        """Human-readable Figure-1 fragment name."""
        return self.classification.fragment.value

    @property
    def streamable(self) -> bool:
        """True when the single-pass streaming backend can evaluate the plan
        (forward downward axes, start-event-decidable predicates)."""
        return self.classification.streamable

    @property
    def streaming_violations(self) -> tuple[str, ...]:
        """Why the plan is not streamable (empty when it is)."""
        return self.classification.streaming_violations

    def to_xpath(self) -> str:
        """The query rendered back to unabbreviated XPath syntax."""
        return self.expression.to_xpath()

    def cache_key(self) -> tuple:
        """The key this plan occupies in a :class:`PlanCache` (when cached)."""
        return plan_cache_key(
            self.source if self.source is not None else self.expression,
            self.requested_engine,
            self.variables_signature,
            self.library_signature,
        )

    # ------------------------------------------------------------------
    # Memoised back-end forms
    # ------------------------------------------------------------------
    def stream_automaton(self):
        """The plan's streaming automaton, memoised like the array program.

        A batch over N sources reuses one automaton per plan instead of
        re-walking the AST N times.  The same benign get/set race as
        :meth:`array_program` applies: automata are immutable and
        equivalent, so the worst case is one redundant compilation.
        Raises :class:`~repro.errors.XPathEvaluationError` when the plan
        is not streamable.
        """
        automaton = self._stream_automata.get("automaton")
        if automaton is None:
            from .streaming import StreamAutomaton  # deferred: cycle-free

            automaton = StreamAutomaton(self.expression)
            self._stream_automata["automaton"] = automaton
        return automaton

    def array_program(self):
        """The plan's one :class:`~repro.engines.compiled.ArrayProgram`,
        compiled once by ``ArrayCompiler`` and memoised, or ``None`` outside
        the compiled fragment (``compile_violations`` says why).

        The ``corexpath``, ``xpatterns`` and ``compiled`` engines and the
        store's column path all run this program.  Safe under concurrent
        evaluation: the get/set pair on the memo dict is atomic, so two
        threads racing a cold plan at worst compile the (side-effect-free,
        equivalent) program twice, and one of them wins the slot.
        """
        program = self._array_program.get("program")
        if program is None:
            if not self.classification.compilable:
                return None
            from .engines.compiled import ArrayCompiler  # deferred: cycle-free

            program = ArrayCompiler().compile_query(self.expression)
            self._array_program["program"] = program
        return program

    # ------------------------------------------------------------------
    # Convenience evaluation (delegates to the resolved engine)
    # ------------------------------------------------------------------
    def evaluate(
        self,
        document: Document,
        context: Optional[Union[Context, Node]] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
    ) -> XPathValue:
        """Evaluate this plan over ``document`` with its resolved engine.

        ``document`` may also be a stored-document handle (anything with a
        ``materialize()`` method) — it is coerced here, so plans evaluate
        directly over persistent-store entries."""
        return self._engine().evaluate(
            self, as_document(document), context, variables
        )

    def select(
        self,
        document: Document,
        context: Optional[Union[Context, Node]] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
    ) -> list[Node]:
        """Evaluate a node-set plan and return nodes in document order."""
        return self._engine().select(self, as_document(document), context, variables)

    def _engine(self):
        from .api import default_session  # local import to avoid a cycle

        # Pooled per-session instances: repeated plan evaluations do not
        # re-instantiate the engine.
        return default_session().engine(self.engine_name)

    def describe(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"plan for {self.source or self.to_xpath()!r}: "
            f"fragment={self.fragment_name}, engine={self.engine_name}"
        )


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def compile_plan(
    query: QueryLike,
    *,
    engine: Optional[str] = None,
    variables: Optional[Mapping[str, XPathValue]] = None,
    library_signature: str = CORE_LIBRARY_SIGNATURE,
) -> CompiledQuery:
    """Run the full front-end pipeline once and return the plan.

    ``query`` may be an XPath string, a prebuilt AST (normalised or not), or
    an existing :class:`CompiledQuery` — the latter is returned unchanged
    unless a *different* engine is explicitly requested, in which case it is
    cheaply re-targeted (no re-parse, no re-classification).  ``engine=None``
    means no preference: :data:`DEFAULT_ENGINE` for strings/ASTs, as-is for
    plans.
    """
    if isinstance(query, CompiledQuery):
        return _resolve_existing(query, engine)
    if engine is None:
        engine = DEFAULT_ENGINE

    # Deferred, to avoid an import cycle.
    from .engines.compiled import analyze_compilability
    from .engines.relevance import compute_relevance

    source = query if isinstance(query, str) else None
    expression = normalize_query(query)
    # Relev(N) and the compilability dry run feed both the classification
    # and the plan, so each runs once per compile.
    relevance = compute_relevance(expression)
    compilability = analyze_compilability(expression)
    classification = classify_normalized(expression, relevance, compilability)
    resolved = classification.recommended_engine if engine == "auto" else engine
    plan = CompiledQuery(
        source=source,
        expression=expression,
        classification=classification,
        requested_engine=engine,
        engine_name=resolved,
        variable_names=referenced_variables(expression),
        variables_signature=_variables_signature(variables),
        library_signature=library_signature,
        relevance=relevance,
    )
    if resolved in _ARRAY_ENGINES and compilability.compilable:
        # The dry run built the program; plans for other engines drop it
        # rather than hold a program they may never run.
        plan._array_program["program"] = compilability.program
    return plan


def _resolve_existing(plan: CompiledQuery, engine: Optional[str]) -> CompiledQuery:
    """Pass an existing plan through, retargeting only on an explicit mismatch.

    The single branch both :func:`compile_plan` and :func:`plan_for` use, so
    the "used as-is" contract cannot drift between the two front doors.
    """
    if engine is None or engine in (plan.requested_engine, plan.engine_name):
        return plan
    return _retarget(plan, engine)


def _retarget(plan: CompiledQuery, engine: str) -> CompiledQuery:
    """A copy of ``plan`` resolved for a different engine (shares the AST)."""
    resolved = plan.classification.recommended_engine if engine == "auto" else engine
    retargeted = CompiledQuery(
        source=plan.source,
        expression=plan.expression,
        classification=plan.classification,
        requested_engine=engine,
        engine_name=resolved,
        variable_names=plan.variable_names,
        variables_signature=plan.variables_signature,
        library_signature=plan.library_signature,
        relevance=plan.relevance,
    )
    # The array program and the streaming automaton depend only on the
    # AST, so they carry over.
    retargeted._stream_automata.update(plan._stream_automata)
    retargeted._array_program.update(plan._array_program)
    return retargeted


# ----------------------------------------------------------------------
# The plan cache
# ----------------------------------------------------------------------
def plan_cache_key(
    query: Hashable,
    engine: str,
    variables_signature: frozenset[str],
    library_signature: str = CORE_LIBRARY_SIGNATURE,
) -> tuple:
    """The cache key of one compiled plan.

    Query text and engine name are the primary components; the variable
    signature (the *names* bound at compile time — plan shape never depends
    on variable values) and the function-library signature keep plans
    compiled under different static environments apart.
    """
    return (query, engine, variables_signature, library_signature)


@dataclass
class PlanCacheStats:
    """Counters of one :class:`PlanCache` (monotone until ``clear()``)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}


class PlanCache:
    """A bounded, thread-safe LRU cache of :class:`CompiledQuery` plans.

    The cache is transparent: a hit returns the identical plan object, and
    plans are immutable, so cached and uncached evaluation are
    observationally equivalent (asserted by the differential fuzz test).

    All operations — lookup, LRU reordering, insertion, eviction and the
    hit/miss/eviction counters — happen under one internal lock, so a cache
    (including the process-wide :data:`DEFAULT_PLAN_CACHE`) may be hammered
    from many threads at once and the counters still satisfy
    ``hits + misses == lookups``.  Compilation itself runs *outside* the
    lock: two threads missing on the same key may both compile, but exactly
    one plan wins the cache slot and both compilations are counted as the
    misses they were.

    Plans are generation-independent: a :class:`CompiledQuery` mentions no
    document, so mutating a document (``Document.insert_child`` and
    friends) never invalidates cached plans or pooled engines — staleness
    is tracked on the *result* side (``NodeSet``/``QueryResult`` carry the
    generation they were computed at).
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("plan cache maxsize must be at least 1")
        self.maxsize = maxsize
        self.stats = PlanCacheStats()
        self._plans: "OrderedDict[tuple, CompiledQuery]" = OrderedDict()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def get_or_compile(
        self,
        query: str,
        *,
        engine: Optional[str] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        library_signature: str = CORE_LIBRARY_SIGNATURE,
    ) -> CompiledQuery:
        """Return the cached plan for the key, compiling on a miss."""
        plan, _ = self.fetch(
            query, engine=engine, variables=variables, library_signature=library_signature
        )
        return plan

    def fetch(
        self,
        query: str,
        *,
        engine: Optional[str] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        library_signature: str = CORE_LIBRARY_SIGNATURE,
    ) -> tuple[CompiledQuery, bool]:
        """:meth:`get_or_compile` plus an exact was-it-a-hit flag.

        The flag belongs to *this* lookup, which matters under concurrency:
        inferring it from before/after counter reads (as the session layer
        once did) misreports when another thread's lookup lands in between.
        """
        if engine is None:
            engine = DEFAULT_ENGINE
        key = plan_cache_key(
            query, engine, _variables_signature(variables), library_signature
        )
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.stats.hits += 1
                self._plans.move_to_end(key)
                return plan, True
            self.stats.misses += 1
        plan = compile_plan(
            query,
            engine=engine,
            variables=variables,
            library_signature=library_signature,
        )
        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                # A concurrent compile won the slot; keep its plan so hits
                # keep returning one identical object per key.
                self._plans.move_to_end(key)
                return existing, False
            self._plans[key] = plan
            if len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.stats.evictions += 1
        return plan, False

    def peek(self, key: tuple) -> Optional[CompiledQuery]:
        """The cached plan for ``key`` without touching LRU order or stats."""
        with self._lock:
            return self._plans.get(key)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._plans

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def keys(self) -> Iterable[tuple]:
        with self._lock:
            return list(self._plans.keys())

    def clear(self) -> None:
        """Drop all cached plans and reset the counters."""
        with self._lock:
            self._plans.clear()
            self.stats = PlanCacheStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PlanCache {len(self)}/{self.maxsize} plans, "
            f"hits={self.stats.hits} misses={self.stats.misses}>"
        )


#: The process-wide cache ``api.select`` / ``api.evaluate`` / the CLI and the
#: engines' string front door consult.  ``api.plan_cache()`` exposes it.
DEFAULT_PLAN_CACHE = PlanCache()


def plan_for(
    query: QueryLike,
    *,
    engine: Optional[str] = None,
    variables: Optional[Mapping[str, XPathValue]] = None,
    cache: Optional[PlanCache] = DEFAULT_PLAN_CACHE,
) -> CompiledQuery:
    """Resolve any query-like object to a plan — the engines' single front end.

    Strings go through ``cache`` (pass ``cache=None`` to force a fresh
    compilation); prebuilt plans pass through as-is, re-targeted only when a
    different engine is explicitly requested; raw ASTs are compiled without
    caching, since their identity-based hashing would make cache keys
    useless across parses.
    """
    if isinstance(query, CompiledQuery):
        return _resolve_existing(query, engine)
    if isinstance(query, str) and cache is not None:
        return cache.get_or_compile(query, engine=engine, variables=variables)
    if not isinstance(query, (str, Expression)):
        raise XPathEvaluationError(
            f"cannot compile a plan from {type(query).__name__!r}"
        )
    return compile_plan(query, engine=engine, variables=variables)
