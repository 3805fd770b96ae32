"""Convenience API: sessions, rich query results, plans and batch queries.

The primary surface is the **session**: an :class:`~repro.session.XPathSession`
owns a plan cache, a pool of engine instances, default variables, resource
limits and aggregated statistics, and every call returns a
:class:`~repro.session.QueryResult` with full provenance::

    from repro import api

    session = api.session(engine="auto")
    doc = session.parse("<a><b>1</b><b>2</b></a>")

    result = session.run("//b[. = '2']", doc)
    result.nodes                       # → [<element 'b' …>]
    result.engine_name                 # 'compiled' — picked by classification
    result.cache_hit                   # False, then True on repeats
    result.stats.total_work()          # deterministic operation counters
    print(result.explain())            # plan / fragment / engine report

    from repro import EvalLimits
    session.run("//b", doc, limits=EvalLimits(max_operations=10_000))

The classic one-call helpers remain and now delegate to a process-wide
**default session** (:func:`default_session`) — same return types as ever,
but engines are pooled instead of re-instantiated per call and the plan
cache is the default session's cache::

    doc = api.parse("<a><b>1</b><b>2</b></a>")
    nodes = api.select("//b[. = '2']", doc)                 # list[Node]
    value = api.evaluate("count(//b)", doc)                 # → 2.0
    info = api.classify_query("//a/b[child::c]")            # Figure-1 fragment

    plan = api.compile_query("//b[. = '2']", engine="auto") # parsed once
    plan.select(doc)                                        # reuse per document
    api.plan_cache().stats.hits                             # cache telemetry

Batch traffic goes through collections — one plan, many documents — now
session-aware (plans, limits and stats shared with the owning session) and
parallelisable across worker threads or processes::

    docs = api.parse_collection(["<a><b/></a>", "<a><b/><b/></a>"])
    [len(r.nodes) for r in docs.select("//b")]              # → [1, 2]
    runs = docs.select_many(["//b", "//a"])                 # compiled once
    runs.plan_reports                                       # hit vs compiled

    docs.select("//b", parallel=True, max_workers=4)        # ephemeral pool
    with api.parallel_executor(backend="process") as ex:    # reusable pool
        docs.select_many(["//b", "//a"], parallel=ex)

The default engine is :class:`~repro.engines.topdown.TopDownEngine`, the
paper's practical polynomial algorithm; ``engine="auto"`` resolves — once,
at plan-compile time — to the compiled array engine for compilable plans,
else to the engine with the best known complexity bound for the query's
fragment.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, Optional, Sequence, Union

from .collection import (
    BatchResult,
    BatchRun,
    Collection,
    MultiQueryRun,
    PlanReport,
    SourceCollection,
)
from .engines.base import EvalLimits, XPathEngine
from .parallel import FailureReport, ParallelExecutor, RetryPolicy
from .errors import XPathEvaluationError
from .fragments.classify import Classification, classify
from .plan import (
    DEFAULT_ENGINE,
    DEFAULT_PLAN_CACHE,
    CompiledQuery,
    PlanCache,
    compile_plan,
)
from .session import (
    ENGINE_CLASSES,
    QueryResult,
    SessionStats,
    StreamRun,
    XPathSession,
    render_explanation,
)
from .streaming import StreamMatch, analyze_streamability
from .xmlmodel.document import Document
from .xmlmodel.nodes import Node
from .xmlmodel.parser import parse_xml
from .xpath.context import Context
from .xpath.values import XPathValue

#: Name of the engine used when none is specified (shared with the plan
#: layer, which owns the constant to stay import-cycle free).
assert DEFAULT_ENGINE in ENGINE_CLASSES

#: The process-wide default session behind the module-level helpers.  It
#: adopts :data:`~repro.plan.DEFAULT_PLAN_CACHE`, so code that held a
#: reference to the old process-global cache observes the same entries.
_DEFAULT_SESSION = XPathSession(cache=DEFAULT_PLAN_CACHE)


def default_session() -> XPathSession:
    """The process-wide session that serves :func:`select` / :func:`evaluate`.

    Use it for telemetry (``default_session().stats``) or configuration
    (``default_session().limits``); create isolated sessions per client
    with :func:`session`.
    """
    return _DEFAULT_SESSION


def session(
    *,
    engine: Optional[str] = None,
    cache: Optional[PlanCache] = None,
    cache_size: int = 256,
    limits: Optional[EvalLimits] = None,
    variables: Optional[Mapping[str, XPathValue]] = None,
) -> XPathSession:
    """Create a fresh, isolated :class:`~repro.session.XPathSession`."""
    return XPathSession(
        engine=engine,
        cache=cache,
        cache_size=cache_size,
        limits=limits,
        variables=variables,
    )


def engine_names() -> list[str]:
    """Names of all available engines."""
    return sorted(ENGINE_CLASSES)


def get_engine(name: str = DEFAULT_ENGINE) -> XPathEngine:
    """Instantiate a fresh engine by name (see :data:`ENGINE_CLASSES`).

    This is the low-level constructor — callers who want engine reuse
    should go through a session (:meth:`XPathSession.engine` pools one
    instance per name).
    """
    try:
        return ENGINE_CLASSES[name]()
    except KeyError:
        raise XPathEvaluationError(
            f"unknown engine {name!r}; available: {', '.join(engine_names())}"
        ) from None


def engine_for_query(query: Union[str, object]) -> XPathEngine:
    """The engine ``engine="auto"`` picks for the query.

    That is the classification's recommendation: ``compiled`` for
    compilable plans and ``optmincontext`` for the rest.  Served from the
    default session's engine pool — repeated calls that resolve to the
    same engine return the same instance.
    """
    classification = classify(query)
    return _DEFAULT_SESSION.engine(classification.recommended_engine)


def parse(text: str, *, strip_whitespace: bool = False) -> Document:
    """Parse XML text into a document (thin wrapper over the xmlmodel parser)."""
    return parse_xml(text, strip_whitespace=strip_whitespace)


def parse_collection(
    sources: Iterable[str],
    *,
    strip_whitespace: bool = False,
    names: Optional[Sequence[str]] = None,
) -> Collection:
    """Parse several XML texts into a :class:`~repro.collection.Collection`.

    Every document's :class:`~repro.xmlmodel.index.DocumentIndex` is built
    once here and reused by all subsequent batch queries.  The collection is
    bound to the default session; use :meth:`XPathSession.parse_collection`
    to bind one to an isolated session.
    """
    return Collection.from_sources(
        sources, strip_whitespace=strip_whitespace, names=names
    )


def stream(
    query: Union[str, CompiledQuery],
    source: str,
    *,
    engine: Optional[str] = None,
    variables: Optional[Mapping[str, XPathValue]] = None,
    limits: Optional[EvalLimits] = None,
    strip_whitespace: bool = False,
    require: bool = False,
) -> StreamRun:
    """Evaluate a node-set query over XML *text* on the default session.

    Streamable plans (forward downward axes, start-event-decidable
    predicates — see :func:`repro.streaming.analyze_streamability`) are
    evaluated in a single pass over the token stream with O(depth) live
    state and **no tree is built**; everything else parses the source and
    falls back to the plan's tree engine.  Both backends return the same
    :class:`~repro.session.StreamRun` of
    :class:`~repro.streaming.StreamMatch` records in document order;
    ``require=True`` raises instead of falling back.
    """
    return _DEFAULT_SESSION.stream(
        query,
        source,
        engine=engine,
        variables=variables,
        limits=limits,
        strip_whitespace=strip_whitespace,
        require=require,
    )


def stream_collection(
    sources: Iterable[str],
    *,
    strip_whitespace: bool = False,
    names: Optional[Sequence[str]] = None,
) -> SourceCollection:
    """Wrap XML texts in a :class:`~repro.collection.SourceCollection`.

    Unlike :func:`parse_collection`, nothing is parsed here: each batch
    holds at most one tree per worker — and zero trees when the plan is
    streamable and a batch asks for ``stream=True``.
    """
    return SourceCollection(sources, names=names, strip_whitespace=strip_whitespace)


def build_store(
    path,
    documents: Iterable[Document],
    names: Optional[Sequence[Optional[str]]] = None,
) -> str:
    """Serialise parsed documents into a persistent store file at ``path``.

    The store is the columnar on-disk form of the pre/post accelerator
    arrays: open it later with :func:`open_store` and each document is
    rebuilt from an ``mmap`` on demand — no re-parsing.
    Returns the final path.
    """
    from .store import build_store as _build_store

    return _build_store(path, documents, names)


def open_store(path):
    """Open a store file as a :class:`~repro.store.collection.StoredCollection`.

    The file is mapped read-only and validated (magic, version, table-of-
    contents checksum) in O(1) with respect to corpus size.  The collection
    is a drop-in for :func:`parse_collection` output: a batch query
    materialises each document it reaches from the mapped columns (no
    re-parse), at most once, whatever the engine.  Bound to the default
    session; use :meth:`XPathSession.open_store` for an isolated session.
    """
    from .store import DocumentStore, StoredCollection

    return StoredCollection(DocumentStore.open(path))


def parallel_executor(
    *,
    backend: str = "thread",
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    retry: Union[None, int, RetryPolicy] = None,
) -> ParallelExecutor:
    """Create a reusable :class:`~repro.parallel.ParallelExecutor`.

    Pass it as ``parallel=`` to the collection batch entry points to share
    one worker pool across many batches (``backend="process"`` scales
    CPU-bound batches across cores; ``"thread"`` shares the session's plan
    cache at near-zero setup cost).  Use as a context manager, or call
    :meth:`~repro.parallel.ParallelExecutor.close` when done.  ``retry``
    sets the executor's default worker-loss recovery policy — a retry
    count, or a full :class:`~repro.parallel.RetryPolicy`.
    """
    return ParallelExecutor(
        backend=backend, max_workers=max_workers, chunk_size=chunk_size,
        retry=retry,
    )


def compile_query(
    query: Union[str, object],
    *,
    engine: Optional[str] = None,
    variables: Optional[Mapping[str, XPathValue]] = None,
) -> CompiledQuery:
    """Compile a query into an immutable, reusable plan.

    The full front-end pipeline — parse, normalise, static typing, Figure-1
    classification, engine selection (``engine="auto"`` resolved here, once)
    — runs exactly once; the plan can then be evaluated any number of times
    over any documents, by :meth:`~repro.plan.CompiledQuery.select` /
    :meth:`~repro.plan.CompiledQuery.evaluate` or by passing it wherever a
    query string is accepted.
    """
    return compile_plan(query, engine=engine, variables=variables)


def plan_cache() -> PlanCache:
    """The default session's plan cache, consulted by :func:`select`,
    :func:`evaluate`, the CLI and the engines' string front door."""
    return _DEFAULT_SESSION.cache


def run(
    query: Union[str, CompiledQuery],
    document: Document,
    context: Optional[Union[Context, Node]] = None,
    *,
    engine: Optional[str] = None,
    variables: Optional[Mapping[str, XPathValue]] = None,
    limits: Optional[EvalLimits] = None,
) -> QueryResult:
    """Evaluate on the default session and return a rich
    :class:`~repro.session.QueryResult` (value + plan + engine + stats)."""
    return _DEFAULT_SESSION.run(
        query, document, context, engine=engine, variables=variables, limits=limits
    )


def explain(
    query: Union[str, CompiledQuery],
    document: Optional[Document] = None,
    context: Optional[Union[Context, Node]] = None,
    *,
    engine: Optional[str] = None,
    variables: Optional[Mapping[str, XPathValue]] = None,
    limits: Optional[EvalLimits] = None,
) -> str:
    """Explain a query on the default session (see
    :meth:`XPathSession.explain`): compile-only without a document, full
    evaluation report with one."""
    return _DEFAULT_SESSION.explain(
        query, document, context, engine=engine, variables=variables, limits=limits
    )


def evaluate(
    query: Union[str, CompiledQuery],
    document: Document,
    context: Optional[Union[Context, Node]] = None,
    *,
    engine: Optional[str] = None,
    variables: Optional[Mapping[str, XPathValue]] = None,
    limits: Optional[EvalLimits] = None,
) -> XPathValue:
    """Evaluate a query and return its XPath value (number/string/bool/node set).

    Delegates to the default session: string queries are compiled through
    its plan cache (for :data:`DEFAULT_ENGINE` unless ``engine`` says
    otherwise) and evaluated on its pooled engine instances; a prebuilt
    :class:`~repro.plan.CompiledQuery` is used as-is — its compile-time
    engine resolution stands unless a different engine is explicitly named.
    """
    return _DEFAULT_SESSION.evaluate(
        query, document, context, engine=engine, variables=variables, limits=limits
    )


def select(
    query: Union[str, CompiledQuery],
    document: Document,
    context: Optional[Union[Context, Node]] = None,
    *,
    engine: Optional[str] = None,
    variables: Optional[Mapping[str, XPathValue]] = None,
    limits: Optional[EvalLimits] = None,
) -> list[Node]:
    """Evaluate a node-set query and return the nodes in document order.

    Engine handling follows :func:`evaluate`: prebuilt plans keep their
    compiled engine unless one is explicitly requested.
    """
    return _DEFAULT_SESSION.select(
        query, document, context, engine=engine, variables=variables, limits=limits
    )


def classify_query(query: Union[str, object]) -> Classification:
    """Classify a query into the Figure-1 fragment lattice."""
    if isinstance(query, CompiledQuery):
        return query.classification
    return classify(query)


def serve(
    store_path,
    *,
    host: str = "127.0.0.1",
    port: int = 8300,
    tenants=(),
    max_queue: int = 64,
    max_concurrency: int = 8,
    default_deadline: Optional[float] = None,
    drain_grace: float = 5.0,
) -> None:
    """Serve ``store_path`` over HTTP/JSON until SIGTERM (blocking).

    The async multi-tenant query service: per-tenant sessions (own plan
    cache + :class:`EvalLimits`), one shared read-only store mapping, one
    shared process pool for ``/batch``, and a bounded request queue for
    backpressure.  ``tenants`` is a sequence of
    :class:`~repro.server.config.TenantConfig` (or dicts); empty means a
    single unrestricted ``"default"`` tenant.  See :mod:`repro.server`.
    """
    from .server import ServerConfig, TenantConfig, serve as _serve

    resolved = tuple(
        tenant if isinstance(tenant, TenantConfig)
        else TenantConfig.from_dict(tenant)
        for tenant in tenants
    )
    _serve(
        ServerConfig(
            store_path=os.fspath(store_path),
            host=host,
            port=port,
            tenants=resolved,
            max_queue=max_queue,
            max_concurrency=max_concurrency,
            default_deadline=default_deadline,
            drain_grace=drain_grace,
        )
    )


__all__ = [
    "BatchResult",
    "BatchRun",
    "Collection",
    "CompiledQuery",
    "DEFAULT_ENGINE",
    "ENGINE_CLASSES",
    "EvalLimits",
    "FailureReport",
    "MultiQueryRun",
    "ParallelExecutor",
    "PlanCache",
    "PlanReport",
    "QueryResult",
    "RetryPolicy",
    "SessionStats",
    "SourceCollection",
    "StreamMatch",
    "StreamRun",
    "XPathSession",
    "analyze_streamability",
    "build_store",
    "classify_query",
    "compile_query",
    "default_session",
    "engine_for_query",
    "engine_names",
    "evaluate",
    "explain",
    "get_engine",
    "open_store",
    "parallel_executor",
    "parse",
    "parse_collection",
    "plan_cache",
    "render_explanation",
    "run",
    "select",
    "serve",
    "session",
    "stream",
    "stream_collection",
]
