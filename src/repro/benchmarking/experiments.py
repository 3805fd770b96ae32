"""Experiment drivers — one per table and figure of the paper's evaluation.

Every driver reproduces the corresponding figure/table with the paper's
query and document families, substituting this library's engines for the
2002 systems (see DESIGN.md, "Substitutions"):

=================  ===============================================  =====================
Driver             Paper artifact                                   Engines compared
=================  ===============================================  =====================
experiment1        Figure 2 (left), Experiment 1                    naive vs. topdown/mincontext
experiment2        Figure 2 (right), Experiment 2                   naive vs. topdown/mincontext
experiment3        Figure 3 (left), Experiment 3                    naive vs. topdown/mincontext
experiment4        Figure 3 (right), Experiment 4                   mincontext data-complexity sweep
experiment5_*      Figure 4 (a)/(b), Experiment 5                   naive vs. topdown
table5_datapool    Table V / Figure 12, Section 9.3                 naive vs. datapool
table7             Table VII, Section 12                            topdown & mincontext scaling
figure1_fragments  Figure 1 fragment lattice                        corexpath / xpatterns / optmincontext
=================  ===============================================  =====================

All drivers accept size limits and time budgets so they can run both as
fast smoke benchmarks (pytest-benchmark) and as fuller sweeps from the
examples / the command line.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..engines.datapool import DataPoolEngine
from ..engines.mincontext import MinContextEngine
from ..engines.naive import NaiveEngine
from ..engines.optmincontext import OptMinContextEngine
from ..engines.topdown import TopDownEngine
from ..fragments.classify import classify
from ..fragments.core_xpath import CoreXPathEngine
from ..fragments.xpatterns import XPatternsEngine
from ..workloads.documents import doc_deep, doc_flat, doc_flat_text, doc_library
from ..workloads.queries import (
    core_xpath_chain_query,
    experiment1_query,
    experiment2_query,
    experiment3_query,
    experiment4_query,
    experiment5_descendant_query,
    experiment5_following_query,
    wadler_position_query,
    xpatterns_id_query,
)
from .harness import EngineSeries, ExperimentResult, Measurement, run_series


def experiment1(
    sizes: Sequence[int] = tuple(range(1, 9)),
    *,
    per_point_budget: float = 2.0,
) -> ExperimentResult:
    """Experiment 1: query complexity on DOC(2) with parent::a/b chains."""
    document = doc_flat(2)
    return run_series(
        "E1",
        "Exponential query complexity of the naive strategy (Figure 2, left)",
        "query size",
        sizes,
        [NaiveEngine(), TopDownEngine(), MinContextEngine()],
        query_for=experiment1_query,
        document_for=lambda _size: document,
        per_point_budget=per_point_budget,
        notes="paper: XALAN and XT grow exponentially; our CVT engines stay flat",
    )


def experiment2(
    sizes: Sequence[int] = tuple(range(1, 7)),
    document_size: int = 3,
    *,
    per_point_budget: float = 2.0,
) -> ExperimentResult:
    """Experiment 2: nested path/relational queries over DOC'(doc size)."""
    document = doc_flat_text(document_size)
    return run_series(
        "E2",
        f"Exponential query complexity, DOC'({document_size}) (Figure 2, right)",
        "query size",
        sizes,
        [NaiveEngine(), TopDownEngine(), MinContextEngine()],
        query_for=experiment2_query,
        document_for=lambda _size: document,
        per_point_budget=per_point_budget,
        notes="paper: Saxon grows exponentially; our CVT engines stay polynomial",
    )


def experiment3(
    sizes: Sequence[int] = tuple(range(1, 7)),
    document_size: int = 3,
    *,
    per_point_budget: float = 2.0,
) -> ExperimentResult:
    """Experiment 3: nested count()/arithmetic queries over DOC(doc size)."""
    document = doc_flat(document_size)
    return run_series(
        "E3",
        f"Exponential query complexity with count(), DOC({document_size}) (Figure 3, left)",
        "query size",
        sizes,
        [NaiveEngine(), TopDownEngine(), MinContextEngine()],
        query_for=experiment3_query,
        document_for=lambda _size: document,
        per_point_budget=per_point_budget,
        notes="paper: IE6 grows exponentially; our CVT engines stay polynomial",
    )


def experiment4(
    document_sizes: Sequence[int] = (50, 100, 200, 400, 800),
    query_depth: int = 20,
    *,
    per_point_budget: float = 30.0,
) -> ExperimentResult:
    """Experiment 4: data complexity of the fixed ancestor/descendant query."""
    query = experiment4_query(query_depth)
    return run_series(
        "E4",
        f"Data complexity of //a + q({query_depth}) + //b (Figure 3, right)",
        "document size",
        document_sizes,
        [MinContextEngine(), TopDownEngine()],
        query_for=lambda _size: query,
        document_for=doc_flat,
        per_point_budget=per_point_budget,
        notes="paper: IE6 is quadratic in |D| for this query; so are the CVT engines",
    )


def experiment5_following(
    sizes: Sequence[int] = tuple(range(1, 8)),
    document_size: int = 20,
    *,
    per_point_budget: float = 2.0,
) -> ExperimentResult:
    """Experiment 5 (a): forward-axis-only chains with the following axis."""
    document = doc_flat(document_size)
    return run_series(
        "E5a",
        f"Forward-axis chains (following), DOC({document_size}) (Figure 4a)",
        "query size",
        sizes,
        [NaiveEngine(), TopDownEngine()],
        query_for=experiment5_following_query,
        document_for=lambda _size: document,
        per_point_budget=per_point_budget,
        notes="paper: Xalan is exponential until the document bounds the growth",
    )


def experiment5_descendant(
    sizes: Sequence[int] = tuple(range(1, 8)),
    depth: int = 12,
    *,
    per_point_budget: float = 2.0,
) -> ExperimentResult:
    """Experiment 5 (b): descendant chains //b//b…//b over deep path documents."""
    document = doc_deep(depth)
    return run_series(
        "E5b",
        f"Descendant chains over a depth-{depth} path document (Figure 4b)",
        "query size",
        sizes,
        [NaiveEngine(), TopDownEngine()],
        query_for=experiment5_descendant_query,
        document_for=lambda _size: document,
        per_point_budget=per_point_budget,
        notes="paper: naive evaluation is exponential in the chain length",
    )


def table5_datapool(
    sizes: Sequence[int] = tuple(range(1, 7)),
    document_size: int = 10,
    *,
    per_point_budget: float = 2.0,
) -> ExperimentResult:
    """Table V / Figure 12: the data-pool patch removes the exponential blow-up."""
    document = doc_flat(document_size)
    return run_series(
        "TV",
        f"Xalan-classic vs. Xalan+data-pool analogue, DOC({document_size}) (Table V, Fig. 12)",
        "query size",
        sizes,
        [NaiveEngine(), DataPoolEngine()],
        query_for=experiment3_query,
        document_for=lambda _size: document,
        per_point_budget=per_point_budget,
        notes="paper: classic Xalan exponential, +data pool near-linear in |Q|",
    )


def table7(
    sizes: Sequence[int] = (1, 2, 3, 4, 5, 10, 20),
    document_sizes: Sequence[int] = (10, 20, 200),
    *,
    per_point_budget: float = 10.0,
) -> list[ExperimentResult]:
    """Table VII: our polynomial engines on the Experiment-2 queries.

    One :class:`ExperimentResult` per document size, sweeping the query size
    (the table's rows); the paper reports linear growth in |Q| and quadratic
    growth in |D| for this query class.
    """
    results: list[ExperimentResult] = []
    for document_size in document_sizes:
        document = doc_flat_text(document_size)
        results.append(
            run_series(
                "TVII",
                f"XMLTaskforce-analogue timings, DOC'({document_size}) (Table VII)",
                "query size",
                sizes,
                [TopDownEngine(), MinContextEngine()],
                query_for=experiment2_query,
                document_for=lambda _size: document,
                per_point_budget=per_point_budget,
                notes="paper: linear in |Q|, quadratic in |D| for this query class",
            )
        )
    return results


def figure1_fragments(
    sizes: Sequence[int] = (1, 2, 4, 8),
    document_size: int = 100,
    *,
    per_point_budget: float = 10.0,
) -> ExperimentResult:
    """Figure 1: the fragment-specific engines on a Core XPath workload.

    Core XPath queries run on the linear-time algebra engine, on XPatterns
    (a superset) and on OptMinContext (which by Corollary 11.5 adheres to the
    O(|D|·|Q|) bound on this fragment); all three stay far below the general
    engines' cost while agreeing on the result.
    """
    document = doc_flat_text(document_size)
    return run_series(
        "FIG1",
        f"Fragment engines on Core XPath chains, DOC'({document_size}) (Figure 1)",
        "query size",
        sizes,
        [CoreXPathEngine(), XPatternsEngine(), OptMinContextEngine(), TopDownEngine()],
        query_for=core_xpath_chain_query,
        document_for=lambda _size: document,
        per_point_budget=per_point_budget,
        notes="linear-time fragment engines vs. the general polynomial engine",
    )


def fragment_classification_report(
    queries: Optional[Sequence[str]] = None,
) -> list[tuple[str, str]]:
    """Classify a representative query set into the Figure-1 lattice."""
    if queries is None:
        queries = [
            core_xpath_chain_query(2),
            xpatterns_id_query(),
            wadler_position_query(2),
            experiment2_query(2),
            experiment3_query(2),
            "count(//b)",
        ]
    report: list[tuple[str, str]] = []
    for query in queries:
        classification = classify(query)
        report.append((query, classification.fragment.value))
    return report


def time_raw_cached_path(query: str, document, count: int) -> float:
    """Seconds for ``count`` warm evaluations on the raw cached-plan path.

    The cheapest possible warm loop — one :class:`~repro.plan.PlanCache`
    lookup plus a reused engine instance per call.  This is the canonical
    definition of the "raw" baseline the session-overhead acceptance bar is
    measured against (``benchmarks/bench_session.py`` imports it).
    """
    from ..plan import PlanCache

    cache = PlanCache()
    engine = TopDownEngine()
    engine.evaluate(cache.get_or_compile(query), document)  # warm
    start = time.perf_counter()
    for _ in range(count):
        engine.evaluate(cache.get_or_compile(query), document)
    return time.perf_counter() - start


def time_session_path(query: str, document, count: int) -> float:
    """Seconds for ``count`` warm evaluations through ``XPathSession.run``."""
    from ..session import XPathSession

    session = XPathSession()
    session.run(query, document)  # warm
    start = time.perf_counter()
    for _ in range(count):
        session.run(query, document)
    return time.perf_counter() - start


def session_overhead_experiment(
    repetitions: Sequence[int] = (100, 500),
    query: str = "//b[position() = last()]",
    document_size: int = 30,
) -> ExperimentResult:
    """Session front door vs. the raw cached-plan path.

    The "session" series routes the raw series' traffic through
    :meth:`~repro.session.XPathSession.run`, paying for the
    :class:`~repro.session.QueryResult`, per-query stats aggregation and
    timing.  The gap is the session tax — asserted ≤ 10% by
    ``benchmarks/bench_session.py``, which shares the two timing loops.
    """
    document = doc_flat(document_size)

    series = []
    for name, timer in (
        ("raw", time_raw_cached_path),
        ("session", time_session_path),
    ):
        engine_series = EngineSeries(engine_name=name)
        for count in repetitions:
            engine_series.points.append(
                Measurement(
                    parameter=count,
                    seconds=timer(query, document, count),
                    work=0,
                    counters={},
                )
            )
        series.append(engine_series)
    return ExperimentResult(
        experiment_id="SESSION",
        title=f"Session front door vs. raw cached plan, DOC({document_size})",
        parameter_name="repetitions",
        parameters=list(repetitions),
        series=series,
        notes="the gap is QueryResult construction + stats aggregation + timing",
    )


_ = doc_library  # re-exported for examples that import from this module
