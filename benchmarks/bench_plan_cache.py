"""Micro-benchmarks for the compiled-plan pipeline and plan cache.

Three traffic shapes from the ROADMAP's repeated-query / many-document
target (numbers recorded in DESIGN.md, "The compiled-plan layer"):

* **cold** — every evaluation re-runs the whole front end (parse →
  normalise → classify → engine selection), the pre-plan behaviour;
* **warm** — the same repeated query served through the plan cache, so
  evaluations pay only the engine run (acceptance bar: ≥5× over cold);
* **batch** — one plan over a 100-document collection versus 100 cold
  per-document calls.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_plan_cache.py``;
pass ``--benchmark-disable`` for a smoke run (CI does).  The ≥5× acceptance
assertion itself lives in ``test_warm_speedup_meets_acceptance_bar`` and
also runs in smoke mode.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import api
from repro.collection import Collection
from repro.plan import PlanCache, plan_for
from repro.workloads.documents import doc_flat, doc_flat_source
from repro.workloads.queries import experiment2_query, workload_queries

#: The repeated query: nested enough that front-end work is substantial,
#: evaluated on a small document — the regime the plan cache targets.
#: (classifies as XPatterns, so ``auto`` picks the compiled engine and the
#: warm path also reuses the plan's memoised array program)
REPEATED_QUERY = experiment2_query(10)
ENGINE = "auto"


@pytest.fixture(scope="module")
def library_doc():
    return doc_flat(10)


@pytest.fixture(scope="module")
def collection100():
    return Collection.from_sources(
        doc_flat_source(20) for _ in range(100)
    )


def _evaluate_cold(query: str, document) -> None:
    """The pre-plan path: full front-end pipeline on every call."""
    plan = plan_for(query, engine=ENGINE, cache=None)
    plan.evaluate(document)


def _evaluate_warm(cache: PlanCache, query: str, document) -> None:
    plan = cache.get_or_compile(query, engine=ENGINE)
    plan.evaluate(document)


# ----------------------------------------------------------------------
# Cold vs. warm repeated query
# ----------------------------------------------------------------------
def test_repeated_query_cold(benchmark, library_doc):
    benchmark(_evaluate_cold, REPEATED_QUERY, library_doc)


def test_repeated_query_warm(benchmark, library_doc):
    cache = PlanCache()
    _evaluate_warm(cache, REPEATED_QUERY, library_doc)  # prime
    benchmark(_evaluate_warm, cache, REPEATED_QUERY, library_doc)


#: Acceptance bar for the warm/cold separation.  5× is the recorded local
#: acceptance number (measured ~14×, see DESIGN.md); CI sets
#: REPRO_PLAN_SPEEDUP_BAR lower because shared runners add wall-clock noise
#: that has nothing to do with the plan layer.
SPEEDUP_BAR = float(os.environ.get("REPRO_PLAN_SPEEDUP_BAR", "5.0"))


def test_warm_speedup_meets_acceptance_bar(library_doc):
    """Warm plan-cache evaluation is ≥SPEEDUP_BAR× faster than the cold path."""
    cache = PlanCache()
    _evaluate_warm(cache, REPEATED_QUERY, library_doc)  # prime the cache

    def measure(callable_, repetitions: int = 30) -> float:
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(repetitions):
                callable_()
            best = min(best, (time.perf_counter() - start) / repetitions)
        return best

    cold = measure(lambda: _evaluate_cold(REPEATED_QUERY, library_doc))
    warm = measure(lambda: _evaluate_warm(cache, REPEATED_QUERY, library_doc))
    speedup = cold / warm
    print(f"\nplan-cache warm speedup: {speedup:.1f}x (cold {cold*1e6:.0f}us, warm {warm*1e6:.0f}us)")
    assert speedup >= SPEEDUP_BAR, f"warm path only {speedup:.1f}x faster than cold"


# ----------------------------------------------------------------------
# Batch over a 100-document collection
# ----------------------------------------------------------------------
def test_collection_batch_100_docs(benchmark, collection100):
    """One compiled plan over 100 documents (plan compiled once)."""
    benchmark(lambda: collection100.select("//b[position() = last()]"))


def test_per_document_cold_100_docs(benchmark, collection100):
    """The same traffic without plan reuse: 100 cold compilations."""

    def run():
        for document in collection100:
            plan_for("//b[position() = last()]", cache=None).select(document)

    benchmark(run)


def test_workload_mix_through_shared_cache(benchmark, collection100):
    """The full workload query mix over a slice of the collection."""
    queries = [query for _, query in workload_queries()]
    docs = Collection(collection100.documents[:10])

    def run():
        for report in docs.select_many(queries, engine="topdown"):
            assert len(report) == 10

    benchmark(run)
