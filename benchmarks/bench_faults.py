"""Fault-tolerance layer overhead benchmark (ISSUE 6 acceptance bar).

The fault-tolerance machinery — per-chunk fault hooks, deadline plumbing,
the retry/gather loop in :meth:`ParallelExecutor._execute` — sits on the
hot path of **every** batch, faulted or not.  This benchmark asserts the
fault-free price is negligible: the full fault-tolerant batch must stay
within **5%** of a bare submit-and-gather baseline that bypasses the
recovery loop entirely, on the ISSUE-4 100-document CPU-bound workload
(``REPRO_FAULT_OVERHEAD_BAR`` overrides the 1.05 factor; CI loosens it —
shared runners jitter more than the layer costs).

The baseline submits the identical chunks to the identical pool via the
identical worker entry point (``_thread_chunk`` running the same
:func:`~repro.parallel.evaluate_chunk` call ``run_batch`` makes) and gathers
in submission order — exactly what ``run_batch`` did before the
fault-tolerance layer — so the measured delta is the recovery loop itself,
not a workload change.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_faults.py``;
pass ``--benchmark-disable`` for a smoke run (CI does).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.faultinject import active_plan
from repro.parallel import ParallelExecutor, evaluate_chunk
from repro.session import XPathSession
from repro.workloads.documents import doc_flat_text

QUERY = "/a/b/following-sibling::b[. = 'c']"
DOC_COUNT = 100
DOC_SIZE = 50
WORKERS = 4

REPETITIONS = 3  # best-of, per side


def _visible_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _overhead_bar() -> float:
    return float(os.environ.get("REPRO_FAULT_OVERHEAD_BAR", "1.05"))


@pytest.fixture(scope="module")
def session():
    return XPathSession()


@pytest.fixture(scope="module")
def collection(session):
    return session.collection([doc_flat_text(DOC_SIZE) for _ in range(DOC_COUNT)])


@pytest.fixture(scope="module")
def thread_pool():
    with ParallelExecutor(backend="thread", max_workers=WORKERS) as executor:
        yield executor


def _best_of(run, repetitions: int = REPETITIONS) -> float:
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _bare_batch(executor, collection, plan, session):
    """The pre-fault-tolerance gather: submit every chunk, await in order,
    no retry bookkeeping, no deadline arithmetic, no failure report."""
    documents = collection.documents

    def run_chunk(chunk, attempt):
        return evaluate_chunk(
            session.engine(plan.engine_name), plan, documents, chunk, None, None,
            select_nodes=True, attempt=attempt,
        )

    pool = executor._ensure_pool()
    futures = [
        pool.submit(ParallelExecutor._thread_chunk, run_chunk, chunk, 0)
        for chunk in executor._chunks(len(documents))
    ]
    outcomes = []
    for future in futures:
        outcomes.extend(future.result())
    return outcomes


def test_fault_free_overhead_within_bar(session, collection, thread_pool):
    """The recovery loop's fault-free cost must be ≤ the overhead bar."""
    assert active_plan() is None, (
        "REPRO_FAULT_PLAN is set: this benchmark measures the *fault-free* "
        "price of the layer"
    )
    bar = _overhead_bar()
    plan, _ = session._plan(QUERY, None, {})
    # Warm the pool, the plan cache and both code paths before timing.
    _bare_batch(thread_pool, collection, plan, session)
    collection.select(QUERY, parallel=thread_pool)
    bare = _best_of(lambda: _bare_batch(thread_pool, collection, plan, session))
    full = _best_of(
        lambda: thread_pool.run_batch(
            collection.documents, plan, variables=None, limits=None,
            select_nodes=True, session=session,
        )
    )
    overhead = full / bare
    assert overhead <= bar, (
        f"fault-tolerance layer costs {overhead:.3f}x over the bare gather "
        f"(bar {bar:.2f}x; {bare * 1000:.1f}ms bare vs {full * 1000:.1f}ms "
        f"full on {_visible_cpus()} CPUs)"
    )


def test_full_batch_front_door_overhead(session, collection, thread_pool):
    """Same bar through the public entry point (folding included on both
    sides of the comparison by measuring select() against itself serially
    scaled) — a sanity guard that no front-door regression hides behind
    the executor-level comparison."""
    serial = _best_of(lambda: collection.select(QUERY))
    parallel = _best_of(lambda: collection.select(QUERY, parallel=thread_pool))
    # The thread backend shares the GIL: it cannot beat serial on CPU-bound
    # work, but the fault-tolerant submit/gather must not blow it up either.
    assert parallel <= serial * 2.0, (
        f"thread-backend batch {parallel * 1000:.1f}ms vs serial "
        f"{serial * 1000:.1f}ms — fault-tolerance layer overhead suspected"
    )


def test_fault_free_batch(benchmark, collection, thread_pool):
    collection.select(QUERY, parallel=thread_pool)  # warm pool + cache
    benchmark(lambda: collection.select(QUERY, parallel=thread_pool))
