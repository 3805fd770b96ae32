"""Benchmarks for in-place document mutation (ISSUE 10).

The claim: once a document is loaded and indexed, answering a query after
an edit via the mutation API — in-place edit, incremental index repair,
re-query on the same columns — is ≥REPRO_MUTATION_SPEEDUP_BAR× faster than the
only pre-ISSUE-10 alternative, rebuilding the world: serialize the tree,
re-parse the text, re-index from scratch, then query.

The workload is a DBLP-style document
(:func:`~repro.workloads.documents.doc_dblp_source`); each measured call
performs one steady-state edit cycle (remove the previously inserted
article, append a fresh one — document size stays fixed) and then runs
the headline compiled query.  Both strategies sustain identical edit
streams on their own copy and must return identical answers.

A second, unmeasured cycle edits the middle of the document: inserts and
removes at seeded positions inside ``dblp``, each followed by a compiled
query with a literal predicate.  It checks that such edits repair the
live index instead of dropping it, that the literal's cached match
survives each edit, and that every answer equals a serialize → reparse
twin's.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_mutation.py -s``;
``--benchmark-disable`` gives the smoke run CI uses.  Set
REPRO_BENCH_RECORD=1 to append the measurements to BENCH_mutation.json.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from conftest import record_trajectory
from repro import api
from repro.plan import plan_for
from repro.workloads.documents import doc_dblp_source
from repro.workloads.edits import build_node
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize

SPEEDUP_BAR = float(os.environ.get("REPRO_MUTATION_SPEEDUP_BAR", "5.0"))

#: ~13 nodes per article; 320 articles ≈ 4·10^3 nodes — big enough that
#: serialize→reparse→reindex costs real time, small enough for CI smoke.
ARTICLES = int(os.environ.get("REPRO_MUTATION_BENCH_ARTICLES", "320"))

QUERY = "//article[@mdate]"
PLAN = plan_for(QUERY, engine="compiled", cache=None)

#: The mid-document cycle's re-query: its literal goes through the
#: document's string-match cache.
MID_QUERY = "//article[year = '1995']/@key"
MID_PLAN = plan_for(MID_QUERY, engine="compiled", cache=None)
MID_CYCLES = 12


class _EditStream:
    """Deterministic steady-state edit cycle against one document copy.

    Each step removes the article inserted by the previous step and
    appends a fresh one, so the document's size is constant while every
    step exercises detach + attach repair and a generation bump.
    """

    def __init__(self):
        self.document = parse_xml(doc_dblp_source(ARTICLES, seed=11))
        self.document.index  # pre-build: steady state starts indexed
        self._last = None
        self._counter = 0

    def step(self) -> None:
        if self._last is not None:
            self.document.remove(self._last)
        self._counter += 1
        fragment = build_node(
            (
                "article",
                {"mdate": f"2026-08-{self._counter % 28 + 1:02d}",
                 "key": f"bench/m{self._counter}"},
                (("title", {}, (f"mutation benchmark {self._counter}",)),),
            )
        )
        self._last = self.document.insert_child(
            self.document.document_element, fragment
        )


def _edit_and_requery(stream: _EditStream) -> list[int]:
    """The mutation path: edit in place, query the repaired index."""
    stream.step()
    return [node.order for node in PLAN.select(stream.document)]


def _edit_and_rebuild(stream: _EditStream) -> list[int]:
    """The pre-mutation path: edit, then serialize → reparse → reindex →
    query a from-scratch twin."""
    stream.step()
    fresh = parse_xml(serialize(stream.document))
    return [node.order for node in PLAN.select(fresh)]


def test_edit_requery_workload(benchmark):
    stream = _EditStream()
    benchmark(lambda: _edit_and_requery(stream))


def test_edit_rebuild_workload(benchmark):
    stream = _EditStream()
    benchmark(lambda: _edit_and_rebuild(stream))


def test_mid_document_edits_repair_and_keep_the_match_cache():
    rng = random.Random(7)
    document = parse_xml(doc_dblp_source(ARTICLES, seed=11))
    dblp = document.document_element
    index = document.index
    cache = index._string_match_cache
    MID_PLAN.select(document)  # caches the literal's matches
    for cycle in range(MID_CYCLES):
        inside = rng.randrange(1, len(dblp.children) - 1)
        if cycle % 2:
            document.remove(dblp.children[inside])
        else:
            fragment = build_node(
                (
                    "article",
                    {"key": f"bench/mid{cycle}"},
                    (("title", {}, (f"mid-document {cycle}",)), ("year", {}, ("1995",))),
                )
            )
            document.insert_child(dblp, fragment, inside)
        assert "1995" in cache._entries, f"edit {cycle} dropped the cached match"
        got = [node.order for node in MID_PLAN.select(document)]
        twin = parse_xml(serialize(document))
        expected = api.select(MID_QUERY, twin, engine="topdown")
        assert got == [node.order for node in expected], f"edit {cycle}"
    assert document.index is index
    assert document.mutation_stats.repairs == MID_CYCLES
    assert document.mutation_stats.rebuilds == 0


def _measure(callable_) -> float:
    """Best-of-3 mean, with repetitions sized from a single probe so the
    slow rebuild side doesn't stretch the run (~0.3s per round)."""
    start = time.perf_counter()
    callable_()
    probe = time.perf_counter() - start
    repetitions = max(1, min(50, int(0.3 / max(probe, 1e-9))))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repetitions):
            callable_()
        best = min(best, (time.perf_counter() - start) / repetitions)
    return best


def test_edit_requery_beats_serialize_reparse():
    """Edit + re-query ≥SPEEDUP_BAR× faster than serialize → reparse →
    reindex → query, identical answers under identical edit streams."""
    fast, slow = _EditStream(), _EditStream()
    assert _edit_and_requery(fast) == _edit_and_rebuild(slow)
    fast_s = _measure(lambda: _edit_and_requery(fast))
    slow_s = _measure(lambda: _edit_and_rebuild(slow))
    # The streams stayed in lockstep (one extra fast step per differing
    # repetition count is size-neutral), so the answers still agree.
    assert _edit_and_requery(fast) == _edit_and_rebuild(slow)
    speedup = slow_s / fast_s
    stats = fast.document.mutation_stats
    report = {
        "requery_ms": round(fast_s * 1e3, 3),
        "rebuild_ms": round(slow_s * 1e3, 3),
        "speedup": round(speedup, 1),
        "generation": fast.document.generation,
        "repairs": stats.repairs,
        "rebuilds": stats.rebuilds,
    }
    print(
        f"\nedit+re-query vs serialize+reparse: {report['speedup']}x "
        f"(rebuild {report['rebuild_ms']}ms, re-query {report['requery_ms']}ms; "
        f"{report['generation']} edits, {report['repairs']} repairs, "
        f"{report['rebuilds']} index rebuilds)"
    )
    record_trajectory(
        "BENCH_mutation.json",
        {"articles": ARTICLES, "speedup_bar": SPEEDUP_BAR, "measurements": report},
    )
    assert speedup >= SPEEDUP_BAR, (
        f"edit+re-query only {speedup:.1f}x faster than serialize→reparse "
        f"(bar {SPEEDUP_BAR}x): {report}"
    )
