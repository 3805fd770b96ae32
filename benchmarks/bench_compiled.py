"""Micro-benchmarks for the compiled array-program backend (ISSUE 7).

Workloads are the bench_axes/bench_plan_cache shapes: the wide 10k-node
document (``doc_wide(5000)`` — "wide10k" in bench_axes) and the deep
non-branching path, with queries that stress the interval/posting-list
axes, an XPatterns string-match predicate, and the shapes past XPatterns
(``numfilter``, ``position`` and a ``count()`` program).  Each workload times the
compiled engine against the interpreted default path (``topdown``) on a
pre-compiled plan, so the comparison isolates evaluation — both sides pay
zero front-end cost.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_compiled.py -s``;
pass ``--benchmark-disable`` for a smoke run (CI does).  The acceptance
assertion lives in ``test_compiled_speedup_meets_acceptance_bar`` and also
runs in smoke mode: the local acceptance target is ≥10x on the headline
descendant workload (measured ~30-80x, see BENCH_compiled.json at the repo
root for the recorded trajectory); CI asserts the ISSUE-7 floor of 3x
(REPRO_COMPILED_SPEEDUP_BAR) because shared runners are wall-clock noisy.

Set REPRO_BENCH_RECORD=1 to append this run to BENCH_compiled.json.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import record_trajectory
from repro.plan import plan_for
from repro.workloads.documents import doc_deep, doc_wide
from repro.xpath.values import NodeSet

SPEEDUP_BAR = float(os.environ.get("REPRO_COMPILED_SPEEDUP_BAR", "3.0"))

#: The interpreted reference: the repo-wide default engine.
TREE_ENGINE = "topdown"

WIDE10K = doc_wide(5000)  # ~10k regular nodes + 5k attributes
WIDE800 = doc_wide(800)  # the tree engines are quadratic on sibling scans
DEEP400 = doc_deep(400)

#: (name, document, query) — every query is compilable, so the compiled
#: engine runs the array program (asserted below), never the fallback.
#: sibling-prune runs on the smaller wide document: the interpreted side
#: walks sibling chains per candidate (O(n²), ~1.5s per evaluation at
#: n=1000) and would dominate the whole benchmark run at wide10k scale.
WORKLOADS = [
    ("descendant-name", WIDE10K, "//item"),
    ("attribute-match", WIDE10K, "//item[@n = '2500']"),
    ("sibling-prune", WIDE800, "//item[not(following-sibling::item)]"),
    ("text-equality", WIDE10K, "//item[. = '4999']"),
    ("deep-ancestors", DEEP400, "//b/ancestor::b"),
    ("numeric-filter", WIDE10K, "//item[. > 4000]"),
    ("numeric-count", WIDE10K, "count(//item[. > 4000])"),
    ("child-last", WIDE10K, "//item[@n > 100][last()]"),
    ("sibling-position", WIDE800, "//item[@n = '400']/preceding-sibling::item[1]"),
]

#: The workload the ≥bar assertion is anchored to.
HEADLINE = "descendant-name"


def _plans(query):
    compiled = plan_for(query, engine="compiled", cache=None)
    tree = plan_for(query, engine=TREE_ENGINE, cache=None)
    assert compiled.classification.compilable, query
    return compiled, tree


def _answer(value):
    """Node orders of a node set; a count()'s number as is."""
    if isinstance(value, NodeSet):
        return [node.order for node in value]
    return value


def _prime(document):
    # Build the index once, outside the timed region; the caller's untimed
    # first evaluation warms the string-match caches both backends memoise.
    document.index


@pytest.mark.parametrize(
    "name, document, query", WORKLOADS, ids=[w[0] for w in WORKLOADS]
)
def test_compiled_engine_workload(benchmark, name, document, query):
    compiled, _ = _plans(query)
    _prime(document)
    compiled.evaluate(document)
    benchmark(lambda: compiled.evaluate(document))


@pytest.mark.parametrize(
    "name, document, query", WORKLOADS, ids=[w[0] for w in WORKLOADS]
)
def test_tree_engine_workload(benchmark, name, document, query):
    _, tree = _plans(query)
    _prime(document)
    tree.evaluate(document)
    benchmark(lambda: tree.evaluate(document))


def _measure(callable_) -> float:
    """Best-of-3 mean, with repetitions sized from a single probe so slow
    interpreted workloads don't stretch the run (~0.1s per round)."""
    start = time.perf_counter()
    callable_()
    probe = time.perf_counter() - start
    repetitions = max(1, min(50, int(0.1 / max(probe, 1e-9))))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repetitions):
            callable_()
        best = min(best, (time.perf_counter() - start) / repetitions)
    return best


def test_compiled_speedup_meets_acceptance_bar():
    """Compiled ≥SPEEDUP_BAR× over the interpreted path on the headline
    workload, identical answers (orders, or a count's value) on every
    workload."""
    report = {}
    for name, document, query in WORKLOADS:
        compiled, tree = _plans(query)
        _prime(document)
        compiled_answer = _answer(compiled.evaluate(document))
        assert compiled_answer == _answer(tree.evaluate(document)), name
        compiled_s = _measure(lambda: compiled.evaluate(document))
        tree_s = _measure(lambda: tree.evaluate(document))
        report[name] = {
            "compiled_us": round(compiled_s * 1e6, 1),
            "tree_us": round(tree_s * 1e6, 1),
            "speedup": round(tree_s / compiled_s, 1),
        }
        print(
            f"\n{name}: {report[name]['speedup']}x "
            f"(tree {report[name]['tree_us']}us, "
            f"compiled {report[name]['compiled_us']}us)"
        )
    record_trajectory(
        "BENCH_compiled.json",
        {"tree_engine": TREE_ENGINE, "bar": SPEEDUP_BAR, "workloads": report},
    )
    headline = report[HEADLINE]["speedup"]
    assert headline >= SPEEDUP_BAR, (
        f"compiled path only {headline}x faster than {TREE_ENGINE} "
        f"on {HEADLINE} (bar {SPEEDUP_BAR}x): {report}"
    )
