#!/usr/bin/env python3
"""Fragment analysis: classify queries into the Figure-1 lattice and inspect
the Core XPath set-algebra programs (paper Sections 10–11).

Run with::

    python examples/fragment_analysis.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro.fragments import CoreXPathEngine, classify, wadler_violations
from repro.workloads.queries import (
    EXAMPLE_10_3_QUERY,
    experiment2_query,
    experiment3_query,
)
from repro.xpath.normalize import compile_query

QUERIES = [
    "//a/b[child::c]",
    EXAMPLE_10_3_QUERY,
    "//a[@href = 'index.html']",
    "id('section-2')/child::title",
    "//item[position() != last()]",
    "//chapter[boolean(descendant::figure)]",
    experiment2_query(2),
    experiment3_query(1),
    "count(//item) * 2",
    "//a[string-length(.) > 10]",
]


def main() -> None:
    print("== Figure-1 fragment classification ==")
    header = f"{'fragment':<26} {'engine':<14} query"
    print(header)
    print("-" * len(header))
    for query in QUERIES:
        result = classify(query)
        print(f"{result.fragment.value:<26} {result.recommended_engine:<14} {query}")

    print()
    print("== Why a query falls outside the Extended Wadler Fragment ==")
    for query in ("//a[count(b) > 1]", "//a[string(.) = 'x']", "//a[b = c]"):
        print(f"query: {query}")
        for violation in wadler_violations(compile_query(query)):
            print(f"   - {violation}")

    print()
    print("== The Core XPath set algebra (Example 10.3) ==")
    engine = CoreXPathEngine()
    program = engine.compile(compile_query(EXAMPLE_10_3_QUERY))
    print("query:", EXAMPLE_10_3_QUERY)
    print("array program (one instruction per set operation):")
    for line in program.render().splitlines():
        print("   ", line)

    document = repro.parse("<a><b><c><d/></c></b><b><e/></b><b/></a>")
    print("result on <a><b><c><d/></c></b><b><e/></b><b/></a>:")
    for node in engine.select(EXAMPLE_10_3_QUERY, document):
        print("   ", node.name, "at document-order position", node.order)

    print()
    print("== Engine bounds per fragment (Figure 1) ==")
    for query in QUERIES[:6]:
        result = classify(query)
        print(f"{result.complexity:<38} {query}")


if __name__ == "__main__":
    main()
