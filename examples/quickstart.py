#!/usr/bin/env python3
"""Quickstart: sessions, rich query results, explain() and resource limits.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro import EvalLimits, ResourceLimitExceeded, XPathSession

CATALOG = """
<catalog>
  <book id="b1" year="1999"><title>Data on the Web</title><price>55</price></book>
  <book id="b2" year="2002"><title>XPath Essentials</title><price>30</price></book>
  <book id="b3" year="2003"><title>Query Processing</title><price>70</price></book>
  <review of="b2">Readable introduction. See also b3.</review>
</catalog>
"""


def main() -> None:
    # A session owns its plan cache, engine pool, limits and statistics —
    # create one per client/tenant.  engine="auto" picks the algorithm with
    # the best known complexity bound for each query's Figure-1 fragment.
    session = XPathSession(engine="auto")
    document = session.parse(CATALOG, strip_whitespace=True)

    print("== QueryResult: value + provenance ==")
    result = session.run("//book[price < 60]/title", document)
    print("Titles under 60:   ", [node.string_value() for node in result.nodes])
    print("Fragment:          ", result.fragment_name)
    print("Engine that ran:   ", result.engine_name)
    print("Plan cache hit:    ", result.cache_hit)
    print("Operations:        ", result.stats.total_work())

    print()
    print("== The same query again: served from the session's plan cache ==")
    print("Cache hit now:     ", session.run("//book[price < 60]/title", document).cache_hit)

    print()
    print("== explain(): the whole decision as text ==")
    print(session.explain("//book[@year > 2000]/title", document))

    print()
    print("== Scalar queries (evaluate returns the bare value) ==")
    print("Number of books:   ", session.evaluate("count(//book)", document))
    print("Total price:       ", session.evaluate("sum(//price)", document))
    print("Reviewed title:    ",
          [n.string_value() for n in session.select("id(//review/@of)/title", document)])

    print()
    print("== Resource limits: the exponential trap, defused ==")
    # Antagonist axes make the naive W3C-style strategy exponential
    # (paper, Section 2).  A session budget aborts it cooperatively.
    trap = "//book" + "/parent::catalog/book" * 8
    try:
        session.run(trap, document, engine="naive",
                    limits=EvalLimits(max_operations=50_000))
    except ResourceLimitExceeded as error:
        print(f"naive engine stopped: {error}")
        print(f"partial work counted: {error.stats.total_work()} operations")
    fine = session.run(trap, document)  # auto → polynomial engine: no sweat
    print(f"{fine.engine_name} finished the same query in "
          f"{fine.stats.total_work()} operations")

    print()
    print("== Session telemetry ==")
    stats = session.stats
    print(f"queries={stats.queries} errors={stats.errors} "
          f"limit_breaches={stats.limit_breaches} total_work={stats.total_work}")
    print("engine use:        ", stats.engine_use)

    print()
    print("== Batch traffic: collections, optionally in parallel ==")
    # One plan over many documents; parallel=True fans the documents out
    # over a worker pool (backend="process" scales CPU-bound batches across
    # cores — see examples/parallel_collection.py for the full tour).
    shelves = session.parse_collection(
        [CATALOG, "<catalog><book year='2010'><price>10</price></book></catalog>"]
    )
    batch = shelves.select("//book[price < 60]", parallel=True, max_workers=2)
    print("Matches per shelf: ", [len(r.nodes) for r in batch])
    print("Ran on:            ",
          f"{batch.workers} {batch.backend} workers, all ok: {batch.ok}")

    print()
    print("== Parse once, serve forever: the persistent store ==")
    # Persist parsed documents to a columnar, mmap-able file; reopening is
    # O(header), not O(corpus), and each document is rebuilt from the
    # mapped columns, not re-parsed (full tour: examples/persistent_store.py).
    import tempfile

    store_path = tempfile.mktemp(suffix=".reproxs")
    repro.api.build_store(store_path, list(shelves), names=["main", "annex"])
    stored = repro.api.open_store(store_path)
    print("Stored shelves:    ", stored.names)
    print("Matches per shelf: ",
          [len(r.nodes) for r in stored.select("//book[price < 60]")])
    stored.close()

    print()
    print("== Serve it: the async multi-tenant query service ==")
    # The same store goes behind a stdlib-only asyncio HTTP/JSON server —
    # per-tenant sessions (own plan cache + EvalLimits as admission
    # control) over one shared mapping, bounded-queue backpressure, and
    # clean SIGTERM drain (full tour: examples/query_server.py):
    #
    #     repro.api.serve(store_path, port=8300,
    #                     tenants=[{"name": "analytics"},
    #                              {"name": "guest",
    #                               "limits": {"max_operations": 10_000}}])
    #     # or: python -m repro.cli serve catalog.reproxs --port 8300
    #     # POST /query  {"tenant": "guest", "query": "//book", "doc": 0}
    print("api.serve(store_path) — see examples/query_server.py")

    print()
    print("== One-liners still work (they share a default session) ==")
    doc = repro.parse(CATALOG, strip_whitespace=True)
    print("Second book id:    ", repro.select("//book[2]", doc)[0].attribute_value("id"))
    print("Any book after 2000?", repro.evaluate("boolean(//book[@year > 2000])", doc))


if __name__ == "__main__":
    main()
