#!/usr/bin/env python3
"""Domain example: querying a document catalogue with ID/IDREF cross-references.

This is the kind of workload the paper's introduction motivates: a document
store queried through XPath, where cross-references between entries make the
``id()`` machinery and the XPatterns fragment (paper Section 10.2) useful,
and where antagonist-axis queries ("books positioned after their cited
book") are exactly the queries the 2002 engines handled exponentially.

Run with::

    python examples/library_catalog.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro.engines import NaiveEngine, TopDownEngine
from repro.fragments import XPatternsEngine, classify
from repro.workloads.documents import doc_library


def main() -> None:
    library = doc_library(books=40, seed=13)
    print(f"Catalogue with {len(repro.select('//book', library))} books, "
          f"{len(library)} tree nodes.\n")

    print("== Simple retrieval ==")
    long_books = repro.select("//book[pages > 700]/title", library)
    print("Books over 700 pages:", [node.string_value() for node in long_books])
    recent = repro.evaluate("count(//book[@year > 2010])", library)
    print("Books after 2010:    ", int(recent))
    db_books = repro.select("//book[@topic = 'databases']", library)
    print("Database books:      ", [node.attribute_value("id") for node in db_books])

    print()
    print("== Cross-references via id() (XPatterns fragment) ==")
    query = "id('bk3')/child::title"
    print("Query:", query, "→ fragment:", classify(query).fragment.value)
    print("Title of bk3:", [n.string_value() for n in repro.select(query, library)])

    # The id axis forwards (the books bk3's related field names) and
    # backwards (the books whose related field names bk3).
    cited = repro.select("id(id('bk3')/related)", library)
    print("Books cited by bk3: ", [node.attribute_value("id") for node in cited])
    citing = repro.select("//book[id(related)/@id = 'bk3']", library)
    print("Books citing bk3:   ", [node.attribute_value("id") for node in citing])

    # The same information through the XPatterns engine.
    xpatterns = XPatternsEngine()
    titles_of_cited = xpatterns.select("id('bk3')/child::related", library)
    print("related field of bk3:", [node.string_value() for node in titles_of_cited])

    print()
    print("== Positional / antagonist-axis queries ==")
    # "Books that appear after some database book and before some logic book"
    query = (
        "//book[preceding-sibling::book[@topic = 'databases']]"
        "[following-sibling::book[@topic = 'logic']]"
    )
    sandwiched = repro.select(query, library)
    print("Sandwiched books:    ", len(sandwiched))

    # Compare engine work on a back-and-forth navigation query.
    trap = "//book/parent::library/book/parent::library/book/parent::library/book"
    for engine in (NaiveEngine(), TopDownEngine()):
        engine.evaluate(trap, library)
        print(
            f"{engine.name:>8}: {engine.last_stats.location_step_applications:6d} "
            "location-step applications for the back-and-forth query"
        )

    print()
    print("== Report: topics by shelf position ==")
    count = int(repro.evaluate("count(//book)", library))
    for position in range(1, min(count, 5) + 1):
        topic = repro.evaluate(f"string(//book[{position}]/@topic)", library)
        title = repro.evaluate(f"string(//book[{position}]/title)", library)
        print(f"  shelf {position}: {title} [{topic}]")


if __name__ == "__main__":
    main()
