#!/usr/bin/env python3
"""Mutable documents: edits, incremental index repair, snapshot isolation.

Walks through the ISSUE-10 mutation layer:

1. the five-method edit API (``insert_child``, ``remove``, ``rename``,
   ``set_text``, ``set_attribute``) and the monotonic generation counter,
2. incremental index repair — every edit repairs the live index in
   place — with the accounting exposed by ``Document.mutation_stats`` and
   ``XPathSession.watch``,
3. snapshot isolation — cheap copy-on-write read views pinned at a
   generation while the writer keeps editing,
4. staleness detection — a cached node-set result raises a positioned
   ``StaleResultError`` once the document has moved on.

Run with::

    python examples/mutable_document.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import StaleResultError
from repro.session import XPathSession
from repro.xmlmodel.builder import build_fragment
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize


def main() -> None:
    session = XPathSession()
    document = session.watch(
        parse_xml(
            "<library>"
            "<book id='b1'><title>Data on the Web</title></book>"
            "<book id='b2'><title>Foundations of Databases</title></book>"
            "</library>"
        )
    )
    document.index  # build the pre/post-order index up front

    # -- 1. the edit API ------------------------------------------------
    print(f"generation {document.generation}: {serialize(document)}")
    library = document.document_element

    new_book = build_fragment(
        "book", {"id": "b3"}, (("title", {}, ("Parametric XPath",)),)
    )
    document.insert_child(library, new_book, position=1)
    document.set_attribute(new_book, "year", "2002")
    document.rename(new_book.children[0], "heading")
    document.set_text(new_book.children[0].children[0], "Efficient XPath")
    print(f"generation {document.generation}: {serialize(document)}")

    # Handles stay live across edits; queries see the repaired index.
    result = session.run("//book[@year='2002']/heading", document)
    print("query over the repaired index:", result.nodes[0].string_value())

    # -- 2. repair accounting --------------------------------------------
    stats = document.mutation_stats
    print(
        f"mutation stats: {stats.edits} edits, {stats.repairs} repairs, "
        f"{stats.cow_copies} COW copies"
    )

    # -- 3. snapshot isolation ------------------------------------------
    snapshot = document.snapshot()  # O(1): shares the frozen tree
    removed = document.remove(new_book)  # writer moves to a new copy
    print(
        f"writer at generation {document.generation} with "
        f"{len(document)} nodes; snapshot pinned at generation "
        f"{snapshot.generation} with {len(snapshot)} nodes"
    )
    print(
        "snapshot still sees the removed book:",
        session.run("count(//book)", snapshot).value,
        "vs writer:",
        session.run("count(//book)", document).value,
    )
    # The COW replaced the writer's tree, so pre-snapshot handles like
    # `library` are stale now — re-fetch, then reuse the detached subtree.
    library = document.document_element
    document.insert_child(library, removed, position=0)

    # -- 4. staleness detection -----------------------------------------
    stale = session.run("//book", document)
    document.set_attribute(library, "renovated", "yes")
    try:
        stale.nodes
    except StaleResultError as error:
        print(f"stale result rejected: {error}")
    fresh = session.run("//book", document)
    print(f"re-evaluated at generation {fresh.generation}: "
          f"{len(fresh.nodes)} books")

    # Session telemetry aggregates the mutation events it watched.
    counters = session.stats.as_dict()
    print(
        "session saw "
        f"{counters['document_edits']} edits, "
        f"{counters['index_repairs']} index repairs, "
        f"{counters['cow_copies']} COW copies"
    )


if __name__ == "__main__":
    main()
