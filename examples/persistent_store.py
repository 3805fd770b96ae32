#!/usr/bin/env python3
"""Persistent document store: parse once, serve forever (ISSUE 8).

Builds a DBLP-style corpus, persists it to a columnar store file, and then
answers queries straight off the memory map:

1. ``api.build_store`` — parse the corpus once, write one ``.reproxs`` file;
2. ``api.open_store`` — reopen it instantly (O(header + TOC), no parsing)
   and run batch queries; ``StoredDocument.orders`` runs a compiled plan
   off the mapped columns without building a tree;
3. lazy materialisation — batch queries get a real ``Document`` on demand,
   node-for-node identical to the original, pickled as ``(path, position)``
   so process workers reopen the store instead of shipping trees;
4. integrity — a flipped byte fails its own document with a positioned
   error while the rest of the batch keeps answering.

Run with::

    python examples/persistent_store.py
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import api
from repro.store import DocumentStore, StoredCollection
from repro.workloads.documents import doc_dblp_source

ARTICLES = 400
SHARDS = 6


def main() -> None:
    print("== Build: parse the corpus once, persist the columns ==")
    sources = [doc_dblp_source(ARTICLES, seed=seed) for seed in range(SHARDS)]
    started = time.perf_counter()
    documents = [api.parse(source) for source in sources]
    parse_seconds = time.perf_counter() - started
    path = os.path.join(tempfile.mkdtemp(prefix="repro-example-"), "dblp.reproxs")
    api.build_store(path, documents, names=[f"shard{i}" for i in range(SHARDS)])
    print(f"parsed {sum(len(d) for d in documents)} nodes "
          f"in {parse_seconds * 1e3:.0f}ms")
    print(f"store file: {os.path.getsize(path)} bytes at {path}")

    print()
    print("== Open: mmap, validate header + TOC, query — no parsing ==")
    started = time.perf_counter()
    shards = api.open_store(path)
    batch = shards.select("//article[@mdate]")
    open_seconds = time.perf_counter() - started
    print(f"open + batch query in {open_seconds * 1e3:.0f}ms "
          f"(vs {parse_seconds * 1e3:.0f}ms just to re-parse)")
    print("matches per shard: ", [len(result.nodes) for result in batch])
    shards.close()

    print()
    print("== Compiled queries run off the map, trees build on demand ==")
    with DocumentStore.open(path) as store:
        handle = store.document_at(0)
        plan = api.compile_query("//author", engine="compiled")
        orders = handle.orders(plan)  # straight off the columns
        print(f"shard0 //author: {len(orders)} matches, tree built: "
              f"{handle._document is not None}")
        document = handle.materialize()  # now a real Document
        print(f"materialized:    {len(document)} nodes, tree built: "
              f"{handle._document is not None}")
        print("first author:    ",
              api.select("//author", document)[0].string_value())

    print()
    print("== Damage is positioned and isolated, never a crash ==")
    with DocumentStore.open(path) as probe:
        damage_at = probe._entries[1].block_off + 16
    with open(path, "r+b") as stream:
        stream.seek(damage_at)
        stream.write(b"\xff\xff")
    store = DocumentStore.open(path)  # open-time checks still pass
    batch = StoredCollection(store).select("//article")
    for result in batch:
        status = "ok" if result.ok else f"FAILED ({result.error})"
        print(f"  {result.name}: {status}")
    store.close()


if __name__ == "__main__":
    main()
