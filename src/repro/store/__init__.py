"""Persistent on-disk document store: parse once, serve forever (ISSUE 8).

The columnar, mmap-able document format of :mod:`repro.store.format` —
the DMR-XPath pre/post accelerator schema flattened into the exact columns
:class:`~repro.xmlmodel.index.DocumentIndex` already serves to the compiled
engine.  See :mod:`repro.store.writer` (build), :mod:`repro.store.reader`
(open/query) and :mod:`repro.store.collection` (batch integration).

Quickstart::

    from repro import api

    api.build_store("corpus.reproxs", documents, names)
    docs = api.open_store("corpus.reproxs")       # mmap, no parsing
    for result in docs.select("//item[@n='42']"):
        print(result.name, len(result.nodes))
"""

from ..errors import StoreCorruptError
from .collection import StoredCollection
from .format import MAGIC, VERSION
from .reader import (
    DocumentStore,
    StoredDocument,
    StoredIndexArrays,
    invalidate,
    open_cached,
)
from .writer import build_store, write_store

__all__ = [
    "MAGIC",
    "VERSION",
    "DocumentStore",
    "StoreCorruptError",
    "StoredCollection",
    "StoredDocument",
    "StoredIndexArrays",
    "build_store",
    "invalidate",
    "open_cached",
    "write_store",
]
