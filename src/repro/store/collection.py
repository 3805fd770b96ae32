"""Store-backed collections: batch evaluation straight off a store file.

:class:`StoredCollection` plugs a :class:`~repro.store.reader.DocumentStore`
into the :class:`~repro.collection.Collection` batch machinery.  Internally
the collection holds :class:`~repro.store.reader.StoredDocument` handles —
the shared per-document evaluation step materialises them lazily inside its
error-isolation boundary, so a corrupt document fails alone — and the
parallel process backend ships those handles as ``(path, position)`` pickles
instead of whole trees: every worker reopens the store once (one mmap,
shared OS page cache) and serves all its chunks from it.
"""

from __future__ import annotations

import atexit
import os
import tempfile
from typing import Iterable, Optional, Sequence

from ..collection import Collection
from ..xmlmodel.document import Document
from .reader import DocumentStore
from .writer import build_store

#: Temporary store files created by :func:`_temp_store_path`, removed at
#: process exit.  They cannot be unlinked earlier: process workers reopen
#: stores *by path*, so the file must outlive every batch that ships it.
_TEMP_STORES: list[str] = []


def _cleanup_temp_stores() -> None:  # pragma: no cover - exit hook
    for path in _TEMP_STORES:
        try:
            os.unlink(path)
        except OSError:
            pass


def _temp_store_path() -> str:
    descriptor, path = tempfile.mkstemp(prefix="repro-store-", suffix=".reproxs")
    os.close(descriptor)
    if not _TEMP_STORES:
        atexit.register(_cleanup_temp_stores)
    _TEMP_STORES.append(path)
    return path


class StoredCollection(Collection):
    """A :class:`Collection` whose documents live in a store file.

    Batch entry points (``select`` / ``evaluate`` / the ``_many`` variants,
    serial or parallel, any backend) behave identically to an in-memory
    collection — same results, same per-document error isolation — but the
    corpus is materialised lazily: a document's tree is built from its
    mapped columns, at most once, when a batch first evaluates it, whatever
    the engine.

    Note the deliberate asymmetry: :attr:`documents` returns the raw
    :class:`~repro.store.reader.StoredDocument` handles (what the executor
    ships), while indexing/iterating the collection materialises, so
    ``collection[0]`` is a plain :class:`~repro.xmlmodel.document.Document`.
    """

    def __init__(
        self,
        store: DocumentStore,
        names: Optional[Sequence[str]] = None,
        *,
        session=None,
    ):
        self._store = store
        super().__init__(
            store.documents,
            names=names if names is not None else store.names,
            session=session,
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_documents(
        cls,
        documents: Iterable[Document],
        *,
        names: Optional[Sequence[str]] = None,
        path: Optional[str | os.PathLike] = None,
        session=None,
    ) -> "StoredCollection":
        """Persist parsed ``documents`` and return the store-backed twin.

        With ``path=None`` the store goes to a temporary file that lives
        until process exit (worker processes reopen it by path, so it must
        outlast the collection object itself).
        """
        target = os.fspath(path) if path is not None else _temp_store_path()
        build_store(target, documents, names)
        return cls(DocumentStore.open(target), names=names, session=session)

    @classmethod
    def from_sources(
        cls,
        sources: Iterable[str],
        *,
        strip_whitespace: bool = False,
        names: Optional[Sequence[str]] = None,
        session=None,
        path: Optional[str | os.PathLike] = None,
    ) -> "StoredCollection":
        """Parse XML texts, persist them, and return the stored collection.

        Sources are parsed **one at a time** and streamed straight into the
        store writer: each tree is serialised and dropped before the next
        source is parsed, so peak memory is a single tree — the whole point
        of the store's lazy ``materialize()`` story.
        """
        from ..xmlmodel.parser import parse_xml

        parsed = (
            parse_xml(source, strip_whitespace=strip_whitespace)
            for source in sources
        )
        return cls.from_documents(
            parsed, names=names, path=path, session=session
        )

    # ------------------------------------------------------------------
    # Store access
    # ------------------------------------------------------------------
    @property
    def store(self) -> DocumentStore:
        return self._store

    def close(self) -> None:
        """Close the underlying store (see ``DocumentStore.close``)."""
        self._store.close()

    # ------------------------------------------------------------------
    # Collection internals: materialise lazily, fail per document
    # ------------------------------------------------------------------
    def _document_at(self, index: int) -> Document:
        return self._documents[index].materialize()

    def _failure_document(self, index: int) -> Optional[Document]:
        # Never re-touch the store on the failure path: if materialisation
        # is what failed (corrupt block), doing it again here would raise
        # out of the batch loop instead of staying isolated.
        return self._documents[index]._document

    def __iter__(self):
        return (handle.materialize() for handle in self._documents)

    def __getitem__(self, index: int) -> Document:
        return self._documents[index].materialize()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StoredCollection of {len(self)} documents "
            f"from {self._store.path!r}>"
        )
