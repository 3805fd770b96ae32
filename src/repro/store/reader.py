"""Reader side of the persistent document store: mmap, validate, serve.

:meth:`DocumentStore.open` maps a store file read-only and validates its
header and TOC in O(TOC) — no column is touched, which is what makes opening
a corpus-scale store thousands of times faster than re-parsing it.  Each
:class:`StoredDocument` is a lazy handle over one document's columnar block:

* :meth:`StoredDocument.arrays` exposes the block *zero-copy* as a
  :class:`StoredIndexArrays` — the column contract of
  :class:`~repro.xmlmodel.index.DocumentIndex`, backed by ``memoryview``
  casts over the mmap — so :meth:`StoredDocument.orders` runs the compiled
  engine's array programs against the file directly;
* :meth:`StoredDocument.materialize` rebuilds the full ``Node`` tree (once,
  cached), stamping the resulting
  :class:`~repro.xmlmodel.document.Document` with its store origin so
  pickling it ships ``(path, position)`` instead of the whole tree.  The
  tree's own in-memory index serves every engine that evaluates it.

Integrity: every document block carries a CRC32 checked once on first
access, so on-disk damage surfaces as a positioned
:class:`~repro.errors.StoreCorruptError` for *that* document only — batch
runs keep their per-document isolation, workers never crash on a bad file.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
import zlib
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Optional, Sequence

from ..errors import StoreCorruptError
from ..faultinject import active_plan
from ..xmlmodel.document import Document, tree_from_preorder
from ..xmlmodel.index import StringMatchCache
from ..xmlmodel.nodes import NodeType
from . import format as fmt

_EMPTY_ORDERS: tuple[int, ...] = ()


class StoredIndexArrays:
    """Zero-copy twin of the :class:`~repro.xmlmodel.index.DocumentIndex`
    columns over a mmap.

    Satisfies the exact column contract the compiled engine's
    :func:`~repro.engines.compiled.execute_program` consumes — ``size``,
    ``parent``, ``special``, ``subtree_end``, ``regular``,
    ``type_orders()``, ``label_orders()``, ``string_value()``,
    ``string_match()`` — except the integer columns are ``memoryview('q')``
    casts over the mapped file, so evaluation reads pages straight from the
    OS page cache (shared across every process that mapped the same store).
    """

    __slots__ = (
        "size",
        "parent",
        "special",
        "subtree_end",
        "regular",
        "_stored",
        "_type_postings",
        "_label_locations",
        "_label_cache",
        "_value_col",
        "_type_bytes",
        "_strvals",
        "_string_match_cache",
    )

    def __init__(self, stored: "StoredDocument"):
        store = stored.store
        entry = stored._entry
        n = entry.node_count
        self.size = n
        self._stored = stored
        self.subtree_end = store._column(entry.subtree_end_off, n)
        self.parent = store._column(entry.parent_off, n)
        self.regular = store._column(entry.regular_off, entry.regular_count)
        self._value_col = store._column(entry.value_col_off, n)
        type_bytes = bytes(store._bytes(entry.type_off, n))
        self._type_bytes = type_bytes
        special = type_bytes.translate(fmt.SPECIAL_TRANSLATE)
        if 0xFF in special:
            raise StoreCorruptError(
                "invalid node-type code in type column",
                path=store.path,
                position=stored.position,
                offset=entry.type_off,
            )
        self.special = special
        self._type_postings = {
            node_type: store._column(off, count)
            for node_type, (off, count) in zip(
                fmt.TYPE_CODE_ORDER, entry.type_postings
            )
        }
        self._label_locations: Optional[dict[tuple[int, int], tuple[int, int]]] = None
        self._label_cache: dict[tuple[NodeType, str], Sequence[int]] = {}
        self._strvals: Optional[list[str]] = None
        self._string_match_cache = StringMatchCache()

    # -- column contract ------------------------------------------------
    def type_orders(self, node_type: NodeType) -> Sequence[int]:
        return self._type_postings[node_type]

    def label_orders(self, node_type: NodeType, name: str) -> Sequence[int]:
        cached = self._label_cache.get((node_type, name))
        if cached is None:
            cached = self._load_label(node_type, name)
            self._label_cache[(node_type, name)] = cached
        return cached

    def string_value(self, order: int) -> str:
        """The XPath string-value of the node at ``order``, from the columns."""
        return self._string_values()[order]

    def string_match(self, value: str, negated: bool) -> Sequence[int]:
        """Orders whose XPath string-value equals (differs from) ``value``.

        Computed purely from the columns: value-carrying nodes read their
        interned string, element/root nodes join the text posting list over
        their subtree interval — no ``Node`` is ever materialised.  One
        linear scan per literal, cached (and bounded) like the in-memory
        index's.
        """
        return self._string_match_cache.match(
            value, negated, self.size, self._string_values
        )

    # -- internals ------------------------------------------------------
    def _load_label(self, node_type: NodeType, name: str) -> Sequence[int]:
        store = self._stored.store
        locations = self._label_locations
        if locations is None:
            locations = {}
            entry = self._stored._entry
            base = entry.label_dir_off
            for row in range(entry.label_count):
                type_code, name_id, off, count = fmt.LABEL_ENTRY.unpack_from(
                    store._view, base + row * fmt.LABEL_ENTRY_SIZE
                )
                locations[(type_code, name_id)] = (off, count)
            self._label_locations = locations
        name_id = store.string_id(name)
        if name_id is None:
            return _EMPTY_ORDERS
        location = locations.get((fmt.TYPE_CODES[node_type], name_id))
        if location is None:
            return _EMPTY_ORDERS
        return store._column(*location)

    def _string_values(self) -> list[str]:
        strvals = self._strvals
        if strvals is None:
            store = self._stored.store
            type_bytes = self._type_bytes
            value_col = self._value_col
            subtree_end = self.subtree_end
            text_orders = self._type_postings[NodeType.TEXT]
            text_values = [
                store.string_at(value_col[k]) if value_col[k] >= 0 else ""
                for k in text_orders
            ]
            element_code = fmt.TYPE_CODES[NodeType.ELEMENT]
            root_code = fmt.TYPE_CODES[NodeType.ROOT]
            strvals = [""] * self.size
            for k in range(self.size):
                code = type_bytes[k]
                if code == element_code or code == root_code:
                    lo = bisect_left(text_orders, k + 1)
                    hi = bisect_right(text_orders, subtree_end[k])
                    strvals[k] = "".join(text_values[lo:hi])
                else:
                    vid = value_col[k]
                    strvals[k] = store.string_at(vid) if vid >= 0 else ""
            self._strvals = strvals
        return strvals


class _DocEntry:
    """Decoded per-document TOC entry (see ``format.DOC_ENTRY``)."""

    __slots__ = (
        "name_id",
        "id_attr_id",
        "node_count",
        "block_off",
        "block_len",
        "block_crc",
        "subtree_end_off",
        "parent_off",
        "depth_off",
        "type_off",
        "name_col_off",
        "value_col_off",
        "regular_off",
        "regular_count",
        "type_postings",
        "label_dir_off",
        "label_count",
    )

    def __init__(self, fields: tuple[int, ...]):
        (
            self.name_id,
            self.id_attr_id,
            self.node_count,
            self.block_off,
            self.block_len,
            self.block_crc,
            self.subtree_end_off,
            self.parent_off,
            self.depth_off,
            self.type_off,
            self.name_col_off,
            self.value_col_off,
            self.regular_off,
            self.regular_count,
        ) = fields[:14]
        postings = fields[14 : 14 + 2 * fmt.TYPE_COUNT]
        self.type_postings = tuple(
            (postings[2 * i], postings[2 * i + 1]) for i in range(fmt.TYPE_COUNT)
        )
        self.label_dir_off, self.label_count = fields[14 + 2 * fmt.TYPE_COUNT :]


class StoredDocument:
    """A lazy handle over one document of an open :class:`DocumentStore`.

    Cheap to create and to pickle (it travels as ``(path, position)``);
    the tree is built once, by :meth:`materialize`, which every query path
    (batches, ``store query``, the server) calls.  :meth:`orders` runs a
    compiled plan's array program straight off the mapped columns instead,
    without a tree.
    """

    __slots__ = ("store", "position", "_entry", "_document", "_arrays", "_checked")

    def __init__(self, store: "DocumentStore", position: int, entry: _DocEntry):
        self.store = store
        self.position = position
        self._entry = entry
        self._document: Optional[Document] = None
        self._arrays: Optional[StoredIndexArrays] = None
        self._checked = False

    # -- metadata -------------------------------------------------------
    @property
    def name(self) -> Optional[str]:
        """The collection name the document was stored under, if any."""
        name_id = self._entry.name_id
        return self.store.string_at(name_id) if name_id >= 0 else None

    @property
    def node_count(self) -> int:
        return self._entry.node_count

    @property
    def id_attribute(self) -> str:
        return self.store.string_at(self._entry.id_attr_id)

    # -- integrity ------------------------------------------------------
    def _check(self) -> None:
        """Fire the ``store`` fault site and CRC-check this document's block
        (once).  A mismatch is a positioned, per-document error — exactly
        what the batch paths isolate."""
        faults = active_plan()
        if faults is not None:
            faults.fire("store", indices=(self.position,))
        if self._checked:
            return
        entry = self._entry
        block = self.store._bytes(entry.block_off, entry.block_len)
        if zlib.crc32(block) != entry.block_crc:
            raise StoreCorruptError(
                "document block checksum mismatch",
                path=self.store.path,
                position=self.position,
                offset=entry.block_off,
            )
        self._checked = True

    # -- zero-copy access ----------------------------------------------
    def arrays(self) -> StoredIndexArrays:
        """The document's columns as a compiled-engine view, zero-copy."""
        view = self._arrays
        if view is None:
            self._check()
            view = StoredIndexArrays(self)
            self._arrays = view
        return view

    def orders(self, plan) -> Optional[list[int]]:
        """Evaluate a compilable plan against the file directly.

        Runs the plan's array program over the mapped columns with the
        virtual root as context — no tree, no ``Node`` objects.  Returns
        the result node orders, or ``None`` when the plan is outside the
        compiled fragment, its answer is a number (``count(…)``), or it
        reads the ID map (``id(…)``), which the columns do not hold;
        callers then fall back to :meth:`materialize`.
        """
        program = plan.array_program()
        if program is None or program.count or program.reads_document:
            return None
        from ..engines.compiled import execute_program  # deferred: cycle-free

        return list(execute_program(program, self.arrays(), (0,)))

    # -- tree materialisation -------------------------------------------
    def materialize(self) -> Document:
        """Rebuild (once) and return the full ``Document`` tree.

        The type, name, value and parent columns are the preorder rows
        :func:`~repro.xmlmodel.document.tree_from_preorder` links, as when a
        pickled document is rebuilt; ``freeze()`` then reassigns the
        identical document orders.  The resulting document's pickle ships
        the store path instead of the tree.
        """
        document = self._document
        if document is not None:
            if document.generation == 0:
                return document
            # The caller edited the cached tree: it divorced the store on
            # its first edit (store_detached) and no longer reflects this
            # block.  The handle keeps describing the *stored* content, so
            # rebuild a fresh generation-0 tree; the edited document lives
            # on independently with whoever holds it.
            self._document = None
        self._check()
        store = self.store
        entry = self._entry
        n = entry.node_count
        type_codes = store._bytes(entry.type_off, n)
        parent_col = store._column(entry.parent_off, n)
        name_col = store._column(entry.name_col_off, n)
        value_col = store._column(entry.value_col_off, n)
        string_at = store.string_at
        try:
            types = [fmt.TYPE_BY_CODE[code] for code in type_codes]
            names = [string_at(k) if k >= 0 else None for k in name_col]
            values = [string_at(k) if k >= 0 else None for k in value_col]
            root = tree_from_preorder(zip(types, names, values, parent_col))
            if root is None or root.node_type is not NodeType.ROOT:
                raise ValueError("store block has no root node")
            document = Document(root, self.id_attribute).freeze()
        except StoreCorruptError:
            raise
        except (ValueError, IndexError, KeyError) as error:
            # The block CRC passed but the decoded structure is inconsistent
            # (possible only against a buggy/forged writer): still a
            # positioned per-document error, never a crash.
            raise StoreCorruptError(
                f"inconsistent document block: {error}",
                path=store.path,
                position=self.position,
                offset=entry.block_off,
            ) from error
        document._store_origin = (store.path, self.position)
        self._document = document
        return document

    # -- lifetime -------------------------------------------------------
    def detach(self) -> None:
        """Divorce any live materialised tree from the store mapping.

        Called by :meth:`DocumentStore.close` before the mmap is released:
        the document loses its store origin so pickling it never points a
        receiving process at a closed/rewritten file (its index is in
        memory and needs nothing from the mapping).  The handle itself
        stays cached but forgets the tree — it describes a mapping that is
        going away.
        """
        document = self._document
        self._document = None
        self._arrays = None
        if document is None:
            return
        document._store_origin = None
        document.store_detached = True

    # -- pickling: ship the path, not the tree --------------------------
    def __reduce__(self):
        return (_reopen_stored, (self.store.path, self.position))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StoredDocument #{self.position} nodes={self.node_count} "
            f"of {self.store.path!r}>"
        )


class DocumentStore:
    """A read-only, mmap-backed collection of stored documents.

    Open with :meth:`open` (validates magic, version, endianness, length
    and the TOC checksum — O(TOC), no document data is read); build files
    with :meth:`build`.  The store yields :class:`StoredDocument` handles;
    see the module docstring for their laziness contract.

    mmap lifetime: :meth:`close` unmaps the file if no column view is still
    exported; otherwise the unmap is deferred to garbage collection (a
    ``memoryview`` over a closed map would segfault, so Python refuses —
    we lean on that instead of tracking views).  Stores are also context
    managers.
    """

    def __init__(self, path: str, mapped: mmap.mmap):
        """Internal; use :meth:`DocumentStore.open`."""
        self.path = path
        self._mmap = mapped
        self._view = memoryview(mapped)
        self._file_len = len(mapped)
        self._payload_end = 0  # set by _load, before any section access
        self._strings_cache: dict[int, str] = {}
        self._string_ids: Optional[dict[str, int]] = None
        self._documents: list[Optional[StoredDocument]] = []
        self._lock = threading.Lock()
        self._load()

    # -- construction ---------------------------------------------------
    @classmethod
    def open(cls, path: str | os.PathLike) -> "DocumentStore":
        """Map ``path`` and validate its header/TOC.

        Raises :class:`~repro.errors.StoreCorruptError` for anything that
        is not a healthy store of this format version; plain ``OSError``
        only for filesystem-level failures (missing file, permissions).
        """
        path = os.fspath(path)
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size < fmt.HEADER_SIZE:
                raise StoreCorruptError(
                    "file too short to be a document store", path=path, offset=size
                )
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        return cls(path, mapped)

    @classmethod
    def build(
        cls,
        path: str | os.PathLike,
        documents,
        names: Optional[Sequence[Optional[str]]] = None,
    ) -> "DocumentStore":
        """Write ``documents`` to ``path`` and open the result."""
        from .writer import build_store  # deferred: writer pulls in more

        return cls.open(build_store(path, documents, names))

    def _corrupt(self, message: str, offset: Optional[int] = None) -> StoreCorruptError:
        return StoreCorruptError(message, path=self.path, offset=offset)

    def _load(self) -> None:
        try:
            (
                magic,
                version,
                endian,
                doc_count,
                toc_off,
                toc_len,
                toc_crc,
                payload_crc,
                file_len,
                _reserved,
            ) = fmt.HEADER.unpack_from(self._view, 0)
        except struct.error as error:  # pragma: no cover - length checked above
            raise self._corrupt(f"unreadable header: {error}", offset=0) from error
        if magic != fmt.MAGIC:
            raise self._corrupt("not a document store (bad magic)", offset=0)
        if version != fmt.VERSION:
            raise self._corrupt(
                f"unsupported store format version {version} "
                f"(this reader understands version {fmt.VERSION})",
                offset=8,
            )
        if endian != fmt.ENDIAN_MARK:
            raise self._corrupt(
                "byte-order mismatch (store written on an incompatible platform)",
                offset=12,
            )
        if file_len != self._file_len:
            raise self._corrupt(
                f"truncated or padded store file "
                f"(header says {file_len} bytes, file has {self._file_len})",
                offset=min(file_len, self._file_len),
            )
        if (
            toc_off < fmt.HEADER_SIZE
            or toc_len < fmt.STRING_TABLE_LOCATOR.size
            or toc_off + toc_len > self._file_len
        ):
            raise self._corrupt("TOC location out of bounds", offset=toc_off)
        toc = bytes(self._view[toc_off : toc_off + toc_len])
        if zlib.crc32(toc) != toc_crc:
            raise self._corrupt("TOC checksum mismatch", offset=toc_off)
        expected = fmt.STRING_TABLE_LOCATOR.size + doc_count * fmt.DOC_ENTRY_SIZE
        if toc_len != expected:
            raise self._corrupt(
                f"TOC length {toc_len} does not match {doc_count} document(s)",
                offset=toc_off,
            )
        self._payload_end = toc_off
        self._payload_crc = payload_crc
        self._toc_off = toc_off
        (
            self._string_offsets_off,
            self._string_count,
            self._string_blob_off,
            self._string_blob_len,
        ) = fmt.STRING_TABLE_LOCATOR.unpack_from(toc, 0)
        self._string_offsets = self._column(
            self._string_offsets_off, self._string_count + 1
        )
        if (
            self._string_blob_off < fmt.HEADER_SIZE
            or self._string_blob_off + self._string_blob_len > self._payload_end
            or self._string_offsets[self._string_count] != self._string_blob_len
        ):
            raise self._corrupt(
                "string table out of bounds", offset=self._string_blob_off
            )
        entries_base = fmt.STRING_TABLE_LOCATOR.size
        self._entries = [
            _DocEntry(
                fmt.DOC_ENTRY.unpack_from(
                    toc, entries_base + position * fmt.DOC_ENTRY_SIZE
                )
            )
            for position in range(doc_count)
        ]
        for position, entry in enumerate(self._entries):
            if (
                entry.block_off < fmt.HEADER_SIZE
                or entry.block_off + entry.block_len > self._payload_end
                or entry.node_count < 1
            ):
                raise StoreCorruptError(
                    "document block out of bounds",
                    path=self.path,
                    position=position,
                    offset=entry.block_off,
                )
        self._documents = [None] * doc_count

    # -- section access -------------------------------------------------
    def _bytes(self, offset: int, length: int) -> memoryview:
        if offset < fmt.HEADER_SIZE or offset + length > self._payload_end:
            raise self._corrupt("section out of bounds", offset=offset)
        return self._view[offset : offset + length]

    def _column(self, offset: int, count: int) -> memoryview:
        """An i64 column at ``offset`` as a ``memoryview('q')``."""
        if offset % fmt.ALIGN:
            raise self._corrupt("misaligned section", offset=offset)
        return self._bytes(offset, 8 * count).cast("q")

    # -- string table ---------------------------------------------------
    def string_at(self, index: int) -> str:
        """Decode (and cache) string-table entry ``index``."""
        cached = self._strings_cache.get(index)
        if cached is None:
            if not 0 <= index < self._string_count:
                raise self._corrupt(f"string id {index} out of range")
            start = self._string_offsets[index]
            end = self._string_offsets[index + 1]
            if not 0 <= start <= end <= self._string_blob_len:
                raise self._corrupt("string table offsets corrupt")
            raw = self._view[
                self._string_blob_off + start : self._string_blob_off + end
            ]
            try:
                cached = str(raw, "utf-8")
            except UnicodeDecodeError as error:
                raise self._corrupt(f"undecodable string table entry: {error}") from error
            self._strings_cache[index] = cached
        return cached

    def string_id(self, value: str) -> Optional[int]:
        """Reverse string-table lookup (for label postings); ``None`` when
        the string never occurs in this store."""
        ids = self._string_ids
        if ids is None:
            ids = {self.string_at(i): i for i in range(self._string_count)}
            self._string_ids = ids
        return ids.get(value)

    # -- documents ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._documents)

    def document_at(self, position: int) -> StoredDocument:
        """The (cached) handle for document ``position``."""
        if not 0 <= position < len(self._documents):
            raise IndexError(
                f"store holds {len(self._documents)} document(s), "
                f"position {position} requested"
            )
        handle = self._documents[position]
        if handle is None:
            with self._lock:
                handle = self._documents[position]
                if handle is None:
                    handle = StoredDocument(self, position, self._entries[position])
                    self._documents[position] = handle
        return handle

    @property
    def documents(self) -> tuple[StoredDocument, ...]:
        """All document handles, in store order (lazy, nothing is read)."""
        return tuple(self.document_at(i) for i in range(len(self._documents)))

    @property
    def names(self) -> tuple[str, ...]:
        """Collection names, defaulting to ``doc[i]`` where none was stored."""
        return tuple(
            handle.name if handle.name is not None else f"doc[{handle.position}]"
            for handle in self.documents
        )

    # -- integrity / info ----------------------------------------------
    def verify(self) -> bool:
        """Full-payload CRC audit (``store info`` runs this).

        O(file size) — open-time validation intentionally covers only the
        header and TOC.  Raises :class:`StoreCorruptError` on mismatch.
        """
        payload = self._view[fmt.HEADER_SIZE : self._payload_end]
        if zlib.crc32(payload) != self._payload_crc:
            raise self._corrupt("payload checksum mismatch", offset=fmt.HEADER_SIZE)
        for position in range(len(self._documents)):
            self.document_at(position)._check()
        return True

    def info(self) -> dict:
        """Header/TOC summary (the ``store info`` CLI payload).

        ``materialized_generations`` maps document position → the live
        materialised tree's edit generation: ``0`` means the tree still
        mirrors the stored block, anything higher means the caller edited
        it (the tree has divorced the store and the handle will rebuild a
        fresh generation-0 tree on its next ``materialize()``).
        """
        generations = {
            handle.position: handle._document.generation
            for handle in self._documents
            if handle is not None and handle._document is not None
        }
        return {
            "path": self.path,
            "version": fmt.VERSION,
            "file_bytes": self._file_len,
            "documents": len(self._documents),
            "nodes": sum(entry.node_count for entry in self._entries),
            "strings": self._string_count,
            "string_blob_bytes": self._string_blob_len,
            "materialized_generations": generations,
        }

    # -- lifetime -------------------------------------------------------
    def close(self) -> None:
        """Unmap the file, or defer to GC if column views are still live.

        Live materialised trees are detached first
        (:meth:`StoredDocument.detach`): they lose their store origin, so a
        tree that outlives its store never pickles as a pointer into a
        released mapping.

        The store's own internal view (the string-offsets column) is
        released first, so a store whose column views nobody else holds
        unmaps deterministically — before this, every ``close()`` deferred
        to garbage collection because of that one internal export.
        """
        for handle in self._documents:
            if handle is not None:
                handle.detach()
        offsets = self._string_offsets
        if offsets is not None:
            self._string_offsets = None
            try:
                offsets.release()
            except BufferError:  # pragma: no cover - defensive
                pass
        try:
            self._view.release()
        except BufferError:  # pragma: no cover - depends on caller's views
            pass
        try:
            self._mmap.close()
        except BufferError:
            # Exported memoryviews (columns handed to an engine) keep the
            # mapping alive; it is unmapped when they are collected.
            pass

    def __enter__(self) -> "DocumentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DocumentStore {self.path!r} documents={len(self._documents)}>"


# ----------------------------------------------------------------------
# Process-wide reopen cache (the unpickle path of store-origin documents)
# ----------------------------------------------------------------------
#: path -> (mtime_ns, size, store), in least-recently-used order.  Keyed on
#: file identity so a rebuilt store at the same path is reopened, not served
#: stale — and the superseded mapping is *closed*, not merely dropped: every
#: rebuild used to leak one mmap + file descriptor for the life of the
#: process.  ``close()`` is safe on a store whose column views are still
#: exported (the unmap defers to garbage collection); a handle into a
#: superseded store is stale by definition and may raise on later access.
_STORE_CACHE: "OrderedDict[str, tuple[int, int, DocumentStore]]" = OrderedDict()
_STORE_CACHE_LOCK = threading.Lock()

#: Bound on distinct store files cached per process.  Long-lived servers
#: open one store and never feel this; the bound exists so a process that
#: walks many store files cannot accumulate unbounded mappings.
STORE_CACHE_SIZE = 16


def open_cached(path: str | os.PathLike) -> DocumentStore:
    """Open ``path``, reusing one mapping per file per process.

    This is what worker processes hit when a chunk of stored documents
    arrives: every document of every chunk from the same store shares a
    single mmap, so shipping N documents costs N tiny ``(path, position)``
    pickles and one map.  The cache holds at most :data:`STORE_CACHE_SIZE`
    files: the least recently used mapping is closed when the bound is
    exceeded, as is a mapping superseded by a rebuilt file (changed
    ``(mtime_ns, size)`` signature) and the losing mapping of a
    concurrent-open race.
    """
    path = os.path.abspath(os.fspath(path))
    stat = os.stat(path)
    signature = (stat.st_mtime_ns, stat.st_size)
    with _STORE_CACHE_LOCK:
        cached = _STORE_CACHE.get(path)
        if cached is not None and (cached[0], cached[1]) == signature:
            _STORE_CACHE.move_to_end(path)
            return cached[2]
    store = DocumentStore.open(path)
    stale: list[DocumentStore] = []
    with _STORE_CACHE_LOCK:
        cached = _STORE_CACHE.get(path)
        if cached is not None and (cached[0], cached[1]) == signature:
            # Lost the double-checked race: another thread published this
            # signature first.  Our freshly opened mapping is redundant —
            # close it instead of dropping it unmapped.
            stale.append(store)
            store = cached[2]
            _STORE_CACHE.move_to_end(path)
        else:
            if cached is not None:
                # The file was rebuilt under the same path: the superseded
                # mapping would otherwise leak for the process lifetime.
                stale.append(cached[2])
            _STORE_CACHE[path] = (signature[0], signature[1], store)
            _STORE_CACHE.move_to_end(path)
            while len(_STORE_CACHE) > STORE_CACHE_SIZE:
                _, (_, _, evicted) = _STORE_CACHE.popitem(last=False)
                stale.append(evicted)
    for superseded in stale:
        superseded.close()
    return store


def invalidate(path: str | os.PathLike) -> bool:
    """Drop (and close) the cached mapping for ``path``, if any.

    Returns ``True`` when a mapping was cached and has been closed.  Use
    after deleting or deliberately rewriting a store file in-process; the
    next :func:`open_cached` call maps the file afresh.
    """
    path = os.path.abspath(os.fspath(path))
    with _STORE_CACHE_LOCK:
        cached = _STORE_CACHE.pop(path, None)
    if cached is None:
        return False
    cached[2].close()
    return True


def _reopen_stored(path: str, position: int) -> StoredDocument:
    """Unpickle counterpart of :meth:`StoredDocument.__reduce__`."""
    return open_cached(path).document_at(position)
