"""Writer side of the persistent document store.

``DocumentStore.build`` (re-exported here as :func:`build_store`) serialises
frozen documents into the columnar format of :mod:`repro.store.format`.  The
columns are exactly what :class:`~repro.xmlmodel.index.DocumentIndex` holds
in memory, so the writer walks each document's index once and streams the
sections out; strings (names, text/attribute values, document names, the id
attribute) are interned into one shared, deduplicated table.
"""

from __future__ import annotations

import os
import zlib
from array import array
from typing import IO, Iterable, Optional, Sequence

from ..xmlmodel.document import Document
from . import format as fmt


class _StringTable:
    """Deduplicating string interner; id 0 is always the empty string."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {"": 0}
        self._strings: list[str] = [""]

    def intern(self, value: Optional[str]) -> int:
        """Intern ``value``; ``None`` maps to -1 (column null)."""
        if value is None:
            return -1
        found = self._ids.get(value)
        if found is None:
            found = len(self._strings)
            self._ids[value] = found
            self._strings.append(value)
        return found

    def sections(self) -> tuple[bytes, bytes]:
        """Return the (offsets array, UTF-8 blob) section payloads."""
        blobs = [s.encode("utf-8") for s in self._strings]
        offsets = array("Q", [0] * (len(blobs) + 1))
        total = 0
        for i, encoded in enumerate(blobs):
            total += len(encoded)
            offsets[i + 1] = total
        return offsets.tobytes(), b"".join(blobs)


class _Writer:
    """Tracks the write cursor and section alignment over a binary stream."""

    def __init__(self, stream: IO[bytes]):
        self._stream = stream
        self.offset = 0
        self.crc = 0  # cumulative payload CRC (everything after the header)
        self.block_crc = 0  # per-document-block CRC, reset by begin_block()

    def align(self) -> None:
        pad = fmt.aligned(self.offset) - self.offset
        if pad:
            self._put(b"\x00" * pad)

    def begin_block(self) -> int:
        """Start a document block: align first (the padding belongs to the
        *previous* region), then reset the block CRC.  The reader checksums
        the raw byte range ``[block_off, block_off + block_len)``, so the
        block CRC must cover interior section padding too — ``_put`` feeds
        it everything written from here on."""
        self.align()
        self.block_crc = 0
        return self.offset

    def write(self, payload: bytes) -> int:
        """Write an aligned section; returns its absolute file offset."""
        self.align()
        start = self.offset
        self._put(payload)
        return start

    def _put(self, payload: bytes) -> None:
        self._stream.write(payload)
        self.crc = zlib.crc32(payload, self.crc)
        self.block_crc = zlib.crc32(payload, self.block_crc)
        self.offset += len(payload)


def _document_columns(document: Document, strings: _StringTable):
    """Extract the per-document columnar sections from its index."""
    index = document.index
    nodes = index.nodes
    n = len(nodes)
    parent = array("q", index.parent)
    depth = array("q", [0] * n)
    name_id = array("q", [0] * n)
    value_id = array("q", [0] * n)
    type_col = bytearray(n)
    for k, node in enumerate(nodes):
        p = parent[k]
        depth[k] = depth[p] + 1 if p >= 0 else 0
        type_col[k] = fmt.TYPE_CODES[node.node_type]
        name_id[k] = strings.intern(node.name)
        value_id[k] = strings.intern(node.value)
    subtree_end = array("q", index.subtree_end)
    regular = array("q", index.regular)
    type_postings = [
        array("q", index._by_type_orders[node_type])
        for node_type in fmt.TYPE_CODE_ORDER
    ]
    labels = sorted(
        (
            (fmt.TYPE_CODES[node_type], strings.intern(name), array("q", orders))
            for (node_type, name), orders in index._by_label_orders.items()
        ),
        key=lambda entry: (entry[0], entry[1]),
    )
    return n, subtree_end, parent, depth, bytes(type_col), name_id, value_id, regular, type_postings, labels


def write_store(
    stream: IO[bytes],
    documents: Iterable[Document],
    names: Optional[Sequence[Optional[str]]] = None,
) -> None:
    """Serialise ``documents`` into ``stream`` (seekable, binary, writable).

    ``documents`` may be any iterable — including a generator — and is
    consumed one document at a time: each document's columns are streamed
    out before the next is pulled, so peak memory is a single document
    plus the shared string table, never the whole corpus.
    """
    strings = _StringTable()
    writer = _Writer(stream)
    writer.write(b"\x00" * fmt.HEADER_SIZE)  # placeholder, rewritten below
    writer.crc = 0  # the payload CRC covers everything *after* the header

    entries: list[tuple[int, ...]] = []
    for position, document in enumerate(documents):
        if names is None:
            doc_name = None
        else:
            try:
                doc_name = names[position]
            except IndexError:
                raise ValueError(
                    "names and documents must have the same length"
                ) from None
        if not isinstance(document, Document):
            raise TypeError(f"expected a Document, got {type(document).__name__}")
        document._require_frozen()
        (
            n,
            subtree_end,
            parent,
            depth,
            type_col,
            name_id,
            value_id,
            regular,
            type_postings,
            labels,
        ) = _document_columns(document, strings)

        block_off = writer.begin_block()
        subtree_end_off = writer.write(subtree_end.tobytes())
        parent_off = writer.write(parent.tobytes())
        depth_off = writer.write(depth.tobytes())
        type_off = writer.write(type_col)
        name_col_off = writer.write(name_id.tobytes())
        value_col_off = writer.write(value_id.tobytes())
        regular_off = writer.write(regular.tobytes())
        type_posting_locs: list[int] = []
        for posting in type_postings:
            type_posting_locs.append(writer.write(posting.tobytes()))
            type_posting_locs.append(len(posting))
        label_rows = []
        for type_code, label_name_id, orders in labels:
            posting_off = writer.write(orders.tobytes())
            label_rows.append(
                fmt.LABEL_ENTRY.pack(type_code, label_name_id, posting_off, len(orders))
            )
        label_dir_off = writer.write(b"".join(label_rows))
        block_len = writer.offset - block_off
        block_crc = writer.block_crc

        entries.append(
            (
                strings.intern(doc_name),
                strings.intern(document.id_attribute),
                n,
                block_off,
                block_len,
                block_crc,
                subtree_end_off,
                parent_off,
                depth_off,
                type_off,
                name_col_off,
                value_col_off,
                regular_off,
                len(regular),
                *type_posting_locs,
                label_dir_off,
                len(labels),
            )
        )

    if names is not None and len(names) != len(entries):
        raise ValueError("names and documents must have the same length")

    offsets_payload, blob_payload = strings.sections()
    string_count = len(offsets_payload) // 8 - 1
    offsets_off = writer.write(offsets_payload)
    blob_off = writer.write(blob_payload)
    # Align before capturing: the payload CRC covers [header end, TOC start),
    # which includes any padding ahead of the TOC.
    writer.align()
    payload_crc = writer.crc

    toc = bytearray()
    toc += fmt.STRING_TABLE_LOCATOR.pack(
        offsets_off, string_count, blob_off, len(blob_payload)
    )
    for entry in entries:
        toc += fmt.DOC_ENTRY.pack(*entry)
    toc_bytes = bytes(toc)
    toc_off = writer.write(toc_bytes)
    file_len = writer.offset

    header = fmt.HEADER.pack(
        fmt.MAGIC,
        fmt.VERSION,
        fmt.ENDIAN_MARK,
        len(entries),
        toc_off,
        len(toc_bytes),
        zlib.crc32(toc_bytes),
        payload_crc,
        file_len,
        0,
    )
    stream.seek(0)
    stream.write(header)
    stream.flush()


def build_store(
    path: str | os.PathLike,
    documents: Iterable[Document],
    names: Optional[Sequence[Optional[str]]] = None,
) -> str:
    """Write ``documents`` to a new store file at ``path``.

    The file is written to a uniquely named sibling temporary file, synced
    to disk and moved into place, and then the directory is synced too:
    readers never observe a half-written store, a crash never replaces a
    good store with a truncated one, and concurrent builds of one path
    never share a temporary file (the last replace wins).  ``documents``
    may be a generator — it is streamed straight into :func:`write_store`
    without being materialised.  Returns the final path.
    """
    final = os.fspath(path)
    tmp = f"{final}.tmp.{os.urandom(8).hex()}"
    try:
        # "x": exclusive create, with the default permissions (mkstemp's
        # would be owner-only).
        with open(tmp, "xb") as stream:
            write_store(stream, documents, names)
            os.fsync(stream.fileno())
        os.replace(tmp, final)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - error cleanup
            os.unlink(tmp)
    directory = os.open(os.path.dirname(os.path.abspath(final)), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return final
