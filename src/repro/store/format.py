"""Binary layout of the persistent document store (ISSUE 8).

A store file is the pre/post "XPath accelerator" encoding of the DMR-XPath
accel/content/attribute schema flattened into columnar arrays — exactly the
columns :class:`~repro.xmlmodel.index.DocumentIndex` serves to the compiled
engine, persisted so that loading a corpus is an ``mmap`` instead of a parse.

Layout (all integers little-endian; every section 8-byte aligned)::

    +--------------------------------------------------------------+
    | header (64 bytes)                                            |
    |   magic "REPROXS1" | version u32 | endian-mark u32           |
    |   doc_count u64 | toc_off u64 | toc_len u64                  |
    |   toc_crc u32 | payload_crc u32 | file_len u64 | reserved    |
    +--------------------------------------------------------------+
    | document block 0..doc_count-1 (columnar sections, aligned)   |
    |   subtree_end  n x i64     parent       n x i64              |
    |   depth        n x i64     type         n x u8  (padded)     |
    |   name_id      n x i64     value_id     n x i64  (-1 = none) |
    |   regular posting | 7 per-type postings | label directory    |
    |   + label posting data                                       |
    +--------------------------------------------------------------+
    | string table (shared, deduplicated)                          |
    |   offsets (count+1) x u64 | UTF-8 blob                       |
    +--------------------------------------------------------------+
    | TOC: string-table locator + doc_count fixed-size entries     |
    +--------------------------------------------------------------+

Versioning rules: ``MAGIC`` never changes; ``VERSION`` bumps on any layout
change and readers reject versions they do not know.  The endian mark is
written as ``0x01020304`` little-endian — a big-endian writer would produce
``0x04030201`` and be rejected, so files are byte-order portable only in the
sense of being refused loudly, never misread silently.

Integrity is layered: the magic/version/endian/TOC checks (plus the TOC
CRC32) run at open time in O(TOC); each document block carries its own CRC32
checked once on first access, so a damaged document poisons only itself; the
whole-payload CRC32 is checked by :meth:`DocumentStore.verify` (``store
info`` runs it) for offline auditing.
"""

from __future__ import annotations

import struct

from ..xmlmodel.nodes import NodeType

#: File magic: fixed for all versions of the format.
MAGIC = b"REPROXS1"

#: Format version; bump on any layout change.
VERSION = 1

#: Endianness canary, written little-endian.  Reads back as 0x04030201 if
#: the file was produced by (a hypothetical) big-endian writer.
ENDIAN_MARK = 0x01020304

#: Section alignment, bytes.
ALIGN = 8

#: Header: magic, version, endian, doc_count, toc_off, toc_len, toc_crc,
#: payload_crc, file_len, reserved.
HEADER = struct.Struct("<8sIIQQQIIQQ")
HEADER_SIZE = HEADER.size
assert HEADER_SIZE == 64

#: TOC prologue: string-table offsets_off, string_count, blob_off, blob_len.
STRING_TABLE_LOCATOR = struct.Struct("<QQQQ")

#: Stable node-type codes (the ``type`` column).  The order is part of the
#: format: codes >= SPECIAL_CODE_BASE are the attribute/namespace nodes
#: (``is_special_child``), so the ``special`` flags column is derived from
#: the type column with one ``bytes.translate``.
TYPE_CODE_ORDER: tuple[NodeType, ...] = (
    NodeType.ROOT,
    NodeType.ELEMENT,
    NodeType.TEXT,
    NodeType.COMMENT,
    NodeType.PROCESSING_INSTRUCTION,
    NodeType.ATTRIBUTE,
    NodeType.NAMESPACE,
)
TYPE_CODES: dict[NodeType, int] = {t: i for i, t in enumerate(TYPE_CODE_ORDER)}
TYPE_BY_CODE: tuple[NodeType, ...] = TYPE_CODE_ORDER
TYPE_COUNT = len(TYPE_CODE_ORDER)
SPECIAL_CODE_BASE = TYPE_CODES[NodeType.ATTRIBUTE]
assert SPECIAL_CODE_BASE == 5 and TYPE_CODES[NodeType.NAMESPACE] == 6

#: type-code byte -> 1 for attribute/namespace, 0 otherwise (other byte
#: values map to 0xFF so a corrupt type column is detectable downstream).
SPECIAL_TRANSLATE = bytes(
    (1 if code >= SPECIAL_CODE_BASE else 0) if code < TYPE_COUNT else 0xFF
    for code in range(256)
)

#: Per-document TOC entry.  All fields are 8 bytes; offsets are absolute
#: file offsets.  Fields, in order:
#:   name_id, id_attr_id, node_count, block_off, block_len, block_crc,
#:   subtree_end_off, parent_off, depth_off, type_off, name_col_off,
#:   value_col_off, regular_off, regular_count,
#:   (type_posting_off, type_posting_count) x TYPE_COUNT,
#:   label_dir_off, label_count.
DOC_ENTRY_FIELDS = 16 + 2 * TYPE_COUNT
DOC_ENTRY = struct.Struct("<" + "q" * DOC_ENTRY_FIELDS)
DOC_ENTRY_SIZE = DOC_ENTRY.size

#: Label-directory row: type_code, name_id, posting_off, posting_count.
LABEL_ENTRY = struct.Struct("<qqqq")
LABEL_ENTRY_SIZE = LABEL_ENTRY.size


def aligned(offset: int) -> int:
    """Round ``offset`` up to the next section boundary."""
    return (offset + ALIGN - 1) & ~(ALIGN - 1)
