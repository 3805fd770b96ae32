"""ID/IDREF support: the paper's ``deref_ids`` function (§4).

:func:`deref_ids` maps a whitespace-separated string of IDs to the set of
referenced nodes.  It is a thin wrapper over the document's ID index, kept
as a free function to mirror the paper.  ``id()`` over a node set applies
it to each node's string value (Table II), in the tree engines and in the
array programs' ``id`` / ``id-inverse`` instructions alike.
"""

from __future__ import annotations

from .document import Document
from .nodes import Node


def deref_ids(document: Document, value: str) -> list[Node]:
    """Return the nodes whose IDs occur in the whitespace-separated ``value``."""
    return document.deref_ids(value)
