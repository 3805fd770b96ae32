"""Evaluation contexts (paper Section 5).

Every XPath expression is evaluated relative to a context
``c = ⟨x, k, n⟩`` consisting of a context node, a context position and a
context size, with ``1 ≤ k ≤ n ≤ |dom|``.  The *domain of contexts* is
``C = dom × {⟨k, n⟩ | 1 ≤ k ≤ n ≤ |dom|}``.

Besides the context triple itself, a :class:`StaticContext` carries what the
recommendation calls the "expression context" minus the dynamic part:
variable bindings and the document being queried.  The paper folds variable
bindings away by assuming each variable is replaced by its constant value;
we keep them explicit so that queries with variables are still supported,
and the engines consult the static context when they meet a variable
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from ..errors import VariableBindingError
from ..xmlmodel.document import Document
from ..xmlmodel.nodes import Node
from .values import XPathValue


@dataclass(frozen=True)
class Context:
    """A dynamic evaluation context ⟨x, k, n⟩."""

    node: Node
    position: int = 1
    size: int = 1

    def __post_init__(self) -> None:
        if not (1 <= self.position <= self.size):
            raise ValueError(
                f"invalid context: position {self.position} not in 1..{self.size}"
            )

    def triple(self) -> tuple[Node, int, int]:
        return (self.node, self.position, self.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"⟨{self.node!r}, {self.position}, {self.size}⟩"


@dataclass
class StaticContext:
    """Per-query static information: the document and variable bindings."""

    document: Document
    variables: Mapping[str, XPathValue] = field(default_factory=dict)

    def variable(self, name: str) -> XPathValue:
        """Look up a variable binding; raise if absent."""
        try:
            return self.variables[name]
        except KeyError:
            raise VariableBindingError(name) from None


def root_context(document: Document) -> Context:
    """The canonical initial context ⟨root, 1, 1⟩ used for absolute queries."""
    return Context(document.root, 1, 1)


def document_element_context(document: Document) -> Context:
    """A context positioned at the document element (handy in examples)."""
    element = document.document_element
    if element is None:
        raise ValueError("document has no document element")
    return Context(element, 1, 1)


def context_domain(document: Document, max_size: Optional[int] = None) -> Iterator[Context]:
    """Enumerate the full context domain C of the paper (for tests).

    The domain has |dom| · |dom| · (|dom| + 1) / 2 elements; ``max_size``
    caps the admitted context sizes so the enumeration stays tractable for
    property-based tests on small documents.
    """
    dom = document.dom
    limit = len(dom) if max_size is None else min(max_size, len(dom))
    for node in dom:
        for size in range(1, limit + 1):
            for position in range(1, size + 1):
                yield Context(node, position, size)
