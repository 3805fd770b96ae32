"""Edit scripts: serialisable document mutations and a seeded generator.

The mutation layer (:mod:`repro.xmlmodel.document`) exposes five edit
primitives; an :class:`EditOp` is one such edit in a flat, JSON-friendly
form whose target is the node's dense document order *in the document the
op is applied to* — orders shift as a script runs, so a script is a
sequence applied in order, never a set.

Three consumers:

* the differential suite replays a random script
  (:func:`random_edit_script`) against a live document and checks every
  engine's answers against a serialise → reparse → query round trip;
* the repair≡rebuild property tests replay the identical script
  (:func:`apply_script`) onto a twin document that builds no index until
  the end, then compare index columns key for key;
* the CLI ``edit`` subcommand reads a JSON script
  (:func:`script_from_json`), applies it and prints the result.

Ops are generated valid-by-construction where cheap and by bounded retry
where not (the edit API's validation is the source of truth — e.g. a text
node may not land next to another text node).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..xmlmodel.builder import build_fragment
from ..xmlmodel.document import Document
from ..xmlmodel.nodes import Node, NodeType

#: Op kinds, mirroring the Document edit API one to one.
OPS = ("insert", "remove", "rename", "set_text", "set_attribute")

#: Node types an edit may target with ``set_text``.
_VALUE_TYPES = (
    NodeType.TEXT,
    NodeType.COMMENT,
    NodeType.PROCESSING_INSTRUCTION,
    NodeType.ATTRIBUTE,
)


@dataclass(frozen=True)
class EditOp:
    """One document edit in process-portable form.

    ``target`` is the node's document order in the document state this op
    applies to (for ``insert`` it names the *parent*).  ``fragment`` is a
    nested-list node spec (see :func:`build_node`); ``name`` carries the
    new name for ``rename`` and the attribute name for ``set_attribute``;
    ``value`` the new value for ``set_text`` / ``set_attribute``;
    ``position`` the child slot for ``insert`` (``None`` appends).
    """

    op: str
    target: int
    name: Optional[str] = None
    value: Optional[str] = None
    position: Optional[int] = None
    fragment: Optional[tuple] = None

    def as_json(self) -> dict:
        """A plain-dict form (``json.dumps``-ready; ``None`` fields omitted)."""
        payload: dict = {"op": self.op, "target": self.target}
        if self.name is not None:
            payload["name"] = self.name
        if self.value is not None:
            payload["value"] = self.value
        if self.position is not None:
            payload["position"] = self.position
        if self.fragment is not None:
            payload["fragment"] = _spec_to_json(self.fragment)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "EditOp":
        if not isinstance(payload, dict):
            raise ValueError(f"edit op must be an object, got {payload!r}")
        op = payload.get("op")
        if op not in OPS:
            raise ValueError(f"unknown edit op {op!r}; choose from {OPS}")
        target = payload.get("target")
        if not isinstance(target, int) or isinstance(target, bool) or target < 0:
            raise ValueError(f"edit target must be a non-negative order, got {target!r}")
        fragment = payload.get("fragment")
        return cls(
            op=op,
            target=target,
            name=payload.get("name"),
            value=payload.get("value"),
            position=payload.get("position"),
            fragment=_spec_from_json(fragment) if fragment is not None else None,
        )


def _spec_to_json(spec: tuple):
    return [
        _spec_to_json(item) if isinstance(item, tuple) else item for item in spec
    ]


def _spec_from_json(spec):
    if isinstance(spec, list):
        return tuple(_spec_from_json(item) for item in spec)
    return spec


def build_node(spec: Sequence) -> Node:
    """A detached node from a nested spec.

    ``("tag", {attrs}, (children...))`` builds an element subtree
    (:func:`~repro.xmlmodel.builder.build_fragment` shape, string children
    are text); the pseudo-tags ``("#text", value)``, ``("#comment",
    value)`` and ``("#pi", tgt, data)`` build the non-element node kinds.
    """
    head = spec[0]
    if head == "#text":
        return Node(NodeType.TEXT, value=spec[1])
    if head == "#comment":
        return Node(NodeType.COMMENT, value=spec[1])
    if head == "#pi":
        return Node(
            NodeType.PROCESSING_INSTRUCTION,
            name=spec[1],
            value=spec[2] if len(spec) > 2 else "",
        )
    attributes = spec[1] if len(spec) > 1 else None
    children = spec[2] if len(spec) > 2 else ()
    return build_fragment(head, attributes, children)


def apply_edit(document: Document, op: EditOp) -> None:
    """Apply one op to ``document`` (validation errors propagate)."""
    node = document.index.nodes[op.target]
    if op.op == "insert":
        if op.fragment is None:
            raise ValueError("insert op needs a fragment")
        document.insert_child(node, build_node(op.fragment), op.position)
    elif op.op == "remove":
        document.remove(node)
    elif op.op == "rename":
        if op.name is None:
            raise ValueError("rename op needs a name")
        document.rename(node, op.name)
    elif op.op == "set_text":
        if op.value is None:
            raise ValueError("set_text op needs a value")
        document.set_text(node, op.value)
    elif op.op == "set_attribute":
        if op.name is None or op.value is None:
            raise ValueError("set_attribute op needs a name and a value")
        document.set_attribute(node, op.name, op.value)
    else:  # pragma: no cover - from_json rejects unknown ops
        raise ValueError(f"unknown edit op {op.op!r}")


def apply_script(document: Document, script: Iterable[EditOp]) -> int:
    """Apply a whole script in order; returns the number of ops applied."""
    count = 0
    for op in script:
        apply_edit(document, op)
        count += 1
    return count


def script_to_json(script: Iterable[EditOp]) -> list[dict]:
    return [op.as_json() for op in script]


def script_from_json(payload) -> list[EditOp]:
    if not isinstance(payload, list):
        raise ValueError("an edit script is a JSON array of op objects")
    return [EditOp.from_json(item) for item in payload]


# ----------------------------------------------------------------------
# Seeded random scripts (the differential-suite workhorse)
# ----------------------------------------------------------------------
_TAGS = ("a", "b", "c", "d", "e")
_ATTRS = ("id", "x", "y", "lang")


def _random_fragment(rng: random.Random, depth: int = 0) -> tuple:
    """A small random element spec (build_fragment shape)."""
    tag = rng.choice(_TAGS)
    attributes = {}
    if rng.random() < 0.4:
        attributes[rng.choice(_ATTRS)] = f"v{rng.randrange(100)}"
    children: list = []
    if depth < 2:
        for _ in range(rng.randrange(3)):
            if rng.random() < 0.4:
                children.append(str(rng.randrange(100)))
            else:
                children.append(_random_fragment(rng, depth + 1))
    return (tag, attributes or None, tuple(children))


def _candidate(rng: random.Random, document: Document, types) -> Optional[Node]:
    pool = [node for node in document.index.nodes if node.node_type in types]
    return rng.choice(pool) if pool else None


def _try_op(rng: random.Random, document: Document) -> Optional[EditOp]:
    """Generate-and-apply one random op; ``None`` when the draw was a dud
    (e.g. the document has no removable node left)."""
    kind = rng.choice(OPS)
    if kind == "insert":
        parent = _candidate(rng, document, (NodeType.ELEMENT,))
        if parent is None:
            return None
        if rng.random() < 0.2:
            spec: tuple = ("#comment", f"c{rng.randrange(100)}")
        elif rng.random() < 0.2:
            spec = ("#text", f"t{rng.randrange(100)} ")
        else:
            spec = _random_fragment(rng)
        slots = len(parent.children)
        position = rng.randrange(slots + 1) if slots else None
        op = EditOp("insert", parent.order, position=position, fragment=spec)
    elif kind == "remove":
        root = document.root
        doc_element = document.document_element
        # index.nodes is the full preorder table, attributes and
        # namespaces included — everything but the two unremovable nodes.
        pool = [
            node
            for node in document.index.nodes
            if node is not root and node is not doc_element
        ]
        if not pool:
            return None
        op = EditOp("remove", rng.choice(pool).order)
    elif kind == "rename":
        target = _candidate(rng, document, (NodeType.ELEMENT,))
        if target is None:
            return None
        # Same-name renames are no-ops (no generation bump) — draw a
        # genuinely different name so scripts stay edit-for-edit countable.
        names = [tag for tag in _TAGS if tag != target.name]
        op = EditOp("rename", target.order, name=rng.choice(names))
    elif kind == "set_text":
        pool = [
            node for node in document.index.nodes if node.node_type in _VALUE_TYPES
        ]
        if not pool:
            return None
        target = rng.choice(pool)
        value = f"s{rng.randrange(100)}"
        if value == target.value:  # same-value writes are no-ops
            value += "x"
        op = EditOp("set_text", target.order, value=value)
    else:  # set_attribute
        target = _candidate(rng, document, (NodeType.ELEMENT,))
        if target is None:
            return None
        name = rng.choice(_ATTRS)
        value = f"w{rng.randrange(100)}"
        current = next(
            (a.value for a in target.attributes if a.name == name), None
        )
        if value == current:  # same-value writes are no-ops
            value += "x"
        op = EditOp("set_attribute", target.order, name=name, value=value)
    try:
        apply_edit(document, op)
    except (ValueError, TypeError, IndexError):
        # The edit API vetoed the draw (text beside text, a second document
        # element, …): validation runs before any state change, so the
        # document is untouched and the caller simply redraws.
        return None
    return op


def random_edit_script(
    document: Document, count: int, seed: int, max_attempts_per_op: int = 20
) -> list[EditOp]:
    """Generate ``count`` random valid edits, applying each to ``document``.

    The script is returned in application order; replaying it with
    :func:`apply_script` on an identical copy of the original document
    reproduces the identical final tree (targets are document orders in
    the evolving state, and the edit API renumbers deterministically).
    Draws vetoed by the edit API's validation are redrawn, up to
    ``max_attempts_per_op`` times each, so heavily-pruned documents yield
    shorter scripts instead of failing.
    """
    rng = random.Random(seed)
    script: list[EditOp] = []
    for _ in range(count):
        for _attempt in range(max_attempts_per_op):
            op = _try_op(rng, document)
            if op is not None:
                script.append(op)
                break
    return script
