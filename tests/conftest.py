"""Shared fixtures for the test suite.

Keeps the package importable even when the editable install is unavailable
(offline machines) by putting ``src/`` on ``sys.path``, and provides the
documents most tests share: the paper's DOC(i) / DOC'(i) families, the
Figure-8 worked-example document and a couple of richer trees.

It also holds :data:`BATCH_MODES`, the registry of batch execution modes,
and the ``batch_mode`` fixtures that run a batch test once per mode.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.collection import Collection, SourceCollection  # noqa: E402
from repro.store import StoredCollection  # noqa: E402
from repro.workloads.documents import (  # noqa: E402
    doc_figure8,
    doc_flat,
    doc_flat_text,
    doc_idref,
    doc_library,
)
from repro.xmlmodel.parser import parse_xml  # noqa: E402


# ----------------------------------------------------------------------
# Batch execution modes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchMode:
    """One way to run a collection batch: the surface and its keywords."""

    #: ``build(sources, names=None, session=None)`` returns the batch
    #: surface over XML texts.
    build: Callable
    #: Keywords every ``select`` / ``evaluate`` call passes in this mode.
    options: dict = field(default_factory=dict)
    #: Whether results carry ``.nodes`` / ``.document`` (a tree surface)
    #: rather than ``.matches``.
    tree: bool = True
    #: The ``repro batch`` flags that run this mode's backend (the CLI
    #: batches source collections); ``None`` when it has no CLI spelling.
    cli: Optional[tuple] = None


#: Every batch execution mode, by name: serial / thread / process batches
#: over parsed documents, store-backed batches, and source batches that
#: parse each entry or stream it.
BATCH_MODES = {
    "serial": BatchMode(Collection.from_sources),
    "thread": BatchMode(
        Collection.from_sources,
        {"backend": "thread", "max_workers": 2},
        cli=("--jobs", "2"),
    ),
    "process": BatchMode(
        Collection.from_sources,
        {"backend": "process", "max_workers": 2},
        cli=("--jobs", "2", "--backend", "process"),
    ),
    "store": BatchMode(StoredCollection.from_sources),
    "sources": BatchMode(SourceCollection, {"stream": False}, tree=False, cli=()),
    "stream": BatchMode(
        SourceCollection, {"stream": True}, tree=False, cli=("--stream",)
    ),
}


def _mode_fixture(fixture_name: str, names) -> Callable:
    @pytest.fixture(name=fixture_name, params=list(names))
    def fixture(request) -> BatchMode:
        return BATCH_MODES[request.param]

    return fixture


# Test modules cannot import from this file (a second conftest.py under
# benchmarks/ shadows the module name), so each subset is its own fixture.
#: Each registry mode in turn.
batch_mode = _mode_fixture("batch_mode", BATCH_MODES)
#: The modes whose results carry ``.nodes`` / ``.document``.
tree_batch_mode = _mode_fixture(
    "tree_batch_mode", [name for name, mode in BATCH_MODES.items() if mode.tree]
)
#: The modes that differ only by backend: their options suit any collection.
backend_batch_mode = _mode_fixture(
    "backend_batch_mode", ["serial", "thread", "process"]
)
#: One serial mode per surface, for tests that bring their own executor.
surface_batch_mode = _mode_fixture(
    "surface_batch_mode", ["serial", "store", "sources", "stream"]
)
#: The modes the ``repro batch`` subcommand can spell.
cli_batch_mode = _mode_fixture(
    "cli_batch_mode",
    [name for name, mode in BATCH_MODES.items() if mode.cli is not None],
)


@pytest.fixture(scope="session")
def batch_modes() -> dict:
    """The registry itself, by name."""
    return BATCH_MODES


@pytest.fixture
def doc2():
    """DOC(2) — the Experiment-1 document ⟨a⟩⟨b/⟩⟨b/⟩⟨/a⟩."""
    return doc_flat(2)


@pytest.fixture
def doc4():
    """DOC(4) — the Example 4.1 / 6.4 document."""
    return doc_flat(4)


@pytest.fixture
def doc_prime3():
    """DOC'(3) — three ⟨b⟩c⟨/b⟩ children."""
    return doc_flat_text(3)


@pytest.fixture
def figure8():
    """The Figure-8 worked-example document (Examples 8.1 and 11.2)."""
    return doc_figure8()


@pytest.fixture
def idref_doc():
    """The ID/IDREF document of Theorem 10.7's proof."""
    return doc_idref()


@pytest.fixture
def library():
    """A small digital-library document for domain-flavoured tests."""
    return doc_library(books=12, seed=3)


@pytest.fixture
def mixed_doc():
    """A document exercising every node type (comments, PIs, attributes…)."""
    text = (
        "<?xml version='1.0'?>"
        "<root lang='en'>"
        "<!-- a comment -->"
        "<?target data?>"
        "<section id='s1' class='intro'>"
        "Hello <em>world</em> text"
        "</section>"
        "<section id='s2'><p>Second</p><p>Third</p></section>"
        "</root>"
    )
    return parse_xml(text)
