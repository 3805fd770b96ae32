"""Shared fixtures and helpers for the benchmark suite.

Each ``bench_*.py`` file regenerates one table or figure of the paper (see
DESIGN.md, "Per-experiment index").  Benchmarks time single query
evaluations through pytest-benchmark; the companion experiment drivers in
:mod:`repro.benchmarking.experiments` print the full paper-style sweeps.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.api import get_engine  # noqa: E402
from repro.workloads.documents import doc_deep, doc_flat, doc_flat_text  # noqa: E402


@pytest.fixture(scope="session")
def doc2():
    return doc_flat(2)


@pytest.fixture(scope="session")
def doc10():
    return doc_flat(10)


@pytest.fixture(scope="session")
def doc_prime3():
    return doc_flat_text(3)


@pytest.fixture(scope="session")
def doc_prime200():
    return doc_flat_text(200)


@pytest.fixture(scope="session")
def deep12():
    return doc_deep(12)


def run_query(engine_name: str, query: str, document):
    """Evaluate a query on a fresh engine instance (helper for benchmarks)."""
    engine = get_engine(engine_name)
    return engine.evaluate(query, document)


def record_trajectory(file_name: str, entry: dict) -> None:
    """Append ``entry``, dated today, to the JSON list in ``file_name`` at
    the repo root — only when ``REPRO_BENCH_RECORD`` is set."""
    if not os.environ.get("REPRO_BENCH_RECORD"):
        return
    path = _SRC.parent / file_name
    trajectory = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    trajectory.append({"date": time.strftime("%Y-%m-%d"), **entry})
    path.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")
