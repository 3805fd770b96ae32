"""Figure 1: the fragment lattice and its per-fragment algorithms.

Compares the linear-time Core XPath algebra and the XPatterns engine with
OptMinContext (which, by Corollaries 11.4/11.5, adheres to the fragment
bounds) and the general top-down engine, on workloads that lie inside the
respective fragments.
"""

from __future__ import annotations

import pytest

from conftest import run_query
from repro.workloads.documents import doc_flat_text, doc_library
from repro.workloads.queries import core_xpath_chain_query, experiment2_query, xpatterns_id_query

CORE_QUERY = core_xpath_chain_query(4)
XPATTERNS_QUERY = experiment2_query(2)
DOCUMENT = doc_flat_text(200)
LIBRARY = doc_library(books=100, seed=5)

CORE_ENGINES = ["corexpath", "xpatterns", "optmincontext", "topdown"]
XPATTERNS_ENGINES = ["xpatterns", "optmincontext", "topdown"]


@pytest.mark.parametrize("engine", CORE_ENGINES)
def test_figure1_core_xpath_workload(benchmark, engine):
    benchmark(run_query, engine, CORE_QUERY, DOCUMENT)


@pytest.mark.parametrize("engine", XPATTERNS_ENGINES)
def test_figure1_xpatterns_workload(benchmark, engine):
    benchmark(run_query, engine, XPATTERNS_QUERY, DOCUMENT)


@pytest.mark.parametrize("engine", ["xpatterns", "topdown"])
def test_figure1_id_axis_workload(benchmark, engine):
    benchmark(run_query, engine, xpatterns_id_query("bk42"), LIBRARY)


#: The id axis backwards (id⁻¹), which splits every node's string value
#: once, where the workload above looks up one ID.
ID_INVERSE_QUERY = "//book[id(related)/title]"


@pytest.mark.parametrize("engine", ["compiled", "topdown"])
def test_figure1_id_inverse_workload(benchmark, engine):
    benchmark(run_query, engine, ID_INVERSE_QUERY, LIBRARY)
