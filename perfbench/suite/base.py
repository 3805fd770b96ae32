"""The interface every workload implements, and the set-up helpers they share."""

from __future__ import annotations

import sys
import tracemalloc

from repro.xmlmodel import parse_xml

from common import NullTracer, median


class Workload:
    """One benchmark workload.

    Life cycle inside one workload process:

    1. ``__init__(seed, shared)`` makes the inputs from the seed (plus the
       ``shared`` inputs :meth:`prepare` computed once per run); not timed;
    2. :meth:`setup` is timed as ``setup_s``: the program's set-up calls
       and one warm-up pass over the distinct ops;
    3. :meth:`begin` resets the per-phase counters, then :meth:`run` is the
       timed op and :meth:`check` verifies its answer off the clock;
    4. :meth:`counts` is read once, right after the first
       ``count_window`` ops: deterministic counts that must repeat exactly
       across processes with one seed;
    5. :meth:`layers` (traced run only) derives the per-layer metrics from
       the spans and runs the workload's off-clock layer probes.
    """

    name = ""
    #: Fixed percentile of ``op_tail_ms``, chosen so that every workload
    #: process records at least ten samples beyond it.
    tail_pct = 99.0
    #: Ops over which :meth:`counts` is taken; the timed phase runs at
    #: least this many ops whatever the clock says.
    count_window = 100
    #: Upper bound on op indices (the length of a pre-generated script).
    max_ops = sys.maxsize

    def __init__(self, seed: int, shared: dict):
        self.shared = shared
        self.tracer = NullTracer()

    @staticmethod
    def prepare(seed: int) -> dict:
        """Inputs and oracle answers computed once per run, off the clock,
        in their own process (JSON-serialisable)."""
        return {}

    def setup(self) -> None:
        raise NotImplementedError

    def begin(self) -> None:
        """Start a timed phase (counters reset here)."""

    def run(self, op: int):
        raise NotImplementedError

    def check(self, op: int, answer) -> bool:
        raise NotImplementedError

    def counts(self) -> dict[str, float]:
        return {}

    def problems(self, counts: dict[str, float]) -> list[str]:
        """Claims the deterministic counts must satisfy, as failure
        messages (empty when every claim holds)."""
        return []

    def layers(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        """Release files and mappings the workload holds."""


def parse_traced(tracer, text: str):
    """Parse ``text`` and build its index, with one span around each."""
    with tracer.span("xmlmodel.parse"):
        document = parse_xml(text)
    with tracer.span("xmlmodel.index_build"):
        nodes = len(document.index.nodes)
    tracer.count("xmlmodel.parsed_nodes", nodes)
    return document


def parse_layers(tracer) -> dict[str, float]:
    """``xmlmodel.parse_ms``, ``parse_knodes_per_s`` and ``index_build_ms``
    from the parse and index spans the workload recorded, set-up included."""
    metrics = {}
    parses = tracer.durations("xmlmodel.parse")
    if parses:
        metrics["xmlmodel.parse_ms"] = median(parses) * 1000.0
        nodes = tracer.counters.get("xmlmodel.parsed_nodes", 0)
        metrics["xmlmodel.parse_knodes_per_s"] = nodes / sum(parses) / 1000.0
    builds = tracer.durations("xmlmodel.index_build")
    if builds:
        metrics["xmlmodel.index_build_ms"] = median(builds) * 1000.0
    return metrics


def index_peak_kb(text: str) -> float:
    """Peak traced allocation, in KiB, of one index build over ``text``."""
    document = parse_xml(text)
    tracemalloc.start()
    try:
        document.index
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024.0
