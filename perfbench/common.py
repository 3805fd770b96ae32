"""Pieces shared by every workload: tracing, statistics, answers, host probe.

Tracing follows one rule: spans are recorded by the benchmark around its
own calls into the library's public functions, never inside the library.
A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``-1`` at top level) and ``op`` the index of the
timed op it belongs to (``-1`` during set-up and probes).
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import statistics
import time
from typing import Iterable, Sequence


class Tracer:
    """In-memory span and counter recorder for the traced run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def add(self, name: str, seconds: float) -> None:
        """Record a child span of the current span whose duration the
        library measured itself (it ends when it is added)."""
        end = time.perf_counter()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, end - seconds, end, parent, self.op))

    def rename(self, index: int, name: str) -> None:
        """Rename a span once its outcome is known (a plan lookup that
        turned out to be a compile)."""
        _old, start, end, parent, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- reading the record ------------------------------------------------
    def durations(self, name: str, *, timed_only: bool = False) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [
            end - start
            for span_name, start, end, _parent, op in self.spans
            if span_name == name and (op >= 0 or not timed_only)
        ]

    def _self_seconds(self) -> list[float]:
        """Each span's duration minus the part its children cover.  Spans
        nest strictly (one thread, stack discipline), so that part is the
        sum of the children's durations."""
        own = [end - start for _name, start, end, _parent, _op in self.spans]
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_durations(self, name: str) -> list[float]:
        """Self times in seconds of every timed-op span called ``name``."""
        own = self._self_seconds()
        return [
            own[index]
            for index, (span_name, _s, _e, _p, op) in enumerate(self.spans)
            if span_name == name and op >= 0
        ]

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name, over the timed ops."""
        own = self._self_seconds()
        totals: dict[str, float] = {}
        for index, (name, _start, _end, _parent, op) in enumerate(self.spans):
            if op >= 0:
                totals[name] = totals.get(name, 0.0) + own[index]
        return totals

    def dump(self) -> list[list]:
        return [list(span) for span in self.spans]


class NullTracer:
    """The untraced run's tracer: the same calls, recording nothing."""

    enabled = False
    op = -1
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def add(self, name: str, seconds: float) -> None:
        pass

    def count(self, name: str, amount: float = 1) -> None:
        pass


def answer_key(value) -> str:
    """A short, process-independent fingerprint of one op's answer."""
    return hashlib.blake2b(repr(value).encode(), digest_size=8).hexdigest()


def node_answer(result) -> object:
    """The comparable form of a :class:`QueryResult`: node orders for a
    node set, the value itself for a scalar."""
    if result.is_node_set:
        return tuple(node.order for node in result.nodes)
    return result.value


def rank(count: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``count`` values."""
    return max(1, math.ceil(pct / 100.0 * count))


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[rank(len(sorted_values), pct) - 1]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> list[float]:
    """First quartile, median and third quartile of a few values."""
    return statistics.quantiles(values, n=4)


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop: the host-speed probe.

    Diagnostic only: it explains a slow run, and no metric is scaled by it.
    """
    start = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value % 7
    return (time.perf_counter() - start) * 1000.0


def zipf_choice(rng, pool: Sequence, exponent: float = 1.1):
    """Draw from ``pool`` with rank-skewed (Zipf-like) probabilities, so a
    few values repeat often and a long tail appears once or twice."""
    weights = _zipf_weights(len(pool), exponent)
    return rng.choices(pool, cum_weights=weights)[0]


_ZIPF_CACHE: dict[tuple[int, float], list[float]] = {}


def _zipf_weights(size: int, exponent: float) -> list[float]:
    key = (size, exponent)
    weights = _ZIPF_CACHE.get(key)
    if weights is None:
        weights, total = [], 0.0
        for position in range(size):
            total += 1.0 / (position + 1) ** exponent
            weights.append(total)
        _ZIPF_CACHE[key] = weights
    return weights


class EngineTally:
    """Per-engine evaluation counts: calls and work (``total_work()``),
    plus the engine's own evaluation time when the run is traced."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.work: dict[str, int] = {}
        self.fallbacks = 0
        self.seconds: dict[str, list[float]] = {}

    def record(self, result, traced: bool) -> None:
        name = result.engine_name
        stats = result.stats
        self.calls[name] = self.calls.get(name, 0) + 1
        self.work[name] = self.work.get(name, 0) + stats.total_work()
        self.fallbacks += stats.extras.get("compiled_fallbacks", 0)
        if traced:
            self.seconds.setdefault(name, []).append(result.elapsed_seconds)

    def counts(self) -> dict[str, float]:
        """Deterministic per-engine counts (taken over the count window)."""
        ops = sum(self.calls.values())
        counts: dict[str, float] = {}
        for name, calls in self.calls.items():
            counts[f"engines.{name}.work_per_op"] = self.work[name] / calls
            counts[f"engines.{name}.op_share"] = calls / ops
        compiled = self.calls.get("compiled", 0)
        if compiled:
            counts["engines.compiled.fallback_rate"] = self.fallbacks / compiled
        return counts

    def timings(self) -> dict[str, float]:
        return {
            f"engines.{name}.eval_ms": median(times) * 1000.0
            for name, times in self.seconds.items()
        }
