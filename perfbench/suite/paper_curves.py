"""paper-curves: the paper's experiments as a fixed grid of evaluations.

Each op is one point (family, size, engine) of Experiments 1-5, Table V and
Table VII: the paper's query family at one size, over its DOC(i), DOC'(i)
or deep-path document, through ``XPathSession.run`` with the engine named.
The context-value-table engines run at every size of the family's sweep;
``naive`` only at the sizes where it stays under ~50 ms.  The documents
are built with the tree builder, so no op parses, and every plan fits in
the session's cache.  The seed only orders the grid.
"""

from __future__ import annotations

import random

from repro import XPathSession
from repro.benchmarking.harness import doubling_like, growth_ratios
from repro.workloads import documents as docs
from repro.workloads import queries

from common import EngineTally, answer_key, median, node_answer
from suite.base import Workload

CVT_ENGINES = ("topdown", "mincontext", "optmincontext", "bottomup", "datapool")

#: family -> (document, query for a size, CVT sizes, naive sizes).
#: Sizes step arithmetically, so polynomial work shows growth ratios that
#: tend to 1 while the naive engine's ratios stay constant.
FAMILIES = {
    "E1": (lambda: docs.doc_flat(2), queries.experiment1_query, (4, 8, 12, 16), (4, 6, 8, 10)),
    "E2": (lambda: docs.doc_flat_text(3), queries.experiment2_query, (3, 6, 9, 12), (3, 4, 5, 6)),
    "E3": (lambda: docs.doc_flat(3), queries.experiment3_query, (3, 6, 9, 12), (3, 4, 5, 6)),
    "E5a": (lambda: docs.doc_flat(20), queries.experiment5_following_query, (2, 3, 4, 6), (2, 3, 4, 5)),
    "E5b": (lambda: docs.doc_deep(12), queries.experiment5_descendant_query, (2, 3, 4, 6), (2, 3, 4, 5, 6)),
    "TV": (lambda: docs.doc_flat(10), queries.experiment3_query, (2, 4, 6, 8), (1, 2, 3)),
    "TVII": (lambda: docs.doc_flat_text(20), queries.experiment2_query, (4, 8, 12, 16), (1, 2)),
}
#: Experiment 4 sweeps the document, not the query (data complexity).
E4_SIZES = (10, 20, 40)
E4_DEPTH = 4
#: Families on which the paper shows the naive strategy exponential.
EXPONENTIAL_FAMILIES = ("E1", "E2", "E3")


def grid() -> list[tuple[str, int, str]]:
    points = []
    for family, (_doc, _query, cvt_sizes, naive_sizes) in FAMILIES.items():
        points += [(family, size, engine) for engine in CVT_ENGINES for size in cvt_sizes]
        points += [(family, size, "naive") for size in naive_sizes]
    points += [("E4", size, engine) for engine in CVT_ENGINES for size in E4_SIZES]
    return points


def order(seed: int) -> list[tuple[str, int, str]]:
    points = grid()
    random.Random(seed).shuffle(points)
    return points


def build_documents() -> dict[tuple[str, int], object]:
    """One document per (family, size): shared within a family, except for
    Experiment 4, whose size is the document's."""
    built = {}
    for family, (make_doc, _query, cvt_sizes, naive_sizes) in FAMILIES.items():
        document = make_doc()
        document.index
        for size in set(cvt_sizes) | set(naive_sizes):
            built[family, size] = document
    for size in E4_SIZES:
        document = docs.doc_flat(size)
        document.index
        built["E4", size] = document
    return built


def query_for(family: str, size: int) -> str:
    if family == "E4":
        return queries.experiment4_query(E4_DEPTH)
    return FAMILIES[family][1](size)


class PaperCurves(Workload):
    name = "paper-curves"
    tail_pct = 98.5
    count_window = len(grid())

    @staticmethod
    def prepare(seed: int) -> dict:
        documents = build_documents()
        session = XPathSession()
        answers: dict[tuple[str, int], set] = {}
        for family, size, engine in grid():
            result = session.run(query_for(family, size), documents[family, size], engine=engine)
            answers.setdefault((family, size), set()).add(answer_key(node_answer(result)))
        # A point whose engines disagree has no expected answer: all its
        # ops count as failed.
        return {
            f"{family}|{size}": keys.pop() if len(keys) == 1 else None
            for (family, size), keys in answers.items()
        }

    def __init__(self, seed: int, shared: dict):
        super().__init__(seed, shared)
        self.points = order(seed)
        self.expected = [shared[f"{family}|{size}"] for family, size, _engine in self.points]
        self.queries = [query_for(family, size) for family, size, _engine in self.points]

    def setup(self) -> None:
        with self.tracer.span("xmlmodel.build"):
            documents = build_documents()
        self.documents = [documents[family, size] for family, size, _e in self.points]
        self.session = XPathSession()
        self.tally = EngineTally()
        self.work: dict[tuple[str, int, str], int] = {}
        for op in range(len(self.points)):
            self.run(op)

    def begin(self) -> None:
        self.tally = EngineTally()
        stats = self.session.cache.stats
        self.base_hits, self.base_misses = stats.hits, stats.misses

    def run(self, op: int):
        slot = op % len(self.points)
        tracer = self.tracer
        with tracer.span("session.run"):
            result = self.session.run(
                self.queries[slot], self.documents[slot], engine=self.points[slot][2]
            )
            tracer.add(f"engines.{result.engine_name}", result.elapsed_seconds)
        self.tally.record(result, tracer.enabled)
        self.work[self.points[slot]] = result.stats.total_work()
        with tracer.span("result.materialize"):
            return node_answer(result)

    def check(self, op: int, answer) -> bool:
        return answer_key(answer) == self.expected[op % len(self.points)]

    def growth(self) -> dict[str, list[float]]:
        """Work of each (family, engine) series across its size sweep."""
        series: dict[str, list[tuple[int, int]]] = {}
        for (family, size, engine), work in self.work.items():
            series.setdefault(f"paper.{family}.{engine}", []).append((size, work))
        return {name: [work for _size, work in sorted(points)] for name, points in series.items()}

    def counts(self) -> dict[str, float]:
        stats = self.session.cache.stats
        hits = stats.hits - self.base_hits
        misses = stats.misses - self.base_misses
        counts = self.tally.counts()
        counts["plan.compiles"] = misses
        counts["plan.cache_lookups"] = hits + misses
        counts["plan.cache_hit_rate"] = hits / (hits + misses)
        for name, works in self.growth().items():
            counts[f"{name}.work_growth"] = growth_ratios(works)[-1]
        return counts

    def problems(self, counts: dict[str, float]) -> list[str]:
        """The paper's shape claim, on operation counts: naive evaluation
        grows exponentially on Experiments 1-3, the CVT engines do not."""
        problems = []
        for name, works in self.growth().items():
            family, engine = name.split(".")[1:]
            if family not in EXPONENTIAL_FAMILIES:
                continue
            exponential = doubling_like(works)
            if engine == "naive" and not exponential:
                problems.append(f"{name}: naive work is not exponential-like: {works}")
            if engine != "naive" and exponential:
                problems.append(f"{name}: CVT work grows exponential-like: {works}")
        return problems

    def layers(self) -> dict[str, float]:
        tracer = self.tracer
        metrics = self.tally.timings()
        metrics["session.overhead_us"] = median(tracer.self_durations("session.run")) * 1e6
        metrics["result.materialize_us"] = median(tracer.durations("result.materialize", timed_only=True)) * 1e6
        return metrics
