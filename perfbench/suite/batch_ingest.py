"""batch-ingest: the bulk path over a corpus of small DBLP-style sources.

Each op is one serial batch call over the whole corpus, rotating through
four paths in a fixed pattern (``ROTATION``):

* ``sources`` — ``SourceCollection.select(q, stream=False)``: parse, index,
  evaluate and drop each source;
* ``stream`` — ``SourceCollection.select(q, stream=True)``: single pass for
  streamable plans, the tree path for the others;
* ``build`` — ``build_store`` of the parsed sources, then open the file;
* ``stored`` — ``StoredCollection.select(q)`` over the mapped store.

Every batch passes ``parallel=False`` and ``stream=`` explicitly.  The
store file lives under ``.perfbench_out/`` in the working directory.
"""

from __future__ import annotations

import os
import random
import time

from repro import XPathSession
from repro.store import DocumentStore, StoredCollection, build_store
from repro.workloads.documents import doc_dblp_source
from repro.xmlmodel import parse_xml

from common import answer_key, median
from suite.base import Workload, index_peak_kb, parse_layers, parse_traced

SOURCES = 4
ARTICLES = 15
#: Path of each op, in a repeating pattern.
ROTATION = ("sources", "stored", "stream", "build")
#: Streamable plans, plus one the streaming path hands to the tree engine.
QUERY_SHAPES = (
    "//article/title",
    "/dblp/article[@mdate='{mdate}']/author",
    "//article[year='{year}']/title",
    "//author",
)


def make_inputs(seed: int) -> tuple[list[str], list[str]]:
    rng = random.Random(seed)
    sources = [doc_dblp_source(ARTICLES, seed=seed * 1019 + k) for k in range(SOURCES)]
    queries = [
        shape.format(
            year=1990 + rng.randrange(13),
            mdate=f"{2000 + rng.randrange(3)}-{1 + rng.randrange(12):02d}-{1 + rng.randrange(28):02d}",
        )
        for shape in QUERY_SHAPES
    ]
    return sources, queries


def orders_of(run) -> tuple:
    """Per-document result orders of a batch, whichever path produced it."""
    answer = []
    for result in run:
        if not result.ok:
            raise result.error
        if result.matches is not None:
            answer.append(tuple(match.order for match in result.matches))
        else:
            answer.append(tuple(node.order for node in result.nodes))
    return tuple(answer)


class BatchIngest(Workload):
    name = "batch-ingest"
    tail_pct = 90.0
    count_window = 4 * len(ROTATION)

    @staticmethod
    def prepare(seed: int) -> dict:
        sources, queries = make_inputs(seed)
        documents = [parse_xml(source) for source in sources]
        session = XPathSession(engine="topdown")
        expected = {}
        for query in queries:
            answer = tuple(
                tuple(node.order for node in session.run(query, document).nodes)
                for document in documents
            )
            expected[query] = answer_key(answer)
        expected["build"] = answer_key(tuple(len(document.index.nodes) for document in documents))
        return {"expected": expected}

    def __init__(self, seed: int, shared: dict):
        super().__init__(seed, shared)
        self.sources, self.queries = make_inputs(seed)
        self.expected = shared["expected"]
        self.names = [f"doc{k}" for k in range(SOURCES)]
        self.directory = os.path.join(os.getcwd(), ".perfbench_out", f"store-{os.getpid()}")
        self.path = os.path.join(self.directory, "corpus.reproxs")
        self.input_bytes = sum(len(source.encode()) for source in self.sources)
        self.stored = None
        self.streamed: list[bool] = []

    def _parsed(self):
        for source in self.sources:
            yield parse_traced(self.tracer, source)

    def _build(self) -> tuple:
        tracer = self.tracer
        with tracer.span("store.build"):
            build_store(self.path, self._parsed(), self.names)
        if self.stored is not None:
            self.stored.close()
        with tracer.span("store.open"):
            store = DocumentStore.open(self.path)
        self.stored = StoredCollection(store, session=self.session)
        return tuple(document.node_count for document in store.documents)

    def setup(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        self.session = XPathSession()
        self.collection = self.session.stream_collection(self.sources, names=self.names)
        self._build()
        for op in range(len(ROTATION) * len(self.queries)):
            self.run(op)

    def begin(self) -> None:
        self.streamed = []

    def run(self, op: int):
        kind = ROTATION[op % len(ROTATION)]
        if kind == "build":
            return self._build()
        query = self.queries[(op // len(ROTATION)) % len(self.queries)]
        with self.tracer.span(f"collection.{kind}"):
            if kind == "stored":
                run = self.stored.select(query, parallel=False)
            else:
                run = self.collection.select(query, stream=kind == "stream", parallel=False)
        if kind == "stream":
            self.streamed.append(run.streamed)
        return orders_of(run)

    def check(self, op: int, answer) -> bool:
        kind = ROTATION[op % len(ROTATION)]
        key = "build" if kind == "build" else self.queries[(op // len(ROTATION)) % len(self.queries)]
        return answer_key(answer) == self.expected[key]

    def counts(self) -> dict[str, float]:
        return {
            "streaming.fallback_rate": self.streamed.count(False) / len(self.streamed),
            "store.bytes_per_input_byte": os.path.getsize(self.path) / self.input_bytes,
        }

    def layers(self) -> dict[str, float]:
        tracer = self.tracer
        metrics = parse_layers(tracer)
        for kind in ("sources", "stream", "stored"):
            metrics[f"collection.{kind}.batch_ms"] = median(tracer.durations(f"collection.{kind}", timed_only=True)) * 1000.0
        metrics["store.build_ms"] = median(tracer.durations("store.build", timed_only=True)) * 1000.0
        metrics["store.open_us"] = median(tracer.durations("store.open", timed_only=True)) * 1e6
        metrics.update(self._probe())
        metrics["xmlmodel.index_peak_kb"] = index_peak_kb(self.sources[0])
        return metrics

    def _probe(self, repeats: int = 5) -> dict[str, float]:
        """Off-clock layer probes, each the median of ``repeats`` rounds:

        * a ``Collection`` batch over the parsed documents against the same
          plan evaluated per document directly (the difference is batch
          dispatch);
        * parsing the sources alone against a ``sources`` batch of the same
          plan (parsing's share of the source path);
        * materialising every stored document.
        """
        documents = [parse_xml(source) for source in self.sources]
        collection = self.session.collection(documents, names=self.names)
        plan = self.session.compile(self.queries[0])

        def direct():
            for document in documents:
                tuple(node.order for node in self.session.run(plan, document).nodes)

        def materialize():
            with DocumentStore.open(self.path) as store:
                for handle in store.documents:
                    handle.materialize()

        probes = {
            "batch": lambda: orders_of(collection.select(plan, parallel=False)),
            "direct": direct,
            "parse": lambda: [parse_xml(source) for source in self.sources],
            "sources": lambda: self.collection.select(plan, stream=False, parallel=False),
            "materialize": materialize,
        }
        rounds: dict[str, list[float]] = {name: [] for name in probes}
        for _ in range(repeats):
            for name, probe in probes.items():
                started = time.perf_counter()
                probe()
                rounds[name].append(time.perf_counter() - started)
        seconds = {name: median(values) for name, values in rounds.items()}
        return {
            "collection.documents.batch_ms": seconds["batch"] * 1000.0,
            "collection.dispatch_us_per_doc": (seconds["batch"] - seconds["direct"]) / len(documents) * 1e6,
            "collection.sources.parse_frac": seconds["parse"] / seconds["sources"],
            "store.materialize_ms": seconds["materialize"] * 1000.0 / len(documents),
        }

    def close(self) -> None:
        if self.stored is not None:
            self.stored.close()
            self.stored = None
        if not os.path.isdir(self.directory):
            return
        for name in os.listdir(self.directory):
            os.unlink(os.path.join(self.directory, name))
        os.rmdir(self.directory)
