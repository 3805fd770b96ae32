"""The concurrency / parallel-execution test offensive (ISSUE 4).

Three fronts:

* **serial ≡ parallel** — every batch entry point must produce results
  identical to the serial path (order, content, per-document failures)
  through both the thread and the process backend;
* **thread-safety under stress** — N client threads hammering one
  :class:`XPathSession` (mixed cached/uncached queries, one shared plan
  cache) must produce correct results and exactly consistent
  ``SessionStats`` / ``PlanCacheStats`` counters;
* **limits under parallelism** — an operation-budget or wall-clock breach
  in one worker fails only its document: sibling workers, the merged
  :class:`BatchRun` and the session aggregates stay exact.
"""

from __future__ import annotations

import threading
from concurrent.futures import wait

import pytest

from repro import api
from repro.collection import BatchRun
from repro.engines.base import EvalLimits
from repro.errors import (
    BatchAborted,
    ResourceLimitExceeded,
    VariableBindingError,
    WorkerLostError,
    XPathEvaluationError,
)
from repro.faultinject import FaultPlan, inject
from repro.parallel import (
    ParallelExecutor,
    default_max_workers,
    resolve_executor,
)
from repro.plan import PlanCache
from repro.session import XPathSession
from repro.workloads.documents import doc_deep, doc_figure8, doc_flat, doc_idref
from repro.xpath.values import NodeSet

BACKENDS = ("thread", "process")

SOURCES = [
    "<a><b/><b/></a>",
    "<a/>",
    "<a><b>c</b><c/><b>c</b><b/></a>",
    "<a x='1'><b y='2'>t</b><!--note--></a>",
    "<a><a><a><b/></a></a></a>",
]


def _shape(batch: BatchRun):
    """A comparable fingerprint of a batch: per-document orders/value/error."""
    shape = []
    for result in batch:
        if not result.ok:
            shape.append(("error", type(result.error).__name__))
        elif result.nodes is not None:
            shape.append(("nodes", tuple(node.order for node in result.nodes)))
        elif isinstance(result.value, NodeSet):
            shape.append(
                ("nodeset", tuple(node.order for node in result.value))
            )
        else:
            shape.append(("value", result.value))
    return shape


@pytest.fixture(scope="module", params=BACKENDS)
def executor(request):
    with ParallelExecutor(backend=request.param, max_workers=2) as ex:
        yield ex


@pytest.fixture(params=["serial", "store"])
def parse_collection(request, batch_modes):
    """``parse_collection(sources, session)`` on the in-memory and on the
    store-backed surface of the batch-mode registry."""
    build = batch_modes[request.param].build
    return lambda sources, session: build(sources, session=session)


# ----------------------------------------------------------------------
# Serial ≡ parallel over the batch entry points
# ----------------------------------------------------------------------
class TestSerialParallelEquivalence:
    QUERIES = [
        "//b",
        "/descendant::*",
        "count(//b)",
        "string(/a)",
        "//b[. = 'c']",
        "//a[descendant::b]/child::node()",
        "//b[$missing]",          # fails exactly where b-nodes exist
        "count(//b) > 1",
    ]

    @pytest.fixture
    def collection(self, parse_collection):
        return parse_collection(SOURCES, XPathSession())

    def test_select_matches_serial(self, collection, executor):
        for query in self.QUERIES[:6]:
            serial = collection.select(query)
            parallel = collection.select(query, parallel=executor)
            assert _shape(parallel) == _shape(serial), (executor.backend, query)
            assert [r.name for r in parallel] == [r.name for r in serial]

    def test_evaluate_matches_serial(self, collection, executor):
        for query in self.QUERIES:
            serial = collection.evaluate(query)
            parallel = collection.evaluate(query, parallel=executor)
            assert _shape(parallel) == _shape(serial), (executor.backend, query)

    def test_select_many_matches_serial(self, collection, executor):
        serial = collection.select_many(self.QUERIES[:6])
        parallel = collection.select_many(self.QUERIES[:6], parallel=executor)
        assert [_shape(run) for run in parallel] == [_shape(run) for run in serial]
        assert [r.query for r in parallel.plan_reports] == [
            r.query for r in serial.plan_reports
        ]

    def test_parallel_nodes_are_the_callers_nodes(self, collection, executor):
        """Process workers return node *orders*; the merged results must
        reference the parent's node objects, never worker copies."""
        for serial_result, parallel_result in zip(
            collection.select("//b"), collection.select("//b", parallel=executor)
        ):
            for a, b in zip(serial_result.nodes, parallel_result.nodes):
                assert a is b

    def test_error_isolation_matches_serial(self, collection, executor):
        serial = collection.select("//b[$missing]")
        parallel = collection.select("//b[$missing]", parallel=executor)
        assert _shape(parallel) == _shape(serial)
        assert any(not r.ok for r in parallel) and any(r.ok for r in parallel)
        for result in parallel:
            if not result.ok:
                assert isinstance(result.error, VariableBindingError)
                assert result.error.name == "missing"
                assert result.nodes is None

    def test_all_engines_agree_with_serial(self, executor):
        collection = XPathSession().collection(
            [doc_flat(4), doc_figure8(), doc_deep(3), doc_idref()]
        )
        for engine in sorted(api.ENGINE_CLASSES):
            serial = collection.select("//b", engine=engine)
            parallel = collection.select("//b", engine=engine, parallel=executor)
            assert _shape(parallel) == _shape(serial), (executor.backend, engine)

    def test_session_stats_match_serial_accounting(self, executor, parse_collection):
        serial_session = XPathSession()
        parallel_session = XPathSession()
        for session, parallel in (
            (serial_session, False),
            (parallel_session, executor),
        ):
            docs = parse_collection(SOURCES, session)
            docs.select("//b", parallel=parallel)
            docs.select("//b[$missing]", parallel=parallel)
        serial, parallel = serial_session.stats, parallel_session.stats
        assert parallel.queries == serial.queries == 2 * len(SOURCES)
        assert parallel.errors == serial.errors
        assert parallel.limit_breaches == serial.limit_breaches
        assert parallel.total_work == serial.total_work
        assert parallel.engine_use == serial.engine_use

    def test_empty_collection(self, executor, parse_collection):
        docs = parse_collection([], XPathSession())
        batch = docs.select("//b", parallel=executor)
        assert list(batch) == []
        assert batch.backend == executor.backend

    def test_batch_run_reports_parallel_provenance(self, collection, executor):
        batch = collection.select("//b", parallel=executor)
        assert batch.backend == executor.backend
        assert batch.workers == 2
        serial = collection.select("//b", parallel=False)
        assert serial.backend is None and serial.workers is None


# ----------------------------------------------------------------------
# Thread-safety stress: one session, many client threads
# ----------------------------------------------------------------------
class TestSessionStress:
    THREADS = 8
    ITERATIONS = 25

    def test_threads_hammering_one_session(self):
        session = XPathSession()
        document = session.parse("<a><b>1</b><b>2</b><c><b>3</b></c></a>")
        shared = ["//b", "count(//b)", "/a/c/b", "string(//b[1])"]
        expected = {
            "//b": 3.0, "count(//b)": 3.0, "/a/c/b": 1.0, "string(//b[1])": "1",
        }
        failures: list = []
        barrier = threading.Barrier(self.THREADS)

        def hammer(worker: int) -> None:
            try:
                barrier.wait()
                for iteration in range(self.ITERATIONS):
                    for query in shared:
                        result = session.run(query, document)
                        count = (
                            float(len(result.value))
                            if isinstance(result.value, NodeSet)
                            else None
                        )
                        if count is not None and count != expected[query]:
                            raise AssertionError(f"{query}: {count}")
                    # A thread-unique query: always a compile, never a hit.
                    unique = f"//b[{worker * self.ITERATIONS + iteration + 1} > 0]"
                    nodes = session.select(unique, document)
                    if len(nodes) != 3:
                        raise AssertionError(f"{unique}: {len(nodes)}")
            except Exception as error:  # noqa: BLE001 - recorded for the assert
                failures.append(error)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures, failures
        total = self.THREADS * self.ITERATIONS * (len(shared) + 1)
        stats = session.stats
        assert stats.queries == total
        assert stats.errors == 0
        assert sum(stats.engine_use.values()) == total
        cache = session.cache.stats
        assert cache.lookups == total
        assert cache.hits + cache.misses == cache.lookups
        # Every unique query missed; the shared ones missed at most once
        # each per racing thread (losers of a compile race still count
        # their miss) and hit otherwise.
        unique_count = self.THREADS * self.ITERATIONS
        assert cache.misses >= unique_count + len(shared)
        assert cache.hits >= total - unique_count - len(shared) * self.THREADS

    def test_engine_instances_are_per_thread(self):
        session = XPathSession()
        seen = {}
        barrier = threading.Barrier(4)

        def grab(key: int) -> None:
            barrier.wait()
            seen[key] = session.engine("topdown")

        threads = [threading.Thread(target=grab, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        instances = list(seen.values())
        assert len({id(engine) for engine in instances}) == len(instances)
        # Within one thread the pool still returns the identical instance.
        assert session.engine("topdown") is session.engine("topdown")

    def test_plan_cache_concurrent_counters_are_exact(self):
        cache = PlanCache(maxsize=256)
        threads, per_thread = 8, 40
        barrier = threading.Barrier(threads)
        plans: list = []

        def hammer(worker: int) -> None:
            barrier.wait()
            local = []
            for i in range(per_thread):
                local.append(cache.get_or_compile("//a/b"))      # shared key
                cache.get_or_compile(f"//b[{worker}={worker}][{i}>0]")  # unique
            plans.extend(local)

        pool = [threading.Thread(target=hammer, args=(w,)) for w in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        stats = cache.stats
        assert stats.hits + stats.misses == stats.lookups == 2 * threads * per_thread
        # All hits on the shared key returned one identical plan object.
        assert len({id(plan) for plan in plans}) <= threads  # ≤ one racing compile each
        shared_plan = cache.get_or_compile("//a/b")
        assert plans.count(shared_plan) >= (threads - 1) * per_thread

    def test_default_session_stress_through_api(self):
        """The module-global default session (satellite 1): concurrent
        api.select traffic must neither raise nor corrupt the LRU."""
        document = api.parse("<a><b/><b/></a>")
        before = api.default_session().stats.queries
        errors: list = []
        barrier = threading.Barrier(6)

        def hammer(worker: int) -> None:
            try:
                barrier.wait()
                for i in range(20):
                    assert len(api.select("//b", document)) == 2
                    api.evaluate(f"count(//b[{worker + 1} + {i} > 0])", document)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        pool = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors, errors
        assert api.default_session().stats.queries == before + 6 * 40


# ----------------------------------------------------------------------
# EvalLimits under parallelism
# ----------------------------------------------------------------------
class TestLimitsUnderParallelism:
    @pytest.fixture(scope="class")
    def skewed(self):
        """One expensive document among cheap siblings."""
        return [doc_flat(2), doc_flat(400), doc_flat(3)]

    def test_op_budget_breach_is_isolated(self, skewed, executor):
        session = XPathSession()
        docs = session.collection(skewed)
        limits = EvalLimits(max_operations=200)
        serial = XPathSession().collection(skewed).select("//b", limits=limits)
        batch = docs.select("//b", limits=limits, parallel=executor)
        assert _shape(batch) == _shape(serial)
        assert [r.ok for r in batch] == [True, False, True]
        breach = batch[1].error
        assert isinstance(breach, ResourceLimitExceeded)
        assert breach.limit == "max_operations"
        # Partial stats survive the worker boundary and stay per-document.
        assert breach.stats is not None and breach.stats.total_work() > 200
        assert session.stats.queries == 3
        assert session.stats.errors == session.stats.limit_breaches == 1

    def test_timeout_breach_is_isolated(self, executor):
        # Exponential naive-engine work on the big document cannot finish
        # inside the budget; the tiny siblings finish in well under a
        # thousandth of it even on a loaded single-core machine.
        trap = "//b" + "/parent::a/b" * 8
        session = XPathSession()
        docs = session.collection([doc_flat(1), doc_flat(300), doc_flat(2)])
        batch = docs.select(
            trap,
            engine="naive",
            limits=EvalLimits(timeout_seconds=0.4),
            parallel=executor,
        )
        assert [r.ok for r in batch] == [True, False, True]
        assert isinstance(batch[1].error, ResourceLimitExceeded)
        assert batch[1].error.limit == "timeout_seconds"
        assert session.stats.limit_breaches == 1

    def test_breach_does_not_leak_into_sibling_results(self, skewed, executor):
        docs = XPathSession().collection(skewed)
        batch = docs.select(
            "//b", limits=EvalLimits(max_operations=200), parallel=executor
        )
        for result in (batch[0], batch[2]):
            assert result.ok and result.error is None
            assert [node.order for node in result.nodes] == [
                node.order
                for node in api.select("//b", result.document)
            ]

    def test_per_call_limits_override_session_limits(self, executor, parse_collection):
        session = XPathSession(limits=EvalLimits(max_operations=1))
        docs = parse_collection(["<a><b/></a>"], session)
        assert not docs.select("//b", parallel=executor).ok
        assert docs.select(
            "//b", limits=EvalLimits(max_operations=10_000), parallel=executor
        ).ok


# ----------------------------------------------------------------------
# Executor mechanics and the parallel= argument
# ----------------------------------------------------------------------
class TestExecutorMechanics:
    def test_chunks_cover_every_index_in_order(self):
        executor = ParallelExecutor(max_workers=3)
        for count in (1, 2, 3, 7, 100):
            chunks = executor._chunks(count)
            flat = [index for chunk in chunks for index in chunk]
            assert flat == list(range(count))
        assert ParallelExecutor(max_workers=3, chunk_size=2)._chunks(7) == [
            range(0, 2), range(2, 4), range(4, 6), range(6, 7),
        ]

    def test_invalid_configuration_rejected(self, parse_collection):
        with pytest.raises(ValueError, match="backend"):
            ParallelExecutor(backend="fibers")
        with pytest.raises(ValueError, match="max_workers"):
            ParallelExecutor(max_workers=0)
        with pytest.raises(ValueError, match="chunk_size"):
            ParallelExecutor(chunk_size=0)
        with pytest.raises(ValueError, match="require parallel"):
            parse_collection(["<a/>"], XPathSession()).select(
                "//b", parallel=False, max_workers=2
            )
        with pytest.raises(ValueError, match="not alongside"):
            resolve_executor(ParallelExecutor(), max_workers=2)

    def test_default_worker_count_is_positive(self):
        assert 1 <= default_max_workers() <= 4

    def test_ephemeral_true_builds_and_reports_a_pool(self, parse_collection):
        docs = parse_collection(SOURCES, XPathSession())
        batch = docs.select("//b", parallel=True, max_workers=2)
        assert batch.backend == "thread" and batch.workers == 2
        assert _shape(batch) == _shape(docs.select("//b"))

    def test_explicit_tuning_arguments_imply_parallel(self, parse_collection):
        """max_workers/backend mean parallel; with neither, parallel=None
        stays serial."""
        docs = parse_collection(SOURCES, XPathSession())
        assert docs.select("//b").backend is None
        assert docs.select("//b", max_workers=2).backend == "thread"
        assert docs.select("//b", backend="thread").workers >= 1
        assert docs.select_many(["//b"], max_workers=2)[0].backend == "thread"

    def test_executor_reusable_after_close(self, parse_collection):
        executor = ParallelExecutor(max_workers=2)
        docs = parse_collection(SOURCES, XPathSession())
        first = docs.select("//b", parallel=executor)
        executor.close()
        second = docs.select("//b", parallel=executor)  # pool rebuilt lazily
        assert _shape(first) == _shape(second)
        executor.close()

    def test_process_backend_rejects_node_set_variables(self, parse_collection):
        docs = parse_collection(["<a><b/></a>"], XPathSession())
        nodes = NodeSet(api.select("//b", api.parse("<a><b/></a>")))
        with ParallelExecutor(backend="process", max_workers=2) as executor:
            with pytest.raises(XPathEvaluationError, match="node set"):
                docs.select("//b", variables={"v": nodes}, parallel=executor)

    def test_compiled_plan_travels_to_process_workers(self, executor, parse_collection):
        """Plans without source text (built from ASTs) ship as pickles."""
        from repro.xpath.parser import parse_xpath

        ast = parse_xpath("//b")
        plan = api.compile_query(ast)
        assert plan.source is None
        docs = parse_collection(SOURCES, XPathSession())
        serial = docs.select(plan)
        parallel = docs.select(plan, parallel=executor)
        assert _shape(parallel) == _shape(serial)


# ----------------------------------------------------------------------
# A worker lost while a round is still being submitted
# ----------------------------------------------------------------------
class _SubmitAfterFirstChunk:
    """Pool proxy whose second ``submit`` waits until the first chunk ends.

    Under ``kill@chunk:index=0`` the first chunk's worker dies, so by then
    the pool is broken and the real ``submit`` raises ``BrokenProcessPool``:
    the race a slow submission loop loses, made deterministic.
    """

    def __init__(self, pool, submitted):
        self._pool = pool
        self._submitted = submitted

    def submit(self, *args):
        if len(self._submitted) == 1:
            wait(self._submitted, timeout=30)
        future = self._pool.submit(*args)
        self._submitted.append(future)
        return future


class TestWorkerLostDuringSubmission:
    SOURCES = SOURCES + ["<a><b/><b/><b/><b/></a>"]

    @pytest.fixture
    def executor(self, monkeypatch):
        executor = ParallelExecutor(backend="process", max_workers=1, chunk_size=2)
        real_pool = executor._ensure_pool
        submitted = []
        monkeypatch.setattr(
            executor,
            "_ensure_pool",
            lambda: _SubmitAfterFirstChunk(real_pool(), submitted),
        )
        with executor:
            yield executor

    def test_lost_submission_is_retried(self, executor):
        collection = api.parse_collection(self.SOURCES)
        serial = collection.select("//b")
        with inject(FaultPlan.parse("kill@chunk:index=0,max_attempt=1")):
            batch = collection.select("//b", parallel=executor, retries=3)
        assert batch.ok
        assert _shape(batch) == _shape(serial)
        lost = {
            fate.indices
            for fate in batch.failure_report.fates
            if fate.outcome == "lost" and fate.attempt == 0
        }
        # The killed chunk and the two chunks that could not be submitted.
        assert lost == {(0, 1), (2, 3), (4, 5)}

    def test_lost_submission_under_fail_fast(self, executor):
        collection = api.parse_collection(self.SOURCES)
        with inject(FaultPlan.parse("kill@chunk:index=0,max_attempt=1")):
            batch = collection.select(
                "//b", parallel=executor, retries=3, fail_fast=True
            )
        assert [type(result.error) for result in batch] == [
            WorkerLostError, WorkerLostError,
            BatchAborted, BatchAborted, BatchAborted, BatchAborted,
        ]
        assert all(fate.attempt == 0 for fate in batch.failure_report.fates)
