"""Fault-tolerance test offensive (ISSUE 6).

Five fronts, all driven by the deterministic fault-injection harness of
:mod:`repro.faultinject`:

* **the harness itself** — spec round-trips, seeded-plan determinism,
  environment activation (including ``random:`` seed specs, which are
  chaos input, not live plans);
* **unified isolation** — an unexpected non-``ReproError`` exception is
  wrapped into the *identical* ``UnexpectedEvaluationError`` by the
  serial, thread and process paths (the ISSUE-6 satellite fix);
* **worker recovery** — a killed process worker / corrupted result wire
  costs nothing but a retry: the batch completes node-for-node identical
  to serial, the :class:`~repro.parallel.FailureReport` records the
  recovery chain, and exhausted retries degrade to in-parent serial
  evaluation rather than failing documents;
* **deadlines** — an injected hang converts to a per-document
  ``batch_deadline`` :class:`ResourceLimitExceeded` well before the hang
  would have finished, on the serial, parallel and streaming paths alike;
* **chaos differential** — random seeded fault plans over a small corpus:
  every document that reports success must match the fault-free serial
  run exactly, and recoverable-only plans must heal to full equality.

Tests that bring their own executor run once per batch surface of the
mode registry (``surface_batch_mode``: in-memory, store-backed, source and
streamed-source collections), so recovery and deadlines are checked on
every kind of batch entry.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time

import pytest

from repro import api
from repro.collection import BatchRun
from repro.engines.base import EvalLimits
from repro.errors import (
    BatchAborted,
    ResourceLimitExceeded,
    UnexpectedEvaluationError,
    WorkerLostError,
    XMLSyntaxError,
)
from repro.faultinject import (
    FAULT_PLAN_ENV,
    Fault,
    FaultPlan,
    InjectedFault,
    active_plan,
    inject,
    seeds_from_env,
)
from repro.parallel import (
    ChunkFate,
    FailureReport,
    ParallelExecutor,
    RetryPolicy,
)
from repro.session import XPathSession
from repro.xpath.values import NodeSet

SOURCES = [
    "<a><b/><b/></a>",
    "<a/>",
    "<a><b>c</b><c/><b>c</b><b/></a>",
    "<a x='1'><b y='2'>t</b><!--note--></a>",
    "<a><a><a><b/></a></a></a>",
    "<a><b/><b/><b/><b/></a>",
]

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.01, backoff_cap=0.05)


def _shape(batch: BatchRun):
    """A comparable fingerprint: per-document orders / value / error type."""
    shape = []
    for result in batch:
        if not result.ok:
            shape.append(("error", type(result.error).__name__))
        elif result.nodes is not None:
            shape.append(("nodes", tuple(node.order for node in result.nodes)))
        elif result.matches is not None:
            shape.append(
                ("matches", tuple((m.order, m.label) for m in result.matches))
            )
        elif isinstance(result.value, NodeSet):
            shape.append(("nodeset", tuple(node.order for node in result.value)))
        else:
            shape.append(("value", result.value))
    return shape


# ----------------------------------------------------------------------
# The harness itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_round_trip(self):
        spec = (
            "kill@chunk:index=2,max_attempt=1;"
            "hang@document:index=0,seconds=0.5;"
            "delay@stream.token:index=100,seconds=0.2;"
            "fail@parse:index=3"
        )
        plan = FaultPlan.parse(spec)
        assert len(plan.faults) == 4
        assert plan.faults[0] == Fault("chunk", "kill", index=2, max_attempt=1)
        assert plan.faults[1].seconds == 0.5
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("kill-chunk")  # no ACTION@SITE separator
        with pytest.raises(ValueError):
            FaultPlan.parse("kill@nowhere")  # unknown site
        with pytest.raises(ValueError):
            FaultPlan.parse("hang@chunk")  # action invalid at site
        with pytest.raises(ValueError):
            FaultPlan.parse("kill@chunk:index")  # option without value

    def test_attempt_gating(self):
        fault = Fault("chunk", "kill", index=1, max_attempt=2)
        assert fault.matches("chunk", (0, 1), attempt=0)
        assert fault.matches("chunk", (0, 1), attempt=1)
        assert not fault.matches("chunk", (0, 1), attempt=2)
        assert not fault.matches("chunk", (2, 3), attempt=0)  # index miss
        assert not fault.matches("document", (1,), attempt=0)  # site miss

    def test_random_plans_are_deterministic(self):
        one = FaultPlan.random(42, documents=8)
        two = FaultPlan.random(42, documents=8)
        assert one == two
        assert one.seed == 42
        assert FaultPlan.random(43, documents=8) != one or True  # may collide
        recoverable = FaultPlan.random(7, documents=8, recoverable_only=True)
        assert all(f.site == "chunk" for f in recoverable.faults)
        assert all(f.max_attempt is not None for f in recoverable.faults)

    def test_env_activation_literal_spec(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "raise@document:index=1")
        plan = active_plan()
        assert plan is not None
        assert plan.faults == (Fault("document", "raise", index=1),)
        monkeypatch.setenv(FAULT_PLAN_ENV, "raise@document:index=2")
        assert active_plan().faults[0].index == 2  # cache keyed by spec
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert active_plan() is None

    def test_env_random_spec_feeds_seeds_not_plans(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "random:11,23,37")
        assert active_plan() is None
        assert seeds_from_env() == (11, 23, 37)
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert seeds_from_env(default=(5,)) == (5,)

    def test_inject_restores_previous_plan(self):
        outer = FaultPlan.parse("raise@document:index=0")
        inner = FaultPlan.parse("raise@document:index=1")
        with inject(outer):
            assert active_plan() is outer
            with inject(inner):
                assert active_plan() is inner
            with inject(None):  # no-op: outer still applies
                assert active_plan() is outer
        assert active_plan() is None


# ----------------------------------------------------------------------
# Unified per-document isolation (satellite fix)
# ----------------------------------------------------------------------
class TestUnifiedIsolation:
    """An unexpected exception is wrapped identically on every path."""

    QUERY = "//b"
    PLAN = FaultPlan.parse("raise@document:index=2")

    def _run(self, mode, **kwargs):
        collection = mode.build(SOURCES, session=XPathSession())
        with inject(self.PLAN):
            return collection.select(self.QUERY, **mode.options, **kwargs)

    def test_serial_wraps_instead_of_raising(self, surface_batch_mode):
        batch = self._run(surface_batch_mode)
        assert not batch.ok
        error = batch[2].error
        assert isinstance(error, UnexpectedEvaluationError)
        assert error.original_type == "InjectedFault"
        assert all(batch[i].ok for i in (0, 1, 3, 4, 5))

    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_parallel_wraps_identically_to_serial(self, surface_batch_mode, backend):
        serial = self._run(surface_batch_mode)
        parallel = self._run(
            surface_batch_mode, parallel=True, backend=backend, max_workers=2
        )
        # Value equality across the pickle boundary: same type, args, attrs.
        assert parallel[2].error == serial[2].error
        assert _shape(parallel) == _shape(serial)
        # No chunk was lost — a document-site fault is not a worker fault.
        assert parallel.failure_report is None


# ----------------------------------------------------------------------
# Worker-failure recovery
# ----------------------------------------------------------------------
class TestWorkerRecovery:
    QUERY = "//b"

    @pytest.fixture()
    def session(self):
        return XPathSession()

    def _serial_shape(self, session, mode):
        collection = mode.build(SOURCES, session=session)
        return _shape(collection.select(self.QUERY, **mode.options))

    def test_process_kill_recovered_by_retry(self, session, surface_batch_mode):
        mode = surface_batch_mode
        collection = mode.build(SOURCES, session=session)
        with inject(FaultPlan.parse("kill@chunk:index=0,max_attempt=1")):
            with ParallelExecutor(backend="process", max_workers=2) as ex:
                batch = collection.select(
                    self.QUERY, parallel=ex, retries=FAST_RETRY, **mode.options
                )
        assert batch.ok
        assert _shape(batch) == self._serial_shape(session, mode)
        report = batch.failure_report
        assert report is not None
        assert report.worker_failures >= 1
        assert any(fate.outcome == "lost" for fate in report.fates)
        assert any(
            fate.outcome == "ok" and fate.attempt > 0 for fate in report.fates
        )
        assert report.degraded_chunks == 0
        assert session.stats.worker_failures >= 1
        assert session.stats.retries >= 1

    def test_process_kill_every_attempt_degrades_to_serial(
        self, session, surface_batch_mode
    ):
        mode = surface_batch_mode
        collection = mode.build(SOURCES, session=session)
        with inject(FaultPlan.parse("kill@chunk:index=0")):
            with ParallelExecutor(backend="process", max_workers=2) as ex:
                batch = collection.select(
                    self.QUERY, parallel=ex,
                    retries=RetryPolicy(max_attempts=2, backoff_base=0.01),
                    **mode.options,
                )
        assert batch.ok  # degradation is invisible in the results
        assert _shape(batch) == self._serial_shape(session, mode)
        report = batch.failure_report
        assert "process->serial" in report.backend_transitions
        assert report.degraded_chunks >= 1
        assert session.stats.degraded_chunks >= 1

    def test_corrupt_result_wire_recovered(self, session, surface_batch_mode):
        mode = surface_batch_mode
        collection = mode.build(SOURCES, session=session)
        with inject(FaultPlan.parse("corrupt@chunk:index=0,max_attempt=1")):
            with ParallelExecutor(backend="process", max_workers=2) as ex:
                batch = collection.select(
                    self.QUERY, parallel=ex, retries=FAST_RETRY, **mode.options
                )
        assert batch.ok
        assert _shape(batch) == self._serial_shape(session, mode)
        assert batch.failure_report.worker_failures >= 1

    def test_thread_chunk_raise_recovered(self, session, surface_batch_mode):
        mode = surface_batch_mode
        collection = mode.build(SOURCES, session=session)
        with inject(FaultPlan.parse("raise@chunk:index=0,max_attempt=1")):
            batch = collection.select(
                self.QUERY, parallel=True, backend="thread", max_workers=2,
                retries=FAST_RETRY, **mode.options,
            )
        assert batch.ok
        assert _shape(batch) == self._serial_shape(session, mode)
        assert batch.failure_report.worker_failures >= 1
        assert batch.degraded

    def test_chunks_are_split_on_retry(self, session, surface_batch_mode):
        mode = surface_batch_mode
        collection = mode.build(SOURCES, session=session)
        with inject(FaultPlan.parse("raise@chunk:index=0,max_attempt=1")):
            with ParallelExecutor(
                backend="thread", max_workers=2, chunk_size=len(SOURCES)
            ) as ex:
                batch = collection.select(
                    self.QUERY, parallel=ex, retries=FAST_RETRY, **mode.options
                )
        assert batch.ok
        retried = [f for f in batch.failure_report.fates if f.attempt > 0]
        assert len(retried) >= 2  # the one big chunk came back as halves
        lost = [f for f in batch.failure_report.fates if f.outcome == "lost"]
        assert len(lost[0].indices) == len(SOURCES)

    def test_fail_fast_abandons_instead_of_retrying(self, session, surface_batch_mode):
        mode = surface_batch_mode
        collection = mode.build(SOURCES, session=session)
        with inject(FaultPlan.parse("kill@chunk:index=0,max_attempt=1")):
            with ParallelExecutor(
                backend="process", max_workers=1, chunk_size=2
            ) as ex:
                batch = collection.select(
                    self.QUERY, parallel=ex, retries=FAST_RETRY, fail_fast=True,
                    **mode.options,
                )
        assert not batch.ok
        assert isinstance(batch[0].error, WorkerLostError)
        assert batch[0].error.attempts == 1
        # Everything was resolved on attempt 0 — no retries under fail_fast.
        assert all(fate.attempt == 0 for fate in batch.failure_report.fates)
        # Later entries either finished before the failure or were cancelled.
        for result in list(batch)[2:]:
            assert result.ok or isinstance(result.error, BatchAborted)

    def test_source_collection_recovery(self, session):
        collection = session.stream_collection(SOURCES)
        serial = collection.select(self.QUERY, stream=True)
        with inject(FaultPlan.parse("kill@chunk:index=1,max_attempt=1")):
            with ParallelExecutor(backend="process", max_workers=2) as ex:
                batch = collection.select(
                    self.QUERY, stream=True, parallel=ex, retries=FAST_RETRY
                )
        assert batch.ok
        assert _shape(batch) == _shape(serial)
        assert batch.failure_report.worker_failures >= 1


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadline:
    QUERY = "//b"

    def test_hung_worker_converts_to_limit_error_within_deadline(
        self, surface_batch_mode
    ):
        """The ISSUE-6 acceptance scenario: an injected per-document hang
        converts to ``ResourceLimitExceeded`` within the batch deadline
        instead of stalling the batch."""
        options = surface_batch_mode.options
        collection = surface_batch_mode.build(SOURCES, session=XPathSession())
        serial = collection.select(self.QUERY, **options)
        started = time.monotonic()
        with inject(FaultPlan.parse("hang@document:index=1,seconds=2.5")):
            with ParallelExecutor(
                backend="process", max_workers=2, chunk_size=1
            ) as ex:
                batch = collection.select(
                    self.QUERY, parallel=ex, deadline=0.5, retries=FAST_RETRY,
                    **options,
                )
        elapsed = time.monotonic() - started
        assert elapsed < 2.0  # the 2.5 s hang did not stall the batch
        error = batch[1].error
        assert isinstance(error, ResourceLimitExceeded)
        assert error.limit == "batch_deadline"
        report = batch.failure_report
        assert report is not None and report.hung_chunks >= 1
        # Documents that completed before the deadline match serial exactly.
        for index, result in enumerate(batch):
            if result.ok:
                assert _shape(batch)[index] == _shape(serial)[index]

    def test_hung_process_workers_are_terminated(self, surface_batch_mode):
        """``_abandon_pool`` must kill hung process workers outright:
        ``concurrent.futures`` joins surviving workers at interpreter
        exit, so a leaked hung worker would hold the whole program
        hostage until the hang ended — long after the batch returned."""
        before = set(p.pid for p in multiprocessing.active_children())
        options = surface_batch_mode.options
        collection = surface_batch_mode.build(SOURCES, session=XPathSession())
        with inject(FaultPlan.parse("hang@document:index=1,seconds=5.0")):
            with ParallelExecutor(
                backend="process", max_workers=2, chunk_size=1
            ) as ex:
                batch = collection.select(
                    self.QUERY, parallel=ex, deadline=0.4, retries=FAST_RETRY,
                    **options,
                )
        assert batch.failure_report is not None
        assert batch.failure_report.hung_chunks >= 1
        # SIGTERM needs a moment to land; well under the 5 s hang.
        cutoff = time.monotonic() + 3.0
        while time.monotonic() < cutoff:
            leaked = [
                p for p in multiprocessing.active_children()
                if p.pid not in before
            ]
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked, f"hung workers survived _abandon_pool: {leaked}"

    def test_deadline_survives_wall_clock_jump(self, monkeypatch, surface_batch_mode):
        """Regression (ISSUE 9): batch deadlines were computed on
        ``time.time()`` while ``LimitGuard`` measures on
        ``time.monotonic()``, so a wall-clock step (NTP correction, DST,
        an admin ``date`` call) mid-batch inflated or collapsed every
        per-document budget.  Deadlines now live entirely on the
        monotonic clock: a one-hour forward jump right after the deadline
        is set must not fail a batch with 30 s of budget."""
        options = surface_batch_mode.options
        collection = surface_batch_mode.build(SOURCES, session=XPathSession())
        serial = collection.select(self.QUERY, **options)
        base = time.time()
        calls = [0]

        def jumping_time():
            calls[0] += 1
            return base if calls[0] == 1 else base + 3600.0

        monkeypatch.setattr(time, "time", jumping_time)
        batch = collection.select(self.QUERY, deadline=30.0, **options)
        assert batch.ok, (
            "a wall-clock jump collapsed the monotonic batch deadline"
        )
        assert _shape(batch) == _shape(serial)

    def test_deadline_survives_wall_clock_jump_threaded(
        self, monkeypatch, surface_batch_mode
    ):
        """Same regression through the thread backend: the executor's
        future-wait timeout and retry backoff clamp must also ignore the
        wall clock."""
        options = surface_batch_mode.options
        collection = surface_batch_mode.build(SOURCES, session=XPathSession())
        serial = collection.select(self.QUERY, **options)
        base = time.time()
        calls = [0]

        def jumping_time():
            calls[0] += 1
            return base if calls[0] == 1 else base + 3600.0

        monkeypatch.setattr(time, "time", jumping_time)
        with ParallelExecutor(backend="thread", max_workers=2) as ex:
            batch = collection.select(
                self.QUERY, parallel=ex, deadline=30.0, **options
            )
        assert batch.ok
        assert _shape(batch) == _shape(serial)

    def test_serial_deadline_bounds_the_batch(self, surface_batch_mode):
        collection = surface_batch_mode.build(SOURCES, session=XPathSession())
        started = time.monotonic()
        with inject(FaultPlan.parse("hang@document:index=0,seconds=0.4")):
            batch = collection.select(
                self.QUERY, deadline=0.2, **surface_batch_mode.options
            )
        assert time.monotonic() - started < 2.0
        # The hang consumed the whole budget: doc 0 (and the rest, whose
        # remaining budget is 0) fail with the batch_deadline limit error.
        assert isinstance(batch[0].error, ResourceLimitExceeded)
        assert batch[0].error.limit == "batch_deadline"

    def test_expired_source_batch_parses_nothing(self, monkeypatch):
        """Regression: a source batch checked its deadline only after
        parsing each source, so an expired batch still parsed every
        remaining source before failing it.  The deadline is now checked
        before an entry's input is obtained."""
        from repro import parallel

        parsed = []
        real_parse = parallel.parse_xml

        def counting_parse(source, **kwargs):
            parsed.append(source)
            return real_parse(source, **kwargs)

        monkeypatch.setattr(parallel, "parse_xml", counting_parse)
        collection = XPathSession().stream_collection(
            ["<a>" + "<b/>" * 2000 + "</a>"] * 20
        )
        with inject(FaultPlan.parse("hang@document:index=0,seconds=0.4")):
            batch = collection.select(self.QUERY, stream=False, deadline=0.2)
        assert all(result.error.limit == "batch_deadline" for result in batch)
        assert parsed == []

    def test_streaming_token_delay_hits_timeout(self):
        session = XPathSession()
        source = "<a>" + "<b/>" * 50 + "</a>"
        with inject(FaultPlan.parse("delay@stream.token:index=10,seconds=0.4")):
            with pytest.raises(ResourceLimitExceeded) as info:
                session.stream(
                    "//b", source, limits=EvalLimits(timeout_seconds=0.1)
                )
        assert info.value.limit == "timeout_seconds"

    def test_source_collection_stream_deadline(self, backend_batch_mode):
        session = XPathSession()
        collection = session.stream_collection(
            ["<a>" + "<b/>" * 50 + "</a>"] * 3
        )
        with inject(FaultPlan.parse("delay@stream.token:index=10,seconds=0.3")):
            batch = collection.select(
                "//b", stream=True, deadline=0.2, **backend_batch_mode.options
            )
        assert not batch.ok
        assert any(
            isinstance(r.error, ResourceLimitExceeded) for r in batch
        )

    def test_serial_fail_fast_cancels_remaining(self, surface_batch_mode):
        collection = surface_batch_mode.build(SOURCES, session=XPathSession())
        with inject(FaultPlan.parse("raise@document:index=1")):
            batch = collection.select(
                self.QUERY, fail_fast=True, **surface_batch_mode.options
            )
        assert batch[0].ok
        assert isinstance(batch[1].error, UnexpectedEvaluationError)
        for result in list(batch)[2:]:
            assert isinstance(result.error, BatchAborted)


# ----------------------------------------------------------------------
# Reports and errors across the pickle boundary (satellite fix)
# ----------------------------------------------------------------------
class TestReportsPickle:
    def test_errors_round_trip_equal(self):
        errors = [
            ResourceLimitExceeded("batch_deadline", "deadline expired"),
            WorkerLostError("worker lost evaluating document 3", attempts=2),
            UnexpectedEvaluationError.wrap(ValueError("boom")),
            BatchAborted("cancelled by fail_fast"),
        ]
        for error in errors:
            clone = pickle.loads(pickle.dumps(error))
            assert clone == error
            assert hash(clone) == hash(error)

    def test_error_inequality_is_structural(self):
        assert WorkerLostError("m", attempts=1) != WorkerLostError("m", attempts=2)
        assert WorkerLostError("m", attempts=1) != BatchAborted("m")
        assert UnexpectedEvaluationError.wrap(ValueError("x")) != (
            UnexpectedEvaluationError.wrap(TypeError("x"))
        )

    def test_failure_report_round_trips(self):
        report = FailureReport(
            fates=[
                ChunkFate((0, 1), 0, "process", "lost", "BrokenProcessPool: x"),
                ChunkFate((0,), 1, "process", "ok"),
                ChunkFate((1,), 1, "process", "degraded"),
            ],
            backend_transitions=["process retry 1", "process->serial"],
        )
        clone = pickle.loads(pickle.dumps(report))
        assert clone == report
        assert clone.worker_failures == 1
        assert clone.retries == 1
        assert clone.degraded_chunks == 1
        assert "process->serial" in clone.summary()
        assert "docs [0, 1]" in report.fates[0].describe()


# ----------------------------------------------------------------------
# Chaos differential
# ----------------------------------------------------------------------
class TestChaosDifferential:
    """Seeded random fault plans: survivors must equal the serial run."""

    QUERIES = ["//b", "count(//b)"]
    SEEDS = seeds_from_env(default=(11, 23, 37))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_successful_documents_match_serial(self, seed, surface_batch_mode):
        options = surface_batch_mode.options
        collection = surface_batch_mode.build(SOURCES, session=XPathSession())
        plan = FaultPlan.random(seed, documents=len(SOURCES))
        for query in self.QUERIES:
            baseline = _shape(collection.evaluate(query, **options))
            with inject(plan):
                with ParallelExecutor(
                    backend="process", max_workers=2, chunk_size=2
                ) as ex:
                    chaotic = collection.evaluate(
                        query, parallel=ex, retries=FAST_RETRY, deadline=10.0,
                        **options,
                    )
            for index, result in enumerate(chaotic):
                if result.ok:
                    assert _shape(chaotic)[index] == baseline[index], (
                        seed, query, plan.to_spec()
                    )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_recoverable_faults_heal_completely(self, seed, surface_batch_mode):
        options = surface_batch_mode.options
        collection = surface_batch_mode.build(SOURCES, session=XPathSession())
        plan = FaultPlan.random(
            seed, documents=len(SOURCES), recoverable_only=True
        )
        retry = RetryPolicy(max_attempts=4, backoff_base=0.01, backoff_cap=0.05)
        for query in self.QUERIES:
            baseline = _shape(collection.evaluate(query, **options))
            with inject(plan):
                with ParallelExecutor(
                    backend="process", max_workers=2, chunk_size=2
                ) as ex:
                    healed = collection.evaluate(
                        query, parallel=ex, retries=retry, **options
                    )
            assert healed.ok, (seed, query, plan.to_spec())
            assert _shape(healed) == baseline
