"""Deterministic fault injection for the batch-execution stack.

Production robustness claims ("a dead worker cannot poison the batch",
"a hung document converts to a per-item limit error within the deadline")
are only testable if the faults themselves are reproducible.  This module
provides the injection points the executor, the shared per-document
evaluation steps, and the streaming token loop consult, driven by a
:class:`FaultPlan` — an immutable schedule of :class:`Fault` entries that
can be expressed as a compact spec string, shipped across process
boundaries, and replayed exactly.

Activation, in precedence order:

* :func:`inject` — a context manager installing a plan for the enclosed
  code (what the fault-tolerance tests use);
* the :data:`FAULT_PLAN_ENV` environment variable (``REPRO_FAULT_PLAN``),
  holding either a literal spec string — which worker processes inherit,
  so CLI end-to-end tests need no plumbing — or ``random:SEED[,SEED...]``,
  which is *not* a live plan: it feeds seeds to the chaos differential
  suite via :func:`seeds_from_env` while :func:`active_plan` ignores it.

With neither present, :func:`active_plan` returns ``None`` and every hook
site is a cheap no-op — the fault-free overhead bar asserted by
``benchmarks/bench_faults.py`` depends on this.

The fault matrix (site × action):

=============== =========== ====================================================
site            actions     effect
=============== =========== ====================================================
``chunk``       ``kill``    process worker: ``os._exit`` (→ BrokenProcessPool);
                            thread worker: raise :class:`InjectedFault`
                ``raise``   raise :class:`InjectedFault` out of the worker call
                ``corrupt`` process worker returns an unpicklable object
                            (→ pickling failure on the result wire);
                            thread worker raises (no wire to corrupt)
``document``    ``raise``   raise :class:`InjectedFault` inside the shared
                            per-document evaluation step (wrapped into
                            ``UnexpectedEvaluationError`` on every path)
                ``hang``    sleep ``seconds`` inside the evaluation step —
                            an uncooperative stall the deadline must bound
``parse``       ``fail``    raise :class:`~repro.errors.XMLSyntaxError` for
                            the matching source document
``stream.token`` ``delay``  sleep ``seconds`` at the matching event of the
                            streaming scan loop: one per event the XML
                            reader yields, none for the DOCTYPE, the XML
                            declaration, the end of input or whitespace-only
                            text outside the document element
``store``       ``corrupt`` raise :class:`~repro.errors.StoreCorruptError` when
                            the matching stored document is first read from its
                            store file (simulated on-disk damage; the batch
                            paths must isolate it per document)
=============== =========== ====================================================

Faults are *attempt-gated*: ``max_attempt=K`` fires only while the
executor's retry attempt is below K, so "kill the worker once, recover on
retry" and "kill it every time, force degradation" are both one-line specs.

Spec syntax (``;``-separated entries)::

    kill@chunk:index=2,max_attempt=1
    hang@document:index=0,seconds=0.5
    delay@stream.token:index=100,seconds=0.2;fail@parse:index=3

``index`` restricts a fault to schedules containing that document (or event
ordinal); omitted, the fault matches every occurrence of its site.
"""

from __future__ import annotations

import os
import random as _random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import StoreCorruptError, XMLSyntaxError

#: Environment variable carrying a fault-plan spec (or ``random:`` seeds).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit code of an injected worker kill (recognisable in worker post-mortems).
KILL_EXIT_CODE = 13

#: Valid actions per injection site.
SITE_ACTIONS: dict[str, frozenset[str]] = {
    "chunk": frozenset({"kill", "raise", "corrupt"}),
    "document": frozenset({"raise", "hang"}),
    "parse": frozenset({"fail"}),
    "stream.token": frozenset({"delay"}),
    "store": frozenset({"corrupt"}),
}


class InjectedFault(RuntimeError):
    """An artificially injected failure.

    Deliberately *not* a :class:`~repro.errors.ReproError`: document-site
    injections exercise the unexpected-exception isolation path, and
    chunk-site injections must look like infrastructure failures, not like
    per-document evaluation errors.
    """


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: where, what, when."""

    #: Injection site: ``chunk`` / ``document`` / ``parse`` / ``stream.token``.
    site: str
    #: Action at the site — see :data:`SITE_ACTIONS`.
    action: str
    #: Document index (or token ordinal) the fault is restricted to;
    #: ``None`` matches every occurrence of the site.
    index: Optional[int] = None
    #: Sleep duration of ``hang`` / ``delay`` actions.
    seconds: float = 0.0
    #: Fire only while the executor's retry attempt is below this;
    #: ``None`` fires on every attempt (forces degradation).
    max_attempt: Optional[int] = None

    def __post_init__(self):
        actions = SITE_ACTIONS.get(self.site)
        if actions is None:
            raise ValueError(
                f"unknown fault site {self.site!r}; choose from "
                f"{sorted(SITE_ACTIONS)}"
            )
        if self.action not in actions:
            raise ValueError(
                f"action {self.action!r} is not valid at site {self.site!r} "
                f"(valid: {sorted(actions)})"
            )

    def matches(self, site: str, indices: Sequence[int], attempt: int) -> bool:
        """Does this fault fire for ``site`` over ``indices`` at ``attempt``?"""
        if self.site != site:
            return False
        if self.max_attempt is not None and attempt >= self.max_attempt:
            return False
        if self.index is not None and self.index not in indices:
            return False
        return True

    def to_spec(self) -> str:
        options = []
        if self.index is not None:
            options.append(f"index={self.index}")
        if self.seconds:
            options.append(f"seconds={self.seconds:g}")
        if self.max_attempt is not None:
            options.append(f"max_attempt={self.max_attempt}")
        head = f"{self.action}@{self.site}"
        return f"{head}:{','.join(options)}" if options else head


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable schedule of faults.

    Plans travel to process workers as an explicit argument of the chunk
    call (an :func:`inject`-installed plan does not cross a process
    boundary by itself), and reinstall themselves inside the worker.
    """

    faults: tuple[Fault, ...]
    #: Seed the plan was generated from (:meth:`random`), for reporting.
    seed: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``ACTION@SITE[:k=v,...]`` ``;``-separated spec format."""
        faults = []
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            head, _, tail = raw.partition(":")
            action, separator, site = head.partition("@")
            if not separator:
                raise ValueError(
                    f"fault entry {raw!r} must look like ACTION@SITE[:k=v,...]"
                )
            kwargs: dict = {}
            for pair in tail.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, separator, value = pair.partition("=")
                key = key.strip()
                if not separator:
                    raise ValueError(f"fault option {pair!r} must be key=value")
                if key == "index":
                    kwargs["index"] = int(value)
                elif key == "seconds":
                    kwargs["seconds"] = float(value)
                elif key == "max_attempt":
                    kwargs["max_attempt"] = int(value)
                else:
                    raise ValueError(f"unknown fault option {key!r}")
            faults.append(Fault(site.strip(), action.strip(), **kwargs))
        return cls(tuple(faults))

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        documents: int,
        recoverable_only: bool = False,
        max_faults: int = 3,
    ) -> "FaultPlan":
        """A deterministic pseudo-random plan for the chaos suite.

        ``recoverable_only=True`` draws only attempt-gated chunk-level
        faults (kill / corrupt-pickle), which the retry machinery must heal
        completely — the chaos test then asserts the batch is *identical*
        to the fault-free serial run.  The default mix adds per-document
        faults (raise / hang / parse failure), whose documents legitimately
        fail; the differential assertion covers the surviving documents.
        """
        rng = _random.Random(seed)
        faults = []
        for _ in range(rng.randint(1, max_faults)):
            if recoverable_only or rng.random() < 0.6:
                faults.append(
                    Fault(
                        "chunk",
                        rng.choice(("kill", "corrupt")),
                        index=rng.randrange(documents),
                        max_attempt=rng.randint(1, 2),
                    )
                )
            else:
                action = rng.choice(("raise", "hang", "fail"))
                site = "parse" if action == "fail" else "document"
                faults.append(
                    Fault(
                        site,
                        action,
                        index=rng.randrange(documents),
                        seconds=(
                            round(rng.uniform(0.01, 0.04), 3)
                            if action == "hang"
                            else 0.0
                        ),
                    )
                )
        return cls(tuple(faults), seed=seed)

    def to_spec(self) -> str:
        """The plan as a spec string (round-trips through :meth:`parse`)."""
        return ";".join(fault.to_spec() for fault in self.faults)

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def match(
        self,
        site: str,
        *,
        action: Optional[str] = None,
        indices: Sequence[int] = (),
        attempt: int = 0,
    ) -> Optional[Fault]:
        """The first matching fault, or ``None`` — for actions the call
        site must realise itself (returning an unpicklable result)."""
        for fault in self.faults:
            if action is not None and fault.action != action:
                continue
            if fault.matches(site, indices, attempt):
                return fault
        return None

    def fire(
        self,
        site: str,
        *,
        indices: Sequence[int] = (),
        attempt: int = 0,
        process_worker: bool = False,
    ) -> None:
        """Realise every matching fault at ``site`` (kill / raise / sleep).

        ``corrupt`` is intentionally inert here for process workers — the
        worker entry point consults :meth:`match` after evaluating and
        returns an unpicklable result instead; in a thread worker there is
        no result wire to corrupt, so it degenerates to a raise.
        """
        for fault in self.faults:
            if not fault.matches(site, indices, attempt):
                continue
            where = f"{site} {list(indices)!r} (attempt {attempt})"
            if fault.action == "kill":
                if process_worker:
                    os._exit(KILL_EXIT_CODE)
                raise InjectedFault(f"injected worker loss at {where}")
            if fault.action == "raise":
                raise InjectedFault(f"injected fault at {where}")
            if fault.action == "corrupt" and site == "store":
                raise StoreCorruptError(
                    f"injected store corruption at {where}",
                    position=indices[0] if indices else None,
                )
            if fault.action == "corrupt" and not process_worker:
                raise InjectedFault(f"injected result corruption at {where}")
            if fault.action == "fail":
                raise XMLSyntaxError(f"injected parse failure at {where}")
            if fault.action in ("hang", "delay"):
                time.sleep(fault.seconds)

    def __bool__(self) -> bool:
        return bool(self.faults)


# ----------------------------------------------------------------------
# Activation
# ----------------------------------------------------------------------
_INSTALLED: Optional[FaultPlan] = None
#: Cache of the last parsed environment spec: ``(spec, plan_or_None)``.
_ENV_CACHE: tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def active_plan() -> Optional[FaultPlan]:
    """The plan hook sites consult: installed plan, else environment spec.

    Returns ``None`` (the fast path) when no plan is active; ``random:``
    seed specs are chaos-suite input, not live plans, and also yield
    ``None``.
    """
    if _INSTALLED is not None:
        return _INSTALLED
    spec = os.environ.get(FAULT_PLAN_ENV)
    if not spec:
        return None
    global _ENV_CACHE
    cached_spec, cached_plan = _ENV_CACHE
    if spec != cached_spec:
        cached_plan = None if spec.startswith("random:") else FaultPlan.parse(spec)
        _ENV_CACHE = (spec, cached_plan)
    return cached_plan


def seeds_from_env(default: Sequence[int] = ()) -> tuple[int, ...]:
    """Chaos seeds from ``REPRO_FAULT_PLAN=random:SEED[,SEED...]``."""
    spec = os.environ.get(FAULT_PLAN_ENV, "")
    if spec.startswith("random:"):
        return tuple(
            int(part) for part in spec[len("random:"):].split(",") if part.strip()
        )
    return tuple(default)


@contextmanager
def inject(plan: Optional[FaultPlan]) -> Iterator[None]:
    """Install ``plan`` for the enclosed code (``None`` is a no-op, so an
    environment-activated plan keeps applying inside workers)."""
    global _INSTALLED
    if plan is None:
        yield
        return
    previous = _INSTALLED
    _INSTALLED = plan
    try:
        yield
    finally:
        _INSTALLED = previous
