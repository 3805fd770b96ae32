"""Fragment classification (the lattice of Figure 1).

Given a query, determine the smallest fragment of Figure 1 that contains it:

    Core XPath  ⊂  XPatterns            (linear time O(|D|·|Q|))
    Core XPath  ⊂  Extended Wadler      (O(|D|) space, O(|D|²) time)
    everything  ⊂  Full XPath           (polynomial combined complexity)

and recommend an engine for it (what ``engine="auto"`` resolves to):

* ``compiled`` whenever the query is compilable — the whole linear-time
  fragment (the same O(|D|·|Q|) algebra, run over flat columns), plus
  ``count(π)``, ``π op N`` and ``[k]`` / ``[last()]`` on child and
  sibling steps, whose array forms are linear too (see
  :func:`repro.engines.compiled.analyze_compilability`);
* ``optmincontext`` for the rest (it adheres to the per-fragment bounds by
  construction).

The recommendation is orthogonal to ``fragment`` and ``complexity``, which
always report the Figure-1 lattice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from ..engines.relevance import compute_relevance
from ..streaming import analyze_streamability
from ..xpath.ast import Expression
from ..xpath.normalize import compile_query
from .core_xpath import is_core_xpath
from .wadler import wadler_violations
from .xpatterns import is_xpatterns

if TYPE_CHECKING:
    from ..engines.compiled import CompilabilityReport


class Fragment(enum.Enum):
    """The XPath fragments of Figure 1."""

    CORE_XPATH = "Core XPath"
    XPATTERNS = "XPatterns"
    EXTENDED_WADLER = "Extended Wadler Fragment"
    FULL_XPATH = "Full XPath"


#: Data-complexity bound associated with each fragment (Figure 1).
COMPLEXITY_BOUNDS: dict[Fragment, str] = {
    Fragment.CORE_XPATH: "time O(|D|·|Q|)",
    Fragment.XPATTERNS: "time O(|D|·|Q|)",
    Fragment.EXTENDED_WADLER: "time O(|D|²·|Q|²), space O(|D|·|Q|²)",
    Fragment.FULL_XPATH: "time O(|D|⁴·|Q|²), space O(|D|²·|Q|²)",
}


@dataclass(frozen=True)
class Classification:
    """The outcome of classifying one query."""

    fragment: Fragment
    in_core_xpath: bool
    in_xpatterns: bool
    in_extended_wadler: bool
    complexity: str
    #: What ``engine="auto"`` resolves to: ``compiled`` when ``compilable``,
    #: else ``optmincontext``.
    recommended_engine: str
    wadler_violations: tuple[str, ...]
    #: Whether the streaming backend can evaluate the query in one pass over
    #: the XML event stream with O(depth) live state (orthogonal to the
    #: Figure-1 lattice: it is a property of axes and predicates, not of the
    #: fragment).  See :func:`repro.streaming.analyze_streamability`.
    streamable: bool = False
    #: Why the query is not streamable (empty when it is).
    streaming_violations: tuple[str, ...] = ()
    #: Whether the query compiles to an array program
    #: (all of XPatterns, plus count(), numeric comparisons and
    #: child/sibling positions; see
    #: :func:`repro.engines.compiled.analyze_compilability`).
    compilable: bool = False
    #: Why the query does not compile to an array program (empty when it does).
    compile_violations: tuple[str, ...] = ()


def classify(query) -> Classification:
    """Classify a query (string or AST) into the Figure-1 lattice."""
    # Deferred: the engines package imports this module's siblings at load
    # time, so a module-level import here would be a cycle.
    from ..engines.compiled import analyze_compilability

    expression = compile_query(query)
    return classify_normalized(
        expression, compute_relevance(expression), analyze_compilability(expression)
    )


def classify_normalized(
    expression: Expression,
    relevance: Mapping[Expression, frozenset[str]],
    compilability: "CompilabilityReport",
) -> Classification:
    """Classify an already-normalised AST (the plan pipeline's entry point).

    ``relevance`` is the query's Relev(N) table (Section 8.2) and
    ``compilability`` its :func:`~repro.engines.compiled.analyze_compilability`
    report.  :func:`repro.plan.compile_plan` normalises once and runs both
    analyses once for the whole plan, so a plan compile never repeats one;
    :func:`classify` stays as the convenience front end for strings and raw
    ASTs.
    """
    core = is_core_xpath(expression)
    xpatterns = is_xpatterns(expression)
    violations = tuple(wadler_violations(expression, relevance))
    if core:
        fragment = Fragment.CORE_XPATH
    elif xpatterns:
        fragment = Fragment.XPATTERNS
    elif not violations:
        fragment = Fragment.EXTENDED_WADLER
    else:
        fragment = Fragment.FULL_XPATH
    streamability = analyze_streamability(expression)
    return Classification(
        fragment=fragment,
        in_core_xpath=core,
        in_xpatterns=xpatterns,
        in_extended_wadler=not violations,
        complexity=COMPLEXITY_BOUNDS[fragment],
        recommended_engine="compiled" if compilability.compilable else "optmincontext",
        wadler_violations=violations,
        streamable=streamability.streamable,
        streaming_violations=streamability.violations,
        compilable=compilability.compilable,
        compile_violations=compilability.violations,
    )


def containment_holds(query) -> bool:
    """Check the Figure-1 containments for one query.

    Core XPath queries must also be XPatterns queries and Extended Wadler
    queries; used by the Figure-1 reproduction test and bench.
    """
    result = classify(query)
    if result.in_core_xpath:
        return result.in_xpatterns and result.in_extended_wadler
    return True
