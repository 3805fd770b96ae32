"""XPath fragments with better-than-general complexity (paper §10–§11).

* :mod:`.core_xpath` — Core XPath membership and engine;
* :mod:`.xpatterns` — XPatterns (Core XPath + id axis + unary predicates)
  membership and engine, and the Table VI predicate sets;
* :mod:`.wadler` — the Extended Wadler Fragment (Restrictions 1–3);
* :mod:`.classify` — the Figure-1 lattice classifier.

Nothing here compiles: :class:`repro.engines.compiled.ArrayCompiler` is the
one compiler of the set algebra, emitting the array program that both
fragment engines run.
"""

from .classify import Classification, Fragment, classify, containment_holds
from .core_xpath import CoreXPathEngine, is_core_xpath
from .wadler import is_extended_wadler, wadler_fragment_summary, wadler_violations
from .xpatterns import (
    XPatternsEngine,
    first_of_any,
    first_of_type,
    is_xpatterns,
    last_of_any,
    last_of_type,
)

__all__ = [
    "Classification",
    "CoreXPathEngine",
    "Fragment",
    "XPatternsEngine",
    "classify",
    "containment_holds",
    "first_of_any",
    "first_of_type",
    "is_core_xpath",
    "is_extended_wadler",
    "is_xpatterns",
    "last_of_any",
    "last_of_type",
    "wadler_fragment_summary",
    "wadler_violations",
]
