"""XPath fragments with better-than-general complexity (paper §10–§11).

* :mod:`.algebra` — the set algebra used by the linear-time fragments;
* :mod:`.core_xpath` — Core XPath membership, compilation and engine;
* :mod:`.xpatterns` — XPatterns (Core XPath + id axis + unary predicates);
* :mod:`.wadler` — the Extended Wadler Fragment (Restrictions 1–3);
* :mod:`.classify` — the Figure-1 lattice classifier.
"""

from .algebra import (
    algebra_size,
    first_of_any,
    first_of_type,
    last_of_any,
    last_of_type,
)
from .classify import Classification, Fragment, classify, containment_holds
from .core_xpath import CoreXPathCompiler, CoreXPathEngine, is_core_xpath
from .wadler import is_extended_wadler, wadler_fragment_summary, wadler_violations
from .xpatterns import XPatternsCompiler, XPatternsEngine, is_xpatterns

__all__ = [
    "Classification",
    "CoreXPathCompiler",
    "CoreXPathEngine",
    "Fragment",
    "XPatternsCompiler",
    "XPatternsEngine",
    "algebra_size",
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
