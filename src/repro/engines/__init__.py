"""Evaluation engines — the paper's algorithms side by side.

================  =============================================  ==========
Engine            Algorithm                                       Section
================  =============================================  ==========
NaiveEngine       recursive W3C semantics (exponential)           §2, §5
DataPoolEngine    naive + (expression, context) memoisation       §9
BottomUpEngine    context-value tables, Algorithm 6.3             §6
TopDownEngine     vectorised S↓ / E↓                              §7
MinContextEngine  relevant context + outermost paths + loops      §8, App. A
OptMinContextEngine  MinContext + backward inner-path evaluation  §11
================  =============================================  ==========

The linear-time fragment engines (Core XPath, XPatterns) live in
:mod:`repro.fragments` but are re-exported by :mod:`repro.api`.  They
and :class:`CompiledEngine` (:mod:`repro.engines.compiled`) compile a
query's set algebra into a linear array program over the flat document
index and run it with one executor; the compiled engine falls back to
the recommended engine outside its fragment.
"""

from .base import EvaluationStats, XPathEngine
from .bottomup import BottomUpEngine
from .compiled import ArrayProgram, CompiledEngine
from .cvt import ContextValueTable, TableStore
from .datapool import DataPoolEngine
from .mincontext import MinContextEngine
from .naive import NaiveEngine
from .optmincontext import OptMinContextEngine
from .relevance import compute_relevance
from .topdown import TopDownEngine

__all__ = [
    "ArrayProgram",
    "BottomUpEngine",
    "CompiledEngine",
    "ContextValueTable",
    "DataPoolEngine",
    "EvaluationStats",
    "MinContextEngine",
    "NaiveEngine",
    "OptMinContextEngine",
    "TableStore",
    "TopDownEngine",
    "XPathEngine",
    "compute_relevance",
]
