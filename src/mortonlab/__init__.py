"""Knot-diagram toolkit: HOMFLY skein engine, Seifert-circle bookkeeping,
parallel-band families, and Morton-inequality audits over PD codes."""

from .diagram import Diagram, parse_pd
from .homfly import HomflyEngine, naive_homfly
from .poly import LaurentPoly1, LaurentPoly2, alexander_specialize
from .seifert import diagram_genus, seifert_circles

__version__ = "0.1.0"

__all__ = [
    "Diagram",
    "parse_pd",
    "HomflyEngine",
    "naive_homfly",
    "LaurentPoly1",
    "LaurentPoly2",
    "alexander_specialize",
    "diagram_genus",
    "seifert_circles",
    "__version__",
]
