"""Degree bounds on the HOMFLY polynomial and family-level audits.

For a connected diagram with c crossings and s Seifert circles the
z-degree of the HOMFLY polynomial is at most c - s + 1, which equals
twice the diagram genus plus mu - 1; minimizing over diagrams gives the
knot-level bound of twice the canonical genus.  The skein relation also
forces three unconditional inequalities between the degrees M(K+),
M(K-), M(K0) of any skein triple.

verify_theorem_family audits the parallel-band links L_n over a base
diagram and checks M(L_n) < 2*gc - 1 + n row by row, where gc is the
knot-level canonical genus supplied by the caller (never computed:
minimizing over all diagrams is out of scope).  Odd rows n = 2m + 1 are
the knots K_m, whose bound reads M < 2(gc + m) + 1.

The n chain crossings of L_n all have the sign s of the base crossing.
Switching one leaves L_(n-2) after an R2 move and smoothing it leaves
L_(n-1), so the skein rule gives

    P(L_n) = v^(2s) P(L_(n-2)) + s v^s z P(L_(n-1))    (n >= 2).

The engine therefore evaluates only L_0, L_1 and the switched base
diagrams of the hypothesis certificates; every later row is two
polynomial terms.  Only L_0 is built, as L_1 is the base: the crossing
count, writhe, components, circles and genus of every row follow from
those two and the base's circle count (family.band_bookkeeping, the one
place that derives a row), so a row costs no diagram, and the budget,
checked before each row, bounds the audit.  Each polynomial the audit
gets, row or switched base diagram, passes one check: it is not zero,
and with a Seifert decomposition it meets the Morton-Franks-Williams
v-degree bound w - s + 1 <= deg_v P <= w + s - 1, which holds at every
size and so also checks the derived rows.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field

from .diagram import Diagram
from .errors import DisconnectedError, MFWViolationError
from .family import (FamilySpec, band_bookkeeping, crossing_change_candidates,
                     insert_parallel_bands)
from .homfly import HomflyEngine
from .poly import LaurentPoly2, _skein_step
from .seifert import seifert_circles

__all__ = [
    "FamilyRow",
    "FamilyReport",
    "morton_bound_diagram",
    "morton_defect",
    "check_v_degree_bound",
    "knot_level_defect",
    "verify_skein_degree_inequalities",
    "verify_theorem_family",
    "match_expected_polynomial",
]

_NEG_INF = float("-inf")


def morton_bound_diagram(d: Diagram) -> int:
    """c - s + 1 for a connected diagram (= 2*genus + mu - 1)."""
    if not d.is_connected():
        raise DisconnectedError("per-diagram degree bound needs a connected diagram")
    return len(d.crossings) - seifert_circles(d).num_circles + 1


def morton_defect(d: Diagram, engine: HomflyEngine | None = None) -> int:
    """Gap between this diagram's degree bound and the actual z-degree."""
    engine = engine or HomflyEngine()
    bound = morton_bound_diagram(d)
    m = engine.homfly(d).maxdeg_z()
    if m is None:
        raise RuntimeError("zero polynomial from a valid diagram")
    defect = bound - m
    if defect < 0:
        raise RuntimeError(f"degree bound violated: M={m} > bound={bound}")
    return defect


def check_v_degree_bound(p: LaurentPoly2, w: int, s: int, what: str):
    """Raise MFWViolationError naming `what` unless p, the HOMFLY
    polynomial of a connected diagram of writhe w and s Seifert circles,
    meets the Morton-Franks-Williams bound w - s + 1 <= min deg_v P <=
    max deg_v P <= w + s - 1; the zero polynomial has no v-degrees and
    fails it."""
    evs = [ev for ev, _ in p.terms]
    if not evs:
        raise MFWViolationError(f"v-degree bound violated for {what}: zero polynomial, "
                                f"w={w}, s={s}")
    if not w - s + 1 <= min(evs) <= max(evs) <= w + s - 1:
        raise MFWViolationError(f"v-degree bound violated for {what}: "
                                f"deg_v in [{min(evs)}, {max(evs)}], w={w}, s={s}")


def knot_level_defect(gc_claimed: int, m: int) -> int:
    """2*gc - M with a caller-supplied canonical genus."""
    return 2 * gc_claimed - m


def _mdeg(p: LaurentPoly2):
    m = p.maxdeg_z()
    return _NEG_INF if m is None else m


def verify_skein_degree_inequalities(d: Diagram, i: int,
                                     engine: HomflyEngine | None = None) -> bool:
    """Check the three skein degree inequalities at crossing i.

    These are theorems (the degree of a sum is at most the max of the
    degrees), so False signals an engine bug, not a property of d.
    """
    engine = engine or HomflyEngine()
    x = d.crossings[i]
    if x.sign > 0:
        d_plus, d_minus = d, d.switch_crossing(i)
    else:
        d_plus, d_minus = d.switch_crossing(i), d
    d_zero = d.smooth_crossing(i)
    m_plus = _mdeg(engine.homfly(d_plus))
    m_minus = _mdeg(engine.homfly(d_minus))
    m_zero = _mdeg(engine.homfly(d_zero))
    return (
        m_zero <= max(m_plus, m_minus) - 1
        and m_plus <= max(m_minus, m_zero + 1)
        and m_minus <= max(m_plus, m_zero + 1)
    )


@dataclass
class FamilyRow:
    n: int
    c: int
    s: int
    genus: int
    m: int
    bound: int
    strict: bool


@dataclass
class FamilyReport:
    COLUMNS = ("n", "c", "s", "genus", "M", "bound", "strict")  # FamilyRow fields as reported

    base_name: str
    crossing: int
    gc_claimed: int
    rows: list = field(default_factory=list)
    hypothesis_certificates: list = field(default_factory=list)
    incomplete: bool = False
    base_defect: int | None = None

    def all_strict(self):
        return not self.incomplete and all(r.strict for r in self.rows)

    def to_json_obj(self):
        return {
            "base_name": self.base_name,
            "crossing": self.crossing,
            "gc_claimed_knot_level": self.gc_claimed,
            "base_defect_knot_level": self.base_defect,
            "rows": [dict(zip(self.COLUMNS, astuple(r))) for r in self.rows],
            "hypothesis_certificates": self.hypothesis_certificates,
            "incomplete": self.incomplete,
            "all_strict": self.all_strict(),
        }

    def to_text_table(self):
        head = f"base={self.base_name} crossing={self.crossing} gc(knot-level, given)={self.gc_claimed}"
        rows = [[str(v) for v in astuple(r)] for r in self.rows]
        widths = [max(len(c), *(len(row[j]) for row in rows)) if rows else len(c)
                  for j, c in enumerate(self.COLUMNS)]
        out = [head]
        out.append("  ".join(c.rjust(w) for c, w in zip(self.COLUMNS, widths)))
        for row in rows:
            out.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        for cert in self.hypothesis_certificates:
            out.append(f"certificate: {cert}")
        status = []
        if self.incomplete:
            status.append("INCOMPLETE (budget exceeded)")
        status.append("all rows strict" if self.all_strict() else "NOT all rows strict")
        hyp = "hypothesis certificate found" if self.hypothesis_certificates else (
            "hypothesis UNVERIFIED (no certificate found; this does not refute it)")
        out.append(f"status: {'; '.join(status)}; {hyp}")
        return "\n".join(out) + "\n"


def _checked_maxdeg_z(p: LaurentPoly2, w: int, s: int | None, what: str) -> int:
    """maxdeg_z of p, the polynomial of `what` (of writhe w and s Seifert
    circles, s None when it has no decomposition), after the checks the
    audit makes of every polynomial: MFWViolationError naming `what` if p
    is zero, or if s is known and p misses the Morton-Franks-Williams
    v-degree bound."""
    m = p.maxdeg_z()
    if m is None:
        raise MFWViolationError(f"zero polynomial for {what}")
    if s is not None:
        check_v_degree_bound(p, w, s, what)
    return m


def verify_theorem_family(spec: FamilySpec, gc_claimed: int, n_max: int,
                          engine: HomflyEngine | None = None,
                          budget_seconds: float | None = None,
                          base_name: str = "base") -> FamilyReport:
    """Row-by-row audit M(L_n) < 2*gc - 1 + n for n = 0..n_max, in order of
    n over one engine cache.  Only L_0 is built, before the certificates,
    so that a bad crossing is rejected before any engine work; L_1 is the
    base.

    The certificates are sufficient ones that switching some base
    crossing lowers the canonical genus of the base (or at least the
    degree chain the bound needs): a switched, simplified candidate of
    lower diagram genus, or else one whose z-degree the engine finds below
    twice the base genus.  The engine evaluates L_0 and L_1; each later row
    is P(L_n) = v^(2s) P(L_(n-2)) + s v^s z P(L_(n-1)) for the sign s of
    the base crossing.  Every row takes its crossing count, writhe,
    components, circle count and genus from band_bookkeeping.  Every row,
    and every certificate candidate the engine evaluates, must pass
    _checked_maxdeg_z (MFWViolationError naming n or the crossing).  A
    budget overrun, checked before each certificate candidate's evaluation
    and before each row, marks the report incomplete and keeps the
    certificates and rows finished so far.
    """
    engine = engine or HomflyEngine()
    t0 = time.monotonic()
    base, i = spec.base, spec.crossing
    # built first, so that a bad crossing is rejected before any engine work
    l0 = insert_parallel_bands(base, i, 0)
    sign, dec = base.crossings[i].sign, seifert_circles(base)
    report = FamilyReport(base_name=base_name, crossing=i, gc_claimed=gc_claimed)

    def over_budget():
        if budget_seconds is not None and time.monotonic() - t0 > budget_seconds:
            report.incomplete = True
        return report.incomplete

    base_genus, certs = dec.diagram_genus, report.hypothesis_certificates
    for j, switched in crossing_change_candidates(base):
        sw = seifert_circles(switched) if switched.is_connected() else None
        if sw is not None and sw.diagram_genus < base_genus:
            certs.append({"crossing": j, "kind": "genus_drop",
                          "switched_simplified_genus": sw.diagram_genus, "base_genus": base_genus})
            continue
        if over_budget():
            break
        m = _checked_maxdeg_z(engine.homfly(switched), switched.writhe(),
                              None if sw is None else sw.num_circles,
                              f"certificate crossing {j}")
        if m < 2 * base_genus:
            certs.append({"crossing": j, "kind": "morton_degree",
                          "switched_maxdeg_z": m, "base_genus": base_genus})
    polys = []
    # an overrun among the certificates stops the rows at once, as time only grows
    for n in range(n_max + 1):
        if over_budget():
            break
        p = engine.homfly(base if n else l0) if n < 2 else _skein_step(sign, *polys)
        polys = [*polys[-1:], p]  # the recurrence reads only the last two rows
        c, _, w, s, genus = band_bookkeeping(l0, base, dec.num_circles, sign, n)
        m = _checked_maxdeg_z(p, w, s, f"family row n={n}")
        bound = 2 * gc_claimed - 1 + n
        report.rows.append(FamilyRow(n, c, s, genus, m, bound, m < bound))
        if n == 1:
            report.base_defect = knot_level_defect(gc_claimed, m)
    return report


def match_expected_polynomial(p: LaurentPoly2, expected: LaurentPoly2, mirror="auto"):
    """"exact" / "mirror" / None comparison against a printed polynomial;
    the mirror image of p counts only under mirror="auto"."""
    if p == expected:
        return "exact"
    if mirror == "auto" and p.mirror() == expected:
        return "mirror"
    return None
