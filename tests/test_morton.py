"""Degree bounds, defects, skein inequalities, family reports, and the
Alexander degree comparison."""

import random

import pytest

from conftest import TREFOIL_PD
from helpers import braid_closure, random_braid_diagrams

from mortonlab.diagram import parse_pd
from mortonlab.errors import DisconnectedError
from mortonlab.family import FamilySpec
from mortonlab.morton import (
    FamilyReport,
    knot_level_defect,
    match_expected_polynomial,
    morton_bound_diagram,
    morton_defect,
    verify_skein_degree_inequalities,
    verify_theorem_family,
)
from mortonlab.poly import LaurentPoly2, alexander_specialize


class TestBounds:
    def test_trefoil(self):
        assert morton_bound_diagram(parse_pd(TREFOIL_PD)) == 2

    def test_unknot(self):
        assert morton_bound_diagram(parse_pd("O")) == 0

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            morton_bound_diagram(parse_pd("O O"))

    def test_bound_equals_genus_form(self, small_knots):
        from mortonlab.seifert import diagram_genus, seifert_circles

        for entry in small_knots:
            d = entry.diagram
            bound = morton_bound_diagram(d)
            assert bound == 2 * diagram_genus(d) + d.num_components() - 1


class TestDefect:
    def test_trefoil_zero(self, engine):
        assert morton_defect(parse_pd(TREFOIL_PD), engine) == 0

    def test_unknot_zero(self, engine):
        assert morton_defect(parse_pd("O"), engine) == 0

    def test_nonnegative_on_corpus(self, session_engine, small_knots):
        for entry in small_knots:
            assert morton_defect(entry.diagram, session_engine) >= 0
        for d in random_braid_diagrams(40, seed=71):
            if d.is_connected():
                assert morton_defect(d, session_engine) >= 0

    def test_violations_raise(self):
        # the checks stay active under python -O, unlike assert statements
        class FixedEngine:
            def __init__(self, p):
                self.p = p

            def homfly(self, d):
                return self.p

        d = parse_pd(TREFOIL_PD)
        with pytest.raises(RuntimeError, match="zero polynomial"):
            morton_defect(d, FixedEngine(LaurentPoly2.zero()))
        with pytest.raises(RuntimeError, match="degree bound violated"):
            morton_defect(d, FixedEngine(LaurentPoly2({(0, 4): 1})))

    def test_knot_level_defect(self):
        assert knot_level_defect(4, 6) == 2


class TestSkeinInequalities:
    def test_trefoil_all_crossings(self, engine):
        d = parse_pd(TREFOIL_PD)
        for i in range(3):
            assert verify_skein_degree_inequalities(d, i, engine)

    def test_random_pairs(self, session_engine):
        rng = random.Random(73)
        count = 0
        for d in random_braid_diagrams(60, seed=73):
            i = rng.randrange(len(d.crossings))
            assert verify_skein_degree_inequalities(d, i, session_engine)
            count += 1
        assert count == 60


class TestTheoremFamily:
    def test_trefoil_rows_not_strict(self, engine):
        # the trefoil fails the strictness hypothesis (M = 2 gc), and
        # every row lands exactly on the bound
        spec = FamilySpec(parse_pd(TREFOIL_PD), 0, [])
        report = verify_theorem_family(spec, gc_claimed=1, n_max=5, engine=engine,
                                       base_name="3_1")
        assert [r.strict for r in report.rows] == [False] * 6
        assert [r.m for r in report.rows] == [r.bound for r in report.rows]
        assert not report.all_strict()
        assert report.base_defect == 0  # 2*1 - M(L_1) = 0

    def test_rows_carry_bookkeeping(self, engine):
        spec = FamilySpec(parse_pd(TREFOIL_PD), 0, [])
        report = verify_theorem_family(spec, gc_claimed=1, n_max=4, engine=engine)
        assert [r.n for r in report.rows] == [0, 1, 2, 3, 4]
        assert [r.c for r in report.rows] == [2, 3, 4, 5, 6]
        assert all(r.s == 2 for r in report.rows)

    def test_induction_step_inequality(self, engine):
        # M(L_n) <= max(M(L_{n-2}), M(L_{n-1}) + 1) on actual values
        spec = FamilySpec(parse_pd(TREFOIL_PD), 0, [])
        report = verify_theorem_family(spec, gc_claimed=1, n_max=6, engine=engine)
        m = {r.n: r.m for r in report.rows}
        for n in range(2, 7):
            assert m[n] <= max(m[n - 2], m[n - 1] + 1)

    def test_certificates_on_trefoil(self, engine):
        spec = FamilySpec(parse_pd(TREFOIL_PD), 0, [])
        report = verify_theorem_family(spec, gc_claimed=1, n_max=1, engine=engine)
        kinds = {c["kind"] for c in report.hypothesis_certificates}
        assert "genus_drop" in kinds

    def test_budget_marks_incomplete(self, engine):
        spec = FamilySpec(parse_pd(TREFOIL_PD), 0, [])
        report = verify_theorem_family(spec, gc_claimed=1, n_max=6, engine=engine,
                                       budget_seconds=0.0)
        assert report.incomplete
        assert not report.all_strict()

    def test_report_serialization(self, engine):
        spec = FamilySpec(parse_pd(TREFOIL_PD), 0, [])
        report = verify_theorem_family(spec, gc_claimed=1, n_max=2, engine=engine)
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "n,c,s,genus,M,bound,strict"
        obj = report.to_json_obj()
        assert obj["rows"][1]["M"] == 2
        table = report.to_text_table()
        assert "strict" in table and "UNVERIFIED" not in table


class TestAlexanderDegree:
    def test_corpus_degree_comparison(self, session_engine, small_knots):
        # twice the Alexander degree never exceeds the z-degree
        for entry in small_knots:
            p = session_engine.homfly(entry.diagram)
            delta = alexander_specialize(p)
            assert 2 * delta.degree_t() <= p.maxdeg_z(), entry.name
            assert delta.evaluate_at_one() in (1, -1)
            assert delta.symmetric_up_to_unit()

    def test_torus_knot_equality(self, session_engine):
        p = session_engine.homfly(braid_closure([1, 2] * 4, 3))
        assert 2 * alexander_specialize(p).degree_t() == p.maxdeg_z() == 6


class TestMirrorMatch:
    def test_exact(self):
        p = LaurentPoly2({(2, 2): 1})
        assert match_expected_polynomial(p, p) == "exact"

    def test_mirror(self):
        p = LaurentPoly2({(2, 2): 1})
        assert match_expected_polynomial(p, p.mirror()) == "mirror"

    def test_none(self):
        p = LaurentPoly2({(2, 2): 1})
        assert match_expected_polynomial(p, LaurentPoly2.one()) is None
