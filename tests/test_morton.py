"""Degree bounds, defects, skein inequalities, family reports, and the
Alexander degree comparison."""

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import TREFOIL_PD
from helpers import braid_closure, random_braid_diagrams

from mortonlab import morton
from mortonlab.cli import export_report
from mortonlab.diagram import parse_pd
from mortonlab.errors import DisconnectedError
from mortonlab.family import (
    FamilySpec,
    band_bookkeeping,
    insert_parallel_bands,
    whitehead_double,
)
from mortonlab.homfly import HomflyEngine
from mortonlab.morton import (
    FamilyReport,
    check_v_degree_bound,
    knot_level_defect,
    match_expected_polynomial,
    morton_bound_diagram,
    morton_defect,
    verify_skein_degree_inequalities,
    verify_theorem_family,
)
from mortonlab.poly import LaurentPoly2, alexander_specialize
from mortonlab.seifert import diagram_genus, seifert_circles


class TestBounds:
    def test_trefoil(self):
        assert morton_bound_diagram(parse_pd(TREFOIL_PD)) == 2

    def test_unknot(self):
        assert morton_bound_diagram(parse_pd("O")) == 0

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            morton_bound_diagram(parse_pd("O O"))

    def test_v_degree_bound_helper(self, engine):
        # the left-handed trefoil has w = -3 and s = 2: v-degrees in [-4, -2]
        d = parse_pd(TREFOIL_PD)
        check_v_degree_bound(engine.homfly(d), d.writhe(), 2, "trefoil")
        with pytest.raises(RuntimeError, match=r"for trefoil: deg_v in \[0, 0\], w=-3, s=2"):
            check_v_degree_bound(LaurentPoly2({(0, 2): 1}), d.writhe(), 2, "trefoil")

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

    def test_budget_stops_certificate_phase(self, small_knots):
        # W(3_1) needs the engine for six of its certificates; an overrun
        # is caught before the first of them
        knot = next(e.diagram for e in small_knots if e.name == "3_1")
        fresh = HomflyEngine()
        report = verify_theorem_family(FamilySpec(whitehead_double(knot, 1, 0), 0, []),
                                       gc_claimed=3, n_max=10, engine=fresh,
                                       budget_seconds=0.0)
        assert (fresh.expansions, report.rows, report.incomplete) == (0, [], True)
        assert not report.all_strict()

    @pytest.mark.parametrize("crossing", [16, 10**6, -1])
    def test_bad_crossing_rejected_before_engine_work(self, crossing):
        # W(3_1) with one twist has 16 crossings, and its hypothesis
        # certificates need the engine
        base = whitehead_double(parse_pd(TREFOIL_PD), twists=1)
        fresh = HomflyEngine()
        with pytest.raises(IndexError):
            verify_theorem_family(FamilySpec(base, crossing, []),
                                  gc_claimed=3, n_max=2, engine=fresh)
        assert (fresh.expansions, fresh.braid_evaluations, fresh.cache) == (0, 0, {})

    def test_v_degree_violation_raises(self):
        class FixedEngine:
            def homfly(self, d):
                return LaurentPoly2({(0, 2): 1})

        # L_0 of the trefoil is a Hopf link with w = -2 and s = 2, so its
        # v-degrees lie in [-3, -1]
        spec = FamilySpec(parse_pd(TREFOIL_PD), 0, [])
        with pytest.raises(RuntimeError, match="v-degree bound violated for family row n=0"):
            verify_theorem_family(spec, gc_claimed=1, n_max=3, engine=FixedEngine())

    def test_report_serialization(self, engine):
        spec = FamilySpec(parse_pd(TREFOIL_PD), 0, [])
        report = verify_theorem_family(spec, gc_claimed=1, n_max=2, engine=engine)
        csv_text = export_report(report, "csv").decode()
        assert csv_text.splitlines()[0] == "n,c,s,genus,M,bound,strict"
        obj = report.to_json_obj()
        assert obj["rows"][1]["M"] == 2
        table = report.to_text_table()
        assert "strict" in table and "UNVERIFIED" not in table


def _mixed_sign_braids(max_strands=4, max_len=8):
    """(strands, word) pairs with letters of both signs."""
    return st.integers(min_value=2, max_value=max_strands).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(min_value=1, max_value=k - 1).flatmap(lambda i: st.sampled_from([i, -i])),
                     min_size=2, max_size=max_len),
        )
    ).filter(lambda b: min(b[1]) < 0 < max(b[1]))


def _measured(d):
    """(c, s, genus) of a built diagram; s and genus are None when split."""
    if not d.is_connected():
        return len(d.crossings), None, None
    dec = seifert_circles(d)
    return len(d.crossings), dec.num_circles, dec.diagram_genus


class TestFamilyRecurrence:
    """Rows n >= 2 come from the skein recurrence, not from the engine;
    they must agree with a fresh engine run on each L_n."""

    @given(_mixed_sign_braids(), st.integers(min_value=0, max_value=7))
    @example((2, [1, 1, -1]), 0)
    @example((2, [1, 1, -1]), 1)
    @example((3, [1, -2, 1, -2]), 7)
    @settings(max_examples=80, deadline=None)
    def test_rows_match_fresh_engine(self, braid, n_max):
        strands, word = braid
        base = braid_closure(word, strands)
        assume(base.is_connected())
        # every crossing of a braid closure joins two strand circles, so
        # the first crossing of each sign is eligible
        for sign in (1, -1):
            i = next(j for j, x in enumerate(base.crossings) if x.sign == sign)
            report = verify_theorem_family(FamilySpec(base, i, []), diagram_genus(base), n_max)
            built = [insert_parallel_bands(base, i, n) for n in range(n_max + 1)]
            polys = [HomflyEngine().homfly(d) for d in built]
            assert [r.n for r in report.rows] == list(range(n_max + 1))
            assert [r.m for r in report.rows] == [p.maxdeg_z() for p in polys]
            assert [(r.c, r.s, r.genus) for r in report.rows] == [_measured(d) for d in built]
            circles = seifert_circles(base).num_circles
            assert [band_bookkeeping(built[0], base, circles, sign, n)[2]
                    for n in range(n_max + 1)] == [d.writhe() for d in built]
            # v^-1 P(L+) - v P(L-) = z P(L0) at a chain crossing of L_n
            for n in range(2, n_max + 1):
                plus, minus = (polys[n], polys[n - 2]) if sign > 0 else (polys[n - 2], polys[n])
                assert (plus.mono_mul(1, ev=-1) - minus.mono_mul(1, ev=1)
                        == polys[n - 1].mono_mul(1, ez=1))

    def test_rows_match_built_diagrams_on_table(self, small_knots):
        # every crossing of each table knot and of W(3_1): the derived c, s
        # and genus equal those measured on each L_n
        trefoil = next(e.diagram for e in small_knots if e.name == "3_1")
        bases = [e.diagram for e in small_knots] + [whitehead_double(trefoil, 1, 0)]
        engine = HomflyEngine()
        audits = 0
        for base in bases:
            for i in range(len(base.crossings)):
                report = verify_theorem_family(FamilySpec(base, i, []), diagram_genus(base),
                                               12, engine=engine)
                measured = [_measured(insert_parallel_bands(base, i, n)) for n in range(13)]
                assert [(r.c, r.s, r.genus) for r in report.rows] == measured, (base, i)
                audits += 1
        assert audits == 98

    def test_rows_beyond_l1_build_no_diagram(self, monkeypatch):
        calls = []

        def counted(d, i, n):
            calls.append(n)
            return insert_parallel_bands(d, i, n)

        monkeypatch.setattr(morton, "insert_parallel_bands", counted)
        base = braid_closure([1, -2, 1, -2, 1, 2, -1, 2, 3, -2, 3], 4)
        spec = FamilySpec(base, 0, [])
        report = verify_theorem_family(spec, gc_claimed=2, n_max=200)
        assert calls == [0] and [r.n for r in report.rows] == list(range(201))
        c1 = report.rows[1].c
        assert all(r.c == c1 + r.n - 1 for r in report.rows)
        # a spent budget stops the audit before its first row
        calls.clear()
        report = verify_theorem_family(spec, gc_claimed=2, n_max=1500, budget_seconds=0.0)
        assert calls == [0] and report.incomplete

    def test_counter_pin_whitehead_double_3_1(self, small_knots):
        # the certificates take 61 of these expansions and L_0, L_1 the
        # other 8; the rows n >= 2 take none
        knot = next(e.diagram for e in small_knots if e.name == "3_1")
        engine = HomflyEngine()
        report = verify_theorem_family(FamilySpec(whitehead_double(knot, 1, 0), 0, []),
                                       gc_claimed=3, n_max=10, engine=engine)
        assert [r.m for r in report.rows] == list(range(5, 16))
        assert (engine.expansions, len(engine.cache)) == (69, 75)


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
        # the mirror image counts only under mirror="auto"
        for mirror in ("off", "on"):
            assert match_expected_polynomial(p, p.mirror(), mirror) is None
            assert match_expected_polynomial(p, p, mirror) == "exact"

    def test_none(self):
        p = LaurentPoly2({(2, 2): 1})
        assert match_expected_polynomial(p, LaurentPoly2.one()) is None
