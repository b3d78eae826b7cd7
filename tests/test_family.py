"""Parallel-band insertion, family sequences, crossing-change candidates,
Whitehead doubles."""

import hashlib
import random

import pytest

from conftest import TREFOIL_PD
from helpers import braid_closure, random_braid_diagrams

from mortonlab.diagram import parse_pd
from mortonlab.errors import DisconnectedError, InvalidPDError, NotAKnotError
from mortonlab.family import (
    FamilySpec,
    crossing_change_candidates,
    family_sequence,
    insert_parallel_bands,
    two_bridge_plat,
    whitehead_double,
)
from mortonlab.homfly import HomflyEngine
from mortonlab.poly import LaurentPoly2
from mortonlab.seifert import CrossingClass, classify_crossing, diagram_genus, seifert_circles


def eligible_crossings(d):
    dec = seifert_circles(d)
    return [i for i in range(len(d.crossings))
            if classify_crossing(dec, i) is CrossingClass.JOINS_DISTINCT]


class TestTwoBridgePlat:
    @pytest.mark.parametrize("parts, name", [((3,), "3_1"), ((1, 1, 1, 2, 2), "7_6"),
                                             ((2, 1, 1, 1, 2), "7_7")])
    def test_reproduces_table_rows(self, parts, name, small_knots):
        # scripts/gen_small_knot_table.py wrote these rows from these plats
        assert two_bridge_plat(parts) == next(e.diagram for e in small_knots if e.name == name)


class TestBands:
    def test_n1_identity(self, small_knots):
        for entry in small_knots:
            for i in eligible_crossings(entry.diagram)[:2]:
                out = insert_parallel_bands(entry.diagram, i, 1)
                assert out.canonical_code() == entry.diagram.canonical_code()

    def test_n0_is_smoothing(self, small_knots):
        for entry in small_knots[:5]:
            i = eligible_crossings(entry.diagram)[0]
            out = insert_parallel_bands(entry.diagram, i, 0)
            assert out.canonical_code() == entry.diagram.smooth_crossing(i).canonical_code()

    def test_trefoil_n3_bookkeeping(self):
        d = insert_parallel_bands(parse_pd(TREFOIL_PD), 0, 3)
        assert len(d.crossings) == 5
        dec = seifert_circles(d)
        assert dec.num_circles == 2
        assert dec.diagram_genus == 2

    def test_circle_count_preserved(self, small_knots):
        rng = random.Random(61)
        for entry in small_knots:
            d = entry.diagram
            s0 = seifert_circles(d).num_circles
            i = rng.choice(eligible_crossings(d))
            for n in (1, 2, 3, 4, 5):
                dn = insert_parallel_bands(d, i, n)
                assert seifert_circles(dn).num_circles == s0

    def test_new_crossings_join_same_pair(self):
        d = parse_pd(TREFOIL_PD)
        dec0 = seifert_circles(d)
        pair0 = dec0.crossing_joins[0]
        d4 = insert_parallel_bands(d, 0, 4)
        dec4 = seifert_circles(d4)
        # the inserted chain keeps all other joins and adds same-pair bands
        assert sorted(dec4.crossing_joins).count(pair0) >= 4

    def test_same_circle_rejected(self):
        # a crossing joins a circle to itself only off the sphere, and such
        # PD text makes no diagram
        with pytest.raises(InvalidPDError, match="no diagram on the sphere"):
            parse_pd("X[1,4,2,3] X[2,4,3,1]")

    def test_split_diagram_rejected(self):
        with pytest.raises(DisconnectedError):
            insert_parallel_bands(parse_pd(TREFOIL_PD + " O"), 0, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            insert_parallel_bands(parse_pd(TREFOIL_PD), 0, -1)

    @pytest.mark.parametrize("i", [9, 3, -1])
    def test_index_out_of_range(self, i):
        with pytest.raises(IndexError):
            insert_parallel_bands(parse_pd(TREFOIL_PD), i, 2)

    def test_band_signs_match_original(self):
        d = braid_closure([1, 1, 1], 2)  # all-positive trefoil
        d5 = insert_parallel_bands(d, 1, 5)
        assert all(x.sign == 1 for x in d5.crossings)


class TestFamilySequence:
    def test_crossing_counts(self):
        fam = family_sequence(FamilySpec(parse_pd(TREFOIL_PD), 0, [0, 1, 2, 3]))
        assert [len(d.crossings) for _, d in fam] == [2, 3, 4, 5]

    def test_component_parity(self):
        fam = family_sequence(FamilySpec(parse_pd(TREFOIL_PD), 0, list(range(7))))
        mu0 = parse_pd(TREFOIL_PD).smooth_crossing(0).num_components()
        for n, d in fam:
            assert d.num_components() == (1 if n % 2 else mu0)

    def test_genus_steps_by_one_on_odd_rows(self):
        fam = dict(family_sequence(FamilySpec(parse_pd(TREFOIL_PD), 0, [1, 3, 5, 7])))
        g1 = diagram_genus(fam[1])
        for m in (1, 2, 3):
            assert diagram_genus(fam[2 * m + 1]) == g1 + m

    def test_three_term_skein_recurrence(self, session_engine):
        # switching one of the n parallel bands gives L_{n-2}, smoothing
        # gives L_{n-1}; the engine's polynomials must satisfy the relation
        base = parse_pd(TREFOIL_PD)
        fam = dict(family_sequence(FamilySpec(base, 0, list(range(6)))))
        sign = base.crossings[0].sign
        for n in range(2, 6):
            pn = session_engine.homfly(fam[n])
            pm1 = session_engine.homfly(fam[n - 1])
            pm2 = session_engine.homfly(fam[n - 2])
            if sign > 0:
                rec = pm2.mono_mul(1, ev=2) + pm1.mono_mul(1, ev=1, ez=1)
            else:
                rec = pm2.mono_mul(1, ev=-2) + pm1.mono_mul(-1, ev=-1, ez=1)
            assert rec == pn, n

    def test_recurrence_on_positive_base(self, session_engine):
        base = braid_closure([1, 1, 1], 2)
        fam = dict(family_sequence(FamilySpec(base, 0, list(range(5)))))
        for n in range(2, 5):
            pn = session_engine.homfly(fam[n])
            rec = (session_engine.homfly(fam[n - 2]).mono_mul(1, ev=2)
                   + session_engine.homfly(fam[n - 1]).mono_mul(1, ev=1, ez=1))
            assert rec == pn


class TestCrossingChange:
    def test_trefoil_unknots(self, engine):
        for i, cand in crossing_change_candidates(parse_pd(TREFOIL_PD)):
            assert engine.homfly(cand) == LaurentPoly2.one()
            assert diagram_genus(cand) == 0

    def test_unknot_empty(self):
        assert crossing_change_candidates(parse_pd("O")) == []

    def test_candidates_are_simplified(self):
        for i, cand in crossing_change_candidates(braid_closure([1, 1, 1, 1], 2)):
            assert cand.simplify() == cand


class TestWhiteheadDouble:
    def test_crossing_count(self, small_knots):
        for entry in small_knots[:4]:
            w = whitehead_double(entry.diagram)
            assert len(w.crossings) == 4 * len(entry.diagram.crossings) + 2

    def test_result_is_knot(self, small_knots):
        for entry in small_knots[:4]:
            assert whitehead_double(entry.diagram).num_components() == 1

    def test_trefoil_genus_bound(self):
        w = whitehead_double(parse_pd(TREFOIL_PD))
        assert diagram_genus(w) <= 3

    def test_writhe_bookkeeping(self):
        d = parse_pd(TREFOIL_PD)
        for clasp in (1, -1):
            for tw in (0, 1, -2):
                w = whitehead_double(d, clasp_sign=clasp, twists=tw)
                assert w.writhe() == 2 * clasp + 2 * tw
                assert len(w.crossings) == 4 * 3 + 2 * abs(tw) + 2
                assert w.num_components() == 1

    def test_twist_knot_values(self, engine):
        # doubles of the one-crossing unknot diagrams are twist knots; the
        # kink framing and the clasp either fight (figure-8) or add up
        # (trefoil), pinned by hand-checked polynomials
        kink_pos = parse_pd("X[1,1,2,2]")
        kink_neg = parse_pd("X[1,2,2,1]")
        fig8 = LaurentPoly2({(0, 2): -1, (2, 0): 1, (0, 0): -1, (-2, 0): 1})
        right_tre = LaurentPoly2({(2, 2): 1, (2, 0): 2, (4, 0): -1})
        assert engine.homfly(whitehead_double(kink_pos, 1)) == fig8
        assert engine.homfly(whitehead_double(kink_neg, -1)) == fig8
        assert engine.homfly(whitehead_double(kink_neg, 1)) == right_tre
        assert engine.homfly(whitehead_double(kink_pos, -1)) == right_tre.mirror()

    def test_double_of_2_bridge_reaches_twice_crossing_number(self, session_engine):
        # frozen regression: for 2-bridge knots the double's z-degree is
        # known to reach 2*c(K); our uncorrected double realizes it
        tre = parse_pd(TREFOIL_PD)
        assert session_engine.homfly(whitehead_double(tre, 1)).maxdeg_z() == 6

    def test_rejects_links(self):
        hopf = parse_pd(TREFOIL_PD).smooth_crossing(0)
        with pytest.raises(NotAKnotError):
            whitehead_double(hopf)

    def test_rejects_zero_crossing(self):
        with pytest.raises(NotAKnotError):
            whitehead_double(parse_pd("O"))

    def test_clasp_not_r2_reducible(self):
        # the clasp must survive simplification (it is a clasp, not a poke)
        w = whitehead_double(parse_pd(TREFOIL_PD), 1)
        assert len(w.simplify().crossings) >= 2


def _digest(diagrams):
    return hashlib.sha256("".join(d.serialize() + "\n" for d in diagrams).encode()).hexdigest()


class TestConstructionPins:
    """SHA-256 of serialize() over fixed sets of constructions: their
    crossings, labels and order.  Both constructions build each negative
    crossing as a positive one switched; these pin the diagrams that
    switch must reproduce."""

    def test_doubles_pinned(self, small_knots):
        doubles = [whitehead_double(e.diagram, clasp, twists)
                   for e in small_knots if e.diagram.num_components() == 1
                   for clasp in (1, -1) for twists in range(-3, 4)]
        assert len(doubles) == 196
        assert _digest(doubles) == "72a96492ab5ce7ed5dd6e0a1f5a8cc16758c2ef027ff4cd9f29592509ecfe528"

    def test_braid_closures_pinned(self):
        rng = random.Random(29)
        closures = []
        for _ in range(1000):
            strands = rng.randint(2, 7)
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                    for _ in range(rng.randint(1, 20))]
            closures.append(braid_closure(word, strands))
        assert _digest(closures) == "50931b93119963a4c514aa9e9dbd8725a7f8336d88a8e0c581ec6e6294a52602"
