"""Laurent-polynomial arithmetic, degrees, mirror, and the Alexander
specialization."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mortonlab.errors import NegativeZDegreeError, ParseError
from mortonlab.poly import (
    LaurentPoly1,
    LaurentPoly2,
    alexander_specialize,
    delta_factor,
)


def P(terms):
    return LaurentPoly2(terms)


exponents = st.integers(min_value=-6, max_value=6)
coeffs = st.integers(min_value=-50, max_value=50)
polys = st.dictionaries(st.tuples(exponents, exponents), coeffs, max_size=8).map(P)


class TestArithmetic:
    def test_additive_inverse(self):
        p = P({(2, 1): 1})
        assert p + -p == LaurentPoly2.zero()
        assert not (p + -p)

    def test_additive_identity(self):
        p = P({(2, 1): 1})
        assert p + LaurentPoly2.zero() == p

    def test_mul_identity(self):
        assert delta_factor() * LaurentPoly2.one() == delta_factor()

    def test_inverse_exponents(self):
        z = P({(0, 1): 1})
        zinv = P({(0, -1): 1})
        assert z * zinv == LaurentPoly2.one()

    def test_delta_squared(self):
        # ((v^-1 - v) z^-1)^2 = (v^-2 - 2 + v^2) z^-2
        expected = P({(-2, -2): 1, (0, -2): -2, (2, -2): 1})
        assert delta_factor() ** 2 == expected

    def test_zero_coefficients_dropped(self):
        assert P({(1, 1): 0}) == LaurentPoly2.zero()
        assert len(P({(1, 1): 3, (0, 0): 0})) == 1

    @given(polys, polys)
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(polys, polys, polys)
    @settings(max_examples=60)
    def test_add_associates(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(polys, polys)
    @settings(max_examples=60)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(polys, polys, polys)
    @settings(max_examples=40)
    def test_mul_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polys, polys, polys)
    @settings(max_examples=40)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys, polys)
    @settings(max_examples=60)
    def test_maxdeg_of_product_adds(self, p, q):
        if p and q:
            assert (p * q).maxdeg_z() == p.maxdeg_z() + q.maxdeg_z()


class TestDegreesAndMirror:
    def test_maxdeg_constant(self):
        assert LaurentPoly2.one().maxdeg_z() == 0

    def test_maxdeg_zero_poly_is_none(self):
        assert LaurentPoly2.zero().maxdeg_z() is None

    def test_maxdeg_delta(self):
        assert delta_factor().maxdeg_z() == -1

    def test_paper_top_degree(self):
        assert PAPER_15N100154.maxdeg_z() == 6

    def test_mirror_single_term(self):
        # v -> v^-1 and z -> -z: odd z-powers change sign, even ones do not
        assert P({(2, 1): 1}).mirror() == P({(-2, 1): -1})
        assert P({(2, 2): 3}).mirror() == P({(-2, 2): 3})

    @given(polys)
    def test_mirror_involution(self, p):
        assert p.mirror().mirror() == p

    @given(polys, polys)
    @settings(max_examples=60)
    def test_mirror_is_ring_hom(self, p, q):
        assert (p + q).mirror() == p.mirror() + q.mirror()
        assert (p * q).mirror() == p.mirror() * q.mirror()

    def test_mirror_preserves_z_degree(self):
        assert PAPER_15N100154.mirror().maxdeg_z() == 6


class TestSerialization:
    @given(polys)
    def test_json_round_trip(self, p):
        assert LaurentPoly2.from_json(p.to_json()) == p

    def test_json_ordering(self):
        obj = PAPER_15N100154.to_json_obj()
        keys = [(t["ez"], t["ev"]) for t in obj]
        assert keys == sorted(keys, key=lambda k: (-k[0], -k[1]))

    @pytest.mark.parametrize("text", [
        "[{]",
        '[{"ev": 1}]',
        # exponents are JSON integers, a coefficient one or a digit string
        '[{"ev": -2.5, "ez": 2, "c": "1"}]',
        '[{"ev": 1e400, "ez": 2, "c": "1"}]',
        '[{"ev": true, "ez": 2, "c": "1"}]',
        '[{"ev": 1, "ez": "2", "c": "1"}]',
        '[{"ev": 1, "ez": 2, "c": 2.9}]',
        '[{"ev": 1, "ez": 2, "c": false}]',
        '[{"ev": 1, "ez": 2, "c": "1_0"}]',
        '[{"ev": 1, "ez": 2, "c": " 1"}]',
        '[{"ev": 1, "ez": 2, "c": "+1"}]',
        '[{"ev": 1, "ez": 2, "c": "\\u0661"}]',
        '[{"ev": NaN, "ez": 2, "c": "1"}]',
        '[{"ev": %s, "ez": 2, "c": "1"}]' % ("1" * 5000),
        # the polynomial is an array of records
        "{}",
        '""',
        '{"ev": 1, "ez": 2, "c": "1"}',
    ], ids=lambda text: text if len(text) < 100 else "5000-digit ev")
    def test_bad_json(self, text):
        with pytest.raises(ParseError):
            LaurentPoly2.from_json(text)

    def test_json_integers_and_digit_strings(self):
        assert LaurentPoly2.from_json('[{"ev": -2, "ez": 0, "c": 3}, {"ev": 0, "ez": -0, '
                                      '"c": "-007"}]') == LaurentPoly2({(-2, 0): 3, (0, 0): -7})
        assert LaurentPoly2.from_json("[]") == LaurentPoly2.zero()

    def test_pretty_groups_by_z_degree(self):
        txt = PAPER_15N100154.pretty()
        assert txt.startswith("(v^2+6v^-2)z^6")
        assert "z^4" in txt and "z^2" in txt

    def test_pretty_zero(self):
        assert LaurentPoly2.zero().pretty() == "0"


class TestAlexander:
    def test_unknot(self):
        out = alexander_specialize(LaurentPoly2.one())
        assert out == LaurentPoly1({0: 1})

    def test_trefoil(self):
        # P(right trefoil) = 2v^2 - v^4 + v^2 z^2, hand-derived from the
        # skein relation through the positive Hopf link
        p = P({(2, 0): 2, (4, 0): -1, (2, 2): 1})
        delta = alexander_specialize(p)
        # t - 1 + 1/t in doubled half-exponents
        assert delta == LaurentPoly1({2: 1, 0: -1, -2: 1})
        assert delta.evaluate_at_one() == 1
        assert delta.symmetric_up_to_unit()
        assert delta.degree_t() == 1

    def test_negative_z_degree_rejected(self):
        with pytest.raises(NegativeZDegreeError):
            alexander_specialize(delta_factor())

    @given(st.lists(st.tuples(st.tuples(exponents, st.integers(min_value=-2, max_value=7)),
                              coeffs), max_size=8))
    @example([((1, 2), 1), ((-1, 2), -1)])  # v = 1 cancels the terms outright
    @example([((0, 2), 1), ((0, 0), 2)])  # z^2 + 2 = t + t^-1: the t^0 terms cancel
    @example([((0, 2), 1), ((3, -1), 4), ((0, -2), 1)])
    @settings(max_examples=150, deadline=None)
    def test_matches_per_term_expansion(self, pairs):
        p = P(pairs)
        negative = [ez for _, ez in p.terms if ez < 0]
        if negative:
            with pytest.raises(NegativeZDegreeError, match=f"z-exponent {negative[0]} < 0"):
                alexander_specialize(p)
            return
        expected = {}
        for (_, ez), c in p.terms.items():
            # multiply out (s - s^-1)^ez one factor at a time, s = t^(1/2)
            power = {0: 1}
            for _ in range(ez):
                step = {}
                for e, a in power.items():
                    step[e + 1] = step.get(e + 1, 0) + a
                    step[e - 1] = step.get(e - 1, 0) - a
                power = step
            for e, a in power.items():
                expected[e] = expected.get(e, 0) + c * a
        assert alexander_specialize(p).terms == {e: a for e, a in expected.items() if a}

    def test_paper_polynomial_specializes_within_degree_bound(self):
        delta = alexander_specialize(PAPER_15N100154)
        assert delta.evaluate_at_one() in (1, -1)
        assert delta.symmetric_up_to_unit()
        # z-degree of the source is 6, so deg_t is at most 3
        assert 2 * delta.degree_t() <= 6

    def test_symmetry_detector_rejects_asymmetric(self):
        assert not LaurentPoly1({2: 1, 0: 5}).symmetric_up_to_unit()

    def test_unit_shifts_are_symmetric(self):
        base = LaurentPoly1({2: 1, 0: -1, -2: 1})
        shifted = LaurentPoly1({6: -1, 4: 1, 2: -1})  # -t^(k/2) multiple
        assert shifted.symmetric_up_to_unit()
        assert base.symmetric_up_to_unit()


# printed in the source text grouped by z-degree: z^6, z^4, z^2, z^0
PAPER_15N100154 = P({
    (2, 6): 1, (-2, 6): 6,
    (4, 4): -1, (2, 4): 4, (0, 4): 6, (-2, 4): -5, (-4, 4): 1,
    (4, 2): -3, (2, 2): 4, (0, 2): 10, (-2, 2): -9, (-4, 2): 2,
    (4, 0): -2, (2, 0): 1, (0, 0): 6, (-2, 0): -5, (-4, 0): 1,
})
