"""Seifert circles, diagram genus, crossing classification."""

import pytest

from conftest import FIGURE8_PD, TREFOIL_PD
from helpers import braid_closure, random_braid_diagrams

from mortonlab import seifert
from mortonlab.braid import read_braid
from mortonlab.cli import run_command
from mortonlab.diagram import Diagram, parse_pd
from mortonlab.errors import DisconnectedError, InvalidPDError
from mortonlab.family import whitehead_double
from mortonlab.seifert import (
    CrossingClass,
    SeifertDecomposition,
    classify_crossing,
    diagram_genus,
    seifert_circles,
    surface_genus,
)


class TestCircles:
    def test_trefoil(self):
        dec = seifert_circles(parse_pd(TREFOIL_PD))
        assert dec.num_circles == 2
        assert dec.diagram_genus == 1

    def test_unknot(self):
        dec = seifert_circles(parse_pd("O"))
        assert dec.num_circles == 1 and dec.diagram_genus == 0

    def test_figure8(self):
        dec = seifert_circles(parse_pd(FIGURE8_PD))
        assert dec.num_circles == 3
        assert dec.diagram_genus == 1

    def test_positive_braid_circles_are_strands(self):
        # closure of a full positive braid: circles = braid strands
        d = braid_closure([1, 2] * 4, 3)
        dec = seifert_circles(d)
        assert dec.num_circles == 3
        assert dec.diagram_genus == 3  # (2 - 1 - 3 + 8) / 2

    def test_surface_genus_parity(self):
        assert surface_genus(8, 3, 1) == 3
        # c - s - mu must be even; an odd one is an error, not a truncation
        with pytest.raises(RuntimeError, match="parity violation: c=8 s=3 mu=2"):
            surface_genus(8, 3, 2)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            seifert_circles(parse_pd("O O"))
        d = parse_pd(TREFOIL_PD)
        with pytest.raises(DisconnectedError):
            seifert_circles(Diagram(d.crossings, free_loops=1, _validated=True))

    def test_circle_count_matches_smooth_all_oracle(self, small_knots):
        for entry in small_knots:
            d = entry.diagram
            s = seifert_circles(d).num_circles
            flat = d
            while flat.crossings:
                flat = flat.smooth_crossing(0)
            assert flat.num_components() == s

    def test_circle_count_matches_oracle_on_random_connected(self):
        for d in random_braid_diagrams(40, seed=23):
            if not d.is_connected():
                continue
            s = seifert_circles(d).num_circles
            flat = d
            while flat.crossings:
                flat = flat.smooth_crossing(0)
            assert flat.num_components() == s


    def test_circles_computed_once_per_diagram(self, monkeypatch):
        # seifert_circles stores the circles on the diagram; the braid
        # reader and a switched diagram read them there
        d = braid_closure([1, -2, 1, 3, -2, 3], 4)
        dec = seifert_circles(d)
        switched = d.switch_crossing(2)

        def walk(*args):
            raise AssertionError("Seifert circles walked again")

        monkeypatch.setattr(seifert, "_permutation_cycles", walk)
        assert read_braid(d) is not None
        assert seifert_circles(d) == dec
        assert seifert_circles(switched).num_circles == dec.num_circles == 4

    def test_decomposition_equality_and_repr_are_over_its_three_values(self):
        # as when all three were dataclass fields, the joins built on first read
        dec = seifert_circles(parse_pd(TREFOIL_PD))
        joins = ((0, 1), (0, 1), (0, 1))
        assert repr(dec) == ("SeifertDecomposition(num_circles=2, diagram_genus=1, "
                             f"crossing_joins={joins})")
        same = seifert_circles(parse_pd(TREFOIL_PD))
        assert same == SeifertDecomposition(2, 1, joins) == dec
        assert hash(same) == hash(SeifertDecomposition(2, 1, joins)) == hash(dec)
        assert same.crossing_joins == joins
        assert dec != SeifertDecomposition(2, 1, joins[:2])
        assert dec != SeifertDecomposition(3, 1, joins)
        assert dec != (2, 1, joins)


class TestGenus:
    def test_known_genera(self, small_knots):
        # alternating diagrams realize the Seifert genus (classic fact for
        # the standard tables); values frozen from the smooth-all oracle
        expected = {
            "3_1": 1, "4_1": 1, "5_1": 2, "5_2": 1, "6_1": 1, "6_2": 2,
            "6_3": 2, "7_1": 3, "7_2": 1, "7_3": 2, "7_4": 1, "7_5": 2,
            "7_6": 2, "7_7": 2,
        }
        for entry in small_knots:
            assert diagram_genus(entry.diagram) == expected[entry.name], entry.name

    def test_parity_identity_holds_everywhere(self):
        for d in random_braid_diagrams(60, seed=29):
            if d.is_connected():
                dec = seifert_circles(d)
                mu = d.num_components()
                assert 2 * dec.diagram_genus == 2 - mu - dec.num_circles + len(d.crossings)

    def test_genus_zero_for_unknot(self):
        assert diagram_genus(parse_pd("O")) == 0


class TestClassification:
    def test_trefoil_all_joining(self):
        d = parse_pd(TREFOIL_PD)
        dec = seifert_circles(d)
        for i in range(3):
            assert classify_crossing(dec, i) is CrossingClass.JOINS_DISTINCT

    def test_kink_joins_two_circles(self):
        # smoothing a kink splits the little loop into its own circle, so
        # the kink crossing is a band between two disks
        dec = seifert_circles(parse_pd("X[1,1,2,2]"))
        assert dec.num_circles == 2
        assert classify_crossing(dec, 0) is CrossingClass.JOINS_DISTINCT

    def test_curl_pair_same_circle(self):
        # a two-crossing curl whose one Seifert circle passes through both
        # crossings twice lies on no sphere: its Gauss word 1212 is no
        # plane curve, so its PD text makes no diagram
        with pytest.raises(InvalidPDError, match="no diagram on the sphere"):
            parse_pd("X[1,4,2,3] X[2,4,3,1]")

    def test_index_range(self):
        dec = seifert_circles(parse_pd(TREFOIL_PD))
        with pytest.raises(IndexError):
            classify_crossing(dec, 3)

    def test_join_ids_in_range(self, small_knots):
        # on the sphere every crossing joins two distinct circles: table
        # knots, their doubles, seeded closures, and every connected
        # switched-and-simplified or smoothed child of each
        diagrams = [e.diagram for e in small_knots]
        diagrams += [whitehead_double(d) for d in diagrams[:6]]
        diagrams += random_braid_diagrams(150, seed=31, max_strands=6, max_len=9,
                                          max_crossings=9)
        children = [child for d in diagrams for i in range(len(d.crossings))
                    for child in (d.switch_crossing(i).simplify(), d.smooth_crossing(i))]
        checked = 0
        for d in diagrams + children:
            if not d.crossings or not d.is_connected():
                continue
            dec = seifert_circles(d)
            for p, q in dec.crossing_joins:
                assert 0 <= p < dec.num_circles and 0 <= q < dec.num_circles
                assert p != q, d
            checked += 1
        assert checked > 1000


def test_csv_row(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text(f'name,pd\n3_1,"{TREFOIL_PD}"\n')
    assert run_command(["seifert", "--table", str(table)]) == 0
    assert capsys.readouterr().out == "name,c,s,mu,genus\n3_1,3,2,1,1\n"
