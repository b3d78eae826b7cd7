"""PD parsing, validation, crossing moves, canonical codes, simplification."""

import hashlib
import os
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, FIGURE8_PD, TREFOIL_PD
from helpers import braid_closure, random_braid_diagrams, random_relabeling, shuffled_crossings

from mortonlab.cli import load_knot_table
from mortonlab.diagram import (Crossing, Diagram, _entries, _first_move, _r2_pair, _reduce,
                               _renumber, parse_pd)
from mortonlab.errors import InvalidPDError, ParseError
from mortonlab.family import insert_parallel_bands, two_bridge_plat, whitehead_double
from mortonlab.seifert import CrossingClass, _seifert_cycles, classify_crossing, seifert_circles


class TestParsing:
    def test_trefoil(self):
        d = parse_pd(TREFOIL_PD)
        assert len(d.crossings) == 3
        assert d.num_components() == 1
        assert d.is_connected()
        assert d.writhe() == -3
        assert [x.sign for x in d.crossings] == [-1, -1, -1]

    def test_unknot_forms(self):
        for text in ("O", "free_loops=1"):
            d = parse_pd(text)
            assert len(d.crossings) == 0 and d.free_loops == 1
        assert parse_pd("O O").free_loops == 2
        assert parse_pd("free_loops=3").free_loops == 3

    def test_empty_link_rejected(self):
        for text in ("", "PD[]", "PD[ ]", "PD[\n]"):
            with pytest.raises(InvalidPDError, match="^empty link: no crossings and no free loops$"):
                parse_pd(text)

    def test_wrapped_form(self):
        d = parse_pd("PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]]")
        assert d.canonical_code() == parse_pd(TREFOIL_PD).canonical_code()

    @pytest.mark.parametrize("text, spaced", [
        ("X[1,4,2,5], X[3,6,4,1], X[5,2,6,3], O", TREFOIL_PD + " O"),
        ("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3], free_loops=1", TREFOIL_PD + " free_loops=1"),
        ("O, O", "O O"),
        ("X[1,4,2,5] , X[3,6,4,1] X[5,2,6,3]", TREFOIL_PD),
        ("PD[X[1,4,2,5],X[3,6,4,1],\tX[5,2,6,3]]", TREFOIL_PD),
        # blanks inside the wrapper, before its closing bracket too
        ("PD[ X[1,4,2,5], X[3,6,4,1], X[5,2,6,3] ]", TREFOIL_PD),
        ("PD[\n X[1,4,2,5],\n X[3,6,4,1],\n X[5,2,6,3]\n]", TREFOIL_PD),
        ("PD[X[1,1,2,2] ]", "X[1,1,2,2]"),
    ])
    def test_comma_separators(self, text, spaced):
        assert parse_pd(text) == parse_pd(spaced)

    @pytest.mark.parametrize("text", [
        ", X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]",
        "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3],",
        "X[1,4,2,5],,X[3,6,4,1] X[5,2,6,3]",
        "O , , O",
    ])
    def test_comma_only_between_terms(self, text):
        with pytest.raises(ParseError):
            parse_pd(text)

    def test_malformed_tuple(self):
        with pytest.raises(ParseError):
            parse_pd("X[1,2,3]")

    def test_label_count_violation(self):
        # the first slot whose label is outside 1..4 or met a third time is
        # named: labels 1,2,5,6 appear once; 1 or 3 three times
        for text, label in [("X[1,4,2,3] X[3,6,4,5]", 6), ("X[1,1,1,2] X[2,3,4,3]", 1),
                            ("X[1,2,3,4] X[4,3,2,3]", 3)]:
            message = rf"^edge labels must be 1\.\.4 each twice; offending label {label}$"
            with pytest.raises(InvalidPDError, match=message):
                parse_pd(text)
            # the same slots as positive crossings
            labels = [int(v) for v in re.findall(r"\d+", text)]
            with pytest.raises(InvalidPDError, match=message):
                Diagram([Crossing(a, c, d, b, 1) for a, b, c, d in zip(*[iter(labels)] * 4)])

    def test_label_range_violation(self):
        with pytest.raises(InvalidPDError, match=r"1\.\.4 each twice; offending label 9$"):
            parse_pd("X[1,9,2,9] X[2,3,1,3]")
        with pytest.raises(InvalidPDError, match=r"1\.\.2 each twice; offending label 0$"):
            Diagram([Crossing(1, 0, 2, 0, 1)])
        with pytest.raises(InvalidPDError, match=r"^edge label '1' is not an integer$"):
            Diagram([Crossing("1", "2", "2", "1", 1)])
        with pytest.raises(InvalidPDError, match=r"^edge label 1\.0 is not an integer$"):
            Diagram([Crossing(1.0, 2.0, 2.0, 1.0, 1)])

    def test_orientation_conflict(self):
        # edge 1 sits in two incoming-under slots (two heads)
        with pytest.raises(InvalidPDError):
            parse_pd("X[1,4,2,3] X[1,3,2,4]")

    def test_nonplanar_text_rejected(self):
        # a two-crossing curl whose slots give 2 faces, not c + 2 = 4: off
        # the sphere the engine and the naive oracle disagree on it
        text = "X[1,4,2,3] X[2,4,3,1]"
        with pytest.raises(InvalidPDError, match="no diagram on the sphere"):
            parse_pd(text)
        xs = [Crossing(1, 2, 3, 4, 1), Crossing(2, 3, 4, 1, -1)]
        assert [x.pd() for x in xs] == [(1, 4, 2, 3), (2, 4, 3, 1)]
        with pytest.raises(InvalidPDError, match="no diagram on the sphere"):
            Diagram(xs)

    def test_planarity_counts_pieces(self):
        # the trefoil beside the shifted curl has 7 = 5 + 2 faces, but two
        # pieces need 5 + 4
        with pytest.raises(InvalidPDError, match="no diagram on the sphere"):
            parse_pd(TREFOIL_PD + " X[7,10,8,9] X[8,10,9,7]")
        two = parse_pd(TREFOIL_PD + " X[7,10,8,11] X[9,12,10,7] X[11,8,12,9]")
        beside_loop = parse_pd(TREFOIL_PD + " O")
        # the planarity check's pieces are carried by the parsed diagram
        assert two._pieces == _reference_pieces(two) == [[0, 1, 2], [3, 4, 5]]
        assert beside_loop._pieces == _reference_pieces(beside_loop) == [[0, 1, 2]]
        assert len(two.split_pieces()) == 2
        assert len(beside_loop.split_pieces()) == 1

    @pytest.mark.parametrize("crossings, free_loops, message", [
        ((), -1, "free_loops must be nonnegative"),
        ((), 1001, "free_loops must be at most 1,000"),
        ((), 0, "empty link"),
        ((Crossing(1, 2, 2, 1, 0),), 0, "has sign 0"),
        ((Crossing(1, 2, 3, 4, 1), Crossing(1, 2, 3, 4, 1)), 0, "two heads"),
        ((Crossing(1, 2, 3, 2, 1), Crossing(4, 1, 4, 3, 1)), 0, "two tails"),
    ])
    def test_validate_rejects(self, crossings, free_loops, message):
        with pytest.raises(InvalidPDError, match=message):
            Diagram(crossings, free_loops)

    def test_round_trip(self, small_knots):
        for entry in small_knots:
            d = entry.diagram
            again = parse_pd(d.serialize())
            assert again.crossings == d.crossings
            assert again.free_loops == d.free_loops

    def test_round_trip_constructions(self, small_knots):
        # PD text does not say which way a component that passes only over
        # runs, so a diagram comes back equal when every component passes under
        doubles = [whitehead_double(e.diagram, clasp) for e in small_knots for clasp in (1, -1)]
        checked = 0
        for d in _braids() + _band_families() + doubles:
            under = {x.a for x in d.crossings}
            if all(under.intersection(cyc) for cyc in d.component_cycles()):
                assert parse_pd(d.serialize()) == d
                checked += 1
        assert checked >= 300

    def test_round_trip_with_loops(self):
        d = Diagram(parse_pd(TREFOIL_PD).crossings, free_loops=2, _validated=True)
        assert parse_pd(d.serialize()) == d

    def test_kink_signs(self):
        assert parse_pd("X[1,1,2,2]").writhe() == 1
        assert parse_pd("X[1,2,2,1]").writhe() == -1
        # validation takes a sign equal to 1 or -1 whatever its type
        assert Diagram([Crossing(1, 2, 2, 1, 1.0)]) == parse_pd("X[1,1,2,2]")

    # Signs feed the canonical codes that key --cache files, so the values
    # below were recorded once and any change to sign inference must keep them.

    def test_over_only_tie_break(self):
        # the second component passes only over: its least-index crossing is
        # positive iff b follows d cyclically on that component's labels
        assert [x.sign for x in parse_pd("X[4,1,3,2] X[3,1,4,2]").crossings] == [1, -1]
        text = "X[8,1,5,2] X[5,3,6,2] X[6,3,7,4] X[7,1,8,4]"
        assert [x.sign for x in parse_pd(text).crossings] == [-1, 1, -1, 1]

    def test_pinned_signs(self):
        digest = hashlib.sha256()
        for text in _sign_corpus():
            d = parse_pd(text)
            digest.update(f"({_slot_repr(d.crossings)}, {d.free_loops})".encode())
        assert digest.hexdigest() == (
            "a76d379e956f652304c1fc537ca16cd8600425cff2ed5c75c24d27eab5730cb8"
        )

    def test_pinned_corruption_verdicts(self):
        rejected = 0
        digest = hashlib.sha256()
        for text in _corrupted_corpus():
            try:
                d = parse_pd(text)
            except InvalidPDError:
                rejected += 1
                digest.update(b"!")
            else:
                digest.update(_slot_repr(d.crossings).encode())
        # 42 of the 180 are rejected for planarity: their orientations are
        # consistent, but their slots describe no diagram on the sphere
        assert rejected == 180
        assert digest.hexdigest() == (
            "b14eb1a11662a8104e513107bb004b403d576043a58178404f08b1f10b35678d"
        )

    def test_pinned_validation_verdicts(self):
        # Diagram(crossings) on mutated crossing lists: every verdict is
        # pinned, and every message but the bad-label one, whose offending
        # label depends on the order the labels are scanned in
        digest = hashlib.sha256()
        counts = {}
        for xs in _mutated_crossing_lists():
            try:
                Diagram(xs)
            except InvalidPDError as exc:
                verdict = "labels" if str(exc).startswith("edge labels must be") else str(exc)
            else:
                verdict = "ok"
            kind = verdict if verdict in ("ok", "labels") else re.sub(r"\d+", "N", verdict)
            counts[kind] = counts.get(kind, 0) + 1
            digest.update(verdict.encode() + b"\n")
        assert counts == {"ok": 40, "labels": 186,
                          "the PD slots describe no diagram on the sphere": 69,
                          "edge N oriented inconsistently (two heads)": 162,
                          "edge N oriented inconsistently (two tails)": 143}
        assert digest.hexdigest() == (
            "a5b05e398a06d12ae43d71974667ea0e46cb1c3d90e36cb5801b0eeb5d114daf"
        )

    def test_pinned_constructions(self):
        # labels come from _renumber's scan order, which decides the
        # engine's skein choices
        digest = hashlib.sha256()
        for d in _plats() + _braids() + _band_families():
            digest.update(d.serialize().encode())
            digest.update(b"\n")
        assert digest.hexdigest() == (
            "901fc203d91881222a9b2826da8639ac620edb8fa5cf0691cef5b66b420b2239"
        )

    def test_pinned_whitehead_doubles(self, small_knots):
        digest = hashlib.sha256()
        for entry in small_knots:
            for clasp in (1, -1):
                for twists in range(-2, 4):
                    digest.update(whitehead_double(entry.diagram, clasp, twists).serialize().encode())
                    digest.update(b"\n")
        assert digest.hexdigest() == (
            "841b80151ffe11051a85f755f45afc2fa7d3acfe21f73b7ce73130c50f7092c0"
        )


def _plats(max_crossings=7):
    """Every two-bridge plat with at most max_crossings crossings, in both
    handednesses of each kind of twist region."""
    def compositions(total):
        if total == 0:
            yield []
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield [first, *rest]

    return [two_bridge_plat(parts, od_mid, od_side)
            for total in range(1, max_crossings + 1) for parts in compositions(total)
            for od_mid in (0, 1) for od_side in (0, 1)]


def _braids():
    return random_braid_diagrams(120, seed=8, max_strands=5, max_len=12, max_crossings=12)


def _band_families(count=40):
    """Members n = 0..5 of the band family at the first eligible crossing
    of each connected braid closure among the first count."""
    out = []
    for d in _braids()[:count]:
        if d.is_connected():
            dec = seifert_circles(d)
            i = next((i for i in range(len(d.crossings))
                      if classify_crossing(dec, i) is CrossingClass.JOINS_DISTINCT), None)
            if i is not None:
                out += [insert_parallel_bands(d, i, n) for n in range(6)]
    return out


def _slot_repr(crossings):
    """repr of a crossing tuple as it read when crossings were stored by PD
    slot, the form the pinned digests were recorded in."""
    items = ["Crossing(a=%d, b=%d, c=%d, d=%d, sign=%d)" % (*x.pd(), x.sign) for x in crossings]
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _over_only(d, ci):
    """Switch every crossing where component ci passes under another
    component; a component without self-crossings then passes only over."""
    comp = {e: k for k, cyc in enumerate(d.component_cycles()) for e in cyc}
    for i, x in enumerate(d.crossings):
        if comp[x.a] == ci and comp[x.over_in] != ci:
            d = d.switch_crossing(i)
    return d


def _sign_corpus(seed=5, count=120):
    """PD texts of seeded braid closures, each also relabelled and
    crossing-shuffled, and with one component made over-only."""
    rng = random.Random(seed)
    texts = []
    while len(texts) < 4 * count:
        strands = rng.randint(2, 6)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 24))]
        d = braid_closure(word, strands)
        if not d.crossings:
            continue
        over = _over_only(d, rng.randrange(d.num_components() - d.free_loops))
        for v in (d, random_relabeling(d, rng), shuffled_crossings(d, rng),
                  random_relabeling(shuffled_crossings(over, rng), rng)):
            texts.append(v.serialize())
    return texts


def _corrupted_corpus(seed=6):
    """Valid label counts, possibly inconsistent orientation: one crossing's
    slots rotated, its a and c swapped, or two label occurrences swapped."""
    rng = random.Random(seed)
    out = []
    for text in _sign_corpus(seed, count=60):
        tuples = [list(map(int, t)) for t in re.findall(r"X\[(\d+),(\d+),(\d+),(\d+)\]", text)]
        k = rng.randrange(len(tuples))
        kind = rng.randrange(3)
        if kind == 0:
            tuples[k] = tuples[k][1:] + tuples[k][:1]
        elif kind == 1:
            tuples[k][0], tuples[k][2] = tuples[k][2], tuples[k][0]
        else:
            j, s, t = rng.randrange(len(tuples)), rng.randrange(4), rng.randrange(4)
            tuples[k][s], tuples[j][t] = tuples[j][t], tuples[k][s]
        out.append(" ".join("X[%d,%d,%d,%d]" % tuple(t) for t in tuples))
    return out


def _mutated_crossing_lists(seed=7, count=600):
    """Crossing lists of seeded braid closures, relabelled and shuffled,
    with one to three mutations each: a strand's ends swapped, a sign
    negated, two label occurrences swapped, or a label overwritten by one
    of 0..2c + 1."""
    rng = random.Random(seed)
    out = []
    for text in _sign_corpus(seed, count=count // 4):
        xs = [list(x) for x in parse_pd(text).crossings]
        n2 = 2 * len(xs)
        for _ in range(rng.randint(1, 3)):
            k, kind = rng.randrange(len(xs)), rng.randrange(5)
            if kind < 2:
                s, t = (0, 1) if kind == 0 else (2, 3)
                xs[k][s], xs[k][t] = xs[k][t], xs[k][s]
            elif kind == 2:
                xs[k][4] = -xs[k][4]
            elif kind == 3:
                j, s, t = rng.randrange(len(xs)), rng.randrange(4), rng.randrange(4)
                xs[k][s], xs[j][t] = xs[j][t], xs[k][s]
            else:
                xs[k][rng.randrange(4)] = rng.randint(0, n2 + 1)
        out.append([Crossing(*x) for x in xs])
    return out


class TestComponents:
    def test_trefoil_single_cycle(self):
        cycles = list(parse_pd(TREFOIL_PD).component_cycles())
        assert len(cycles) == 1
        assert sorted(cycles[0]) == [1, 2, 3, 4, 5, 6]

    def test_free_loops_counted_not_walked(self):
        d = parse_pd("O O")
        assert list(d.component_cycles()) == []
        assert d.num_components() == 2

    def test_free_loops_beside_crossings(self):
        # the loops are a count: no cycle or piece stands for one
        d = parse_pd(TREFOIL_PD + " O O")
        assert d.component_cycles() == ((1, 2, 3, 4, 5, 6),)
        assert [p.crossings for p in d.split_pieces()] == [parse_pd(TREFOIL_PD).crossings]
        assert d.num_components() == 3
        assert d.canonical_code() == b"S\x01\x07\t\x03\x05\x0b\xfe|0|2"

    def test_label_partition(self, small_knots):
        for entry in small_knots:
            d = entry.diagram
            seen = [e for cyc in d.component_cycles() for e in cyc]
            assert sorted(seen) == list(range(1, 2 * len(d.crossings) + 1))

    def test_smoothing_changes_count_by_one(self):
        d = parse_pd(TREFOIL_PD)
        assert d.smooth_crossing(0).num_components() == 2


class TestMoves:
    def test_switch_is_involution(self):
        # switch_crossing puts x.switched() in place of x; _r2_pair gives
        # the same answer either way round, on R2 pairs too
        pairs = []
        for d in (parse_pd(TREFOIL_PD), braid_closure([1, -2, 1, 1, 1, -2], 3)):
            for i, x in enumerate(d.crossings):
                assert x.switched().switched() == x
                assert d.switch_crossing(i).crossings[i] == x.switched()
                assert d.switch_crossing(i).switch_crossing(i) == d
                for y in d.crossings:
                    for z in (x, x.switched()):
                        assert _r2_pair(z, y) == _r2_pair(y, z)
                        pairs.append(_r2_pair(z, y))
        assert True in pairs and False in pairs

    def test_switch_changes_one_sign(self):
        d = parse_pd(TREFOIL_PD)
        s = d.switch_crossing(0)
        assert s.writhe() == -1
        assert sorted(sorted(x[:4]) for x in s.crossings) == sorted(
            sorted(x[:4]) for x in d.crossings
        )

    def test_switch_index_error(self):
        with pytest.raises(IndexError):
            parse_pd(TREFOIL_PD).switch_crossing(3)

    def test_smooth_drops_one_crossing(self, small_knots):
        for entry in small_knots:
            d = entry.diagram
            for i in range(len(d.crossings)):
                s = d.smooth_crossing(i)
                assert len(s.crossings) == len(d.crossings) - 1
                assert abs(s.num_components() - d.num_components()) == 1

    def test_smooth_trefoil_gives_hopf(self):
        h = parse_pd(TREFOIL_PD).smooth_crossing(0)
        assert len(h.crossings) == 2
        assert h.num_components() == 2

    def test_smooth_kink_splits_loops(self):
        s = parse_pd("X[1,1,2,2]").smooth_crossing(0)
        assert len(s.crossings) == 0 and s.free_loops == 2

    def test_smoothing_all_crossings_counts_seifert_circles(self):
        d = parse_pd(TREFOIL_PD)
        while d.crossings:
            d = d.smooth_crossing(0)
        assert d.free_loops == 2


class TestCanonicalCode:
    def test_relabel_invariance(self, small_knots):
        rng = random.Random(11)
        for entry in small_knots:
            base = entry.diagram.canonical_code()
            for _ in range(20):
                moved = random_relabeling(shuffled_crossings(entry.diagram, rng), rng)
                assert moved.canonical_code() == base

    def test_relabel_invariance_links(self):
        rng = random.Random(13)
        for d in random_braid_diagrams(25, seed=5):
            base = d.canonical_code()
            for _ in range(10):
                assert random_relabeling(shuffled_crossings(d, rng), rng).canonical_code() == base

    def test_shifted_labels_equal(self):
        shifted = "X[3,6,4,1] X[5,2,6,3] X[1,4,2,5]"
        assert parse_pd(shifted).canonical_code() == parse_pd(TREFOIL_PD).canonical_code()

    def test_switch_changes_code(self):
        d = parse_pd(TREFOIL_PD)
        assert d.switch_crossing(0).canonical_code() != d.canonical_code()

    def test_unknot_constant(self):
        assert parse_pd("O").canonical_code() == parse_pd("free_loops=1").canonical_code()

    def test_distinguishes_knots(self, small_knots):
        codes = {e.diagram.canonical_code() for e in small_knots}
        assert len(codes) == len(small_knots)

    def test_split_diagram_code(self):
        d1 = braid_closure([1, 1, 1], 2)
        xs = list(d1.crossings) + [
            x._replace(a=x.a + 6, c=x.c + 6, over_in=x.over_in + 6, over_out=x.over_out + 6)
            for x in d1.crossings
        ]
        two = Diagram(xs, 0)
        assert not two.is_connected()
        rng = random.Random(3)
        assert random_relabeling(two, rng).canonical_code() == two.canonical_code()


class TestSimplify:
    def test_kink_unknot(self):
        d = parse_pd("X[1,1,2,2]").simplify()
        assert len(d.crossings) == 0 and d.free_loops == 1

    def test_trefoil_is_fixpoint(self):
        d = parse_pd(TREFOIL_PD)
        assert d.simplify() == d

    def test_r2_pair_removed(self):
        # no planar one-component diagram of two crossings has an R2 pair
        # (the Gauss word 1212 is no plane curve), so take the closure of
        # sigma1 sigma1^-1 from its text: R2 first, leaving two free loops
        d = parse_pd(braid_closure([1, -1], 2).serialize())
        assert d.num_components() == 2
        assert _first_move(list(d.crossings), d._edge_table()) == (0, 1)
        s = d.simplify()
        assert len(s.crossings) == 0 and s.free_loops == 2

    def test_figure8_fixpoint(self):
        d = parse_pd(FIGURE8_PD)
        assert d.simplify() == d

    def test_stacked_kinks(self):
        # braid closure of sigma1 sigma1^-1: R2 pair on two strands
        d = braid_closure([1, -1], 2)
        s = d.simplify()
        assert len(s.crossings) == 0 and s.free_loops == 2

    def test_simplify_reduces_double_kink(self):
        d = braid_closure([1, 1, -1], 2)
        s = d.simplify()
        assert len(s.crossings) == 0
        assert s.free_loops == 1

    def test_crossing_count_never_increases(self):
        for d in random_braid_diagrams(30, seed=17):
            assert len(d.simplify().crossings) <= len(d.crossings)


class TestRelabel:
    def test_bad_mapping_rejected(self):
        d = parse_pd(TREFOIL_PD)
        with pytest.raises(InvalidPDError):
            d.relabel({i: 1 for i in range(1, 7)})

    def test_identity_mapping(self):
        d = parse_pd(TREFOIL_PD)
        assert d.relabel({i: i for i in range(1, 7)}) == d


class TestCacheKeyPins:
    """Canonical codes are the keys of --cache files, which carry no format
    version: any change to these bytes silently orphans existing caches."""

    PINS = {
        "trefoil": "01070903050bfe7c30",
        "hopf": "0006fe0402fe7c30",
        "split_with_free_loop": "5300060802040afe7c303b0006fe0402fe7c307c31",
        "T(4,5)": "0004080e1216181c200a262a142c30220636281038321e0234240c3a2e1afe7c30",
        "W(4_1)": "0005080e1315181e2311242a072d1c1a3302343a17213c0a43450c3e2f3138264741"
                  "2836fe7c30",
    }

    def diagrams(self, small_knots):
        knot_4_1 = next(e.diagram for e in small_knots if e.name == "4_1")
        return {
            "trefoil": parse_pd(TREFOIL_PD),
            "hopf": braid_closure([1, 1], 2),
            # Hopf link, trefoil and a free loop: the split "S...;...|k" form
            "split_with_free_loop": braid_closure([1, 1, 3, 3, 3], 5),
            "T(4,5)": braid_closure([1, 2, 3] * 5, 4),
            "W(4_1)": whitehead_double(knot_4_1, 1, 0),
        }

    def test_pinned_codes(self, small_knots):
        codes = {name: d.canonical_code().hex() for name, d in self.diagrams(small_knots).items()}
        assert codes == self.PINS

    def test_pinned_two_byte_code(self):
        # 66 crossings: above 62 crossings every token is written as two bytes
        code = braid_closure([1, 2, 3] * 22, 4).canonical_code()
        assert len(code) == 270 and code.endswith(b"\xfe\xfe|0")
        assert hashlib.sha256(code).hexdigest() == (
            "849e52c9e55735780fd4f5c8c16f0cf66cf7bf4540a00fad1bbff4e036526513"
        )


# -- plain references for the optimized diagram routines ----------------------


def _reference_tokens(d, start):
    """Unpruned token list of a connected diagram from edge `start`, as the
    canonical_code docstring describes it."""
    succ, entered = {}, {}
    for i, x in enumerate(d.crossings):
        succ[x.a], succ[x.over_in] = x.c, x.over_out
        # crossing entered, under?, the other strand's outgoing edge
        entered[x.a] = (i, True, x.over_out)
        entered[x.over_in] = (i, False, x.c)
    comp_of = {e: ci for ci, cyc in enumerate(d.component_cycles()) for e in cyc}
    num, toks, done, contacts = {}, [], set(), []
    e0 = start
    while e0 is not None:
        done.add(comp_of[e0])
        e = e0
        while True:
            i, under, other_out = entered[e]
            num.setdefault(i, len(num))
            toks.append(4 * num[i] + 2 * under + (d.crossings[i].sign < 0))
            contacts.append(other_out)
            e = succ[e]
            if e == e0:
                break
        toks.append(-1)
        # the next component is attached at its first contact in passage order
        e0 = next((c for c in contacts if comp_of[c] not in done), None)
    return toks


def _reference_pieces(d):
    """Crossing indices of each connected piece, by union-find over the
    link components that share a crossing, in order of first crossing."""
    comp = {e: k for k, cycle in enumerate(d.component_cycles()) for e in cycle}
    root = list(range(len(d.component_cycles())))

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    for x in d.crossings:
        ra, rb = find(comp[x.a]), find(comp[x.over_in])
        if ra != rb:
            root[ra] = rb
    pieces = {}
    for i, x in enumerate(d.crossings):
        pieces.setdefault(find(comp[x.a]), []).append(i)
    return list(pieces.values())


def _reference_code(d):
    n = len(d.crossings)
    if n == 0:
        return b"U%d" % d.free_loops
    if not d.is_connected():
        parts = sorted(_reference_code(p) for p in d.split_pieces())
        return b"S" + b";".join(parts) + b"|%d" % d.free_loops
    best = min(_reference_tokens(d, start) for start in range(1, 2 * n + 1))
    if n > 62:
        body = b"".join((0xFEFE if t == -1 else t).to_bytes(2, "big") for t in best)
    else:
        body = bytes(254 if t == -1 else t for t in best)
    return body + b"|%d" % d.free_loops


_SMOOTH = "smooth"
_DELETE = "delete"


def _remove(diagram, removals):
    """Delete crossings, stitching their edges together; returns the
    surviving crossings, in order and not renumbered, and the new
    free-loop count.

    removals maps crossing index to a mode: the oriented smoothing glues
    under-in to over-out and over-in to under-out; plain deletion (used
    by the Reidemeister moves) glues each strand straight through.
    Stitched chains that close up with no surviving crossing become free
    loops.
    """
    glue = {}
    for i, mode in removals.items():
        x = diagram.crossings[i]
        if mode == _SMOOTH:
            glue[x.a] = x.over_out
            glue[x.over_in] = x.c
        else:
            glue[x.a] = x.c
            glue[x.over_in] = x.over_out
    survivors = [x for i, x in enumerate(diagram.crossings) if i not in removals]

    rep = {}
    new_loops = 0
    glued_into = set(glue.values())
    for e in list(glue):
        if e in rep or e in glued_into:
            continue
        # open chain starting at e
        chain = [e]
        f = glue[e]
        while f in glue:
            chain.append(f)
            f = glue[f]
        chain.append(f)
        for m in chain:
            rep[m] = e
    for e in glue:
        if e not in rep:
            # part of a closed glue cycle: a crossing-free loop
            f = glue[e]
            while f != e:
                rep[f] = e
                f = glue[f]
            rep[e] = e
            new_loops += 1
    m = rep.get
    mapped = [Crossing(m(a, a), m(b, b), m(c, c), m(d, d), s) for a, b, c, d, s in survivors]
    return mapped, diagram.free_loops + new_loops


def _find_r1(diagram):
    for i, (a, b, c, d, _) in enumerate(diagram.crossings):
        if a == b or b == c or c == d or d == a:
            return i
    return None


def _find_r2(diagram):
    ins = _entries(diagram.crossings)
    for i, x in enumerate(diagram.crossings):
        j, under = ins[x.over_out]
        if j == i or under or diagram.crossings[j].sign == x.sign:
            continue
        y = diagram.crossings[j]
        # same strand passes over both; the under strand must also run
        # directly between the two crossings (either direction)
        if x.c == y.a or y.c == x.a:
            return (i, j)
    return None


def _reference_simplify(d):
    """R1/R2 moves to a fixpoint, renumbering after every single move."""
    while True:
        i = _find_r1(d)
        found = (i,) if i is not None else _find_r2(d)
        if found is None:
            return d
        d = _renumber(*_remove(d, dict.fromkeys(found, _DELETE)))


_words = st.integers(min_value=2, max_value=5).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.integers(min_value=1, max_value=k - 1).flatmap(lambda i: st.sampled_from([i, -i])),
                 min_size=1, max_size=14),
    )
)


@st.composite
def _diagrams(draw):
    """Braid closures (knots, links, split links, free loops) and their
    smoothed and switched descendants."""
    strands, word = draw(_words)
    d = braid_closure(word, strands)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if not d.crossings:
            break
        i = draw(st.integers(min_value=0, max_value=len(d.crossings) - 1))
        d = d.smooth_crossing(i) if draw(st.booleans()) else d.switch_crossing(i)
    return d


class TestAgainstReferences:
    @given(_diagrams())
    @example(braid_closure([1, 1, 3, 3, 3], 5))
    @example(braid_closure([1, -2, 1, -2, 3, 3], 5).smooth_crossing(4))
    @example(braid_closure([1, 2, 3] * 22, 4))
    @settings(max_examples=150, deadline=None)
    def test_code_is_least_unpruned_walk(self, d):
        assert d.canonical_code() == _reference_code(d)
        s = d.simplify()
        assert s.canonical_code() == _reference_code(s)

    @given(_diagrams())
    @example(braid_closure([1, 1, -1], 2))
    @example(braid_closure([1, -1, 2, -2, 1, 3, -3], 4))
    @settings(max_examples=150, deadline=None)
    def test_simplify_matches_renumber_per_move(self, d):
        s, r = d.simplify(), _reference_simplify(d)
        assert s.crossings == r.crossings
        assert s.free_loops == r.free_loops

    @given(_diagrams())
    @example(parse_pd("X[1,1,2,2]"))
    @example(braid_closure([1, -1, 2, -2, 1, 3, -3], 4))
    @settings(max_examples=150, deadline=None)
    def test_reduced_smoothing_matches_smooth_then_simplify(self, d):
        for i in range(len(d.crossings)):
            smoothed = d.smooth_crossing(i)
            ref = _renumber(*_remove(d, {i: _SMOOTH}))
            assert (smoothed.crossings, smoothed.free_loops) == (ref.crossings, ref.free_loops)
            s, r = _reduce(d, (i,)), smoothed.simplify()
            assert (s.crossings, s.free_loops) == (r.crossings, r.free_loops)

    @given(_diagrams())
    @example(braid_closure([1, 1, 3, 3, 3], 5))
    @example(braid_closure([1, 2, 1, -4, -4, -4], 6))
    @settings(max_examples=150, deadline=None)
    def test_carried_cycles_match_a_fresh_walk(self, d):
        # renumbered, reduced, split and switched diagrams carry their
        # cycles and edge table; a computed code records the pieces, and
        # the strand walk finds the union-find's pieces
        def assert_carried(x):
            fresh = Diagram(x.crossings, x.free_loops)  # runs _validate
            assert fresh._crossing_graph_pieces() == _reference_pieces(fresh)
            assert x._cycles is not None
            assert x._cycles == fresh.component_cycles()
            assert x._comp == fresh._comp
            assert x._ins is not None and x._ins == _entries(x.crossings)

        renumbered = [d, d.simplify(), *d.split_pieces()]
        renumbered += [_reduce(d, (i,)) for i in range(len(d.crossings))]
        for x in renumbered:
            assert_carried(x)
        d.is_connected()
        switched = [d.switch_crossing(i) for i in range(len(d.crossings))]
        for x in switched:
            assert_carried(x)
            fresh = Diagram(x.crossings, x.free_loops)
            assert x._pieces == fresh._crossing_graph_pieces()
        for x in renumbered + [y.simplify() for y in switched]:
            x.canonical_code()
            fresh = Diagram(x.crossings, x.free_loops)
            assert x._pieces == fresh._crossing_graph_pieces() == _reference_pieces(fresh)


# seeded closures of 2-6 strands and Whitehead doubles of table knots, in
# both clasps, untwisted and with one twist
_DERIVED_CORPUS = random_braid_diagrams(80, seed=41, max_strands=6, max_len=14,
                                        max_crossings=14)
_DERIVED_CORPUS += [whitehead_double(e.diagram, clasp, twists)
                    for e in load_knot_table(os.path.join(DATA_DIR, "small_knots.csv"))[:6]
                    for clasp, twists in ((1, 0), (-1, 1))]


@st.composite
def _derived(draw):
    """A diagram of _DERIVED_CORPUS, or a descendant taken by up to three
    switches (each maybe simplified), smoothings or reduced smoothings."""
    d = draw(st.sampled_from(_DERIVED_CORPUS))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if not d.crossings:
            break
        i = draw(st.integers(min_value=0, max_value=len(d.crossings) - 1))
        step = draw(st.sampled_from(("switch", "switch-simplify", "smooth", "reduce")))
        if step == "switch":
            d = d.switch_crossing(i)
        elif step == "switch-simplify":
            d = d.switch_crossing(i).simplify()
        else:
            d = d.smooth_crossing(i) if step == "smooth" else _reduce(d, (i,))
    return d


class TestDerivedStructure:
    """The Seifert circles a switch hands on and the reduced mark, over
    seeded closures, table doubles and their switched or smoothed children."""

    @given(_derived())
    @example(whitehead_double(parse_pd(TREFOIL_PD), -1, 1))
    @settings(max_examples=120, deadline=None)
    def test_switched_diagrams_carry_their_seifert_cycles(self, d):
        circles = _seifert_cycles(d)
        for i in range(len(d.crossings)):
            x = d.switch_crossing(i)
            assert x._seifert is circles
            assert _seifert_cycles(Diagram(x.crossings, x.free_loops)) == circles
            # and so does a switch of a switch
            assert _seifert_cycles(x.switch_crossing(len(d.crossings) - 1 - i)) == circles

    @given(_derived())
    @example(braid_closure([1, -1, 2, -2, 1, 3, -3], 4))
    @settings(max_examples=120, deadline=None)
    def test_diagrams_marked_reduced_admit_no_move(self, d):
        n = len(d.crossings)
        moved = [d.simplify(), *(_reduce(d, (i,)) for i in range(n)),
                 *(d.switch_crossing(i).simplify() for i in range(n))]
        assert all(x._reduced for x in moved)
        # the mark comes only from a scan: switches and smoothings lack it
        children = [*(d.switch_crossing(i) for i in range(n)),
                    *(d.smooth_crossing(i) for i in range(n))]
        assert not any(x._reduced for x in children)
        for x in [d, *moved, *children]:
            if x._reduced:
                assert _first_move(list(x.crossings), x._edge_table()) is None
                assert x.simplify() is x
        # simplify marks a diagram it finds at the fixpoint
        assert d._reduced == (d.simplify() is d)
