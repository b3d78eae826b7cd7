"""The Hecke route for closed braids: the braid reader, the Markov trace
(runs of equal letters included) against the skein route, the naive
oracle and its own invariance under Markov moves, and the engine's use of
both."""

import random
import re
from hashlib import sha256
from math import factorial

import pytest

from helpers import (SPLIT_WHEN_SIMPLIFIED_PD, mirrored, random_relabeling, shuffled_crossings,
                     skein_homfly, trefoil_beside_its_double)

from mortonlab import braid
from mortonlab.braid import MAX_STRANDS, _unpack, hecke_homfly, read_braid
from mortonlab.diagram import parse_pd
from mortonlab.errors import InvalidPDError
from mortonlab.family import braid_closure, insert_parallel_bands, two_bridge_plat, whitehead_double
from mortonlab.homfly import HomflyEngine, naive_homfly
from mortonlab.poly import LaurentPoly2, _skein_step, delta_factor
from mortonlab.seifert import seifert_circles

# the table diagrams of small_knots.csv that are closed braids as drawn
BRAID_TABLE_DIAGRAMS = ["3_1", "4_1", "5_1", "6_2", "6_3", "7_1"]


def _closures(count, seed):
    """(word, strands) of seeded random braids: 2-6 strands, 1-20 letters."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randint(2, 6)
        out.append(([rng.choice([1, -1]) * rng.randint(1, strands - 1)
                     for _ in range(rng.randint(1, 20))], strands))
    return out


class TestDifferential:
    """The public route evaluates every piece of a braid closure, however
    its labels and crossings are ordered, by the Hecke trace; the skein
    route and the oracle share none of that code.  The oracle is run only
    to 7 crossings: on these words it took 285 s over the 152 closures of at
    most 10 crossings, up to 134 s on one."""

    @pytest.mark.parametrize("chunk", range(6))
    def test_hecke_route_matches_skein_route_and_oracle(self, chunk):
        rng = random.Random(chunk)
        for word, strands in _closures(300, seed=67)[50 * chunk:50 * (chunk + 1)]:
            d = braid_closure(word, strands)
            ref = skein_homfly(HomflyEngine(), d)
            if len(d.crossings) <= 7:
                assert naive_homfly(d) == ref
            # equal pieces share one evaluation
            pieces = len({piece.simplify().canonical_code() for piece in d.split_pieces()})
            variants = [(d, ref), (random_relabeling(d, rng), ref),
                        (shuffled_crossings(d, rng), ref), (mirrored(d), ref.mirror())]
            for v, expected in variants:
                engine = HomflyEngine()
                assert engine.homfly(v) == expected, (word, strands)
                assert (engine.expansions, engine.braid_evaluations) == (0, pieces)

    def test_four_plats_that_read_as_braids(self):
        # two-bridge diagrams with small twist regions are closed braids on
        # two or three strands as drawn, or not braids at all
        read = 0
        for parts in [(a, b) for a in range(1, 5) for b in range(1, 5)] + [(2, 1, 2), (3, 1, 1)]:
            d = two_bridge_plat(parts)
            braid = read_braid(d)
            if braid is not None:
                read += 1
                assert hecke_homfly(*braid) == skein_homfly(HomflyEngine(), d)
        assert read


class TestTrace:
    """The trace alone, on words beyond the differential test's 20 letters
    and the skein route's reach."""

    def test_long_two_strand_words_follow_the_skein_rule(self):
        # P(s^n) = v^2 P(s^(n-2)) + v z P(s^(n-1)) at one crossing of s^n;
        # at n = 64 the packed digits are 66 bits wide
        expected = [delta_factor(), LaurentPoly2.one()]
        for n in range(2, 65):
            expected.append(_skein_step(1, expected[n - 2], expected[n - 1]))
        # each word is one run, so this is the run's one pass for every
        # power up to 64
        for n, p in enumerate(expected):
            assert hecke_homfly((1,) * n, 2) == p, n
            assert hecke_homfly((-1,) * n, 2) == p.mirror(), n

    @pytest.mark.parametrize("word, strands, message", [
        ((5,), 3, "word letters must be nonzero with |w| < 3"),
        ((0,), 3, "word letters must be nonzero with |w| < 3"),
        ((1, -2), 2, "word letters must be nonzero with |w| < 2"),
        ((), 0, "strands must be from 1 to 7"),
        ((1, 2, 3, 4, 5, 6, 7, 8, -1, 2), 9, "strands must be from 1 to 7"),
    ], ids=["letter-too-large", "letter-zero", "letter-too-small", "no-strands",
            "over-max-strands"])
    def test_rejects_words_it_cannot_evaluate(self, word, strands, message):
        # unchecked, the packed trace gave 0 for the too-large letters and
        # for the 9-strand word (whose closure is the unknot), raised an
        # unrelated error for the zero letter and gave v for no strands
        with pytest.raises(ValueError, match=re.escape(message)):
            hecke_homfly(word, strands)
        if strands and "letters" in message:
            with pytest.raises(ValueError, match=re.escape(message)):
                braid_closure(word, strands)

    def test_markov_moves_and_mirror(self):
        # seeded words of 24-48 letters on 5-7 strands
        rng = random.Random(71)
        for strands in (5, 6, 7) * 3:
            word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                    for _ in range(rng.randint(24, 48))]
            _check_identities(word, strands, rng)


def _check_identities(word, strands, rng):
    """The trace of a word is nonzero, unchanged by a rotation and by a
    stabilization of either sign, and mirrored with the word; returns it."""
    p = hecke_homfly(word, strands)
    assert p, word
    r = rng.randrange(1, len(word))
    assert hecke_homfly(word[r:] + word[:r], strands) == p, (word, r)
    if strands < MAX_STRANDS:
        for s in (strands, -strands):
            assert hecke_homfly(word + [s], strands + 1) == p, (word, s)
    assert hecke_homfly([-g for g in word], strands) == p.mirror(), word
    return p


def _run_words(count, seed, letters):
    """(word, strands) of seeded braids on 2-7 strands made of powers
    sigma_i^(+-k), 1 <= k <= 8, about letters (a range) letters long.  A
    word is rotated to start one letter into a run of 2 or more when it
    has one, so that run is split across its end."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randint(2, MAX_STRANDS)
        target = rng.randint(*letters)
        word, runs = [], []
        while len(word) < target:
            g = rng.choice([1, -1]) * rng.randint(1, strands - 1)
            k = rng.randint(1, 8)
            if k > 1:
                runs.append(len(word))
            word += [g] * k
        if runs:
            r = rng.choice(runs) + 1
            word = word[r:] + word[:r]
        out.append((word, strands))
    return out


class TestRuns:
    """Words with runs of equal letters, which the trace applies in one
    pass each; random letters rarely repeat three times."""

    def test_runs_match_skein_route(self):
        words = _run_words(240, seed=73, letters=(8, 20))
        assert sum(w[0] == w[-1] for w, _ in words) > 200
        for word, strands in words:
            d = braid_closure(word, strands)
            assert hecke_homfly(word, strands) == skein_homfly(HomflyEngine(), d), (word, strands)

    def test_long_runs_keep_markov_moves_mirror_and_broken_runs(self):
        # beyond the skein route's reach: besides the identities, a
        # cancelling pair of another generator between every two letters
        # of each run leaves the braid, and its trace, alone while every
        # letter is taken on its own
        rng = random.Random(79)
        for word, strands in _run_words(36, seed=79, letters=(24, 48)):
            p = _check_identities(word, strands, rng)
            if strands > 2:
                broken = [word[0]]
                for prev, g in zip(word, word[1:]):
                    if g == prev:
                        h = abs(g) % (strands - 1) + 1
                        broken += [h, -h]
                    broken.append(g)
                assert hecke_homfly(broken, strands) == p, (word, strands)


class TestStateForms:
    """The trace's state starts sparse and turns dense once it fills; both
    forms must give every polynomial the default switch gives."""

    @staticmethod
    def _traces(words, divisor, monkeypatch):
        """The traces of words with the switch at n!/divisor terms, and
        which letter functions ran on words with letters."""
        ran, traces = set(), []
        for name in ("_times", "_times_dense"):
            f = getattr(braid, name)
            monkeypatch.setattr(braid, name, lambda *a, f=f, name=name: ran.add(name) or f(*a))
        monkeypatch.setattr(braid, "_DENSE_DIVISOR", divisor)
        for word, strands in words:
            before = set(ran)
            traces.append(hecke_homfly(word, strands))
            if not word:  # no letter: the partial traces stay sparse
                ran &= before
        monkeypatch.undo()
        return traces, ran

    def test_sparse_and_dense_forms_agree(self, monkeypatch):
        # seeded words of 1-7 strands and 0-60 letters, words with runs of
        # up to 8 equal letters, and T(n, n+1) for n <= 7
        rng = random.Random(89)
        words = []
        for _ in range(120):
            strands = rng.randint(1, MAX_STRANDS)
            letters = rng.randint(0, 60) if strands > 1 else 0
            words.append(([rng.choice([1, -1]) * rng.randint(1, strands - 1)
                           for _ in range(letters)], strands))
        words += _run_words(40, seed=97, letters=(6, 60))
        words += [(list(range(1, n)) * (n + 1), n) for n in range(1, MAX_STRANDS + 1)]
        default, ran = self._traces(words, braid._DENSE_DIVISOR, monkeypatch)
        # the default switches inside some traces
        assert ran == {"_times", "_times_dense"}
        # dense from the first letter (1 term times n! reaches n!), and never
        dense, ran = self._traces(words, factorial(MAX_STRANDS), monkeypatch)
        assert ran == {"_times_dense"}
        assert dense == default
        sparse, ran = self._traces(words, 0, monkeypatch)
        assert ran == {"_times"}
        assert sparse == default


class TestPacking:
    @pytest.mark.parametrize("strands", range(1, MAX_STRANDS + 1))
    def test_unpack_recovers_polynomials_at_the_decoding_bound(self, strands):
        # the bound the braid module states: delta-degree below strands,
        # z-degree at most B - 2 and coefficients at most 2^(B-2) in size
        # for digits of B bits; coefficients all at the bound, of one sign,
        # make the largest sums at every z-exponent
        rng = random.Random(83 + strands)
        one_minus_v2 = LaurentPoly2({(0, 0): 1, (2, 0): -1})
        least = (strands - 1) * (strands - 2) // 2 + 2
        for bits in (least, least + 1, least + 9, least + 40):
            top = 1 << (bits - 2)
            for fill in (lambda: top, lambda: -top, lambda: rng.choice((top, -top)),
                         lambda: rng.randint(-top, top), lambda: rng.choice((0, 0, top, -1))):
                coeffs = {(i, b): fill() for b in range(strands) for i in range(bits - 1)}
                x = sum(c << bits * (i + (bits - 1) * b) for (i, b), c in coeffs.items())
                ev0 = rng.randint(-9, 9)
                expected = LaurentPoly2.zero()
                for (i, b), c in coeffs.items():
                    expected = expected + (one_minus_v2 ** b).mono_mul(c, ev0, i - b)
                assert _unpack(x, bits, strands, ev0) == expected, (bits, strands)


class TestReader:
    def test_whitehead_doubles_are_not_braids(self, small_knots):
        for e in small_knots:
            for clasp, twists in ((1, 0), (-1, 0), (1, -e.diagram.writhe())):
                assert read_braid(whitehead_double(e.diagram, clasp, twists)) is None, e.name

    def test_table_diagrams_that_read_as_braids(self, small_knots):
        read = {e.name: read_braid(e.diagram) for e in small_knots}
        assert sorted(name for name, b in read.items() if b is not None) == BRAID_TABLE_DIAGRAMS
        for e in small_knots:
            if read[e.name] is not None:
                assert hecke_homfly(*read[e.name]) == naive_homfly(e.diagram), e.name

    def test_plat_and_band_verdicts_are_pinned(self, small_knots):
        # 4-plats C(a, b) and C(a, b, c) in each handedness of both kinds of
        # twist region, then L_0..L_4 of each table knot at its first
        # crossing between two circles; which of them read is pinned by the
        # digest of their "1"/"0" verdicts in this order
        diagrams = [two_bridge_plat((a, b, c) if c else (a, b), od_mid, od_side)
                    for a in range(1, 6) for b in range(1, 6) for c in range(4)
                    for od_mid in (0, 1) for od_side in (0, 1)]
        for e in small_knots:
            i = next(i for i, (p, q) in enumerate(seifert_circles(e.diagram).crossing_joins)
                     if p != q)
            diagrams += [insert_parallel_bands(e.diagram, i, n) for n in range(5)]
        braids = [read_braid(d) for d in diagrams]
        verdicts = "".join("0" if b is None else "1" for b in braids)
        assert (len(verdicts), verdicts.count("1")) == (470, 70)
        assert sha256(verdicts.encode()).hexdigest() == (
            "24ed916a1b8d1e22cf9284b1ca9c4d7fe82cd1a946772eb1c1938b3ae1820a7b")
        # most rejections are planar diagrams of at most MAX_STRANDS
        # circles, each crossing between two: only the circles' order
        # rejects them
        decs = [seifert_circles(d) for d, b in zip(diagrams, braids)
                if b is None and d.is_connected()]
        assert sum(dec.num_circles <= MAX_STRANDS and all(p != q for p, q in dec.crossing_joins)
                   for dec in decs) == 380
        engine = HomflyEngine()
        for d, b in zip(diagrams, braids):
            if b is not None:
                assert hecke_homfly(*b) == skein_homfly(engine, d), d

    def test_reads_the_closure_it_was_built_from(self):
        # the circles fix the word up to rotation, commuting letters and
        # numbering the strands from either end
        word = (1, -2, 1, 3, -2, 3)
        braid = read_braid(parse_pd(braid_closure(word, 4).serialize()))
        assert braid is not None and braid[1] == 4
        flipped = [(4 - abs(g)) * (1 if g > 0 else -1) for g in word]
        assert sorted(braid[0]) in (sorted(word), sorted(flipped))

    def test_split_crossingless_and_nonplanar_diagrams_are_not_read(self):
        assert read_braid(parse_pd("O")) is None
        assert read_braid(braid_closure([1, 1, 1, 3, 3, 3], 4)) is None
        # PD text whose slots give 2 faces, not c + 2 = 4, makes no diagram,
        # so no such text reaches the reader
        for text in ("X[1,3,2,4] X[4,1,3,2]", "X[1,3,2,4] X[2,4,1,3]"):
            with pytest.raises(InvalidPDError, match="no diagram on the sphere"):
                parse_pd(text)
        assert read_braid(parse_pd("X[1,3,2,4] X[3,1,4,2]")) == ((1, 1), 2)

    def test_more_than_max_strands_falls_back_to_skein_route(self):
        # T(8,2) on 8 strands has 8 Seifert circles and admits no R1 or R2
        # move, so it is not read and goes to the skein route; it is
        # T(2,8), the closure of sigma_1^8
        d = braid_closure([1, 2, 3, 4, 5, 6, 7] * 2, MAX_STRANDS + 1)
        assert read_braid(d) is None and d.simplify() is d
        engine = HomflyEngine()
        assert engine.homfly(d) == hecke_homfly((1,) * 8, 2)
        assert engine.expansions > 0 and engine.braid_evaluations == 0
        stabilized = braid_closure([1, 1, 1, 2, 3, 4, 5, 6], MAX_STRANDS)
        assert read_braid(stabilized) is not None


def _key_digest(engine):
    """sha256 of an engine's cache keys, sorted and joined."""
    return sha256(b"".join(sorted(engine.cache))).hexdigest()


class TestEngineRoute:
    def test_split_root_is_evaluated_piece_by_piece(self):
        # two braid pieces and a free strand: one entry for the root and one
        # for each piece
        d = braid_closure([1, 1, 1, 3, -4, 3, -4], 6)
        assert not d.is_connected()
        engine = HomflyEngine()
        assert engine.homfly(d) == skein_homfly(HomflyEngine(), d)
        assert (engine.expansions, engine.braid_evaluations, len(engine.cache)) == (0, 2, 3)
        assert _key_digest(engine) == (
            "31fc1e07082a72b73c4a58714222377abbe88b1ea95c0afcb2f5dce7d7e3b72b")

    @pytest.mark.parametrize("make, counts, digest", [
        # a braid whose simplified form is split: one entry, the root's
        (lambda: braid_closure([1, 1, 1, 2, -2], 3), (0, 1, 1),
         "0b956478d3732d7aa185b6cb2f5501f38b51b87d09ebf3a38b0f66dd13b70744"),
        # not a braid, split when simplified into pieces that are: the root
        # and the one piece with crossings
        (lambda: parse_pd(SPLIT_WHEN_SIMPLIFIED_PD), (0, 1, 2),
         "79afdb6ccfa6a2e9ae457657b4c397ccec924afa174aff4e3831372f6de276d2"),
        # split as given: a braid piece and a skein piece
        (trefoil_beside_its_double, (18, 1, 24),
         "1deb1226ade274309566daeea0b5e7db00bea4860bd7887df80dbfe7157ea745"),
        # the trefoil and T(5,6) stabilized to 8 strands: not read as given,
        # but read once R1 moves destabilize them
        (lambda: braid_closure([1, 1, 1, 2, 3, 4, 5, 6, 7], 8), (0, 1, 1),
         "36d415aa446f04ac0329cc4599d8b4a1626fbfd2ed71a8bc7bf94c7f31760774"),
        (lambda: braid_closure([1, 2, 3, 4] * 6 + [5, 6, 7], 8), (0, 1, 1),
         "44d8d437b5cbcb85956c12ac01eef5392fc926b9280dfd9f5f254a578b24be41"),
        # read as given: the anti-parallel R2 move across the closure takes
        # its simplified form out of braid form
        (lambda: braid_closure([1, 1, 1, -2, -1, -2, -3, -2, -2, 1, 1, 1, 3], 4), (0, 1, 1),
         "878d0db27b35f828c6780ec1a37c0fe97a75dca781360f716277c0f1318e3bc4"),
    ], ids=["braid-split-when-simplified", "split-when-simplified", "braid-beside-double",
            "trefoil-stabilized", "T(5,6)-stabilized", "braid-only-as-given"])
    def test_root_shapes_are_pinned(self, make, counts, digest):
        d = make()
        engine = HomflyEngine()
        assert engine.homfly(d) == skein_homfly(HomflyEngine(), d)
        assert (engine.expansions, engine.braid_evaluations, len(engine.cache)) == counts
        assert _key_digest(engine) == digest

    def test_cache_hit_reads_no_braid(self, monkeypatch):
        d = braid_closure([1, 2] * 4, 3)
        engine = HomflyEngine()
        p = engine.homfly(d)
        monkeypatch.setattr("mortonlab.homfly.read_braid", None)
        assert engine.homfly(d) == p
        assert engine.braid_evaluations == 1
