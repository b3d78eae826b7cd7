"""HOMFLY engine: known values, mirror law, oracle equivalence, skein
audit, invariance, parity, caching, traces, thread determinism, recursion
depth."""

import hashlib
import json
import random
import re
import sys
import threading
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from conftest import FIGURE8_PD, TREFOIL_PD
from helpers import (
    braid_closure,
    random_braid_diagrams,
    random_relabeling,
    shuffled_crossings,
    skein_homfly,
)

from mortonlab.cli import run_command
from mortonlab.diagram import _reduce, parse_pd
from mortonlab.errors import ParseError, TooLargeError
from mortonlab.family import whitehead_double
from mortonlab.homfly import (
    TRACE_NODE_LIMIT,
    HomflyEngine,
    _read_cache_records,
    append_cache_file,
    choose_skein_crossing,
    naive_homfly,
    skein_trace,
    trace_to_dot,
)
from mortonlab.poly import LaurentPoly2, delta_factor
from mortonlab.seifert import seifert_circles

LEFT_TREFOIL = LaurentPoly2({(-2, 2): 1, (-2, 0): 2, (-4, 0): -1})
RIGHT_TREFOIL = LaurentPoly2({(2, 2): 1, (2, 0): 2, (4, 0): -1})
FIG8 = LaurentPoly2({(0, 2): -1, (2, 0): 1, (0, 0): -1, (-2, 0): 1})


class TestKnownValues:
    def test_unknot(self, engine):
        assert engine.homfly(parse_pd("O")) == LaurentPoly2.one()

    def test_unlinks(self, engine):
        assert engine.homfly(parse_pd("O O")) == delta_factor()
        assert engine.homfly(parse_pd("free_loops=3")) == delta_factor() ** 2

    def test_trefoil_beside_two_loops(self, engine):
        assert engine.homfly(parse_pd(TREFOIL_PD + " O O")) == delta_factor() ** 2 * LEFT_TREFOIL

    def test_left_trefoil(self, engine):
        # switch-once gives the unknot, smooth gives the negative Hopf link;
        # expanding the skein relation by hand gives these three terms
        assert engine.homfly(parse_pd(TREFOIL_PD)) == LEFT_TREFOIL

    def test_right_trefoil_from_braid(self, engine):
        assert engine.homfly(braid_closure([1, 1, 1], 2)) == RIGHT_TREFOIL

    def test_mirror_pair(self, engine):
        assert LEFT_TREFOIL == RIGHT_TREFOIL.mirror()

    def test_figure8(self, engine):
        assert engine.homfly(parse_pd(FIGURE8_PD)) == FIG8

    def test_hopf(self, engine):
        # hand expansion: P = v^-2 delta - v^-1 z for the negative clasp
        hopf = parse_pd(TREFOIL_PD).smooth_crossing(0)
        expected = delta_factor().mono_mul(1, ev=-2) + LaurentPoly2({(-1, 1): -1})
        assert engine.homfly(hopf) == expected

    def test_torus_knots_reach_genus_degree(self, engine):
        # positive braid closures: z-degree = 2 * diagram genus
        assert engine.homfly(braid_closure([1, 2] * 4, 3)).maxdeg_z() == 6
        assert engine.homfly(braid_closure([1] * 7, 2)).maxdeg_z() == 6

    def test_kinks_are_unknots(self, engine):
        assert engine.homfly(parse_pd("X[1,1,2,2]")) == LaurentPoly2.one()
        assert engine.homfly(parse_pd("X[1,2,2,1]")) == LaurentPoly2.one()

    def test_unknotting_the_trefoil(self, engine):
        assert engine.homfly(parse_pd(TREFOIL_PD).switch_crossing(0)) == LaurentPoly2.one()


class TestChooseCrossing:
    def test_unknot_none(self):
        assert choose_skein_crossing(parse_pd("O")) is None

    def test_switching_reaches_descending(self):
        # repeatedly switching the chosen bad crossing must terminate in a
        # descending (hence trivial) diagram without touching the rest
        d = parse_pd(TREFOIL_PD)
        for _ in range(len(d.crossings) + 1):
            i = choose_skein_crossing(d)
            if i is None:
                break
            d = d.switch_crossing(i)
        assert choose_skein_crossing(d) is None
        assert d.num_components() == 1

    def test_descending_two_crossing_unknot(self, engine):
        # the closure of sigma1 sigma2, one component, is met over-first on
        # both crossings from edge 1 in one of its two switchings
        d = parse_pd(braid_closure([1, 2], 3).serialize())
        assert d.num_components() == 1
        swapped = d.switch_crossing(0).switch_crossing(1)
        descending = d if choose_skein_crossing(d) is None else swapped
        assert choose_skein_crossing(descending) is None
        assert engine.homfly(descending) == LaurentPoly2.one()

    def test_deterministic(self):
        d = parse_pd(TREFOIL_PD)
        picks = {choose_skein_crossing(d) for _ in range(10)}
        assert len(picks) == 1
        assert picks.pop() in (0, 1, 2)


def _braids(max_strands=4, max_len=7):
    """(strands, word) pairs; a generator left out splits the closure and an
    untouched strand closes into a free loop."""
    return st.integers(min_value=2, max_value=max_strands).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(min_value=1, max_value=k - 1).flatmap(lambda i: st.sampled_from([i, -i])),
                     min_size=1, max_size=max_len),
        )
    )


class TestChosenBasepoints:
    """The engine's skein choice against routes that do not use it: the
    naive oracle walks every component from its least label.  The oracle's
    tree grows too fast for random words of 8 letters or more (up to 2 s at
    8 crossings, 18 s at 10), so random words stop at 7 letters and the
    10-crossing cases are fixed examples."""

    @given(_braids(5, 7))
    @example((8, [1, 2, 3, 4, -3, -2, -1, 5, 6, 7]))
    @example((9, [1, 1, 1, 2, 3, 4, 5, 6, 7, 8]))
    @example((5, [1, -1, 3, 3, -3]))
    @settings(max_examples=40, deadline=None)
    def test_switching_reaches_an_unlink(self, braid):
        # switches, and deletions that lift a layered component off, keep
        # the component count and end at a descending diagram
        strands, word = braid
        d = braid_closure(word, strands)
        k, n = d.num_components(), len(d.crossings)
        # between two lifts: at most n self switches and n * n / 2 shared ones
        for _ in range((k + 1) * (n * n + 1)):
            i = choose_skein_crossing(d)
            if i is None:
                break
            d = _reduce(d, i, smooth=False, moves=False) if isinstance(i, tuple) else d.switch_crossing(i)
        assert choose_skein_crossing(d) is None
        assert d.num_components() == k
        assert naive_homfly(d) == delta_factor() ** (k - 1)

    @given(_braids(5, 7))
    @example((8, [1, 2, 3, 4, -3, -2, -1, 5, 6, 7]))
    @example((9, [1, 1, 1, 2, 3, 4, 5, 6, 7, 8]))
    @settings(max_examples=40, deadline=None)
    def test_engine_matches_oracle(self, braid):
        # the skein route: the public one reads these closures as braids
        strands, word = braid
        d = braid_closure(word, strands)
        assert skein_homfly(HomflyEngine(), d) == naive_homfly(d)

    @given(_braids(4, 30))
    @example((3, [1, 2] * 15))
    @settings(max_examples=40, deadline=None)
    def test_morton_franks_williams_v_degrees(self, braid):
        # w - s + 1 <= v-degrees of P <= w + s - 1 (Morton 1986,
        # Franks-Williams 1987) at sizes the oracle cannot reach
        strands, word = braid
        d = braid_closure(word, strands)
        assume(d.is_connected())
        w, s = d.writhe(), seifert_circles(d).num_circles
        p = HomflyEngine().homfly(d)
        evs = [ev for ev, _ in p.terms]
        assert w - s + 1 <= min(evs) and max(evs) <= w + s - 1
        # the Hecke route against the skein route at sizes the oracle
        # cannot reach
        assert skein_homfly(HomflyEngine(), d) == p


class TestSeifertCircles:
    """seifert_circles counts the cycles of the smoothing successor map with
    the walk that component_cycles uses; smoothing one crossing at a time
    counts closed loops in _stitch and relabels by _renumber's own walk."""

    @given(_braids(5, 14))
    @settings(max_examples=60, deadline=None)
    def test_circles_are_the_loops_left_by_smoothing(self, braid):
        # the Seifert circles of a connected braid closure are its strands
        strands, word = braid
        d = braid_closure(word, strands)
        assume(d.is_connected())
        s = seifert_circles(d).num_circles
        assert s == strands
        while d.crossings:
            d = d.smooth_crossing(0)
        assert d.free_loops == s


def _reference_choice(d):
    """Brute force of the engine's skein step from the crossings alone, over
    the components with crossings in least-label order: each one's index
    by edge label (comp); its balance u - o, the crossings with other
    components it passes under less those it passes over (bal); the fewest
    of its self-crossings met under first from any basepoint (least); the
    crossings shared by the first component with exactly one of u, o zero
    (layered, else None); and, in meeting order, the crossings met under
    first when the components run in ascending balance, ties by least
    label, each from the last basepoint from its least label that leaves
    the fewest (bad)."""
    cycles = d.component_cycles()
    comp = {e: k for k, cyc in enumerate(cycles) for e in cyc}

    def enters(e):
        for i, x in enumerate(d.crossings):
            if e in (x.a, x.over_in):
                return i, e == x.a

    def under_first(k, start):
        cyc = cycles[k]
        seen, bad = set(), []
        for e in cyc[start:] + cyc[:start]:
            i, under = enters(e)
            x = d.crossings[i]
            if comp[x.a] == comp[x.over_in] and i not in seen:
                seen.add(i)
                if under:
                    bad.append(i)
        return bad

    ks = range(len(cycles))
    u = [sum(comp[x.a] == k != comp[x.over_in] for x in d.crossings) for k in ks]
    o = [sum(comp[x.over_in] == k != comp[x.a] for x in d.crossings) for k in ks]
    least, starts = [], []
    for k, cyc in enumerate(cycles):
        counts = [len(under_first(k, s)) for s in range(len(cyc))]
        least.append(min(counts))
        starts.append(max(s for s, n in enumerate(counts) if n == min(counts)))
    layered = next((tuple(i for i, x in enumerate(d.crossings)
                          if (comp[x.a] == k) != (comp[x.over_in] == k))
                    for k in ks if (u[k] == 0) != (o[k] == 0)), None)
    bal = [a - b for a, b in zip(u, o)]
    seen, bad = set(), []
    for k in sorted(ks, key=lambda k: bal[k]):
        cyc, s = cycles[k], starts[k]
        for e in cyc[s:] + cyc[:s]:
            i, under = enters(e)
            if i not in seen:
                seen.add(i)
                if under:
                    bad.append(i)
    return SimpleNamespace(comp=comp, bal=bal, least=least, layered=layered, bad=bad)


def _opens_r2(d, i):
    """Whether switching crossing i makes it one of an R2 pair, by the test
    of diagram._first_move tried against every other crossing: one strand
    passes both over, the signs differ and the other strand runs straight
    between them."""
    sw = d.switch_crossing(i)
    x = sw.crossings[i]
    return any(p.over_out == q.over_in and p.sign != q.sign and (p.c == q.a or q.c == p.a)
               for j, y in enumerate(sw.crossings) if j != i
               for p, q in ((x, y), (y, x)))


class TestSkeinChoiceTerminates:
    """The engine lifts off a layered component, or switches a crossing met
    under first for its component order and basepoints.  A switched
    self-crossing lowers its component's least count of self-crossings met
    under first; a switched crossing between components, passed under by
    the earlier one p, moves bal[p] down by 2 and bal[q] up by 2 with
    bal[p] <= bal[q], so the sum of squared balances rises by at least 8.
    Both measures are bounded, so the recursion terminates.  Checked
    against _reference_choice, with no oracle, so words run longer than the
    oracle can take."""

    @given(_braids(5, 14))
    @example((3, [1, -2, 1, 1, 1, -2]))
    @example((4, [1, 1, 1, 3, 3, 3, 2, 3, 2, 2, -3, -2]))
    # three components met in the order 1, 2, 0; a shared crossing is switched
    @example((3, [1, 2, -1, 2, 2, 1, -2, 1]))
    @settings(max_examples=150, deadline=None)
    def test_switch_lowers_a_self_count_or_raises_balance(self, braid):
        strands, word = braid
        d = braid_closure(word, strands)
        ref = _reference_choice(d)
        i = choose_skein_crossing(d)
        if ref.layered is not None:
            event("layered component")
            assert i == ref.layered
            return
        if i is None:
            assert ref.bad == [] and sum(ref.least) == 0
            return
        assert i == next((k for k in ref.bad if _opens_r2(d, k)), ref.bad[0])
        after = _reference_choice(d.switch_crossing(i))
        x = d.crossings[i]
        p, q = ref.comp[x.a], ref.comp[x.over_in]
        if p == q:
            assert after.bal == ref.bal
            assert after.least == [m - (k == p) for k, m in enumerate(ref.least)]
        else:
            event("shared crossing switched")
            assert ref.bal[p] <= ref.bal[q]
            assert after.least == ref.least
            assert after.bal == [b - 2 * (k == p) + 2 * (k == q) for k, b in enumerate(ref.bal)]
            assert sum(b * b for b in after.bal) >= sum(b * b for b in ref.bal) + 8
        # on a reduced diagram a crossing other than the first one met under
        # is preferred only when its switch opens an R2 move
        s = d.simplify()
        j = choose_skein_crossing(s)
        if isinstance(j, int) and j != _reference_choice(s).bad[0]:
            event("preferred crossing is not the first met under")
            assert len(s.switch_crossing(j).simplify().crossings) <= len(s.crossings) - 2

    # the switched crossing's R2 partner is the crossing its new
    # over-strand passes next in the first word and the one it passed
    # last in the second
    @pytest.mark.parametrize("word", [[1, -2, 1, 1, 1, -2], [1, -2, 1, 1, -2, -2]])
    def test_prefers_a_switch_that_opens_r2(self, word):
        d = braid_closure(word, 3)
        assert d.simplify() == d
        bad = _reference_choice(d).bad
        i = choose_skein_crossing(d)
        assert bad[0] != i and i in bad and _opens_r2(d, i)
        assert len(d.switch_crossing(i).simplify().crossings) <= len(d.crossings) - 2


class TestLayeredComponent:
    # the trefoil closed from the first two strands meets the T(2,5) on the
    # last two at four crossings (indices 6, 7, 10 and 11), passing over at
    # all of them in the first word and under in the second; no R1 or R2
    # move applies
    @pytest.mark.parametrize("word", [[1, 1, 1, 3, 3, 3, 2, 3, 2, 2, -3, -2],
                                      [1, 1, 1, 3, 3, 3, -2, -3, 2, 2, 3, 2]])
    def test_lifts_off_without_expansion(self, word):
        d = braid_closure(word, 4)
        assert d.simplify() == d and d.is_connected()
        assert choose_skein_crossing(d) == (6, 7, 10, 11)
        trefoil, cinquefoil = braid_closure([1] * 3, 2), braid_closure([1] * 5, 2)
        engine = HomflyEngine()
        p = skein_homfly(engine, d)
        assert p == delta_factor() * naive_homfly(trefoil) * naive_homfly(cinquefoil)
        # the expansions are those of the two knots alone
        apart = HomflyEngine()
        skein_homfly(apart, trefoil)
        skein_homfly(apart, cinquefoil)
        assert engine.expansions == apart.expansions > 0
        # the public route reads d as a closed 4-braid
        public = HomflyEngine()
        assert public.homfly(d) == p
        assert (public.expansions, public.braid_evaluations) == (0, 1)


class TestMirrorLaw:
    @given(_braids())
    @example((2, [1, 1]))
    @example((2, [1, 1, 1, 1]))
    @example((2, [1] * 6))
    @example((2, [1, 1, 1]))
    @settings(max_examples=60, deadline=None)
    def test_negated_braid_is_mirror(self, braid):
        # closing the braid with every letter negated draws the mirror image
        strands, word = braid
        engine = HomflyEngine()
        mirrored = engine.homfly(braid_closure([-w for w in word], strands))
        assert mirrored == engine.homfly(braid_closure(word, strands)).mirror()


class TestOracle:
    def test_oracle_limit(self, engine):
        big = braid_closure([1, 2, 3] * 4, 4)
        with pytest.raises(TooLargeError):
            naive_homfly(big, 10)

    def test_agreement_small_knots(self, small_knots, session_engine):
        for entry in small_knots:
            fast = session_engine.homfly(entry.diagram)
            slow = naive_homfly(entry.diagram)
            assert fast == slow, entry.name

    def test_agreement_random(self, session_engine):
        for d in random_braid_diagrams(30, seed=41):
            assert session_engine.homfly(d) == naive_homfly(d)

    def test_unknot(self):
        assert naive_homfly(parse_pd("O")) == LaurentPoly2.one()


class TestInvariance:
    def test_relabeling_invariance(self, small_knots, session_engine):
        rng = random.Random(101)
        for entry in small_knots[:6]:
            base = session_engine.homfly(entry.diagram)
            for _ in range(50):
                moved = random_relabeling(shuffled_crossings(entry.diagram, rng), rng)
                assert session_engine.homfly(moved) == base

    def test_r_move_invariance(self, session_engine):
        # invariance under the crossing-reducing moves used by simplify
        for d in random_braid_diagrams(25, seed=43):
            raw = naive_homfly(d) if len(d.crossings) <= 8 else None
            if raw is not None:
                assert session_engine.homfly(d.simplify()) == raw

    def test_z_parity(self, session_engine):
        for d in random_braid_diagrams(40, seed=47):
            p = session_engine.homfly(d)
            mu = d.num_components()
            assert all((ez - (mu - 1)) % 2 == 0 for (_, ez) in p.terms), (
                d.serialize(), mu, p.pretty())

    def test_split_union_factor(self, session_engine):
        tre = parse_pd(TREFOIL_PD)
        both = parse_pd(
            "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3] X[7,10,8,11] X[9,12,10,7] X[11,8,12,9]"
        )
        assert not both.is_connected()
        expected = delta_factor() * session_engine.homfly(tre) ** 2
        assert session_engine.homfly(both) == expected


class TestSkeinAudit:
    def test_identity_on_traces(self, session_engine):
        # v^-1 P(D+) - v P(D-) = z P(D0) at the chosen crossing of每 node
        for d in random_braid_diagrams(12, seed=53, max_crossings=6):
            trace = skein_trace(d, 8)
            for node in trace.nodes:
                if node.chosen_crossing is None:
                    continue
                p_here = node.poly
                p_sw = trace.nodes[node.switched_child].poly
                p_sm = trace.nodes[node.smoothed_child].poly
                z = LaurentPoly2({(0, 1): 1})
                if node.sign > 0:
                    lhs = p_here.mono_mul(1, ev=-1) + p_sw.mono_mul(-1, ev=1)
                else:
                    lhs = p_sw.mono_mul(1, ev=-1) + p_here.mono_mul(-1, ev=1)
                assert lhs == z * p_sm


class TestTrace:
    def test_unknot_single_node(self):
        t = skein_trace(parse_pd("O"))
        assert len(t.nodes) == 1
        assert t.nodes[0].role == "BASE_UNLINK"
        assert t.nodes[0].poly == LaurentPoly2.one()

    def test_trefoil_trace(self):
        t = skein_trace(parse_pd(TREFOIL_PD))
        root = t.nodes[t.root]
        assert root.role == "ROOT"
        assert root.m == 2
        assert all(n.role in ("ROOT", "SWITCHED_CHILD", "SMOOTHED_CHILD", "BASE_UNLINK")
                   for n in t.nodes)
        internal = [n for n in t.nodes if n.chosen_crossing is not None]
        assert all(n.switched_child is not None and n.smoothed_child is not None
                   for n in internal)

    def test_trace_value_matches_engine(self, engine):
        # the trace and the oracle walk the same least-label tree through
        # one skein step; the engine takes the Hecke route on these closures
        # and its own skein route through that step
        for d in [parse_pd(FIGURE8_PD), *random_braid_diagrams(12, seed=61)]:
            p = engine.homfly(d)
            assert skein_trace(d).nodes[0].poly == naive_homfly(d) == p
            assert skein_homfly(HomflyEngine(), d) == p

    def test_simplified_trace_no_larger(self):
        d = braid_closure([1, 1, 1, -2, 2], 3)
        assert len(skein_trace(d.simplify()).nodes) <= len(skein_trace(d).nodes)

    def test_trace_limit(self):
        with pytest.raises(TooLargeError):
            skein_trace(parse_pd(TREFOIL_PD), 2)

    def test_node_limit(self, capsys):
        # sigma_1^10 is within the default crossing limit, but its tree has
        # over a million nodes (80 MB of DOT); the trace stops at the limit
        d = braid_closure([1] * 10, 2)
        assert run_command(["skein-tree", "--pd", d.serialize(), "--format", "dot"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"TOO_LARGE: skein tree passes {TRACE_NODE_LIMIT} nodes\n")

    def test_cancellation_flags_consistent(self):
        # a node is flagged exactly when its polynomial falls below the top
        # z-degree of its two contributions: the switched child's, and the
        # smoothed child's plus one for the factor z
        for d in random_braid_diagrams(10, seed=59, max_crossings=6):
            t = skein_trace(d, 8)
            for node in t.nodes:
                if node.chosen_crossing is None:
                    assert not node.cancellation
                    continue
                m_sw = t.nodes[node.switched_child].m
                m_sm = t.nodes[node.smoothed_child].m
                tops = [m for m in (m_sw, None if m_sm is None else m_sm + 1) if m is not None]
                expected = bool(tops) and (node.m is None or node.m < max(tops))
                assert node.cancellation == expected
                if node.cancellation:
                    # leading terms can only vanish if the two contributions tie
                    assert m_sw is not None and m_sm is not None
                    assert m_sw == m_sm + 1

    def test_unknot_no_cancellations(self):
        assert not any(n.cancellation for n in skein_trace(parse_pd("O")).nodes)

    def test_dot_export(self):
        t = skein_trace(parse_pd(TREFOIL_PD))
        dot = trace_to_dot(t)
        assert dot.startswith("digraph skein {")
        assert dot.rstrip().endswith("}")
        assert dot.count('label="switch"') == dot.count('label="smooth"')
        assert f'n{t.root}' in dot


class TestCache:
    def test_warm_cache_reuses(self, tmp_path, small_knots):
        # 5_2's table diagram is not a closed braid, so it takes the skein route
        d = next(e.diagram for e in small_knots if e.name == "5_2")
        path = tmp_path / "cache.jsonl"
        e1 = HomflyEngine()
        p1 = e1.homfly(d)
        e1.flush_cache(path)
        cold_expansions = e1.expansions

        e2 = HomflyEngine()
        e2.load_cache(path)
        p2 = e2.homfly(d)
        assert p1 == p2
        assert e2.expansions < cold_expansions
        assert e2.expansions == 0

    def test_warm_cache_reuses_braid_route(self, tmp_path):
        d = parse_pd(FIGURE8_PD)
        path = tmp_path / "cache.jsonl"
        e1 = HomflyEngine()
        assert e1.homfly(d) == FIG8
        assert e1.flush_cache(path) == 1
        assert (e1.expansions, e1.braid_evaluations) == (0, 1)

        e2 = HomflyEngine()
        e2.load_cache(path)
        assert e2.homfly(d) == FIG8
        assert (e2.expansions, e2.braid_evaluations) == (0, 0)

    def test_append_only(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        e1 = HomflyEngine()
        e1.homfly(parse_pd(TREFOIL_PD))
        n1 = e1.flush_cache(path)
        assert n1 == len(e1.cache)
        assert e1.flush_cache(path) == 0  # nothing new
        e2 = HomflyEngine()
        e2.load_cache(path)
        e2.homfly(parse_pd(FIGURE8_PD))
        n2 = e2.flush_cache(path)
        assert n2 > 0
        merged = _decoded(path)
        assert len(merged) == n1 + n2

    def test_exact_key_only_no_mirror_hits(self):
        left = parse_pd(TREFOIL_PD)
        right = braid_closure([1, 1, 1], 2)
        e = HomflyEngine()
        assert e.homfly(left) != e.homfly(right)
        assert e.homfly(left) == e.homfly(right).mirror()

    def test_cache_file_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        entries = {b"\x01\x02": LaurentPoly2({(1, -1): 3}), b"U1": LaurentPoly2.one()}
        append_cache_file(path, entries)
        assert _decoded(path) == entries


def _decoded(path):
    """Every record of a cache file, decoded as a lookup decodes it."""
    return {code: LaurentPoly2.from_json(text) for code, text in _read_cache_records(path).items()}


def _reference_load(path):
    """Reference reader: json.loads, bytes.fromhex and from_json_obj on
    every line.  Every file the cache loader accepts, this accepts with the
    same polynomials; the loader also rejects lines that this decodes but
    append_cache_file never writes."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                out[bytes.fromhex(rec["code"])] = LaurentPoly2.from_json_obj(rec["poly"])
            except (ValueError, KeyError, TypeError, ParseError) as exc:
                raise ParseError(f"{path}:{lineno}: bad cache record: {exc}") from exc
    return out


def _outcome(load, path):
    try:
        return load(path)
    except ParseError as exc:
        return str(exc)


_codes = st.lists(st.sampled_from([0x3B, 0x7C]) | st.integers(0, 255), max_size=10).map(bytes)
_coeffs = st.integers(-3, 3) | st.integers(-(10**200), 10**200) | st.integers(-(10**639), 10**639)
_cache_polys = st.dictionaries(
    st.tuples(st.integers(-12, 12) | st.integers(-(10**6), 10**6), st.integers(-12, 12)),
    _coeffs, max_size=6).map(LaurentPoly2)
_cache_entries = st.dictionaries(_codes, _cache_polys, min_size=1, max_size=5)


def _write_entries(path, entries):
    path.write_text("")
    append_cache_file(path, entries)
    return path.read_text().splitlines(keepends=True)


def _edit_record(edit):
    """A line mutation that rewrites one record through json; a line an
    earlier mutation left without that structure stays as it is."""
    def mutate(line, draw):
        try:
            rec = json.loads(line)
            edit(rec, draw)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError):
            return line
        return json.dumps(rec, separators=(",", ":")) + "\n"
    return mutate


def _reorder_keys(rec, draw):
    poly = [dict(reversed(list(t.items()))) for t in rec.pop("poly")]
    rec["poly"] = poly
    rec["code"] = rec.pop("code")


def _replace_value(rec, draw):
    """Another JSON value (or no value) for the code, the polynomial or a
    term field."""
    value = draw(st.sampled_from([None, "x", "1", "", 1.5, -2, True, [], {}, "drop"]))
    target, key = rec, draw(st.sampled_from(["code", "poly", "term"]))
    if key == "term":
        if not rec["poly"]:
            rec["poly"].append({"ev": 0, "ez": 0, "c": "1"})
        target = draw(st.sampled_from(rec["poly"]))
        key = draw(st.sampled_from(sorted(target)))
    if value == "drop":
        del target[key]
    else:
        target[key] = value


def _respace(line, draw):
    """json.dumps's default spacing after , and :"""
    try:
        return json.dumps(json.loads(line)) + "\n"
    except ValueError:
        return line


def _leading_zeros(line, draw):
    key = draw(st.sampled_from(['"c":"', '"ev":', '"ez":']))
    return line.replace(key, key + "0", 1)


_RECORD_MUTATIONS = [
    _respace,
    _edit_record(_reorder_keys),
    _edit_record(lambda rec, draw: rec.update(code=rec["code"].upper())),
    _edit_record(lambda rec, draw: rec.update(code=rec["code"] + draw(st.sampled_from("0aF")))),
    _edit_record(lambda rec, draw: [t.update(c=int(t["c"])) for t in rec["poly"]]),
    _edit_record(_replace_value),
    _leading_zeros,
    _edit_record(lambda rec, draw: rec["poly"].append(
        {"ev": draw(st.integers(-3, 3)), "ez": 0, "c": draw(st.sampled_from(["0", "-0", "00"]))})),
    _edit_record(lambda rec, draw: rec["poly"].extend(rec["poly"][:1])),
    lambda line, draw: line[: draw(st.integers(0, len(line) - 1))] + "\n",
    lambda line, draw: line.rstrip("\n") + draw(st.text(max_size=4)) + "\n",
    lambda line, draw: draw(st.text(max_size=12)) + "\n",
]


_T1, _T2 = '{"ev":2,"ez":0,"c":"-1"}', '{"ev":0,"ez":0,"c":"1"}'
# spellings of a record that append_cache_file never writes
_NOT_WRITTEN = [
    '{"code": "3b7c", "poly": [%s]}' % _T1,
    '{"poly":[%s],"code":"3b7c"}' % _T1,
    '{"code":"3b7c","poly":[{"c":"-1","ev":2,"ez":0}]}',
    '{"code":"3B7C","poly":[%s]}' % _T1,
    '{"code":"3b7","poly":[%s]}' % _T1,
    '{"code":"3b7c","poly":[{"ev":2,"ez":0,"c":-1}]}',
    '{"code":"3b7c","poly":[%s]} x' % _T1,
    '{"code":"3b7c","poly":[%s' % _T1,
]
_SPELLINGS = [
    '{"code":"3b7c","poly":[%s,%s]}' % (_T1, _T2),
    '{"code":"","poly":[]}',
    '{"code":"3b7c","poly":[{"ev":2,"ez":0,"c":"01"}]}',
    '{"code":"3b7c","poly":[{"ev":02,"ez":0,"c":"1"}]}',
    '{"code":"3b7c","poly":[{"ev":-0,"ez":00,"c":"1"}]}',
    '{"code":"3b7c","poly":[{"ev":-0,"ez":0,"c":"-01"}]}',
    '{"code":"3b7c","poly":[{"ev":2,"ez":0,"c":"0"},{"ev":1,"ez":0,"c":"-0"}]}',
    '{"code":"3b7c","poly":[%s,%s]}' % (_T1, _T1),
    '{"code":"3b7c","poly":[{"ev":2.0,"ez":0,"c":"1"}]}',
    '{"code":"3b7c","poly":[{"ev":"2","ez":0,"c":" 1"}]}',
    '{"code":"3b7c","poly":{}}',
    '{"code":"3b7c","poly":[%s],"x":"\u00e9"}' % _T1,
    '{"code":3,"poly":[]}',
    '{"code":"3b7","poly":5}',
    '{"poly":[]}',
    '{"code":"3b7c","poly":[{"ev":2,"ez":0,"c":"%s"}]}' % ("9" * 641),
    '{"code":"3b7c","poly":[{"ev":2,"ez":0,"c":"%s"}]}' % ("9" * 4301),
    '{"code":"3b7c","poly":[{"ev":%s,"ez":0,"c":"1"}]}' % ("9" * 641),
    *_NOT_WRITTEN,
]


_R1 = ('{"code":"3b7c","poly":[%s]}' % _T2).encode()
_R2 = ('{"code":"01","poly":[%s,%s]}' % (_T1, _T2)).encode()
_ASCII_SPACE = [bytes([b]) for b in b" \t\r\x0b\x0c"]  # what bytes.strip removes
_KEPT_BY_STRIP = [b"\x1c", b"\xa0", "\u0085".encode()]
# (file bytes, the first bad line, or None for a file that loads)
_EDGE_FILES = [
    (_R1 + b"\r\n" + _R2 + b"\r\n", None),
    *[(_R1 + b"\n" + ws * 3 + b"\n" + _R2 + b"\n", None) for ws in _ASCII_SPACE],
    *[(ws + _R1 + ws + b"\n" + _R2 + b"\n", None) for ws in _ASCII_SPACE],
    (_R1 + b"\n" + _R2, None),
    (b"", None),
    (b"\n \n\t\r\n\n", None),
    *[(_R1 + b"\n" + ws + _R2 + b"\n", 2) for ws in _KEPT_BY_STRIP],
    *[(_R1 + b"\n" + _R2 + ws + b"\n", 2) for ws in _KEPT_BY_STRIP],
    (_R2 + b"\n" + _R1 + b"\r" + _R2 + b"\n", 2),
    (_R2 + b"\n" + _R1 + b" " + _R2 + b"\n", 2),
]


def _assert_loads_as_reference(loaded, path):
    expected = _reference_load(path)
    assert loaded == len(expected)
    assert _decoded(path) == expected


class TestCacheWriter:
    @settings(max_examples=200, deadline=None)
    @given(entries=_cache_entries)
    def test_writes_compact_json_of_each_entry_in_order(self, entries, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "writer.jsonl"
        path.write_bytes(b"")
        append_cache_file(path, entries)
        assert path.read_bytes() == "".join(
            json.dumps({"code": code.hex(), "poly": p.to_json_obj()}, separators=(",", ":")) + "\n"
            for code, p in entries.items()).encode()
        for p in entries.values():
            assert p.to_json() == json.dumps(p.to_json_obj(), separators=(",", ":"))


class TestCacheLoader:
    @pytest.mark.parametrize("spelling", _SPELLINGS)
    def test_spelling_loads_as_reference_or_is_rejected(self, spelling, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"code":"3b7c","poly":[%s]}\n%s\n' % (_T2, spelling), encoding="utf-8")
        loaded = _outcome(HomflyEngine().load_cache, path)
        if isinstance(loaded, str) or spelling in _NOT_WRITTEN:
            assert loaded == f"{path}:2: bad cache record"
        else:
            _assert_loads_as_reference(loaded, path)

    @pytest.mark.parametrize("data, bad_line", _EDGE_FILES)
    def test_edge_file_loads_as_reference_or_names_bad_line(self, data, bad_line, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(data)
        loaded = _outcome(HomflyEngine().load_cache, path)
        if bad_line is None:
            _assert_loads_as_reference(loaded, path)
        else:
            assert loaded == f"{path}:{bad_line}: bad cache record"

    def test_long_file_names_first_of_two_bad_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [b'{"code":"%04x","poly":[%s]}' % (i, _T1.encode()) for i in range(2000)]
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert HomflyEngine().load_cache(path) == 2000
        lines[1499] = lines[1499].replace(b'"c":"-1"', b'"c":-1')
        lines[1799] = b"x"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert _outcome(HomflyEngine().load_cache, path) == f"{path}:1500: bad cache record"

    @settings(max_examples=300, deadline=None)
    @given(entries=_cache_entries, data=st.data())
    def test_loads_written_form_as_reference_and_names_first_bad_line(
            self, entries, data, tmp_path_factory):
        base = tmp_path_factory.getbasetemp()
        path = base / "differential.jsonl"
        written = _write_entries(path, entries)
        # (a) what the writer wrote loads, each polynomial as a lookup decodes it
        engine = HomflyEngine()
        assert engine.load_cache(path) == len(entries)
        assert {code: LaurentPoly2.from_json(text)
                for code, text in engine._filed.items()} == entries
        lines = list(written)
        for _ in range(data.draw(st.integers(0, 3))):
            line = data.draw(st.sampled_from(written))
            if data.draw(st.booleans()):
                for mutation in data.draw(st.lists(st.sampled_from(_RECORD_MUTATIONS),
                                                   min_size=1, max_size=2)):
                    line = mutation(line, data.draw)
            else:  # the same code again, with some record's polynomial
                rec = json.loads(line)
                rec["poly"] = json.loads(data.draw(st.sampled_from(written)))["poly"]
                line = json.dumps(rec, separators=(",", ":")) + "\n"
            pos = data.draw(st.integers(0, len(lines)))
            lines[pos:pos + data.draw(st.integers(0, 1))] = [line]
        if data.draw(st.booleans()):  # a torn last line
            lines[-1] = lines[-1][: data.draw(st.integers(0, max(len(lines[-1]) - 1, 0)))]
        path.write_text("".join(lines), encoding="utf-8")
        loaded = _outcome(HomflyEngine().load_cache, path)
        event("rejected" if isinstance(loaded, str) else "accepted")
        if not isinstance(loaded, str):
            # (b) an accepted file decodes as the json-per-line reference decodes it
            _assert_loads_as_reference(loaded, path)
            return
        # (c) the rejection names the first bad line: the lines before it
        # load on their own, and that line alone does not
        m = re.fullmatch(rf"{re.escape(str(path))}:([0-9]+): bad cache record", loaded)
        assert m is not None
        n = int(m[1])
        raw = path.read_bytes().split(b"\n")
        head, bad = base / "head.jsonl", base / "bad.jsonl"
        head.write_bytes(b"\n".join(raw[:n - 1]))
        bad.write_bytes(raw[n - 1])
        assert isinstance(HomflyEngine().load_cache(head), int)
        assert _outcome(HomflyEngine().load_cache, bad) == f"{bad}:1: bad cache record"

    @settings(max_examples=200, deadline=None)
    @given(entries=_cache_entries)
    def test_written_records_load_without_json_decode(self, entries, tmp_path_factory):
        """Loading checks every written line by the pattern alone; no
        polynomial is decoded before its code's first lookup."""
        path = tmp_path_factory.getbasetemp() / "written.jsonl"
        _write_entries(path, entries)

        def no_decode(text):
            raise AssertionError(f"JSON decode at load: {text}")

        with mock.patch.object(json, "loads", no_decode):
            assert HomflyEngine().load_cache(path) == len(entries)
        assert _decoded(path) == entries

    @staticmethod
    def _counting_decoder(monkeypatch):
        decoded = []
        original = LaurentPoly2.from_json_obj

        def counted(cls, obj):
            decoded.append(obj)
            return original(obj)

        monkeypatch.setattr(LaurentPoly2, "from_json_obj", classmethod(counted))
        return decoded

    def test_warm_call_decodes_only_hit_records(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        cold = HomflyEngine()
        for pd in (TREFOIL_PD, FIGURE8_PD):
            cold.homfly(parse_pd(pd))
        cold.homfly(braid_closure([1, -2, 1, -2, 1, 2], 3))
        n = cold.flush_cache(path)
        decoded = self._counting_decoder(monkeypatch)

        warm = HomflyEngine()
        assert warm.load_cache(path) == n
        assert decoded == []
        assert warm.homfly(parse_pd(FIGURE8_PD)) == FIG8
        assert warm.expansions == 0
        assert len(decoded) == 1 and len(warm.cache) == 1
        size = path.stat().st_size
        assert warm.flush_cache(path) == 0
        assert path.stat().st_size == size

    def test_partial_warm_run_flushes_only_new_entries(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        # the skein route, whose resolution trees of T(2,3) and T(2,5) share
        # diagrams; the public route evaluates each as a braid at its root
        cold = HomflyEngine()
        skein_homfly(cold, braid_closure([1, 1, 1], 2))
        cold.flush_cache(path)
        old_codes = set(_read_cache_records(path))
        decoded = self._counting_decoder(monkeypatch)

        warm = HomflyEngine()
        warm.load_cache(path)
        skein_homfly(warm, braid_closure([1, 1, 1, 1, 1], 2))
        hit = {code for code in warm.cache if code in old_codes}
        assert hit and len(decoded) == len(hit) and len(hit) < len(old_codes)
        before = path.read_text().splitlines()
        assert warm.flush_cache(path) == len(warm.cache) - len(hit)
        appended = path.read_text().splitlines()[len(before):]
        assert {bytes.fromhex(json.loads(line)["code"]) for line in appended} == \
            set(warm.cache) - old_codes
        assert warm.flush_cache(path) == 0

    def test_memory_entries_take_precedence_over_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        d = parse_pd(TREFOIL_PD)
        engine = HomflyEngine()
        p = engine.homfly(d)
        code = d.simplify().canonical_code()
        append_cache_file(path, {code: LaurentPoly2.one()})
        engine.load_cache(path)
        assert engine.homfly(d) == p
        assert _decoded(path) == {code: LaurentPoly2.one()}


class TestThreads:
    def test_shared_cache_determinism(self, small_knots):
        diagrams = [e.diagram for e in small_knots]
        serial = HomflyEngine()
        expected = [serial.homfly(d) for d in diagrams]

        for workers in (2, 8):
            engine = HomflyEngine()
            results = {}
            errors = []

            def worker(idx_d):
                idx, d = idx_d
                try:
                    results[idx] = engine.homfly(d)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=((i, d),))
                for i, d in enumerate(diagrams)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert [results[i] for i in range(len(diagrams))] == expected


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


class TestRecursionLimit:
    T45 = [1, 2, 3] * 5  # torus knot T(4,5), 15 crossings

    def test_limit_left_unchanged(self):
        saved = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1000)
            HomflyEngine().homfly(braid_closure(self.T45, 4))
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(saved)

    def test_low_limit_is_too_large(self):
        d = braid_closure(self.T45, 4)
        saved = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(_stack_depth() + 20)
            with pytest.raises(TooLargeError):
                skein_homfly(HomflyEngine(), d)
            with pytest.raises(TooLargeError):
                naive_homfly(d, 15)
            # the public route reads T(4,5) as a braid and needs no deep stack
            engine = HomflyEngine()
            p = engine.homfly(d)
        finally:
            sys.setrecursionlimit(saved)
        assert p == skein_homfly(HomflyEngine(), d)
        assert (engine.expansions, engine.braid_evaluations) == (0, 1)

    def test_low_limit_trace_is_too_large(self, capsys):
        d = braid_closure(self.T45, 4)
        argv = ["skein-tree", "--pd", d.serialize(), "--trace-limit", "15"]
        # a first run at the usual limit does argparse's lazy imports and
        # pattern compiles; parsing still takes about 20 frames, so the
        # command gets 30, still far fewer than this trace needs (over 50)
        assert run_command(["skein-tree", "--pd", "X[1,1,2,2]", "--trace-limit", "15"]) == 0
        capsys.readouterr()
        saved = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(_stack_depth() + 20)
            with pytest.raises(TooLargeError):
                skein_trace(d, 15)
            sys.setrecursionlimit(_stack_depth() + 30)
            code = run_command(argv)
        finally:
            sys.setrecursionlimit(saved)
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("TOO_LARGE: 15 crossings: skein recursion exceeds")


class TestEngineCounterPins:
    """Expansions and cache entries of a fresh engine depend only on the
    skein choices, simplification and canonical codes.  Making those
    routines faster leaves them in place; a new skein choice moves them on
    purpose and re-pins them.  The Whitehead doubles resolve through
    two-component links, the closures of (s1^2 s2^2)^3 and T(5,5) are links
    of three and five components, so the balance order is pinned on both.
    Closed braids take the Hecke route in public, so their skein pins are
    taken on the skein route, and the public route is pinned beside them:
    no expansion, one entry, one braid evaluation."""

    def counters(self, d):
        engine = HomflyEngine()
        engine.homfly(d)
        return engine.expansions, len(engine.cache)

    def skein_counters(self, d):
        engine = HomflyEngine()
        skein_homfly(engine, d)
        return engine.expansions, len(engine.cache)

    def public_counters(self, d):
        engine = HomflyEngine()
        p = engine.homfly(d)
        assert p == skein_homfly(HomflyEngine(), d)
        return engine.expansions, len(engine.cache), engine.braid_evaluations

    def test_torus_4_5(self):
        assert self.skein_counters(braid_closure([1, 2, 3] * 5, 4)) == (105, 147)

    def test_torus_4_5_public_route(self):
        assert self.public_counters(braid_closure([1, 2, 3] * 5, 4)) == (0, 1, 1)

    def test_whitehead_double_4_1(self, small_knots):
        knot = next(e.diagram for e in small_knots if e.name == "4_1")
        assert self.counters(whitehead_double(knot, 1, 0)) == (51, 57)

    def test_three_component_closure(self):
        d = braid_closure([1, 1, 2, 2] * 3, 3)
        assert d.num_components() == 3
        assert self.skein_counters(d) == (31, 35)

    def test_three_component_closure_public_route(self):
        assert self.public_counters(braid_closure([1, 1, 2, 2] * 3, 3)) == (0, 1, 1)

    def test_torus_5_5(self):
        d = braid_closure([1, 2, 3, 4] * 5, 5)
        assert d.num_components() == 5
        assert self.skein_counters(d) == (562, 767)

    def test_torus_5_5_public_route(self):
        assert self.public_counters(braid_closure([1, 2, 3, 4] * 5, 5)) == (0, 1, 1)

    def test_torus_6_7_public_route(self):
        # the skein route took 233,483 expansions, 333,854 entries and about
        # 50 s of CPU for this digest; the Hecke trace takes no expansion
        d = braid_closure([1, 2, 3, 4, 5] * 7, 6)
        engine = HomflyEngine()
        p = engine.homfly(parse_pd(random_relabeling(shuffled_crossings(d, random.Random(7)),
                                                     random.Random(8)).serialize()))
        assert (engine.expansions, len(engine.cache), engine.braid_evaluations) == (0, 1, 1)
        assert p.maxdeg_z() == 30
        assert hashlib.sha256(p.to_json().encode()).hexdigest() == (
            "5b5255f9a49bae6509d32d75fc4b204a41be46457e6a36a872ca7e42ba11ce28")

    def test_torus_7_8_public_route(self):
        # the largest torus knot on MAX_STRANDS strands; the digest was
        # recorded with the Hecke trace over the T_w basis and LaurentPoly2
        # coefficients
        d = braid_closure([1, 2, 3, 4, 5, 6] * 8, 7)
        engine = HomflyEngine()
        p = engine.homfly(parse_pd(random_relabeling(shuffled_crossings(d, random.Random(9)),
                                                     random.Random(10)).serialize()))
        assert (engine.expansions, len(engine.cache), engine.braid_evaluations) == (0, 1, 1)
        assert p.maxdeg_z() == 42
        assert hashlib.sha256(p.to_json().encode()).hexdigest() == (
            "4de29ad000ad6ff05ba8b50ae67c9530defa70275e8c10338c6c116d1d7bd652")

    def test_whitehead_double_8_19(self):
        # least-label basepoints took 153,849 expansions, the first crossing
        # met under for chosen basepoints 7,551 and the R2-opening switch
        # 1,943; the polynomial's digest was recorded with the first
        w = whitehead_double(braid_closure([1, 2] * 4, 3), clasp_sign=1)
        engine = HomflyEngine()
        p = engine.homfly(w)
        assert p.maxdeg_z() == 14
        assert (engine.expansions, len(engine.cache)) == (894, 1157)
        assert hashlib.sha256(p.to_json().encode()).hexdigest() == (
            "3572ade8f5d37a66c4a2f2ece0bb724e5e244bbc02fae079a60977f40469f117")

    def test_whitehead_double_torus_3_5(self):
        # components in least-label order with no layered split took 72,635
        # expansions; the polynomial's digest was recorded with that route
        w = whitehead_double(braid_closure([1, 2] * 5, 3), clasp_sign=1)
        engine = HomflyEngine()
        p = engine.homfly(w)
        assert p.maxdeg_z() == 18
        assert (engine.expansions, len(engine.cache)) == (7508, 10218)
        assert hashlib.sha256(p.to_json().encode()).hexdigest() == (
            "4a77c4a1c81d92f4a56b4da2da80ed5e7f812a1e002408475bfdd84a474643f8")

    def test_loops_beside_crossings(self, small_knots):
        # every diagram with free loops beside its crossings within three
        # smoothings or switches of a table knot, by both routes: the split
        # step's delta power counts the loops of the diagram it splits
        found = {}
        for entry in small_knots:
            level = [entry.diagram]
            for _ in range(3):
                level = [y for x in level for i in range(len(x.crossings))
                         for y in (x.smooth_crossing(i), x.switch_crossing(i))]
                found.update((y, None) for y in level if y.free_loops and y.crossings)
        digest = hashlib.sha256()
        for d in found:
            for route in (HomflyEngine.homfly, skein_homfly):
                engine = HomflyEngine()
                p = route(engine, d)
                digest.update(repr((p.to_json(), sorted(engine.cache), engine.expansions,
                                    engine.braid_evaluations)).encode())
        assert len(found) == 211
        assert digest.hexdigest() == (
            "9054029be786d59faab8850c173aa7ad7bb09ade74ba544902aff84c74867809")
