"""Diagram constructions and surgeries: braid closures, two-bridge 4-plats,
parallel-band multiplication, crossing-change candidates, and the
blackboard-framed Whitehead double.

Band multiplication replaces a crossing (whose smoothed arcs lie on two
distinct Seifert circles, as on every diagram in the sphere) with a
chain of n same-sign crossings between the same two strands, the
strands alternating over and under along the chain.  Smoothing all n
chain crossings reconnects the four original ends exactly as smoothing
the original crossing did, so the Seifert circles are untouched: every
chain crossing is a band between the same two disks, the circle count
is preserved, and the crossing count grows by n - 1.  So each L_n's
crossing count, components, writhe, circles and genus follow from L_0,
L_1 and the circle count of L_1; band_bookkeeping is the one place that
derives them.

The double construction runs a reversed parallel copy alongside the
diagram (offset on the left of travel), turning each crossing into four,
and fuses the two copies through a two-crossing clasp; an optional twist
parameter inserts full twists next to the clasp so callers can
compensate the blackboard framing (twists = -writhe).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .braid import _check_word
from .diagram import Crossing, Diagram, _renumber
from .errors import DisconnectedError, NotAKnotError
from .seifert import seifert_circles, surface_genus

__all__ = [
    "braid_closure",
    "two_bridge_plat",
    "FamilySpec",
    "insert_parallel_bands",
    "band_bookkeeping",
    "family_sequence",
    "crossing_change_candidates",
    "whitehead_double",
]


def _built(crossings, free_loops) -> Diagram:
    """The validated diagram of crossings on any hashable labels: each
    label is interned as an int by first appearance, and _renumber, which
    reads only the crossing order and the strands, relabels them 1..2c."""
    ids = {}
    xs = [Crossing(*(ids.setdefault(e, len(ids)) for e in x[:4]), x.sign) for x in crossings]
    return _renumber(xs, free_loops, len(ids))


def braid_closure(word, strands) -> Diagram:
    """Diagram of the closure of a braid word.

    word: nonzero ints; letter +i crosses strand positions (i-1, i) with the
    left strand passing over, and -i is +i switched.  Unused strand
    positions close into free loops.
    """
    _check_word(word, strands)
    cur = [("init", j) for j in range(strands)]
    crossings = []
    for t, w in enumerate(word):
        p = abs(w) - 1
        x, y = cur[p], cur[p + 1]
        u, v = ("e", t, 0), ("e", t, 1)  # u continues x at p+1, v continues y at p
        positive = Crossing(y, v, x, u, 1)
        crossings.append(positive if w > 0 else positive.switched())
        cur[p], cur[p + 1] = v, u
    free = 0
    rename = {}
    for j in range(strands):
        if cur[j] == ("init", j):
            free += 1
        else:
            rename[cur[j]] = ("init", j)
    fixed = [Crossing(*(rename.get(e, e) for e in x[:4]), x.sign) for x in crossings]
    return _built(fixed, free)


def two_bridge_plat(parts, od_mid=0, od_side=1) -> Diagram:
    """4-plat for a rational link C(a1, a2, ...): twist regions alternate
    between the middle strand pair and a side pair, capped in pairs top and
    bottom.  od_mid and od_side pick the over-diagonal of each kind of
    region (handedness): 0 when a crossing's first and third ends, taken
    counterclockwise from bottom-left, pass over."""
    cur = [("b0",), ("b0",), ("b1",), ("b1",)]
    crossings = []
    t = 0
    for k, a in enumerate(parts):
        pos, od = (1, od_mid) if k % 2 == 0 else (2, od_side)
        for _ in range(a):
            hi1, hi2 = ("e", t, 0), ("e", t, 1)
            crossings.append(((cur[pos], cur[pos + 1], hi2, hi1), od))
            cur[pos], cur[pos + 1] = hi1, hi2
            t += 1
    rename = {cur[1]: cur[0], cur[3]: cur[2]}
    return _orient([(tuple(rename.get(e, e) for e in ends), od) for ends, od in crossings])


def _orient(crossings) -> Diagram:
    """Diagram of unoriented crossings (ends counterclockwise, over-diagonal
    0 or 1); each component is oriented away from the first end met of its
    first edge in crossing order."""
    incid = {}
    for x, (ends, _) in enumerate(crossings):
        for s, e in enumerate(ends):
            incid.setdefault(e, []).append((x, s))
    enters = {}  # (crossing, slot) -> whether the strand enters there
    for e0, (tail, head) in incid.items():
        if tail in enters:
            continue
        while True:
            enters[tail], enters[head] = False, True
            x, s = head
            tail = (x, (s + 2) % 4)
            e = crossings[x][0][tail[1]]
            head = next(end for end in incid[e] if end != tail)
            if e == e0:
                break
    out = []
    for x, (ends, od) in enumerate(crossings):
        # the under- and the over-strand each enter by one of two opposite ends
        u, o = (s if enters[(x, s)] else s + 2 for s in ((1, 0) if od == 0 else (0, 1)))
        sign = 1 if o == (u + 3) % 4 else -1
        out.append(Crossing(ends[u], ends[(u + 2) % 4], ends[o], ends[(o + 2) % 4], sign))
    return _built(out, 0)


@dataclass
class FamilySpec:
    base: Diagram
    crossing: int
    ns: list = field(default_factory=list)


def insert_parallel_bands(d: Diagram, i: int, n: int) -> Diagram:
    """Replace crossing i with n parallel same-sign crossings joining the
    same two Seifert circles; n = 0 is the oriented smoothing and n = 1
    reproduces the diagram.  The diagram must be connected."""
    if n < 0:
        raise ValueError("band count must be nonnegative")
    if not d.is_connected():
        raise DisconnectedError("parallel bands need a connected diagram")
    x = d._crossing(i)
    if n == 0:
        return d.smooth_crossing(i)

    s = x.sign
    # strand segments through the chain; ends reattach to the original
    # edges, swapped when n is even because the strands change sides at
    # every chain crossing
    xs = [x.a] + [("band-x", j) for j in range(1, n)]
    ys = [x.over_in] + [("band-y", j) for j in range(1, n)]
    if n % 2:
        xs.append(x.c)
        ys.append(x.over_out)
    else:
        xs.append(x.over_out)
        ys.append(x.c)

    new = [y for j, y in enumerate(d.crossings) if j != i]
    for j in range(1, n + 1):
        # the original under-strand goes under at odd j
        under, over = (xs, ys) if j % 2 else (ys, xs)
        new.append(Crossing(under[j - 1], under[j], over[j - 1], over[j], s))
    out = _built(new, d.free_loops)
    if len(out.crossings) != len(d.crossings) + n - 1:
        raise RuntimeError(f"band insertion lost crossings: {len(out.crossings)} for n={n}")
    return out


def band_bookkeeping(l0: Diagram, l1: Diagram, circles: int, sign: int, n: int):
    """(c, mu, w, s, genus) of L_n, read off L_0 and L_1 (the base, with the
    given number of Seifert circles) for a base crossing of the given
    sign: each chain crossing adds one crossing of that sign, the
    component count (free loops included) is L_1's for odd n and L_0's for
    even n, and band insertion keeps the Seifert circles of L_1, so s is
    circles and the genus is surface_genus(c, s, mu).  A split L_0 has no
    Seifert decomposition, so its s and genus are None."""
    c = len(l1.crossings) + n - 1
    mu = (l1 if n % 2 else l0).num_components()
    w = l1.writhe() + (n - 1) * sign
    if n == 0 and not l0.is_connected():
        return c, mu, w, None, None
    return c, mu, w, circles, surface_genus(c, circles, mu)


def family_sequence(spec: FamilySpec):
    """Diagrams L_n for each requested n, each checked on generation
    against band_bookkeeping (RuntimeError on a violation): its crossing
    count, component count, writhe, and Seifert circle count and genus
    where it is connected, measured on the diagram built."""
    base, i = spec.base, spec.crossing
    l0 = insert_parallel_bands(base, i, 0)
    circles, sign = seifert_circles(base).num_circles, base.crossings[i].sign
    out = []
    for n in spec.ns:
        d = insert_parallel_bands(base, i, n) if n else l0
        dec = seifert_circles(d) if d.is_connected() else None
        got = (len(d.crossings), d.num_components(), d.writhe(),
               *((dec.num_circles, dec.diagram_genus) if dec else (None, None)))
        if got != band_bookkeeping(l0, base, circles, sign, n):
            raise RuntimeError(f"L_{n} has (c, mu, w, s, genus) = {got}")
        out.append((n, d))
    return out


def crossing_change_candidates(d: Diagram):
    """(index, simplified switched diagram) for every crossing; consumers
    look for a canonical-genus drop certificate among these."""
    return [(i, d.switch_crossing(i).simplify()) for i in range(len(d.crossings))]


def whitehead_double(d: Diagram, clasp_sign: int = 1, twists: int = 0) -> Diagram:
    """Blackboard-framed double of a knot diagram with a two-crossing clasp.

    Every edge is doubled into a parallel pair (the companion copy runs
    reversed), every crossing becomes four, and the pair is fused through a
    clasp of the given sign on the doubled copy of edge 1.  With k = |twists|
    extra full twists the result has 4c + 2k + 2 crossings.
    """
    if d.num_components() != 1 or d.free_loops:
        raise NotAKnotError("the double is defined for knot diagrams (one component)")
    if not d.crossings:
        raise NotAKnotError("need at least one crossing to anchor the doubled band")
    if clasp_sign not in (1, -1):
        raise ValueError("clasp_sign must be +1 or -1")

    P, M = "p", "m"  # same-direction copy / reversed copy
    new = []
    for k, x in enumerate(d.crossings):
        a, c = x.a, x.c
        oi, oo = x.over_in, x.over_out
        u1, u2 = ("u1", k), ("u2", k)
        o1, o2 = ("o1", k), ("o2", k)
        # under: (P, a) -> u1 -> (P, c) and (M, c) -> u2 -> (M, a);
        # over: (P, oi) -> o1 -> (P, oo) and (M, oo) -> o2 -> (M, oi)
        if x.sign > 0:
            new.append(Crossing((P, a), u1, o1, (P, oo), 1))
            new.append(Crossing(u1, (P, c), (M, oo), o2, -1))
            new.append(Crossing(u2, (M, a), (P, oi), o1, -1))
            new.append(Crossing((M, c), u2, o2, (M, oi), 1))
        else:
            new.append(Crossing((P, a), u1, o2, (M, oi), 1))
            new.append(Crossing(u1, (P, c), (P, oi), o1, -1))
            new.append(Crossing((M, c), u2, o1, (P, oo), 1))
            new.append(Crossing(u2, (M, a), (M, oo), o2, -1))

    # cut the doubled copies of the anchor edge and route them through
    # twists (nearest the strand's tail block) and then the clasp
    anchor = 1
    p_in, p_out = (P, anchor), ("p-post", anchor)
    m_in, m_out = (M, anchor), ("m-post", anchor)

    def rename_head(old, fresh):
        def head(e):
            return fresh if e == old else e
        new[:] = [Crossing(head(x.a), x.c, head(x.over_in), x.over_out, x.sign)
                  for x in new]

    def add_pair(strands, sign):
        # (under, over) strands, each (in, out), of two positive crossings;
        # a negative pair is the positive one switched
        for under, over in strands:
            positive = Crossing(*under, *over, 1)
            new.append(positive if sign > 0 else positive.switched())

    # the incoming-to-a-block occurrence of each cut edge becomes the
    # "post" label; the outgoing occurrence keeps the original label
    rename_head(p_in, p_out)
    rename_head(m_in, m_out)

    # plus flows tail-block -> twists -> clasp -> head-block and minus the
    # other way; the cursors hold each strand's edge on the clasp side of
    # the twists built so far, starting from the tail block
    p_edge, q_edge = p_in, m_out
    twist_sign = 1 if twists > 0 else -1
    for j in range(1, abs(twists) + 1):
        p_hi, m_hi = ("tw-p", j), ("tw-m", j)
        mp, mm = ("twmid-p", j), ("twmid-m", j)
        add_pair((((mm, q_edge), (p_edge, mp)), ((mp, p_hi), (m_hi, mm))), twist_sign)
        p_edge, q_edge = p_hi, m_hi

    c1, c2 = ("clasp", 1), ("clasp", 2)
    add_pair((((p_edge, c1), (c2, p_out)), ((m_in, c2), (c1, q_edge))), clasp_sign)
    return _built(new, 0)
