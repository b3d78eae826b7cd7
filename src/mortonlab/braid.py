"""Closed braids through the Hecke algebra.

A closed braid's HOMFLY polynomial is the Markov trace of its word in the
Hecke algebra (V. F. R. Jones, Ann. of Math. 126, 1987; H. R. Morton and
H. B. Short, J. Algorithms 11, 1990).  Its cost grows with n! on n
strands, not exponentially with the crossings, so the engine evaluates a
diagram that reads as a closed braid of at most MAX_STRANDS strands this
way.

Reading the braid.  PD slots run counterclockwise, so PD text fixes the
planar map.  Corner (x, k) of crossing x lies between slots k and k+1, and
the next corner of its face is (y, l), where slot k+1's edge arrives at
slot l of crossing y; a connected diagram of c crossings is planar when
this gives c + 2 faces.  The oriented smoothing of a crossing merges two
opposite corners: (b, c) with (d, a) at a positive crossing, (a, b) with
(c, d) at a negative one.  The merged faces are the regions of the sphere
cut along the Seifert circles.  The diagram is a closed braid exactly
when no crossing joins a circle to itself and every region touches at
most two circles: regions and circles then alternate along a path, the
circles are concentric, and the crossings between neighbours orient them
alike.  Numbered along the path, the circles are the strands, and a
crossing between circles i and i+1 is the letter sign * i.  Each circle
is cut where one ray from the braid axis crosses it between two
crossings, and the word lists the crossings in an order that meets each
circle's crossings in its own cyclic order from its cut.

The trace.  In the skein convention of homfly a positive crossing is
sigma = v^2 sigma^-1 + v z, so T_i^2 = v^2 + v z T_i and
T_i^-1 = v^-2 T_i - v^-1 z.  Elements are combinations of the positive
permutation braids T_w, w in S_n.  Right multiplication by T_i^s
(s = +-1) takes T_w to T_(w s_i) when w(i) < w(i+1) for s = 1, or
w(i) > w(i+1) for s = -1, and otherwise to the two skein terms
v^(2s) T_(w s_i) + s v^s z T_w.  The closure is invariant under
conjugation and, with no writhe factor in this convention, under
stabilization; a free strand multiplies it by delta.  So the trace of T_w
on n strands is delta times that of T_w' on n - 1 when w fixes n.
Otherwise w = u s_(n-1) ... s_k with u in S_(n-1) and k the position of
n, and the trace is that of T_u T_(n-2) ... T_k on n - 1 strands.  This
partial trace is applied to the whole combination one strand at a time,
so coefficients are only ever multiplied by monomials and delta; a memo
maps each permutation to its partial trace.
"""

from __future__ import annotations

from .diagram import Diagram
from .poly import LaurentPoly2, _skein_terms, delta_factor
from .seifert import _seifert_cycles

__all__ = ["MAX_STRANDS", "read_braid", "hecke_homfly"]

MAX_STRANDS = 7


def read_braid(d: Diagram):
    """(word, strands) when d is a connected closed braid on at most
    MAX_STRANDS strands, with letters as family.braid_closure takes them;
    otherwise None.  The Seifert circles are counted first: a diagram of
    more than MAX_STRANDS has no face traced."""
    xs = d.crossings
    if not xs or not d.is_connected():
        return None
    circles, circle_of = _seifert_cycles(xs)
    s = len(circles)
    if s > MAX_STRANDS or any(circle_of[a] == circle_of[o_in] for a, _, o_in, _, _ in xs):
        return None
    touched = _regions(xs, circle_of)
    if touched is None or any(len(t) > 2 for t in touched):
        return None
    # the circles are a path: walk it from one end
    nbrs = [set() for _ in range(s)]
    for a, _, o_in, _, _ in xs:
        nbrs[circle_of[a]].add(circle_of[o_in])
        nbrs[circle_of[o_in]].add(circle_of[a])
    order = [next(k for k in range(s) if len(nbrs[k]) == 1)]
    while len(order) < s:
        order.append(next(k for k in nbrs[order[-1]] if k not in order[-2:]))
    pos = [0] * s
    for k, c in enumerate(order):
        pos[c] = k
    gen = [min(pos[circle_of[a]], pos[circle_of[o_in]]) for a, _, o_in, _, _ in xs]
    # each circle's crossings in order, cut before the first crossing with
    # the previous circle met after the previous cut: the cuts then lie
    # between the same two crossings of every neighbouring pair
    ins = d._edge_table()
    lists = []
    first = ins[circles[order[0]][0]][0]
    for k, c in enumerate(order):
        seq = [ins[e][0] for e in circles[c]]
        r = seq.index(first)
        seq = seq[r:] + seq[:r]
        lists.append(seq + [-1])
        if k + 1 < s:
            first = next(i for i in seq if gen[i] == k)
    heads = [0] * s
    word = []
    for _ in xs:
        for k in range(s - 1):
            i = lists[k][heads[k]]
            if i >= 0 and lists[k + 1][heads[k + 1]] == i:
                break
        else:
            return None
        heads[k] += 1
        heads[k + 1] += 1
        word.append(xs[i].sign * (k + 1))
    return tuple(word), s


def _regions(xs, circle_of):
    """For each region of the sphere cut along the Seifert circles, the
    set of circles it touches; None when the PD text is not a planar map."""
    slots = [e for x in xs for e in x.pd()]
    mate = [0] * len(slots)
    seen = {}
    for p, e in enumerate(slots):
        q = seen.pop(e, None)
        if q is None:
            seen[e] = p
        else:
            mate[p], mate[q] = q, p
    # corner p = 4x + k; the faces are the cycles of corner -> next corner
    face = [-1] * len(slots)
    nf = 0
    for p in range(len(slots)):
        if face[p] < 0:
            q = p
            while face[q] < 0:
                face[q] = nf
                q = mate[(q & ~3) | ((q + 1) & 3)]
            nf += 1
    if nf != len(xs) + 2:
        return None
    root = list(range(nf))

    def find(f):
        while root[f] != f:
            f = root[f]
        return f

    for i, x in enumerate(xs):
        k = 4 * i + (1 if x.sign > 0 else 0)
        root[find(face[k])] = find(face[k + 2])
    touched = {}
    for p, e in enumerate(slots):
        touched.setdefault(find(face[p]), set()).add(circle_of[e])
    return list(touched.values())


def hecke_homfly(word, strands, memo) -> LaurentPoly2:
    """P of the closure of a braid word on strands strands (letters as in
    family.braid_closure), by the Markov trace.  memo maps permutations to
    their partial traces; an engine keeps one for all its braids."""
    state = {tuple(range(strands)): LaurentPoly2.one()}
    for letter in word:
        state = _times(state, abs(letter) - 1, 1 if letter > 0 else -1)
    for _ in range(strands - 1):
        out = {}
        for w, c in state.items():
            pt = memo.get(w)
            if pt is None:
                pt = memo[w] = _partial_trace(w)
            for u, k in pt:
                _add(out, u, c * k)
        state = out
    return state.get((0,), LaurentPoly2.zero())


def _partial_trace(w):
    """The partial trace of T_w on len(w) strands: (u, coefficient) pairs of
    a combination of T_u on one strand fewer."""
    n = len(w)
    k = w.index(n - 1)
    if k == n - 1:
        return [(w[:-1], delta_factor())]
    state = {w[:k] + w[k + 1:]: LaurentPoly2.one()}
    for p in range(n - 3, k - 1, -1):
        state = _times(state, p, 1)
    return list(state.items())


def _times(state, p, sign):
    """A combination {w: coefficient} of T_w times T^sign at positions p and
    p + 1 (0-based)."""
    out = {}
    for w, c in state.items():
        a, b = w[p], w[p + 1]
        ws = w[:p] + (b, a) + w[p + 2:]
        if (a < b) == (sign > 0):
            _add(out, ws, c)
        else:
            sw, sm = _skein_terms(sign, c, c)
            _add(out, ws, sw)
            _add(out, w, sm)
    return out


def _add(out, w, c):
    prev = out.get(w)
    out[w] = c if prev is None else prev + c
