"""Closed braids through the Hecke algebra.

A closed braid's HOMFLY polynomial is the Markov trace of its word in the
Hecke algebra (V. F. R. Jones, Ann. of Math. 126, 1987; H. R. Morton and
H. B. Short, J. Algorithms 11, 1990).  Its cost grows with n! on n
strands, not exponentially with the crossings, so the engine evaluates a
diagram that reads as a closed braid of at most MAX_STRANDS strands this
way.

Reading the braid.  Each crossing joins two distinct Seifert circles
side by side: at a positive crossing the circle through over_in runs on
the left of the circle through a, at a negative one on its right.  A
connected diagram (every Diagram lies on the sphere) is a closed braid
exactly when its circles are nested in one line, no region of the sphere
cut along them touching three (S. Yamada, Invent. Math. 89, 1987;
P. Vogel, Comment. Math. Helv. 65, 1990).  The condition is local: no
circle has two distinct neighbours on one side.  Proof:
1. The s circles cut the sphere into s + 1 regions, and regions and
   circles form a tree.
2. A crossing lies in the region to the right of its left circle and to
   the left of its right circle, so its two circles are distinct.
3. If a region touches three or more circles, those on different
   branches of the tree meet only there, so, the diagram being connected,
   the crossings in that region connect them all.  Each joins a circle
   with the region on its right to one with it on its left, a bipartite
   graph, and a connected bipartite graph on three or more vertices has a
   vertex with two distinct neighbours.
4. Conversely, all of a circle's neighbours on one side lie in its one
   region on that side.
So the two conditions agree.  Regions and circles then alternate along a
path, by 2 the crossings between neighbours orient them alike, and the
side graph is a directed path.  Numbered along it from 0, starting at the
circle with nothing on its left, the circles are the strands, and a
crossing whose left circle is number i is the letter sign * (i + 1).
Each circle is cut where one ray from the braid axis crosses it between
two crossings, and the word lists the crossings in an order that meets
each circle's crossings in its own cyclic order from its cut.

The trace.  In the skein convention of homfly a positive crossing is
sigma = v^2 sigma^-1 + v z, so the generators g_i = v^-1 T_i of the Hecke
algebra satisfy g_i^2 = 1 + z g_i and g_i^-1 = g_i - z.  A word of writhe
e is v^e times its product of g_i^s (s = +-1), and elements are
combinations of g_w = v^-l(w) T_w, w in S_n.  Right multiplication by
g_i^s takes g_w to g_(w s_i) and, when w(i) > w(i+1) for s = 1 or
w(i) < w(i+1) for s = -1, adds s z g_w as well: the skein weights of a
switch and a smoothing in poly._skein_step with v^(2s) and v^s divided
out.  A run of m equal letters is one pass: g_i^(+-m) = a + b g_i with
a, b in Z[z], so it takes g_w and g_(w s_i) to combinations of the two by
one 2x2 matrix.
The closure is invariant under conjugation, so the word is first rotated
to start where its letter changes, and no run wraps around its end.  With
no writhe factor in this convention the closure is invariant under
stabilization too, and a free strand multiplies it by delta.  So the
trace of g_w on n strands is delta times that of g_w' on n - 1 when w
fixes n.  Otherwise w = u s_(n-1) ... s_k
with u in S_(n-1) and k the position of n, T_(n-1) is dropped from
T_w = T_u T_(n-1) ... T_k, and the trace is that of v^-1 g_u g_(n-2) ...
g_k on n - 1 strands.  This partial trace is applied to the whole
combination one strand at a time, its terms grouped by k: the group with
k = n gives delta g_w', each other group is multiplied out once by
g_(n-2) ... g_k, and the results are summed into one combination on
n - 1 strands.  A term met b deltas on its way down to one strand, and
n - 1 - b factors v^-1, so
P = v^e sum_b delta^b v^-(n-1-b) c_b(z): every coefficient lies in
Z[z, delta], and the powers of v are read off those of delta at the end.

Packing.  A permutation w on n <= 7 strands is one int, sum_i w(i) 8^i,
so swapping two of its values is an xor.  Each coefficient is one int,
its value at z = 2^B and delta = 2^(B J), with B = L + (n-1)(n-2)/2 + 2
and J = B - 1 for a word of L letters.  This substitution is a ring homomorphism, so a letter and a
partial trace cost int sums, shifts and negations, a run four int
products per pair, and the final int is the value of the final
polynomial, whatever the intermediate ones were.  That value is decoded
once, as balanced base-2^B digits, the digit at place i + J b being the
coefficient of z^i delta^b.
The decoding is exact because the final polynomial is small: a letter at
most doubles the sum of the absolute coefficients and raises the z-degree
by at most 1, and removing strand m applies at most m - 2 letters, so the
z-degree is at most B - 2 < J and every coefficient is at most 2^(B-2) in
size, inside the digit range [-2^(B-1), 2^(B-1)).  The bound is on the
final polynomial alone, so it holds however that polynomial is reached:
runs, the rotation and the grouped partial traces change only the order
of ring operations.
The digits are then regrouped by the z-exponent of P.  As delta^b v^b =
(1 - v^2)^b z^-b, the coefficient of z^t in P is v^(e-n+1) times
sum_b d(t + b, b) (1 - v^2)^b, where d(i, b) is the digit of z^i delta^b.
That sum is taken as one int at v^2 = 2^K, K = B + n + 1, and read back as
balanced base-2^K digits, the digit at place j being the coefficient of
v^(e-n+1+2j) z^t.  This is exact too: b < n, each digit is at most
2^(B-2) in size and each coefficient of (1 - v^2)^b at most 2^b <=
2^(n-1), so every coefficient of the sum is at most n 2^(B-2) 2^(n-1) in
size, which is below 2^(K-1) = 2^(B+n) for n <= 7 (n < 8).
"""

from __future__ import annotations

from .diagram import Diagram
from .poly import LaurentPoly2
from .seifert import _seifert_cycles

__all__ = ["MAX_STRANDS", "read_braid", "hecke_homfly"]

MAX_STRANDS = 7


def read_braid(d: Diagram):
    """(word, strands) when d is a connected closed braid on at most
    MAX_STRANDS strands, with letters as family.braid_closure takes them;
    otherwise None."""
    xs = d.crossings
    if not xs or not d.is_connected():
        return None
    circles, circle_of = _seifert_cycles(d)
    s = len(circles)
    if s > MAX_STRANDS:
        return None
    # the (left, right) circles of each crossing; each circle's one
    # neighbour on either side
    sides = [(circle_of[o_in], circle_of[a]) if sign > 0 else (circle_of[a], circle_of[o_in])
             for a, _, o_in, _, sign in xs]
    right, left = {}, {}
    for p, q in sides:
        if right.setdefault(p, q) != q or left.setdefault(q, p) != p:
            return None
    order = [next(k for k in range(s) if k not in left)]
    while len(order) < s:
        order.append(right[order[-1]])
    pos = {c: k for k, c in enumerate(order)}
    gen = [pos[p] for p, _ in sides]
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


def _check_word(word, strands):
    """Raise ValueError unless every letter of word is nonzero with
    |w| < strands: the words family.braid_closure and hecke_homfly take."""
    if any(w == 0 or abs(w) >= strands for w in word):
        raise ValueError(f"word letters must be nonzero with |w| < {strands}")


def hecke_homfly(word, strands) -> LaurentPoly2:
    """P of the closure of a braid word on strands strands (letters as in
    family.braid_closure), by the Markov trace; ValueError unless strands
    is from 1 to MAX_STRANDS and _check_word passes."""
    if not 1 <= strands <= MAX_STRANDS:
        raise ValueError(f"strands must be from 1 to {MAX_STRANDS}")
    _check_word(word, strands)
    bits = len(word) + (strands - 1) * (strands - 2) // 2 + 2
    # the runs of equal letters of the word read cyclically, found in one
    # pass: the trace is that of the conjugate starting at the first run,
    # so no run wraps around its end
    starts = [i for i in range(len(word)) if word[i] != word[i - 1]]
    if word and not starts:  # one letter throughout
        starts = [0]
    state = {sum(i << 3 * i for i in range(strands)): 1}
    for start, end in zip(starts, starts[1:] + starts[:1]):
        letter, m = word[start], (end - start) % len(word) or len(word)
        state = _times(state, abs(letter) - 1, m if letter > 0 else -m, bits)
    for n in range(strands, 1, -1):
        state = _partial_trace(state, n, bits)
    writhe = sum(1 if letter > 0 else -1 for letter in word)
    return _unpack(state.get(0, 0), bits, strands, writhe - strands + 1)


def _partial_trace(state, n, bits):
    """The partial trace of a packed combination of g_w on n strands: a
    combination of g_u on n - 1, v^-1 left implied wherever delta is
    absent.  The terms are grouped by the position k of strand n - 1 in w:
    the group k = n - 1 gives delta g_w', and each other group, with that
    strand taken out, is multiplied out once by the generators at positions
    n - 3 down to k."""
    groups = [{} for _ in range(n)]
    for w, c in state.items():
        # strand n - 1 is digit k of w; drop that digit
        k = 0
        while w >> 3 * k & 7 != n - 1:
            k += 1
        groups[k][(w & (1 << 3 * k) - 1) | (w >> 3 * k + 3 << 3 * k)] = c
    shift = bits * (bits - 1)
    out = {u: c << shift for u, c in groups[n - 1].items()}
    for k in range(n - 2, -1, -1):
        group = groups[k]
        for p in range(n - 3, k - 1, -1):
            group = _times(group, p, 1, bits)
        for u, c in group.items():
            out[u] = out.get(u, 0) + c
    return out


def _times(state, p, power, bits):
    """A packed combination {w: nonzero coefficient} of g_w times g^power,
    the generator at positions p and p + 1 (0-based).  Each w and its swap
    form a pair lo, hi with lo(p) < lo(p + 1), and g_lo g = g_hi,
    g_hi g = g_lo + z g_hi, g_lo g^-1 = g_hi - z g_lo, g_hi g^-1 = g_lo.
    A run of m > 1 letters is one pass: g^(+-m) = a + b g, so g_lo goes to
    a g_lo + b g_hi and g_hi to b g_lo + (a + z b) g_hi."""
    if power not in (1, -1):
        a, b = 1, 0
        for _ in range(abs(power)):
            a, b = (b, a + (b << bits)) if power > 0 else (b - (a << bits), a)
        d = a + (b << bits)
    s = 3 * p
    both = 9 << s
    out = {}
    for w, c in state.items():
        x, y = w >> s & 7, w >> s + 3 & 7
        ws = w ^ (x ^ y) * both
        if x < y:
            lo, hi, c_lo, c_hi = w, ws, c, state.get(ws, 0)
        elif ws in state:
            continue
        else:
            lo, hi, c_lo, c_hi = ws, w, 0, c
        if power == 1:
            c_lo, c_hi = c_hi, c_lo + (c_hi << bits)
        elif power == -1:
            c_lo, c_hi = c_hi - (c_lo << bits), c_lo
        else:
            c_lo, c_hi = a * c_lo + b * c_hi, b * c_lo + d * c_hi
        if c_lo:
            out[lo] = c_lo
        if c_hi:
            out[hi] = c_hi
    return out


def _digits(x, bits):
    """The balanced base-2^bits digits of x, each in [-2^(bits-1),
    2^(bits-1)), lowest first."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    digits = []
    while x:
        digit = x & mask
        x >>= bits
        if digit >= half:
            digit -= 1 << bits
            x += 1
        digits.append(digit)
    return digits


def _unpack(x, bits, strands, ev0):
    """The polynomial sum_b delta^b v^(ev0 + b) c_b(z) packed in x by a
    trace on strands strands, with delta^b v^b = (1 - v^2)^b z^-b: the
    coefficient of z^t, v^ev0 sum_b d(t + b, b) (1 - v^2)^b, is summed as
    one int at v^2 = 2^K and read back by its balanced base-2^K digits."""
    k = bits + strands + 1
    one_minus = 1 - (1 << k)
    by_ez = {}
    digits = _digits(x, bits)
    for b, start in enumerate(range(0, len(digits), bits - 1)):
        weight = one_minus ** b
        for i, digit in enumerate(digits[start:start + bits - 1]):
            if digit:
                by_ez[i - b] = by_ez.get(i - b, 0) + digit * weight
    return LaurentPoly2._of({(ev0 + 2 * j, ez): c for ez, y in by_ez.items()
                             for j, c in enumerate(_digits(y, k)) if c})
