"""Oriented link diagrams in PD notation.

A diagram is a list of crossings plus a count of crossing-free unknotted
circles, at most MAX_FREE_LOOPS of them.  Each crossing holds its two
oriented strands and its sign: the under-strand a -> c passes under the
over-strand over_in -> over_out.  Edge labels are 1..2c, each appearing
exactly twice, and the successor relation (a -> c and over_in ->
over_out at every crossing) must partition the labels into closed
oriented cycles.  The diagram lies on the sphere: its counterclockwise
PD slots give c + 2 faces on each connected piece.

PD text X[a,b,c,d] lists the four edge labels counterclockwise from the
incoming under-strand edge a, so c is outgoing under; the over-strand
runs d -> b at a positive crossing and b -> d at a negative one.  Only
parse_pd (which infers the signs from orientation consistency),
Crossing.pd (for serialize and validation), _check_planar (the face
walk) and _renumber's label order use that order.  parse_pd and
validation pair each label's two slots once (_slot_mates, which raises
on a label outside 1..2c or met a third time) and check planarity over
that pairing.

Derived structure is computed once per diagram, and none of it stands
for a free loop, which is only counted: the component cycles, the edge
table (the crossing each label enters, and whether under) and the
connected pieces, which one strand walk over the edge table finds.
parse_pd and validation walk the pieces for the planarity check, so a
diagram that enters carries them; _renumber and switch_crossing hand
their results cycles and a table, and the canonical code's first walk
records the pieces of a diagram whose crossings form one piece.  The
Seifert circles (seifert._seifert_cycles) are stored on the diagram too,
and switch_crossing hands them on, as a switch keeps the smoothing's
successor map.  A diagram is marked reduced when it admits no R1 or R2
move: _reduce marks the result of its moves and simplify a diagram it
finds at the fixpoint, and simplify returns a marked diagram with no scan.
"""

from __future__ import annotations

import re
import sys
from itertools import chain
from typing import NamedTuple

from .errors import InvalidPDError, ParseError

__all__ = ["Crossing", "Diagram", "parse_pd"]

# the most free loops a diagram may hold: the polynomial of k free loops,
# delta^(k-1), has about k^2/2 terms, so the engine's work and its output
# grow quadratically in k
MAX_FREE_LOOPS = 1_000


class Crossing(NamedTuple):
    """The under-strand a -> c passes under over_in -> over_out."""

    a: int
    c: int
    over_in: int
    over_out: int
    sign: int

    def pd(self):
        """PD slots (a, b, c, d): the over-strand enters by d when positive
        and by b when negative."""
        if self.sign > 0:
            return (self.a, self.over_out, self.c, self.over_in)
        return (self.a, self.over_in, self.c, self.over_out)

    def switched(self):
        """This crossing with its over- and under-strands swapped and its sign negated."""
        return Crossing(self.over_in, self.over_out, self.a, self.c, -self.sign)


class Diagram:
    """Immutable oriented link diagram."""

    __slots__ = ("crossings", "free_loops", "_cycles", "_comp", "_ins", "_pieces", "_split",
                 "_code", "_seifert", "_reduced")

    def __init__(self, crossings, free_loops=0, _validated=False):
        self.crossings = tuple(crossings)
        self.free_loops = int(free_loops)
        self._cycles = None
        self._comp = None
        self._ins = None
        self._pieces = None
        self._split = None
        self._code = None
        self._seifert = None
        self._reduced = False
        if not _validated:
            self._validate()

    # -- construction hidden helpers ----------------------------------

    def _validate(self):
        _check_free_loops(self.free_loops)
        if not self.crossings:
            if self.free_loops == 0:
                raise InvalidPDError("empty link: no crossings and no free loops")
            return
        for x in self.crossings:
            if x.sign not in (1, -1):
                raise InvalidPDError(f"crossing {x} has sign {x.sign}")
            for e in x[:4]:
                if not isinstance(e, int):
                    raise InvalidPDError(f"edge label {e!r} is not an integer")
        quads = [x.pd() for x in self.crossings]
        mate = _slot_mates(quads)
        # no edge has two heads or two tails (tails stored negated); as each
        # label 1..2c occurs twice, every edge then has one of each
        ends = set()
        for x in self.crossings:
            for e in (x.a, x.over_in, -x.c, -x.over_out):
                if e in ends:
                    raise InvalidPDError(
                        f"edge {abs(e)} oriented inconsistently (two {'heads' if e > 0 else 'tails'})"
                    )
                ends.add(e)
        _check_planar(mate, self)

    # -- derived structure ---------------------------------------------

    def component_cycles(self):
        """Oriented edge cycles of the components with crossings, each
        rotated to start at its least label and ordered by it.  Also records
        each label's cycle index in the list _comp."""
        if self._cycles is None:
            cycles, self._comp = _permutation_cycles(_successors(self.crossings),
                                                     2 * len(self.crossings))
            self._cycles = tuple(cycles)
        return self._cycles

    def _edge_table(self):
        """The list _entries(crossings), built once: renumbered and switched
        diagrams are made with theirs."""
        if self._ins is None:
            self._ins = _entries(self.crossings)
        return self._ins

    def num_components(self):
        return len(self.component_cycles()) + self.free_loops

    def writhe(self):
        return sum(x.sign for x in self.crossings)

    def is_connected(self):
        """Connected projection: one piece with crossings or one free loop
        in all."""
        return len(self._crossing_graph_pieces()) + self.free_loops == 1

    def _crossing_graph_pieces(self):
        """Crossing indices of each connected piece of the projection,
        sorted, in order of first crossing.  From each crossing not yet
        reached, the edges leaving every crossing reached (c and over_out)
        are looked up in the edge table; each strand is a closed cycle, so
        this reaches the whole piece."""
        if self._pieces is None:
            xs, ins = self.crossings, self._edge_table()
            reached = bytearray(len(xs))
            self._pieces = []
            for i in range(len(xs)):
                if not reached[i]:
                    reached[i] = 1
                    piece = [i]
                    for j in piece:
                        for e in (xs[j].c, xs[j].over_out):
                            if not reached[k := ins[e][0]]:
                                reached[k] = 1
                                piece.append(k)
                    piece.sort()
                    self._pieces.append(piece)
        return self._pieces

    def split_pieces(self):
        """Connected sub-diagrams of the crossings, ordered by least original
        edge label; free loops make no piece."""
        if self._split is None:
            pieces = []
            for idx in self._crossing_graph_pieces():
                sub = [self.crossings[i] for i in idx]
                key = min(min(x[:4]) for x in sub)
                pieces.append((key, _renumber(sub, 0, _validated=True)))
            pieces.sort(key=lambda kv: kv[0])
            self._split = tuple(p for _, p in pieces)
        return self._split

    # -- crossing-level moves --------------------------------------------

    def switch_crossing(self, i):
        """Swap the over- and under-strands of crossing i."""
        x = self._crossing(i)
        xs = list(self.crossings)
        xs[i] = x.switched()
        out = Diagram(xs, self.free_loops, _validated=True)
        # every strand and the projection are kept; the strands entering i
        # trade under for over
        out._cycles, out._comp, out._pieces = self._cycles, self._comp, self._pieces
        # so is the Seifert successor map: under-in -> over-out and
        # over-in -> under-out are the same two pairs at the switched i
        out._seifert = self._seifert
        out._ins = ins = self._edge_table()[:]
        ins[x.a], ins[x.over_in] = (i, False), (i, True)
        return out

    def smooth_crossing(self, i):
        """Remove crossing i by the oriented smoothing and renumber, with no
        Reidemeister moves (the engine reduces its smoothed child in _reduce)."""
        self._crossing(i)
        return _reduce(self, (i,), moves=False)

    def _crossing(self, i):
        n = len(self.crossings)
        if not isinstance(i, int) or not 0 <= i < n:
            raise IndexError(f"crossing index {i} out of range "
                             + (f"(0..{n - 1})" if n else "(the diagram has no crossings)"))
        return self.crossings[i]

    def simplify(self):
        """Greedy crossing-reducing Reidemeister I and II moves to a fixpoint:
        the first R1 move by crossing order, otherwise the first R2 move by
        crossing order.  The result is renumbered once, and is this diagram
        when no move applies.  Either is marked reduced, and a diagram so
        marked is returned with no scan."""
        if not self._reduced:
            out = _reduce(self)
            if out is not None:
                return out
            self._reduced = True
        return self

    # -- relabeling and canonical form ------------------------------------

    def relabel(self, mapping):
        """Apply an edge-label bijection; signs are carried over."""
        n2 = 2 * len(self.crossings)
        if sorted(mapping) != list(range(1, n2 + 1)) or sorted(set(mapping.values())) != list(
            range(1, n2 + 1)
        ):
            raise InvalidPDError("relabeling must be a bijection on 1..2c")
        xs = [
            Crossing(mapping[x.a], mapping[x.c], mapping[x.over_in], mapping[x.over_out], x.sign)
            for x in self.crossings
        ]
        return Diagram(xs, self.free_loops, _validated=True)

    def canonical_code(self):
        """Byte string invariant under edge relabeling and crossing reordering.

        A connected projection takes the lexicographically least traversal
        code over all starting edges: passages emit (crossing number by
        first visit, over/under, sign), later link components are attached
        at their first-contact crossing in passage order, and the free-loop
        count is appended.  Split diagrams, and diagrams with free loops
        beside their crossings, combine the sorted codes of their connected
        pieces.

        The walk reads flat per-edge lists indexed by label 1..2c: the next
        edge on its cycle, its component, the crossing it enters, the
        token's low bits (2 * under + negative) and the other strand's
        outgoing edge there.  A start's first token is its low bits, so
        only starts whose low bits are least can give the least code.

        The first walk attaches every component of its piece, so it also
        decides connectivity: it has 2c + (components with crossings)
        tokens exactly when the crossings form one piece, which is then
        recorded, and with free loops beside it that piece's code is this
        walk's.  After a shorter walk, a diagram that does not carry its
        pieces has them found by _crossing_graph_pieces.
        """
        if self._code is None:
            self._code = self._compute_code()
        return self._code

    def _compute_code(self):
        n = len(self.crossings)
        if n == 0:
            self._pieces = []
            return b"U%d" % self.free_loops
        ncomp = len(self.component_cycles())
        best = _least_tokens(self.crossings, ncomp, self._comp)
        if best is None:
            parts = sorted(p.canonical_code() for p in self.split_pieces())
            return b"S" + b";".join(parts) + b"|%d" % self.free_loops
        self._pieces = [list(range(n))]
        if n > 62:
            body = b"".join(b"\xfe\xfe" if t == -1 else t.to_bytes(2, "big") for t in best)
        else:
            body = bytes(map(_TOKEN_BYTE.__getitem__, best))
        code = body + b"|0"
        if not self.free_loops:
            return code
        # the split form of one piece and free loops; the piece keeps its
        # crossing order, so the walk above is its own
        piece = self.split_pieces()[0]
        piece._code, piece._pieces = code, self._pieces
        return b"S" + code + b"|%d" % self.free_loops

    # -- serialization ------------------------------------------------------

    def serialize(self):
        parts = ["X[%d,%d,%d,%d]" % x.pd() for x in self.crossings]
        if self.free_loops:
            parts.append(f"free_loops={self.free_loops}")
        return " ".join(parts)

    def __repr__(self):
        return f"Diagram({self.serialize()!r})"

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.crossings == other.crossings and self.free_loops == other.free_loops

    def __hash__(self):
        return hash((self.crossings, self.free_loops))


# the code byte of a token of a diagram of at most 62 crossings: tokens
# 0..247 stand for themselves and the component end -1 reads entry 255
_TOKEN_BYTE = bytes(range(255)) + b"\xfe"


def _least_tokens(crossings, ncomp, comp):
    """Least token list over the candidate starts of crossings labelled
    1..2c on ncomp components, comp giving each label's component; -1 ends
    each component.  None when the first walk misses a component: the
    crossings form more than one piece."""
    n = len(crossings)
    size = 2 * n + 1
    nxt, cross, low, pout = [0] * size, [0] * size, [0] * size, [0] * size
    for i, (a, c, o_in, o_out, s) in enumerate(crossings):
        neg = 0 if s > 0 else 1
        nxt[a], nxt[o_in] = c, o_out
        cross[a] = cross[o_in] = i
        low[a], low[o_in] = 2 + neg, neg
        pout[a], pout[o_in] = o_out, c
    multi = ncomp > 1

    def walk(start, best):
        """Token list from edge `start`, or None once it cannot beat best."""
        num = [-1] * n
        seen = [False] * ncomp
        count = 0
        toks = []
        tied = best is not None
        candidates = []
        ci_next = 0
        e0 = start
        while e0:
            seen[comp[e0]] = True
            e = e0
            while True:
                i = cross[e]
                k = num[i]
                if k < 0:
                    k = num[i] = count
                    count += 1
                tok = 4 * k + low[e]
                if tied:
                    b = best[len(toks)]
                    if tok != b:
                        if tok > b:
                            return None
                        tied = False
                toks.append(tok)
                if multi and not seen[comp[pout[e]]]:
                    candidates.append(pout[e])
                e = nxt[e]
                if e == e0:
                    break
            if tied and best[len(toks)] != -1:
                tied = False
            toks.append(-1)
            e0 = 0
            while ci_next < len(candidates):
                cand = candidates[ci_next]
                ci_next += 1
                if not seen[comp[cand]]:
                    e0 = cand
                    break
        return None if tied else toks

    first = min(low[1:])
    start = low.index(first, 1)
    best = walk(start, None)
    if len(best) < 2 * n + ncomp:
        return None
    for start in range(start + 1, size):
        if low[start] == first:
            best = walk(start, best) or best
    return best


def _reduce(d, cut=(), smooth=True, moves=True):
    """Stitch the crossings `cut` out of diagram d, by the oriented
    smoothing if `smooth`, else running each strand straight through, then
    take Reidemeister moves to a fixpoint if `moves`: each time the first R1
    by crossing order, else the first R2.  All of it works on one list in
    crossing order (None for a removed crossing) and a copy of d's edge
    table; the result is renumbered once, and marked reduced after the
    moves, or None when nothing changed."""
    xs = list(d.crossings)
    ins = d._edge_table()[:]
    loops = d.free_loops
    if cut:
        loops += _stitch(xs, ins, cut, smooth)
    while moves and (found := _first_move(xs, ins)):
        loops += _stitch(xs, ins, found, False)
    if None not in xs:
        return None
    out = _renumber([x for x in xs if x is not None], loops, _validated=True)
    out._reduced = moves
    return out


def _first_move(xs, ins):
    """Indices of the first R1 move in the working list, else of the first
    R2 (an _r2_pair that one strand passes over), found in one scan."""
    r2 = None
    for i, x in enumerate(xs):
        if x is not None:
            a, c, o_in, o_out, _ = x
            # a kink: an edge leaves one strand here and enters the other
            if a == o_in or a == o_out or c == o_in or c == o_out:
                return (i,)
            if r2 is None:
                j, under = ins[o_out]
                if j != i and not under and _r2_pair(x, xs[j]):
                    r2 = (i, j)
    return r2


def _r2_pair(x, y):
    """Whether crossings x and y, which one strand passes over, x then
    directly y, form an R2 pair: their signs differ and the other strand
    runs directly between them, either way.  Symmetric in x and y."""
    return x.sign != y.sign and (x.c == y.a or y.c == x.a)


def _stitch(xs, ins, removed, smooth):
    """Remove crossings from the working list, gluing the edges through
    each: the smoothing joins under-in to over-out and over-in to
    under-out, deletion runs each strand straight through.  A glued chain
    keeps its first edge's label, written into the surviving crossing that
    its last edge enters and into that edge's entry of the edge table;
    entries of labels that vanish are left stale.  Returns how many chains
    close up."""
    glue = {}
    for i in removed:
        a, c, o_in, o_out, _ = xs[i]
        glue[a], glue[o_in] = (o_out, c) if smooth else (c, o_out)
        xs[i] = None
    closed, heads = set(glue), set(glue.values())
    for e in glue:
        if e in heads:
            continue
        f = e
        while f in glue:
            closed.discard(f)
            f = glue[f]
        j, under = ins[e] = ins[f]
        a, c, o_in, o_out, s = xs[j]
        xs[j] = tuple.__new__(Crossing, (e, c, o_in, o_out, s) if under else (a, c, e, o_out, s))
    loops = 0
    while closed:
        e = closed.pop()
        while glue[e] in closed:
            e = glue[e]
            closed.remove(e)
        loops += 1
    return loops


def _renumber(crossings, free_loops, _validated=False):
    """Relabel arbitrary hashable edge labels to 1..2c by traversal order.

    Components are taken in order of first appearance scanning the crossing
    list by PD slot; each is walked from its first-seen edge, so component
    k takes one run of labels lo_k..hi_k in walking order.  The new diagram
    records those runs as its component cycles instead of walking them
    again, and the edge table filled while its crossings are built.
    """
    succ = _successors(crossings)
    label = {}
    nxt = 1
    starts = []
    for x in crossings:
        # slots a then b: c and d lie on the strands walked from a and b,
        # so this labels as a scan of all four slots does
        for e in (x.a, x.over_out if x.sign > 0 else x.over_in):
            if e not in label:
                starts.append(nxt)
                while e not in label:
                    label[e] = nxt
                    nxt += 1
                    e = succ[e]
    xs, ins = [], [None] * nxt
    new = tuple.__new__
    for i, (a, c, o_in, o_out, s) in enumerate(crossings):
        a, o_in = label[a], label[o_in]
        xs.append(new(Crossing, (a, label[c], o_in, label[o_out], s)))
        ins[a], ins[o_in] = (i, True), (i, False)
    out = Diagram(xs, free_loops, _validated)
    out._ins = ins
    starts.append(nxt)
    cycles, comp = [], [0]
    for k, (lo, hi) in enumerate(zip(starts, starts[1:])):
        cycles.append(tuple(range(lo, hi)))
        comp += [k] * (hi - lo)
    out._cycles = tuple(cycles)
    out._comp = comp
    return out


def _entries(crossings):
    """Edge table of crossings labelled 1..2c, as a list indexed by label:
    the index of the crossing the edge enters, and whether it enters under."""
    ins = [None] * (2 * len(crossings) + 1)
    for i, (a, _, o_in, _, _) in enumerate(crossings):
        ins[a], ins[o_in] = (i, True), (i, False)
    return ins


def _permutation_cycles(succ, size):
    """The cycles of a permutation succ of the labels 1..size, each entered
    at its least label and ordered by it, and the list indexed by label of
    each label's cycle index.  Empties succ."""
    index = [0] * (size + 1)
    cycles = []
    # labels are scanned upward, so each cycle is entered at its least label
    for start in range(1, size + 1):
        if start not in succ:
            continue
        ci = len(cycles)
        cyc = [start]
        index[start] = ci
        e = succ.pop(start)
        while e != start:
            cyc.append(e)
            index[e] = ci
            e = succ.pop(e)
        cycles.append(tuple(cyc))
    return cycles, index


def _successors(crossings):
    """Edge -> next edge along its oriented strand."""
    succ = {}
    for a, c, o_in, o_out, _ in crossings:
        succ[a], succ[o_in] = c, o_out
    return succ


def _check_free_loops(k):
    """Raise InvalidPDError unless 0 <= k <= MAX_FREE_LOOPS."""
    if k < 0:
        raise InvalidPDError("free_loops must be nonnegative")
    if k > MAX_FREE_LOOPS:
        raise InvalidPDError(f"free_loops must be at most {MAX_FREE_LOOPS:,}")


def _slot_mates(quads):
    """For the 4-tuples of PD slots of c crossings: the list indexed by slot
    position 4 * crossing + slot of the position of the same label's other
    slot.  A label outside 1..2c or met a third time raises InvalidPDError,
    which leaves each label in exactly two of the 4c slots."""
    size = 2 * len(quads)
    mate = [0] * (2 * size)
    first = [-1] * (size + 1)  # a label's first slot; None once paired
    for p, e in enumerate(chain.from_iterable(quads)):
        if not 0 < e <= size or (q := first[e]) is None:
            raise InvalidPDError(f"edge labels must be 1..{size} each twice; offending label {e}")
        if q < 0:
            first[e] = p
        else:
            mate[p], mate[q] = q, p
            first[e] = None
    return mate


def _check_planar(mate, d):
    """Raise InvalidPDError unless the PD slots paired by mate
    (_slot_mates) of diagram d describe a diagram on the sphere.  Slots
    run counterclockwise, so corner (x, k) between slots k and k+1 of
    crossing x is followed on its face by corner (y, l), where slot k+1's
    edge arrives at slot l of crossing y.  By Euler's formula c crossings
    in k pieces of total genus g give c + 2k - 2g faces."""
    seen = bytearray(len(mate))
    faces = 0
    for p in range(len(mate)):
        if not seen[p]:
            faces += 1
            q = p
            while not seen[q]:
                seen[q] = 1
                q = mate[(q & ~3) | ((q + 1) & 3)]
    if faces != len(mate) // 4 + 2 * len(d._crossing_graph_pieces()):
        raise InvalidPDError("the PD slots describe no diagram on the sphere")


# -- parsing ------------------------------------------------------------------

# a term, after whitespace and at most one comma that follows a term
_TOKEN_RE = re.compile(
    r"""(?:(?<=\S)\s*,)?\s*(?:
        (?P<x>X\[\s*(?P<t>\d+\s*,\s*\d+\s*,\s*\d+\s*,\s*\d+)\s*\])
      | (?P<o>O)
      | (?P<fl>free_loops=(?P<k>\d+))
      | (?P<junk>\S+)
    )""",
    re.VERBOSE,
)


def _tokenize(text):
    body = text.strip()
    if body.startswith("PD[") and body.endswith("]"):
        body = body[3:-1].strip()
    tuples = []
    loops = 0
    # every position of the stripped body starts a match, so the matches
    # findall reports are contiguous and cover it
    try:
        for x, t, o, fl, k, junk in _TOKEN_RE.findall(body):
            if x:
                tuples.append(tuple(int(v) for v in t.split(",")))
            elif o:
                loops += 1
            elif fl:
                loops += int(k)
            else:
                raise ParseError(f"unrecognized token {junk!r}")
    except ValueError as exc:  # from int(), past its digit limit
        raise ParseError(
            f"a number has more than {sys.get_int_max_str_digits()} digits") from exc
    return tuples, loops


def parse_pd(text: str) -> Diagram:
    """Parse PD text ("X[a,b,c,d] ..." with optional PD[...] wrapper, O
    tokens, and a free_loops=k suffix) into a validated Diagram."""
    tuples, loops = _tokenize(text)
    _check_free_loops(loops)
    mate = _slot_mates(tuples)
    signs = _derive_signs(tuples, mate)
    xs = [Crossing(a, c, d, b, s) if s > 0 else Crossing(a, c, b, d, s)
          for (a, b, c, d), s in zip(tuples, signs)]
    # _slot_mates checked the labels and the sign walk the orientation, so
    # only an empty link is left for _validate; the pieces _check_planar
    # walks are carried
    d = Diagram(xs, loops, _validated=bool(xs))
    _check_planar(mate, d)
    return d


def _derive_signs(tuples, mate):
    """Infer crossing signs by walking each strand once, over the slot
    pairing mate of the tuples (_slot_mates).

    Slot a is incoming and c outgoing; the over-strand enters by d at a
    positive crossing and by b at a negative one.  A strand that passes
    under somewhere is followed forward from an outgoing slot c, and
    reaching another slot c means its direction is inconsistent.  A strand
    that never passes under could run either way: the unsigned crossing of
    least index is made positive iff b follows d cyclically on the strand's
    sorted labels, and the strand is followed from there.
    """
    n = len(tuples)
    flat = list(chain.from_iterable(tuples))
    sign = [0] * n
    passed_under = bytearray(n)

    def walk(start):
        """Follow the strand leaving by slot position start back to it,
        signing the crossings it passes over; returns the slots left by."""
        outs = [start]
        while True:
            p = mate[outs[-1]]
            i, slot = p >> 2, p & 3
            if slot == 2:
                raise InvalidPDError(f"edge {flat[p]} oriented inconsistently")
            if slot == 0:
                passed_under[i] = 1
            else:
                sign[i] = 1 if slot == 3 else -1
            if p ^ 2 == start:
                return outs
            outs.append(p ^ 2)  # leave by the opposite slot

    for i in range(n):
        if not passed_under[i]:
            walk(4 * i + 2)
    for i in range(n):
        if not sign[i]:
            outs = walk(4 * i + 1)  # as if positive: in by d, out by b
            labels = [flat[p] for p in outs]
            _, b, _, d = tuples[i]
            if not (b == d + 1 or (d == max(labels) and b == min(labels))):
                for p in outs:
                    sign[p >> 2] = -sign[p >> 2]
    return sign
