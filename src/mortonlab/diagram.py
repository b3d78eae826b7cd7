"""Oriented link diagrams in PD notation.

A diagram is a list of crossings plus a count of crossing-free unknotted
circles.  Each crossing X[a,b,c,d] lists its four edge labels
counterclockwise starting at the incoming under-strand edge a, so a is
incoming under and c is outgoing under.  The crossing is positive when
the over-strand runs d -> b and negative when it runs b -> d; signs are
derived from global orientation consistency at parse/build time and then
carried explicitly.

Edge labels are 1..2c, each appearing exactly twice.  The edge-successor
relation (a -> c under; d -> b over at positive crossings, b -> d at
negative ones) must partition the labels into closed oriented cycles.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import InvalidPDError, ParseError

__all__ = ["Crossing", "Diagram", "parse_pd"]

_SMOOTH = "smooth"
_DELETE = "delete"


class Crossing(NamedTuple):
    a: int
    b: int
    c: int
    d: int
    sign: int

    @property
    def over_in(self):
        return self.d if self.sign > 0 else self.b

    @property
    def over_out(self):
        return self.b if self.sign > 0 else self.d

    def edges(self):
        return (self.a, self.b, self.c, self.d)


class Diagram:
    """Immutable oriented link diagram."""

    __slots__ = ("crossings", "free_loops", "_cycles", "_code", "_in_slot", "_out_slot")

    def __init__(self, crossings, free_loops=0, _validated=False):
        self.crossings = tuple(crossings)
        self.free_loops = int(free_loops)
        self._cycles = None
        self._code = None
        self._in_slot = None
        self._out_slot = None
        if not _validated:
            self._validate()

    # -- construction hidden helpers ----------------------------------

    def _validate(self):
        n = len(self.crossings)
        if self.free_loops < 0:
            raise InvalidPDError("free_loops must be nonnegative")
        if n == 0:
            if self.free_loops == 0:
                raise InvalidPDError("empty link: no crossings and no free loops")
            return
        counts = {}
        for x in self.crossings:
            if x.sign not in (1, -1):
                raise InvalidPDError(f"crossing {x} has sign {x.sign}")
            for e in x.edges():
                counts[e] = counts.get(e, 0) + 1
        expected = set(range(1, 2 * n + 1))
        if set(counts) != expected or any(v != 2 for v in counts.values()):
            bad = sorted(set(counts) ^ expected) or sorted(e for e, v in counts.items() if v != 2)
            raise InvalidPDError(f"edge labels must be 1..{2 * n} each twice; offending labels {bad}")
        # one incoming and one outgoing occurrence per edge
        ins, outs = {}, {}
        for i, x in enumerate(self.crossings):
            for e, table in ((x.a, ins), (x.over_in, ins), (x.c, outs), (x.over_out, outs)):
                if e in table:
                    raise InvalidPDError(
                        f"edge {e} oriented inconsistently (two {'heads' if table is ins else 'tails'})"
                    )
                table[e] = i
        if set(ins) != expected or set(outs) != expected:
            raise InvalidPDError("orientation conflict: some edge lacks a head or a tail")

    # -- derived structure ---------------------------------------------

    def _slots(self):
        if self._in_slot is None:
            ins, outs = {}, {}
            for i, x in enumerate(self.crossings):
                ins[x.a] = (i, "under")
                ins[x.over_in] = (i, "over")
                outs[x.c] = (i, "under")
                outs[x.over_out] = (i, "over")
            self._in_slot, self._out_slot = ins, outs
        return self._in_slot, self._out_slot

    def successor(self, edge):
        """Next edge along the oriented strand."""
        ins, _ = self._slots()
        i, kind = ins[edge]
        x = self.crossings[i]
        return x.c if kind == "under" else x.over_out

    def component_cycles(self):
        """Oriented edge cycles, each rotated to start at its least label,
        ordered by least label; free loops appended as empty tuples."""
        if self._cycles is None:
            seen = set()
            cycles = []
            for start in range(1, 2 * len(self.crossings) + 1):
                if start in seen:
                    continue
                cyc = [start]
                seen.add(start)
                e = self.successor(start)
                while e != start:
                    cyc.append(e)
                    seen.add(e)
                    e = self.successor(e)
                m = cyc.index(min(cyc))
                cycles.append(tuple(cyc[m:] + cyc[:m]))
            cycles.sort(key=lambda cyc: cyc[0])
            cycles.extend(() for _ in range(self.free_loops))
            self._cycles = tuple(cycles)
        return self._cycles

    def num_components(self):
        return len(self.component_cycles())

    def writhe(self):
        return sum(x.sign for x in self.crossings)

    def is_connected(self):
        """Connected projection: a lone free loop, or a connected crossing
        graph with no extra free loops."""
        n = len(self.crossings)
        if n == 0:
            return self.free_loops == 1
        if self.free_loops:
            return False
        return len(self._crossing_graph_pieces()) == 1

    def _crossing_graph_pieces(self):
        n = len(self.crossings)
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        owner = {}
        for i, x in enumerate(self.crossings):
            for e in x.edges():
                if e in owner:
                    ri, rj = find(i), find(owner[e])
                    if ri != rj:
                        parent[ri] = rj
                else:
                    owner[e] = i
        pieces = {}
        for i in range(n):
            pieces.setdefault(find(i), []).append(i)
        return list(pieces.values())

    def split_pieces(self):
        """Connected sub-diagrams of the projection, plus one 0-crossing
        unknot per free loop; pieces ordered by least original edge label."""
        pieces = []
        for idx in self._crossing_graph_pieces():
            sub = [self.crossings[i] for i in sorted(idx)]
            key = min(min(x.edges()) for x in sub)
            pieces.append((key, _renumber(sub, 0)))
        pieces.sort(key=lambda kv: kv[0])
        out = [p for _, p in pieces]
        out.extend(Diagram((), 1, _validated=True) for _ in range(self.free_loops))
        return out

    # -- crossing-level moves --------------------------------------------

    def switch_crossing(self, i):
        """Swap the over- and under-strands of crossing i."""
        x = self._crossing(i)
        if x.sign > 0:
            y = Crossing(x.d, x.a, x.b, x.c, -1)
        else:
            y = Crossing(x.b, x.c, x.d, x.a, 1)
        xs = list(self.crossings)
        xs[i] = y
        return Diagram(xs, self.free_loops, _validated=True)

    def smooth_crossing(self, i):
        """Remove crossing i by the oriented smoothing."""
        self._crossing(i)
        return self._remove({i: _SMOOTH})

    def _crossing(self, i):
        if not isinstance(i, int) or not 0 <= i < len(self.crossings):
            raise IndexError(f"crossing index {i} out of range (0..{len(self.crossings) - 1})")
        return self.crossings[i]

    def _remove(self, removals):
        """Delete crossings, stitching their edges together.

        removals maps crossing index to a mode: the oriented smoothing glues
        under-in to over-out and over-in to under-out; plain deletion (used
        by the Reidemeister moves) glues each strand straight through.
        Stitched chains that close up with no surviving crossing become free
        loops.
        """
        glue = {}
        for i, mode in removals.items():
            x = self.crossings[i]
            if mode == _SMOOTH:
                glue[x.a] = x.over_out
                glue[x.over_in] = x.c
            else:
                glue[x.a] = x.c
                glue[x.over_in] = x.over_out
        survivors = [x for i, x in enumerate(self.crossings) if i not in removals]

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
        if not survivors:
            # any chain with surviving endpoints is impossible here
            return Diagram((), self.free_loops + new_loops, _validated=True)

        def m(e):
            return rep.get(e, e)

        mapped = [Crossing(m(x.a), m(x.b), m(x.c), m(x.d), x.sign) for x in survivors]
        return _renumber(mapped, self.free_loops + new_loops)

    # -- Reidemeister I/II reduction ---------------------------------------

    def _find_r1(self):
        for i, x in enumerate(self.crossings):
            t = x.edges()
            for j in range(4):
                if t[j] == t[(j + 1) % 4]:
                    return i
        return None

    def _find_r2(self):
        ins, outs = self._slots()
        for i, x in enumerate(self.crossings):
            xo = x.over_out
            j, kind = ins[xo]
            if j == i or kind != "over" or self.crossings[j].sign == x.sign:
                continue
            y = self.crossings[j]
            # same strand passes over both; the under strand must also run
            # directly between the two crossings (either direction)
            if x.c == y.a or y.c == x.a:
                return (i, j)
        return None

    def simplify(self):
        """Greedy crossing-reducing Reidemeister I and II moves to a fixpoint."""
        d = self
        while True:
            i = d._find_r1()
            if i is not None:
                d = d._remove({i: _DELETE})
                continue
            pair = d._find_r2()
            if pair is not None:
                d = d._remove({pair[0]: _DELETE, pair[1]: _DELETE})
                continue
            return d

    # -- relabeling and canonical form ------------------------------------

    def relabel(self, mapping):
        """Apply an edge-label bijection; signs are carried over."""
        n2 = 2 * len(self.crossings)
        if sorted(mapping) != list(range(1, n2 + 1)) or sorted(set(mapping.values())) != list(
            range(1, n2 + 1)
        ):
            raise InvalidPDError("relabeling must be a bijection on 1..2c")
        xs = [
            Crossing(mapping[x.a], mapping[x.b], mapping[x.c], mapping[x.d], x.sign)
            for x in self.crossings
        ]
        return Diagram(xs, self.free_loops, _validated=True)

    def canonical_code(self):
        """Byte string invariant under edge relabeling and crossing reordering.

        Split diagrams combine the sorted codes of their connected pieces.
        A connected projection takes the lexicographically least traversal
        code over all starting edges: passages emit (crossing number by
        first visit, over/under, sign), later link components are attached
        at their first-contact crossing in passage order, and the free-loop
        count is appended.
        """
        if self._code is None:
            self._code = self._compute_code()
        return self._code

    def _compute_code(self):
        n = len(self.crossings)
        if n == 0:
            return b"U%d" % self.free_loops
        if not self.is_connected():
            parts = sorted(p.canonical_code() for p in self.split_pieces() if p.crossings)
            return b"S" + b";".join(parts) + b"|%d" % self.free_loops

        cycles = self.component_cycles()
        where = {}
        for ci, cyc in enumerate(cycles):
            for pos, e in enumerate(cyc):
                where[e] = (ci, pos)
        ins, _ = self._slots()
        signs = [x.sign for x in self.crossings]
        partner_out = {}
        for e in where:
            i, kind = ins[e]
            x = self.crossings[i]
            partner_out[e] = (i, kind == "under", x.c if kind == "over" else x.over_out)

        def tokens_from(start, best):
            """Token list starting at edge `start`, or None once > best."""
            num = {}
            toks = []
            pos = 0
            blen = len(best) if best is not None else -1
            seen_comps = set()
            candidates = []
            ci_next = 0
            queue = [start]
            while queue:
                e0 = queue.pop()
                ci, rot = where[e0]
                seen_comps.add(ci)
                cyc = cycles[ci]
                k = len(cyc)
                for t in range(k):
                    e = cyc[(rot + t) % k]
                    i, under, pout = partner_out[e]
                    cnum = num.setdefault(i, len(num))
                    tok = cnum * 4 + (2 if under else 0) + (1 if signs[i] < 0 else 0)
                    if best is not None:
                        if pos >= blen or tok > best[pos]:
                            return None
                        if tok < best[pos]:
                            best = None
                    toks.append(tok)
                    pos += 1
                    if where[pout][0] not in seen_comps:
                        candidates.append(pout)
                toks.append(-1)
                if best is not None:
                    if pos >= blen:
                        return None
                    if -1 < best[pos]:
                        best = None
                pos += 1
                while ci_next < len(candidates):
                    cand = candidates[ci_next]
                    ci_next += 1
                    if where[cand][0] not in seen_comps:
                        queue.append(cand)
                        break
            return toks

        best = None
        for start in range(1, 2 * n + 1):
            toks = tokens_from(start, best)
            if toks is not None and (best is None or toks < best):
                best = toks
        if n > 62:
            body = b"".join(
                b"\xfe\xfe" if t == -1 else t.to_bytes(2, "big") for t in best
            )
        else:
            body = bytes(254 if t == -1 else t for t in best)
        return body + b"|%d" % self.free_loops

    # -- serialization ------------------------------------------------------

    def serialize(self):
        parts = [f"X[{x.a},{x.b},{x.c},{x.d}]" for x in self.crossings]
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


def _renumber(crossings, free_loops):
    """Relabel arbitrary hashable edge labels to 1..2c by traversal order.

    Components are taken in order of first appearance scanning the crossing
    list slotwise; each is walked from its first-seen edge.
    """
    if not crossings:
        return Diagram((), free_loops, _validated=True)
    succ = {}
    for x in crossings:
        succ[x.a] = x.c
        succ[x.over_in] = x.over_out
    label = {}
    nxt = 1
    for x in crossings:
        for e in x.edges():
            if e in label:
                continue
            cur = e
            while cur not in label:
                label[cur] = nxt
                nxt += 1
                cur = succ[cur]
    out = [Crossing(label[x.a], label[x.b], label[x.c], label[x.d], x.sign) for x in crossings]
    return Diagram(out, free_loops)


# -- parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
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
        body = body[3:-1]
    body = body.replace(",X[", " X[").replace(", X[", " X[")
    tuples = []
    loops = 0
    pos = 0
    while pos < len(body):
        m = _TOKEN_RE.match(body, pos)
        if m is None:
            break
        if m.group("x"):
            tuples.append(tuple(int(v) for v in m.group("t").split(",")))
        elif m.group("o"):
            loops += 1
        elif m.group("fl"):
            loops += int(m.group("k"))
        else:
            raise ParseError(f"unrecognized token {m.group('junk')!r}")
        pos = m.end()
    return tuples, loops


def parse_pd(text: str) -> Diagram:
    """Parse PD text ("X[a,b,c,d] ..." with optional PD[...] wrapper, O
    tokens, and a free_loops=k suffix) into a validated Diagram."""
    tuples, loops = _tokenize(text)
    if not tuples:
        if loops:
            return Diagram((), loops, _validated=True)
        raise InvalidPDError("empty link: no crossings and no free loops")

    n = len(tuples)
    counts = {}
    for t in tuples:
        for e in t:
            counts[e] = counts.get(e, 0) + 1
    expected = set(range(1, 2 * n + 1))
    if set(counts) != expected or any(v != 2 for v in counts.values()):
        bad = sorted(set(counts) ^ expected) or sorted(e for e, v in counts.items() if v != 2)
        raise InvalidPDError(f"edge labels must be 1..{2 * n} each twice; offending labels {bad}")

    signs = _derive_signs(tuples)
    xs = [Crossing(a, b, c, d, s) for (a, b, c, d), s in zip(tuples, signs)]
    return Diagram(xs, loops)


def _derive_signs(tuples):
    """Infer crossing signs from orientation consistency.

    Slot a is incoming, c outgoing; slot b is outgoing iff the sign is
    positive and slot d incoming iff positive.  Every edge needs one head
    and one tail, which yields parity constraints between sign variables;
    leftover freedom (components that never pass under) is tied off with
    the ascending-label heuristic, lowest crossing index first.
    """
    n = len(tuples)
    occ = {}
    for i, t in enumerate(tuples):
        for slot, e in enumerate(t):
            occ.setdefault(e, []).append((i, slot))

    # literal for "occurrence is incoming", as (var, flip) over sign var x_i
    # ("x_i true" means positive): slot0 -> constant IN; slot2 -> constant
    # OUT; slot1 (b): incoming iff negative -> NOT x; slot3 (d): incoming
    # iff positive -> x.
    sign = [None] * n
    pending = []
    for e, places in occ.items():
        (i, si), (j, sj) = places

        def lit(idx, slot):
            if slot == 0:
                return ("const", True)
            if slot == 2:
                return ("const", False)
            return ("var", idx, slot == 3)

        pending.append((e, lit(i, si), lit(j, sj)))

    def lit_value(l):
        if l[0] == "const":
            return l[1]
        _, idx, direct = l
        if sign[idx] is None:
            return None
        positive = sign[idx] > 0
        return positive if direct else not positive

    def assign(l, value):
        _, idx, direct = l
        positive = value if direct else not value
        s = 1 if positive else -1
        if sign[idx] is None:
            sign[idx] = s
            return True
        if sign[idx] != s:
            raise InvalidPDError("orientation conflict while deriving crossing signs")
        return False

    def propagate():
        progress = True
        while progress:
            progress = False
            for e, l1, l2 in pending:
                v1, v2 = lit_value(l1), lit_value(l2)
                if v1 is not None and v2 is not None:
                    if v1 == v2:
                        raise InvalidPDError(f"edge {e} oriented inconsistently")
                elif v1 is not None:
                    progress |= assign(l2, not v1)
                elif v2 is not None:
                    progress |= assign(l1, not v2)

    propagate()
    while any(s is None for s in sign):
        i = next(k for k, s in enumerate(sign) if s is None)
        sign[i] = 1 if _ascending_positive(tuples, i) else -1
        propagate()
    return sign


def _ascending_positive(tuples, i):
    """Tie-break for over-only components: positive iff b follows d
    cyclically on their (unoriented) circle."""
    parent = {}

    def find(e):
        parent.setdefault(e, e)
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def union(e, f):
        re_, rf = find(e), find(f)
        if re_ != rf:
            parent[re_] = rf

    for a, b, c, d in tuples:
        union(a, c)
        union(b, d)
    _, b, _, d = tuples[i]
    circle = sorted(e for e in parent if find(e) == find(b))
    if b == d + 1 or (d == max(circle) and b == min(circle)):
        return True
    return False

