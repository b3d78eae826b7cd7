"""HOMFLY polynomial engine.

The polynomial P(v, z) of an oriented link is pinned by P(unknot) = 1 and
the skein relation v^-1 P(D+) - v P(D-) = z P(D0), where D+, D-, D0 agree
except at one crossing.  Solving for the sign that is present makes every
step progress toward a descending diagram:

    positive crossing:  P(D) = v^2 P(switched) + v z P(smoothed)
    negative crossing:  P(D) = v^-2 P(switched) - v^-1 z P(smoothed)

poly._skein_step is this rule: the engine's skein route, the oracle and
the trace below each take P from it.

A diagram that is descending with respect to some component order and
basepoints (each component walked in turn from its basepoint, every
crossing met first on its over-strand) is an unlink of k components with
P = delta^(k-1), delta = (v^-1 - v) z^-1.  A component that passes over
(or under) the others at all of their shared crossings lifts off: with
those crossings deleted the diagram is split, and P = delta P(X) P(rest)
with no skein step.  Otherwise the engine takes the components in
ascending order of their balance u - o (shared crossings passed under
less those passed over), chooses each one's basepoint to leave the
fewest of its self-crossings met under first, and switches a crossing
met under first: the first whose switch opens an R2 move, else the
first.

The recursion terminates.  Switching a self-crossing lowers its
component's least count of self-crossings met under first by one and
leaves every balance unchanged.  Switching a shared crossing, which the
earlier component p passes under, moves bal[p] down by 2 and bal[q] up by
2 with bal[p] <= bal[q], so the sum of squared balances rises by at least
8; it is bounded, and no switch raises a self count.  Smoothing, the
deletion of a lifted component's crossings and Reidemeister moves lower
the crossing count.

The cached engine simplifies first, multiplies split unions by delta, and
memoizes on canonical codes, which depend on neither the component
order nor the basepoints.  One recursive method, HomflyEngine._eval,
holds every route, and looks each code up once.  A skein child's code is
read off the working list that switched or stitched it, on its parent's
labels, and the child is renumbered into a Diagram only when that code
misses.  On a miss at the root it reads the root as given, then as
simplified, since simplify can leave braid form (an R2 move across the
closure) and can enter it (R1 moves that destabilize): a closed braid of
at most braid.MAX_STRANDS (7) strands is evaluated by its Markov trace in
the Hecke algebra (the braid module) and stored under the code of its
simplified form, and a split root goes piece by piece the same way, times
delta^(k-1) for k pieces with crossings and free loops in all.  Every
other diagram takes the skein route.  The engine's expansions count skein steps only, and its
braid_evaluations count Hecke traces.

The naive oracle and skein traces take the components in least-label
order, each from its least label, with no cache, no simplification, no
lift and no split shortcut, so the oracle walks a different resolution
tree from the engine and the two routes can be compared exactly on small
diagrams.  On all three routes a tree deeper than the interpreter's
recursion limit allows raises TooLargeError.
"""

from __future__ import annotations

import binascii
import os
import re
from dataclasses import dataclass, field

from .braid import hecke_homfly, read_braid
from .diagram import Diagram, _r2_pair, _WorkingList
from .errors import CacheIOError, ParseError, TooLargeError
from .poly import LaurentPoly2, _skein_step, delta_factor

__all__ = [
    "HomflyEngine",
    "SkeinNode",
    "SkeinTrace",
    "naive_homfly",
    "skein_trace",
    "choose_skein_crossing",
    "trace_to_dot",
    "append_cache_file",
]

DEFAULT_ORACLE_LIMIT = 10
DEFAULT_TRACE_LIMIT = 12
# a skein trace of more nodes raises TooLargeError: its DOT export would
# pass about 3 MB (sigma_1^10, within the default trace limit, has over a
# million nodes)
TRACE_NODE_LIMIT = 50_000


def choose_skein_crossing(d: Diagram):
    """The engine's skein step: the index of a crossing to switch and
    smooth, None when the diagram is descending (an unlink), or the tuple
    of crossings that a layered component shares with the others.

    A component is layered when it passes under the other components at
    all of their shared crossings, or over at all of them, and shares at
    least one; the first such by least label is taken.  Deleting those
    crossings, each strand running straight through, lifts it off.

    Otherwise the components are taken in ascending order of the balance
    u - o, where u counts the crossings with other components that the
    component passes under and o those it passes over (ties in least-label
    order).  A knot is its one component.  Each component is walked from
    the basepoint that leaves the fewest of its self-crossings met under
    first (the last such basepoint along the cycle from its least label),
    and the crossing returned is met first on its under-strand.

    Among the crossings met under first, in meeting order, the first one
    whose switch forms an R2 pair is chosen, else the first one.  After the
    switch the strand a -> c passes crossing i over; the partner is a
    neighbour j on that strand (the crossing c enters, or the one a
    leaves) that it passes over too, where _r2_pair, the test _first_move
    applies, holds for the switched crossing i and j.
    """
    xs = d.crossings
    ins = d._edge_table()
    cycles = d.component_cycles()
    ncomp = len(cycles)
    order = range(ncomp)
    if ncomp > 1:
        comp = d._comp
        u, o = [0] * ncomp, [0] * ncomp
        for a, _, o_in, _, _ in xs:
            cu, co = comp[a], comp[o_in]
            if cu != co:
                u[cu] += 1
                o[co] += 1
        for c in range(ncomp):
            if (u[c] == 0) != (o[c] == 0):
                return tuple(i for i, (a, _, o_in, _, _) in enumerate(xs)
                             if (comp[a] == c) != (comp[o_in] == c))
        order = sorted(order, key=lambda c: u[c] - o[c])
    seen = [False] * len(xs)
    first_bad = None
    for c in order:
        cyc = cycles[c]
        n = len(cyc)
        start = _basepoint(cyc, ins, len(xs))
        for k in range(n):
            q = (start + k) % n
            i, under = ins[cyc[q]]
            if seen[i]:
                continue
            seen[i] = True
            if not under:
                continue
            if first_bad is None:
                first_bad = i
            x = xs[i].switched()
            # after the switch this strand passes i over; an R2 pair needs
            # it to pass a neighbour over too
            for e in (cyc[(q + 1) % n], cyc[q - 1]):
                j, j_under = ins[e]
                if j != i and not j_under and _r2_pair(x, xs[j]):
                    return i
    return first_bad


def _basepoint(cyc, ins, nx):
    """The basepoint of a component cycle of a diagram of nx crossings
    that leaves the fewest self-crossings met under first, the last such
    from the least label.

    A self-crossing passed at cycle positions p < q is met at q first
    exactly for basepoints p+1..q, so one walk fills a difference array
    from which the count for every basepoint is read in order.
    """
    n = len(cyc)
    diff = [0] * (n + 1)
    first = [-1] * nx
    bad = 0
    for q, e in enumerate(cyc):
        i, under = ins[e]
        p = first[i]
        if p < 0:
            first[i] = q
        elif under:
            diff[p + 1] += 1
            diff[q + 1] -= 1
        else:
            # met under first from position 0
            bad += 1
            diff[p + 1] -= 1
            diff[q + 1] += 1
    start, least = 0, bad
    for s in range(1, n):
        bad += diff[s]
        if bad <= least:
            start, least = s, bad
    return start


def _least_label_crossing(d: Diagram):
    """The first crossing met under first with the components in
    least-label order, each walked from its least label, or None: the
    resolution tree of the oracle and of skein traces."""
    first = set()
    ins = d._edge_table()
    for cyc in d.component_cycles():
        for e in cyc:
            i, under = ins[e]
            if i not in first:
                first.add(i)
                if under:
                    return i
    return None


def _descending_value(d: Diagram) -> LaurentPoly2:
    k = d.num_components()
    return delta_factor() ** (k - 1)


def _guarded(d: Diagram, run, limit=None, route=None):
    """run(), one route's skein recursion over d, or TooLargeError when d
    has more than limit crossings (if given) or the recursion passes the
    interpreter's recursion limit, which is never changed."""
    n = len(d.crossings)
    if limit is not None and n > limit:
        raise TooLargeError(f"{n} crossings exceeds {route} limit {limit}")
    try:
        return run()
    except RecursionError:
        raise TooLargeError(f"{n} crossings: skein recursion exceeds the interpreter's "
                            "recursion limit") from None


class HomflyEngine:
    """Memoized evaluator: the Hecke trace for closed braids at the root,
    the skein route for everything else.

    The cache maps canonical codes of simplified diagrams to polynomials;
    lookups are exact-key only (never up to mirror) to keep chirality
    honest.  One map of this engine's own takes every code loaded from or
    flushed to a cache file to a loaded record's polynomial JSON bytes,
    decoded into the cache on a lookup that misses it, or to None for a
    flushed entry, which the cache holds.  One method, _eval, holds every
    route (look up, Hecke trace of a root braid, split product, layered
    lift, skein step, store) and takes one frame per level of the
    resolution tree; a diagram too deep for the interpreter's recursion
    limit raises TooLargeError.
    """

    def __init__(self):
        self.cache = {}
        self.expansions = 0
        self.braid_evaluations = 0
        self._filed = {}

    def homfly(self, d: Diagram) -> LaurentPoly2:
        return _guarded(d, lambda: self._eval(d.simplify(), d))

    def _eval(self, d: Diagram | _WorkingList, raw: Diagram | None = None) -> LaurentPoly2:
        """P of a diagram that admits no R1 or R2 move; so do the connected
        pieces of a split one, as each move lies within one piece.  A skein
        child comes as its working list on the parent's labels
        (diagram._WorkingList), whose code is looked up before it is
        renumbered, only on a miss.  raw, when given, is a caller's
        diagram of which d is the simplified form: on a miss raw, then d,
        is read as a closed braid, and a split d is split along raw's
        pieces and free loops when raw is split, else its own, each piece
        taken the same way."""
        code = d.canonical_code()
        p = self.cache.get(code)
        if p is None and (text := self._filed.get(code)) is not None:
            p = self.cache[code] = LaurentPoly2.from_json(text)
        if p is not None:
            return p
        if isinstance(d, _WorkingList):
            d = d.diagram()
        if raw is not None and (braid := read_braid(raw) or raw is not d and read_braid(d)):
            self.braid_evaluations += 1
            p = hecke_homfly(*braid)
        elif not d.is_connected():
            # a split raw has a split simplified form; d's pieces admit no move
            split_raw = raw is not None and not raw.is_connected()
            whole = raw if split_raw else d
            pieces = whole.split_pieces()
            p = delta_factor() ** (len(pieces) + whole.free_loops - 1)
            for piece in pieces:
                p = p * self._eval(piece.simplify() if split_raw else piece,
                                   None if raw is None else piece)
        elif (i := choose_skein_crossing(d)) is None:
            p = _descending_value(d)
        elif isinstance(i, tuple):
            # a layered component lifts off: the split branch gives delta
            p = self._eval(_WorkingList(d, i, smooth=False))
        else:
            self.expansions += 1
            p = _skein_step(d.crossings[i].sign, self._eval(_WorkingList(d, switch=i)),
                            self._eval(_WorkingList(d, (i,))))
        self.cache[code] = p
        return p

    # -- persistent cache ----------------------------------------------------

    def load_cache(self, path):
        """Check every record of a cache file and return the record count.
        The file is read whole and checked in one pass; only when that
        fails is the first line not in the written form located, and it
        raises ParseError naming path:line.  A missing file in an existing
        directory holds no records; one that cannot be opened or read,
        such as a file in a missing directory, raises CacheIOError.
        The records join the engine's map of filed codes, and a record's
        polynomial is decoded on a lookup of its code that misses the
        cache: entries already in memory take precedence over the file's."""
        records = _read_cache_records(path)
        self._filed.update(records)
        return len(records)

    def flush_cache(self, path):
        """Append the entries whose codes were neither loaded from nor
        flushed to a cache file before; returns how many."""
        new = {k: v for k, v in self.cache.items() if k not in self._filed}
        if new:
            append_cache_file(path, new)
            self._filed.update(dict.fromkeys(new))
        return len(new)


# -- independent oracle and full resolution trace ---------------------------


def naive_homfly(d: Diagram, limit=DEFAULT_ORACLE_LIMIT) -> LaurentPoly2:
    """Same value as HomflyEngine.homfly, computed with no cache, no
    simplification and no split shortcut; diagrams of more than limit
    crossings, or too deep for the recursion limit, raise TooLargeError."""
    return _guarded(d, lambda: _naive(d), limit, "oracle")


def _naive(d: Diagram) -> LaurentPoly2:
    i = _least_label_crossing(d)
    if i is None:
        return _descending_value(d)
    return _skein_step(d.crossings[i].sign, _naive(d.switch_crossing(i)),
                       _naive(d.smooth_crossing(i)))


def skein_trace(d: Diagram, limit=DEFAULT_TRACE_LIMIT) -> "SkeinTrace":
    """Materialized resolution tree (uncached, unsimplified), with the
    polynomial and its z-degree M recorded at every node, and a node
    flagged as a cancellation when its M is below max(M(switched),
    M(smoothed) + 1); diagrams of more than limit crossings, too deep for
    the recursion limit or with a tree of more than TRACE_NODE_LIMIT nodes
    raise TooLargeError."""
    trace = SkeinTrace()
    # nodes are appended in preorder, so the root is node 0
    _guarded(d, lambda: _trace(d, "ROOT", 0, trace), limit, "trace")
    trace.stats = {
        "nodes": len(trace.nodes),
        "cancellations": sum(1 for n in trace.nodes if n.cancellation),
        "max_depth": max(n.depth for n in trace.nodes),
    }
    return trace


def _trace(d, role, depth, trace):
    node_id = len(trace.nodes)
    if node_id == TRACE_NODE_LIMIT:
        raise TooLargeError(f"skein tree passes {TRACE_NODE_LIMIT} nodes")
    i = _least_label_crossing(d)
    if i is None:
        node = SkeinNode(id=node_id, role="BASE_UNLINK", chosen_crossing=None,
                         poly=_descending_value(d), depth=depth)
        trace.nodes.append(node)
        return node_id
    node = SkeinNode(id=node_id, role=role, chosen_crossing=i, poly=None, depth=depth)
    trace.nodes.append(node)
    node.switched_child = _trace(d.switch_crossing(i), "SWITCHED_CHILD", depth + 1, trace)
    node.smoothed_child = _trace(d.smooth_crossing(i), "SMOOTHED_CHILD", depth + 1, trace)
    node.sign = d.crossings[i].sign
    sw, sm = trace.nodes[node.switched_child], trace.nodes[node.smoothed_child]
    node.poly = _skein_step(node.sign, sw.poly, sm.poly)
    # the two contributions have top z-degrees M(switched) and M(smoothed) + 1;
    # no M is None, since every link has P(v, v^-1 - v) = 1 and so a nonzero P
    node.cancellation = node.m < max(sw.m, sm.m + 1)
    return node_id


@dataclass
class SkeinNode:
    id: int
    role: str
    chosen_crossing: int | None
    poly: LaurentPoly2 | None
    depth: int = 0
    sign: int = 0
    switched_child: int | None = None
    smoothed_child: int | None = None
    cancellation: bool = False

    @property
    def m(self):
        """The top z-degree of poly, which a finished node holds: an int, as
        no link has a zero polynomial."""
        return self.poly.maxdeg_z()


@dataclass
class SkeinTrace:
    nodes: list = field(default_factory=list)
    root: int = 0
    stats: dict = field(default_factory=dict)

    def to_json_obj(self):
        return {
            "stats": self.stats,
            "cancellations": [n.id for n in self.nodes if n.cancellation],
            "nodes": [
                {
                    "id": n.id,
                    "role": n.role,
                    "m": n.m,
                    "chosen_crossing": n.chosen_crossing,
                    "switch": n.switched_child,
                    "smooth": n.smoothed_child,
                    "cancellation": n.cancellation,
                }
                for n in self.nodes
            ],
        }


def trace_to_dot(trace: SkeinTrace) -> str:
    """DOT digraph of a resolution tree; cancellation nodes filled red."""
    lines = ["digraph skein {", '  node [shape=box];']
    for node in trace.nodes:
        extra = ' style=filled fillcolor=red' if node.cancellation else ""
        lines.append(f'  n{node.id} [label="m={node.m}"{extra}];')
    for node in trace.nodes:
        if node.chosen_crossing is None:
            continue
        lines.append(f'  n{node.id} -> n{node.switched_child} [label="switch"];')
        lines.append(f'  n{node.id} -> n{node.smoothed_child} [label="smooth"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- persistent cache file format: one JSON record per line ----------------

# The one record form of a cache file: no spaces, keys in the written
# order, lowercase hex, integers without leading zeros, quoted coefficients.
# _RECORD reads it and _RECORD_FORM writes it.  The pattern matches a whole
# line, with the ASCII whitespace that bytes.strip removes allowed around the
# record, so one findall checks a whole file.  Its quantifiers are
# possessive (Python 3.11, the floor pyproject.toml declares): each run is
# followed by a byte it cannot take, so no verdict changes, and a findall
# over a file takes about two thirds of the time of plain quantifiers.
# An odd-length code passes the pattern and fails unhexlify.  Digit runs
# stop at 640, the least limit accepted by sys.set_int_max_str_digits, so
# int() takes each one whatever the limit.
_INT = r"-?+(?:0|[1-9][0-9]{0,639}+)"
_TERM = rf'\{{"ev":{_INT},"ez":{_INT},"c":"-?+[0-9]{{1,640}}+"\}}'
_RECORD = re.compile(
    rf'^[ \t\r\v\f]*+\{{"code":"([0-9a-f]*+)","poly":(\[(?:{_TERM}(?:,{_TERM})*+)?\])\}}'
    rf'[ \t\r\v\f]*+$'.encode(), re.MULTILINE)
_RECORD_FORM = '{"code":"%s","poly":%s}\n'


def _read_cache_records(path):
    """Polynomial JSON bytes keyed by code for every record of a cache file
    (later records win); a missing file in an existing directory has none.
    The file is read whole and checked in one pass: it is valid when every
    non-blank line is a record, that is when the records found are as many
    as its whitespace-separated words, since a record holds no whitespace.
    Only otherwise are the lines scanned one by one, and the first that is
    neither blank nor in the written form raises ParseError naming
    path:line.  A file that cannot be opened or read, a missing one in a
    missing directory included, raises CacheIOError: a flush could not
    create it, so the run stops before its engine work."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        if isinstance(exc, FileNotFoundError) and os.path.isdir(os.path.dirname(path) or "."):
            return {}
        raise CacheIOError(f"cannot read cache {path}: {exc}") from exc
    words = len(data.split())  # before findall: the word list is freed first
    records = _RECORD.findall(data)
    if len(records) == words:
        try:
            return {binascii.unhexlify(code): poly for code, poly in records}
        except binascii.Error:  # a code of odd length
            pass
    # some line is bad: name the first
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        m = _RECORD.fullmatch(line)
        if line.strip() and (m is None or len(m[1]) % 2):
            raise ParseError(f"{path}:{lineno}: bad cache record")


def append_cache_file(path, entries):
    """Append one record per entry, in one write; a file that cannot be
    written raises CacheIOError."""
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("".join([_RECORD_FORM % (code.hex(), poly.to_json())
                              for code, poly in entries.items()]))
    except OSError as exc:
        raise CacheIOError(f"cannot write cache {path}: {exc}") from exc
