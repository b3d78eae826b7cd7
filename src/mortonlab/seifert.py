"""Seifert circles and the genus of the canonical surface of a diagram.

Smoothing every crossing of an oriented diagram (reconnecting the four
ends by orientation) leaves disjoint circles in the plane; the circles
bound disks that the crossings stitch back together as half-twisted
bands.  For a connected diagram with c crossings, s circles and mu link
components the resulting surface has Euler characteristic s - c and
genus (2 - mu - s + c) / 2.  On the sphere the two arcs of a smoothed
crossing lie on distinct circles, as the region that holds the crossing
lies right of one and left of the other, so every crossing is a band
between two disks.

The circles are computed directly on the original edge set: under-in
joins over-out and over-in joins under-out at every crossing, so the
circle partition is the cycle structure of that substitute successor
map.  The circles are computed once per diagram and stored on it, and a
decomposition builds its crossing_joins only when they are first read:
the circle count and genus need neither.
"""

from __future__ import annotations

from enum import Enum

from .diagram import Diagram, _permutation_cycles
from .errors import DisconnectedError

__all__ = [
    "CrossingClass",
    "SeifertDecomposition",
    "seifert_circles",
    "diagram_genus",
    "surface_genus",
    "classify_crossing",
]


class CrossingClass(Enum):
    JOINS_DISTINCT = "JOINS_DISTINCT"


class SeifertDecomposition:
    """The circle count and diagram genus of a connected diagram, and
    crossing_joins: for each crossing, the sorted pair of the circle
    indices of its two smoothed arcs.  crossing_joins may be given as a
    function of no arguments, called when the field is first read.
    Equality, hash and repr are over the three values."""

    __slots__ = ("num_circles", "diagram_genus", "_joins")

    def __init__(self, num_circles, diagram_genus, crossing_joins):
        self.num_circles = num_circles
        self.diagram_genus = diagram_genus
        self._joins = crossing_joins

    @property
    def crossing_joins(self):
        if callable(self._joins):
            self._joins = self._joins()
        return self._joins

    def _values(self):
        return self.num_circles, self.diagram_genus, self.crossing_joins

    def __eq__(self, other):
        if type(other) is not SeifertDecomposition:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return ("SeifertDecomposition(num_circles=%r, diagram_genus=%r, crossing_joins=%r)"
                % self._values())


def seifert_circles(d: Diagram) -> SeifertDecomposition:
    """Seifert decomposition of a connected diagram; its crossing_joins
    are built on first read."""
    if not d.is_connected():
        raise DisconnectedError("Seifert decomposition requires a connected diagram")
    n = len(d.crossings)
    if n == 0:
        return SeifertDecomposition(1, 0, ())

    circles, circle_of = _seifert_cycles(d)

    def joins():
        return tuple(tuple(sorted((circle_of[x.a], circle_of[x.c]))) for x in d.crossings)

    s = len(circles)
    return SeifertDecomposition(s, surface_genus(n, s, d.num_components()), joins)


def surface_genus(c: int, s: int, mu: int) -> int:
    """(2 - mu - s + c) / 2, the genus of the canonical surface of a
    connected diagram with c crossings, s circles and mu components;
    RuntimeError when the numerator is odd."""
    chi_defect = 2 - mu - s + c
    if chi_defect % 2:
        raise RuntimeError(f"parity violation: c={c} s={s} mu={mu}")
    return chi_defect // 2


def _seifert_cycles(d: Diagram):
    """The Seifert circles of diagram d, as the cycles of the substitute
    successor map (under-in -> over-out, over-in -> under-out), and the
    list indexed by label of each label's circle; computed once and
    stored on d."""
    if d._seifert is None:
        succ = {}
        for a, c, o_in, o_out, _ in d.crossings:
            succ[a], succ[o_in] = o_out, c
        d._seifert = _permutation_cycles(succ, 2 * len(d.crossings))
    return d._seifert


def diagram_genus(d: Diagram) -> int:
    """Genus of the canonical Seifert surface built from this diagram."""
    return seifert_circles(d).diagram_genus


def classify_crossing(dec: SeifertDecomposition, i: int) -> CrossingClass:
    """JOINS_DISTINCT: the two smoothed arcs at crossing i lie on different
    Seifert circles, as at every crossing of a diagram on the sphere, so
    the crossing is a band between two disks and is eligible for
    parallel-band multiplication."""
    if not 0 <= i < len(dec.crossing_joins):
        raise IndexError(f"crossing index {i} out of range")
    return CrossingClass.JOINS_DISTINCT
