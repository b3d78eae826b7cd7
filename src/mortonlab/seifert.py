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
map.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class SeifertDecomposition:
    num_circles: int
    diagram_genus: int
    crossing_joins: tuple


def seifert_circles(d: Diagram) -> SeifertDecomposition:
    """Seifert decomposition of a connected diagram."""
    if not d.is_connected():
        raise DisconnectedError("Seifert decomposition requires a connected diagram")
    n = len(d.crossings)
    if n == 0:
        return SeifertDecomposition(1, 0, ())

    circles, circle_of = _seifert_cycles(d.crossings)

    joins = tuple(
        tuple(sorted((circle_of[x.a], circle_of[x.c]))) for x in d.crossings
    )
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


def _seifert_cycles(crossings):
    """The Seifert circles of crossings labelled 1..2c, as the cycles of the
    substitute successor map (under-in -> over-out, over-in -> under-out),
    and the list indexed by label of each label's circle."""
    succ = {}
    for a, c, o_in, o_out, _ in crossings:
        succ[a], succ[o_in] = o_out, c
    return _permutation_cycles(succ, 2 * len(crossings))


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
