"""Shared test utilities: deterministic corpora of braid closures,
relabelled, reordered or mirrored variants, and the engine's skein route."""

from __future__ import annotations

import random

from mortonlab.diagram import Crossing, Diagram, parse_pd
from mortonlab.family import braid_closure, whitehead_double
from mortonlab.homfly import _guarded


def random_braid_diagrams(count, seed, max_strands=4, max_len=7, max_crossings=7):
    """Deterministic corpus of valid closed-braid diagrams (knots and links)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        strands = rng.randint(2, max_strands)
        length = rng.randint(1, max_len)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length)]
        d = braid_closure(word, strands)
        if 0 < len(d.crossings) <= max_crossings:
            out.append(d)
    return out


def random_relabeling(d, rng):
    """Random edge-label bijection applied to a diagram."""
    n2 = 2 * len(d.crossings)
    perm = list(range(1, n2 + 1))
    rng.shuffle(perm)
    return d.relabel({i + 1: perm[i] for i in range(n2)})


def shuffled_crossings(d, rng):
    """Same diagram with the crossing list reordered."""
    xs = list(d.crossings)
    rng.shuffle(xs)
    return Diagram(xs, d.free_loops)


def mirrored(d):
    """The mirror image: every crossing switched."""
    return Diagram([x.switched() for x in d.crossings], d.free_loops)


# not a closed braid; its simplified form is split
SPLIT_WHEN_SIMPLIFIED_PD = "X[12,1,3,2] X[11,1,12,2] X[7,7,8,6] X[5,11,6,10] X[9,5,10,4] X[3,9,4,8]"


def trefoil_beside_its_double():
    """The trefoil closure of sigma_1^3 beside W(3_1), the double's labels
    shifted by 6: a split root with a braid piece and a skein piece."""
    double = whitehead_double(parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"))
    shifted = [Crossing(*(label + 6 for label in x[:4]), x.sign) for x in double.crossings]
    return Diagram(list(braid_closure([1, 1, 1], 2).crossings) + shifted)


def skein_homfly(engine, d):
    """P by the engine's cached skein route alone: _eval given no raw
    diagram reads no braid, so the Hecke route that HomflyEngine.homfly
    takes for closed braids is bypassed."""
    return _guarded(d, lambda: engine._eval(d.simplify()))
