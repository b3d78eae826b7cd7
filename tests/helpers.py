"""Shared test utilities: deterministic corpora of braid closures,
relabelled, reordered or mirrored variants, and the engine's skein route."""

from __future__ import annotations

import random

from mortonlab.diagram import Crossing, Diagram
from mortonlab.family import braid_closure
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
    return Diagram([Crossing(x.over_in, x.over_out, x.a, x.c, -x.sign) for x in d.crossings],
                   d.free_loops)


def skein_homfly(engine, d):
    """P by the engine's cached skein route alone, bypassing the Hecke
    route that HomflyEngine.homfly takes for closed braids."""
    return _guarded(d, lambda: engine._eval(d.simplify()))
