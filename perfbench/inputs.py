"""Seeded benchmark inputs: PD text for closed braids and Whitehead doubles.

The program only ever sees what this module produces: PD strings, knot-table
rows and CLI argument lists.  Braid closures are written here as PD text (the
library has no public braid-closure function and the benchmark does not import from
``tests/`` or ``scripts/``); doubles come from the public ``whitehead_double``
over the bundled ``tests/data/small_knots.csv``.

A seed picks a presentation of each catalogue entry, never a different
catalogue: cold braid words are conjugated (cyclically rotated) and
mirrored, twisted doubles get their clasp and twist signs, family bases get their PD
spelling.  Conjugates and mirror images change the labels the engine's skein
choices depend on and so the work done, while every item keeps a stored
reference polynomial and a run's total work stays close to the same size
for every seed.  Random knots would not: single 15-crossing braid closures
range from 0 to 2,000 skein expansions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

KNOT_TABLE = "tests/data/small_knots.csv"

# T(4,5): 15 crossings, 1,822 expansions cold.
TORUS_45 = (1, 2, 3) * 5

# 4-braid words of 14-16 crossings: knots (k), links (l) and split links
# (s).  Homogeneous (each generator keeps one sign) and each generator used
# at least twice, so no Reidemeister I/II move applies.  s1 never uses
# generator 2 and splits into two 2-braid closures; s2 leaves strand 4
# untouched, which closes into a free loop.
BRAID_CATALOGUE = (
    ("k1", (1, 2, 2, 2, 2, 3, 1, 3, 3, 2, 2, 1, 3, 3, 2)),
    ("k2", (1, -3, 1, 1, -2, 1, 1, -2, 1, 1, -2, -3, 1, -3, 1)),
    ("k3", (1, 1, -2, -2, 3, 3, 1, 3, -2, -2, -2, -2, -2, 1, -2)),
    ("k4", (-2, -2, -1, -3, -2, -1, -1, -1, -3, -3, -1, -1, -2, -3, -2)),
    ("l1", (3, 2, -1, -1, 2, 3, 3, -1, 3, 2, 3, 3, 2, 2)),
    ("l2", (-2, -2, -1, 3, -1, 3, -2, -1, -2, -2, 3, 3, -1, -1, -1)),
    ("s1", (1, 1, 3, 1, 3, 3, 1, 3, 3, 1, 1, 3, 1, 3, 1, 3)),
    ("s2", (1, 2, 1, 2, 2, 1, 2, 1, 1, 2, 2, 1, 2, 1)),
)

# Blackboard doubles for cold-homfly: (table knot, |twists|), 22-26
# crossings; the seed picks the twisted doubles' clasp and twist signs, which
# leave their work almost unchanged.  The untwisted W(5_1) keeps clasp +1:
# its clasp moves its time by a fifth, and it is the middle item of a pass,
# so flipping it decided item_norm_p50_ms.  Doubles of 5_2 and of the
# 6-crossing knots take 1.3-11 s each cold and W(8_19) takes 204 s
# (scripts/stretch_whitehead_819.py), so they would dominate a run.
DOUBLE_SLOTS = (("3_1", 4), ("3_1", 5), ("3_1", 6), ("4_1", 2), ("5_1", 0), ("5_1", 1))

# Family-audit bases besides W(3_1) and W(3_1) with one twist: 13-crossing
# homogeneous 4-braid knots, plus the 9-crossing f0 whose rows n = 0..2 are
# small enough for the naive oracle.  W(4_1) is left out: one audit of it
# takes 2-3.5 s, as long as a whole pass of the others.
FAMILY_BRAIDS = (
    ("f0", (1, -2, 3) * 3),
    ("f1", (-1, 3, -2, 3, 3, -1, -1, -2, -2, -1, -1, 3, 3)),
    ("f2", (1, 3, 2, 1, 3, 3, 2, 2, 2, 3, 2, 2, 3)),
    ("f3", (-2, 3, 1, 3, 3, -2, -2, 3, 1, 3, 1, 1, 1)),
    ("f4", (-2, -3, -2, 1, 1, -2, -3, 1, -2, 1, -3, 1, 1)),
    ("f5", (3, 1, -2, 3, -2, 3, 1, 3, 1, -2, 3, 1, 1)),
    ("f6", (-3, -3, -1, -2, -3, -1, -1, -2, -1, -3, -2, -3, -3)),
    ("f7", (-1, -2, -2, -2, -3, -1, -1, -1, -2, -3, -1, -2, -2)),
    ("f8", (2, 3, 3, 2, 3, 2, 2, -1, -1, 2, -1, 3, 3)),
)


@dataclass(frozen=True)
class Item:
    """One benchmark input.

    ``ref`` names the stored reference for the unmirrored presentation;
    ``mirrored`` says the expected polynomial is the reference under
    (v, z) -> (v^-1, -z).
    """

    name: str
    pd: str
    ref: str
    mirrored: bool = False


def braid_pd(word, strands=4):
    """PD text of the closure of a braid word.

    Letter +i crosses strand positions i-1 and i with the left strand over,
    -i with the right strand over.  Labels are 1..2c in traversal order;
    strand positions no letter touches close into ``O`` free loops.
    """
    if not word or any(g == 0 or abs(g) >= strands for g in word):
        raise ValueError(f"braid letters must be nonzero with |g| < {strands}")
    cur = [("s", j) for j in range(strands)]
    raw = []  # (a, b, c, d, over_in, over_out)
    for t, g in enumerate(word):
        p = abs(g) - 1
        x, y = cur[p], cur[p + 1]
        u, v = ("e", t, 0), ("e", t, 1)  # u continues x at p+1, v continues y at p
        if g > 0:
            raw.append((y, u, v, x, x, u))
        else:
            raw.append((x, y, u, v, y, v))
        cur[p], cur[p + 1] = v, u
    close = {cur[j]: ("s", j) for j in range(strands) if cur[j] != ("s", j)}
    free = strands - len(close)
    xs = [tuple(close.get(e, e) for e in x) for x in raw]
    succ = {}
    for a, _, c, _, oi, oo in xs:
        succ[a] = c
        succ[oi] = oo
    label = {}
    for x in xs:
        for e in x[:4]:
            while e not in label:
                label[e] = len(label) + 1
                e = succ[e]
    terms = ["X[%d,%d,%d,%d]" % tuple(label[e] for e in x[:4]) for x in xs]
    return " ".join(terms + ["O"] * free)


def cold_items(seed, knots):
    """Items of the cold-homfly and warm-replay workloads.

    ``knots`` maps table names to Diagrams.  The anchors T(4,5) and W(4_1)
    are the same for every seed.
    """
    from mortonlab.family import whitehead_double

    rng = random.Random(f"cold-homfly:{seed}")
    items = [
        Item("T(4,5)", braid_pd(TORUS_45), "torus45"),
        Item("W(4_1)", whitehead_double(knots["4_1"], 1, 0).serialize(), "double/4_1/+1/0"),
    ]
    for knot, twists in DOUBLE_SLOTS:
        clasp = rng.choice((1, -1)) if twists else 1
        tw = twists * rng.choice((1, -1))
        items.append(Item(f"W({knot},{clasp:+d},{tw})",
                          whitehead_double(knots[knot], clasp, tw).serialize(),
                          f"double/{knot}/{clasp:+d}/{tw}"))
    for key, word in BRAID_CATALOGUE:
        k = rng.randrange(len(word))
        mirrored = rng.random() < 0.5
        w = word[k:] + word[:k]
        if mirrored:
            w = tuple(-g for g in w)
        items.append(Item(f"braid/{key}/r{k}{'/m' if mirrored else ''}",
                          braid_pd(w), f"braid/{key}", mirrored))
    return items


def _pd_style(pd, style):
    """The same PD code in one of the spellings parse_pd accepts."""
    terms = pd.split()
    if style == 1:
        return "PD[" + ", ".join(terms) + "]"
    if style == 2:
        return ",".join(terms)
    return pd


def family_bases(seed, knots):
    """Bases of the family-audit workload, in catalogue order.

    The seed picks the twisted double's clasp and twist signs (its work is
    the same for all four) and each base's PD spelling.  Mirroring or
    reordering the bases, or flipping the untwisted double's clasp, would
    move the median audit by up to 31% in expansions (the engine is shared,
    so order decides who computes shared sub-diagrams), so none varies.
    """
    from mortonlab.family import whitehead_double

    rng = random.Random(f"family-audit:{seed}")
    bases = []
    for clasp, tw in ((1, 0), (rng.choice((1, -1)), rng.choice((1, -1)))):
        pd = whitehead_double(knots["3_1"], clasp, tw).serialize()
        bases.append(Item(f"W(3_1,{clasp:+d},{tw})", _pd_style(pd, rng.randrange(3)),
                          f"family/double/3_1/{clasp:+d}/{tw}"))
    for key, word in FAMILY_BRAIDS:
        bases.append(Item(f"braid/{key}", _pd_style(braid_pd(word), rng.randrange(3)),
                          f"family/braid/{key}"))
    return bases
