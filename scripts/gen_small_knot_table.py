#!/usr/bin/env python3
"""Generate tests/data/small_knots.csv: PD codes for every knot with at
most 7 crossings.

Every such knot is two-bridge, so it has a 4-plat diagram whose twist
regions are read off a continued fraction; enumerating all compositions
(a1, ..., ak) of n <= 7, over both handedness conventions per region
kind, sweeps them all.  Candidates are identified by their Alexander
polynomial, which separates all knots in this range (including the
unknot and the <= 7-crossing composites), and a diagram drawn at the
knot's own minimal crossing number plus the polynomial match pins the
knot up to mirror image.

Run from the repository root:  python scripts/gen_small_knot_table.py
"""

import csv
import itertools
import os

from mortonlab.family import two_bridge_plat
from mortonlab.homfly import HomflyEngine
from mortonlab.poly import LaurentPoly1, alexander_specialize

CROSSING_NUMBER = {name: int(name.split("_")[0]) for name in (
    "3_1 4_1 5_1 5_2 6_1 6_2 6_3 7_1 7_2 7_3 7_4 7_5 7_6 7_7".split()
)}

# classic Alexander polynomials, written in doubled exponents of t^(1/2):
# {2k: coeff} stands for coeff * t^k
KNOWN_ALEXANDER = {
    "3_1": {2: 1, 0: -1, -2: 1},
    "4_1": {2: -1, 0: 3, -2: -1},
    "5_1": {4: 1, 2: -1, 0: 1, -2: -1, -4: 1},
    "5_2": {2: 2, 0: -3, -2: 2},
    "6_1": {2: 2, 0: -5, -2: 2},
    "6_2": {4: -1, 2: 3, 0: -3, -2: 3, -4: -1},
    "6_3": {4: 1, 2: -3, 0: 5, -2: -3, -4: 1},
    "7_1": {6: 1, 4: -1, 2: 1, 0: -1, -2: 1, -4: -1, -6: 1},
    "7_2": {2: 3, 0: -5, -2: 3},
    "7_3": {4: 2, 2: -3, 0: 3, -2: -3, -4: 2},
    "7_4": {2: 4, 0: -7, -2: 4},
    "7_5": {4: 2, 2: -4, 0: 5, -2: -4, -4: 2},
    "7_6": {4: -1, 2: 5, 0: -7, -2: 5, -4: -1},
    "7_7": {4: 1, 2: -5, 0: 9, -2: -5, -4: 1},
}


def normalized_forms(p: LaurentPoly1):
    """All unit multiples +-t^(k/2) p placed symmetrically around 0."""
    span = p.half_degree_span()
    if span is None:
        return [frozenset()]
    lo, hi = span
    shift = -(lo + hi) // 2
    if (lo + hi) % 2:
        raise ValueError("asymmetric span")
    shifted = {e + shift: c for e, c in p.terms.items()}
    return [
        frozenset(shifted.items()),
        frozenset({e: -c for e, c in shifted.items()}.items()),
    ]


def main():
    targets = {}
    for name, terms in KNOWN_ALEXANDER.items():
        for form in normalized_forms(LaurentPoly1(terms)):
            targets[form] = name

    engine = HomflyEngine()
    found = {}
    for total in range(3, 8):
        for k in range(1, total + 1):
            for parts in itertools.product(range(1, total + 1), repeat=k):
                if sum(parts) != total:
                    continue
                for od_mid in (0, 1):
                    for od_side in (0, 1):
                        d = two_bridge_plat(parts, od_mid, od_side)
                        if d.num_components() != 1 or len(d.crossings) != total:
                            continue
                        delta = alexander_specialize(engine.homfly(d))
                        for form in normalized_forms(delta):
                            name = targets.get(form)
                            if (name and name not in found
                                    and CROSSING_NUMBER[name] == len(d.crossings)):
                                found[name] = (parts, d)
    missing = set(KNOWN_ALEXANDER) - set(found)
    if missing:
        raise SystemExit(f"could not realize: {sorted(missing)}")

    out_path = os.path.join(os.path.dirname(__file__), "..", "tests", "data", "small_knots.csv")
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "pd"])
        for name in sorted(found, key=lambda s: (len(s), s)):
            parts, d = found[name]
            writer.writerow([name, d.serialize()])
            print(f"{name}: C{parts} -> c={len(d.crossings)}")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
