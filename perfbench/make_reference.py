"""Regenerate perfbench/reference.json: digests of the exact polynomial of
every catalogue presentation a seed can pick (unmirrored; mirrored items are
checked through the mirror law).

    python3 perfbench/make_reference.py

Only rerun this when the catalogue in inputs.py changes; the point of the
file is that later versions of the engine must reproduce it.
"""

from __future__ import annotations

import json
import sys

import workloads  # sets up sys.path
from checks import REFERENCE_PATH, poly_digest
from inputs import BRAID_CATALOGUE, DOUBLE_SLOTS, FAMILY_BRAIDS, TORUS_45, braid_pd


def main():
    diagram, homfly, family = workloads.lib("diagram"), workloads.lib("homfly"), workloads.lib("family")
    knots = workloads.load_knots()

    def digest(pd):
        return poly_digest(homfly.HomflyEngine().homfly(diagram.parse_pd(pd)))

    items = {"torus45": digest(braid_pd(TORUS_45)),
             "double/4_1/+1/0": digest(family.whitehead_double(knots["4_1"], 1, 0).serialize())}
    for knot, twists in DOUBLE_SLOTS:
        for clasp in (1, -1):
            for tw in sorted({twists, -twists}):
                pd = family.whitehead_double(knots[knot], clasp, tw).serialize()
                items[f"double/{knot}/{clasp:+d}/{tw}"] = digest(pd)
    for key, word in BRAID_CATALOGUE:
        items[f"braid/{key}"] = digest(braid_pd(word))

    bases = {}
    for clasp in (1, -1):
        for tw in (0, 1, -1):
            pd = family.whitehead_double(knots["3_1"], clasp, tw).serialize()
            bases[f"family/double/3_1/{clasp:+d}/{tw}"] = pd
    for key, word in FAMILY_BRAIDS:
        bases[f"family/braid/{key}"] = braid_pd(word)
    fam = {}
    for ref, pd in bases.items():
        d = diagram.parse_pd(pd)
        crossing = workloads.first_eligible_crossing(d)
        engine = homfly.HomflyEngine()
        fam[ref] = [poly_digest(engine.homfly(family.insert_parallel_bands(d, crossing, n)))
                    for n in range(workloads.N_MAX + 1)]
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"items": items, "family": fam}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(items)} item and {len(fam)} family references to {REFERENCE_PATH}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
