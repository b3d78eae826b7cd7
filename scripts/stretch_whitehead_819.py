#!/usr/bin/env python3
"""Stretch run (not an acceptance gate): z-degree of the HOMFLY of the
blackboard Whitehead doubles of 8_19 = T(3,4) and of T(3,5) = 10_124.

Each double's canonical surface has genus c(K) (the diagram genus printed),
so g_c(W) <= c(K), and the degree bound gives g_c(W) >= M/2.  If
M < 2 * c(K) then at least one of "degree bound strict for W" /
"g_c(W) < c(K)" must hold; this run pins the computed M of each double so
the dichotomy is explicit: M(W(8_19)) = 14 < 16 and M(W(T(3,5))) = 18 < 20.
Each double is computed by its own cold engine: on a 2-vCPU host W(8_19)
takes about 0.3 s of CPU and 894 skein expansions, W(T(3,5)) about 2.7 s
and 7,508.  Pass a cache path to make reruns instant.

Usage:  python scripts/stretch_whitehead_819.py [cache.jsonl]
"""

import sys
import time

from mortonlab.family import braid_closure, whitehead_double
from mortonlab.homfly import HomflyEngine
from mortonlab.seifert import diagram_genus

# (name, 3-braid word of the positive torus knot, its crossing number)
KNOTS = (("8_19", [1, 2] * 4, 8), ("T(3,5)", [1, 2] * 5, 10))


def main():
    cache_path = sys.argv[1] if len(sys.argv) > 1 else None
    for name, word, c in KNOTS:
        engine = HomflyEngine()
        if cache_path:
            print(f"loaded {engine.load_cache(cache_path)} cache entries")
        w = whitehead_double(braid_closure(word, 3), clasp_sign=1)
        print(f"W({name}): {len(w.crossings)} crossings, diagram genus {diagram_genus(w)}")

        t0 = time.process_time()
        p = engine.homfly(w)
        m = p.maxdeg_z()
        print(f"computed in {time.process_time() - t0:.2f}s of CPU ({engine.expansions} expansions)")
        print(f"M(W({name})) = {m}")
        print(f"2*c({name}) = {2 * c}; diagram-level bound 2*g = {2 * diagram_genus(w)}")
        if m < 2 * c:
            print(f"M < 2*c(K): either the degree bound is strict for W({name}) or "
                  f"g_c(W({name})) < c({name}); this computation alone cannot decide which.")
        print(f"P(W({name})) =", p.pretty())
        if cache_path:
            print(f"appended {engine.flush_cache(cache_path)} cache entries")


if __name__ == "__main__":
    main()
