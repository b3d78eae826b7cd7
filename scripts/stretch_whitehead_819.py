#!/usr/bin/env python3
"""Stretch run (not an acceptance gate): z-degree of the HOMFLY of the
blackboard Whitehead double of 8_19 = T(3,4).

The double's canonical surface gives g_c(W) <= 8, and the degree bound
gives g_c(W) >= M/2.  If M < 2 * c(8_19) = 16 then at least one of
"degree bound strict for W" / "g_c(W) < c(K)" must hold; this run pins
the computed M so the dichotomy is explicit.  Takes about 0.55 s of CPU
and 1,943 skein expansions on a 2-vCPU host; pass a cache path to make
reruns instant.

Usage:  python scripts/stretch_whitehead_819.py [cache.jsonl]
"""

import sys
import time

from mortonlab.family import braid_closure, whitehead_double
from mortonlab.homfly import HomflyEngine
from mortonlab.seifert import diagram_genus


def main():
    engine = HomflyEngine()
    cache_path = sys.argv[1] if len(sys.argv) > 1 else None
    if cache_path:
        print(f"loaded {engine.load_cache(cache_path)} cache entries")

    t34 = braid_closure([1, 2] * 4, 3)
    w = whitehead_double(t34, clasp_sign=1)
    print(f"W(8_19): {len(w.crossings)} crossings, diagram genus {diagram_genus(w)}")

    t0 = time.process_time()
    p = engine.homfly(w)
    m = p.maxdeg_z()
    print(f"computed in {time.process_time() - t0:.2f}s of CPU ({engine.expansions} expansions)")
    print(f"M(W(8_19)) = {m}")
    print(f"2*c(8_19) = 16; diagram-level bound 2*g = {2 * diagram_genus(w)}")
    if m < 16:
        print("M < 2*c(K): either the degree bound is strict for W(8_19) or "
              "g_c(W(8_19)) < c(8_19); this computation alone cannot decide which.")
    print("P(W(8_19)) =", p.pretty())
    if cache_path:
        print(f"appended {engine.flush_cache(cache_path)} cache entries")


if __name__ == "__main__":
    main()
