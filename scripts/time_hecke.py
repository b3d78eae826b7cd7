#!/usr/bin/env python3
"""Time the Hecke trace (braid.hecke_homfly) alone, in CPU time.

Prints three tables:
1. the median time.process_time per trace, in steady state, over seeded
   random words for each strand count 4-7 and word length 6, 12, 20, 30
   and 48 letters;
2. the torus knots T(n, n+1) for n = 5-7: the first call, each in a fresh
   interpreter, and the steady-state median;
3. the one-time cost of the dense state's tables (braid._tables) for each
   strand count, each in a fresh interpreter; "-" where the trace builds
   no tables.

Usage:  PYTHONPATH=src python scripts/time_hecke.py [--words N] [--rounds R] [--seed S]
"""

import argparse
import os
import random
import statistics
import subprocess
import sys
import time

from mortonlab.braid import hecke_homfly

STRANDS = (4, 5, 6, 7)
LETTERS = (6, 12, 20, 30, 48)
TORUS = (5, 6, 7)

# run in a fresh interpreter: the CPU time of one call of a named trace
FIRST_CALL = """
import sys, time
from mortonlab import braid
n, what = int(sys.argv[1]), sys.argv[2]
call = {"torus": lambda: braid.hecke_homfly(tuple(range(1, n)) * (n + 1), n),
        "tables": lambda: braid._tables(n)}[what]
t0 = time.process_time()
call()
print(time.process_time() - t0)
"""


def words(strands, letters, count, rng):
    """count seeded random words of letters letters on strands strands."""
    return [tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(letters))
            for _ in range(count)]


def median_ms(calls, rounds):
    """The median CPU time of the calls over rounds rounds, in ms, after
    one untimed round."""
    for call in calls:
        call()
    samples = []
    for _ in range(rounds):
        for call in calls:
            t0 = time.process_time()
            call()
            samples.append(time.process_time() - t0)
    return 1000 * statistics.median(samples)


def fresh_ms(strands, what):
    """The CPU time of FIRST_CALL in a new interpreter, in ms."""
    out = subprocess.run([sys.executable, "-c", FIRST_CALL, str(strands), what],
                         capture_output=True, text=True, env=os.environ, check=False)
    return 1000 * float(out.stdout) if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--words", type=int, default=20, help="words per cell (default 20)")
    ap.add_argument("--rounds", type=int, default=5, help="timed rounds per cell (default 5)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    print(f"median CPU ms per trace, {args.words} seeded words x {args.rounds} rounds")
    print("strands " + "".join(f"{n:>9}" for n in LETTERS))
    for strands in STRANDS:
        cells = []
        for letters in LETTERS:
            calls = [lambda w=w: hecke_homfly(w, strands)
                     for w in words(strands, letters, args.words, rng)]
            cells.append(median_ms(calls, args.rounds))
        print(f"{strands:>7} " + "".join(f"{ms:>9.3f}" for ms in cells))

    print("\nT(n, n+1): CPU ms, first call in a fresh interpreter and steady-state median")
    for n in TORUS:
        word = tuple(range(1, n)) * (n + 1)
        steady = median_ms([lambda: hecke_homfly(word, n)], args.rounds * 4)
        print(f"T({n},{n + 1})  first {fresh_ms(n, 'torus'):9.3f}  steady {steady:9.3f}")

    print("\ndense tables: one-time CPU ms per strand count, in a fresh interpreter")
    for n in range(1, max(STRANDS) + 1):
        ms = fresh_ms(n, "tables")
        print(f"{n:>7}  " + ("-" if ms is None else f"{ms:9.3f}"))


if __name__ == "__main__":
    main()
