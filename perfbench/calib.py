"""Host-speed calibration: a short fixed pure-Python loop timed beside the
work.

On a shared host the speed of a core drifts by up to 2x in phases of
seconds to minutes, and the process's CPU time drifts with it, so raw times
of identical runs minutes apart differ by more than any useful bound.  The
benchmark times a reference loop (CPU time) before every item of a pass and
once after the last, and reports the pass's CPU time scaled to a host on
which the loop takes NOMINAL_S:

    normalised = cpu_s * NOMINAL_S / mean(loop times of the pass)

and each item's CPU time scaled by the loops nearest to it.  Sampled that
densely, the loop follows the host's speed.  Each workload is scaled by the
loop closest to its own work, since the host's load slows different code by
different amounts: "skein" (tuple keys, dict lookups, small frozensets,
function calls, short sorts) for the skein recursion, "json" (reading and
writing JSON records like those of the cache file) for cache replays.
Neither touches the program, and both work in about a tenth of a megabyte,
so a change to the program moves the normalised time by as much as it moves
the raw time.
"""

from __future__ import annotations

import json
import statistics
import time

# loop kind -> (interpreter steps, JSON rounds).  NOMINAL_S only sets the
# unit: a round figure near both loops' CPU time on the shared 2.0 GHz Xeon
# host the benchmark was tuned on (10-20 ms with the host's load).
LOOPS = {"skein": (15_000, 0), "json": (0, 15)}
NOMINAL_S = 0.015
# a set-up is scaled by this many loops timed just after it
SETUP_LOOPS = 10


def _step(table, i):
    key = (i % 13, (i * 7) % 11, i & 3)
    entry = table.get(key)
    if entry is None:
        entry = table[key] = frozenset(key)
    return len(entry) + hash(key) % 3


# about 15 KB of JSON shaped like the cache records the program reads and writes
_DOC = json.dumps([{"key": [i, 3 * i, -i], "terms": {f"{i},{j}": str(i * j) for j in range(6)}}
                   for i in range(120)])


def reference_loop(steps, rounds):
    table, buf, acc = {}, [], 0
    for i in range(steps):
        acc += _step(table, i)
        buf.append((acc & 255, i))
        if len(buf) == 64:
            buf.sort()
            buf.clear()
    for _ in range(rounds):
        records = json.loads(_DOC)
        for rec in records:
            acc += len(rec["terms"]) + rec["key"][1]
        acc += len(json.dumps(records))
    return acc


class Sampler:
    """Call it to time one reference loop of the given kind; keeps the CPU
    time of each loop and the wall and CPU seconds all of them took."""

    def __init__(self, kind):
        self.args = LOOPS[kind]
        self.loops = []
        self.wall_s = 0.0

    def __call__(self):
        w0, c0 = time.perf_counter(), time.process_time()
        reference_loop(*self.args)
        self.loops.append(time.process_time() - c0)
        self.wall_s += time.perf_counter() - w0

    @property
    def cpu_s(self):
        return sum(self.loops)

    def scale(self, k=None):
        """Factor from CPU seconds to normalised seconds: for the whole
        pass, from all its loops, or for item k of a pass, from the two
        loops just before it and the two just after it."""
        loops = self.loops if k is None else self.loops[max(0, k - 1):k + 3]
        return NOMINAL_S / statistics.mean(loops)


def nothing():
    pass
