"""One workload in a fresh interpreter: set up, then (unless the mode is
"setup") run the timed phase, and print one JSON result line.

Usage (started by run.py, not by hand):
    python3 perfbench/workloads.py '{"workload": ..., "seed": ..., "seconds": ...,
                                    "mode": "setup"|"run"|"trace", "work": DIR,
                                    "spans": FILE, "t0": MONOTONIC_START}'

Every workload is a closed loop with one caller: an item starts only after
the previous one returned.  A pass runs every item once; passes repeat
until the run's seconds are spent, at least MIN_PASSES times.  Outputs are
checked after each pass, outside the timed region.  Every item and pass is
timed twice, wall clock and the process's CPU time, and a short
calibration loop (calib.py) is timed before every item and after the last;
the loops are left out of the pass's times.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import os
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402

MIN_PASSES = 3
MAX_TIMED_S = 120
N_MAX = 10

_EXPANSIONS = re.compile(r"^expansions: (\d+)$", re.M)


def lib(name):
    # mortonlab.homfly as an attribute is the function, not the module
    return importlib.import_module(f"mortonlab.{name}")


def load_knots():
    return {e.name: e.diagram for e in lib("cli").load_knot_table(str(ROOT / inputs.KNOT_TABLE))}


def first_eligible_crossing(d):
    """The crossing `verify --crossing auto` picks: the first whose band
    joins two distinct Seifert circles."""
    seifert = lib("seifert")
    dec = seifert.seifert_circles(d)
    return next(i for i in range(len(d.crossings))
                if seifert.classify_crossing(dec, i) is seifert.CrossingClass.JOINS_DISTINCT)


def clocks():
    return time.perf_counter(), time.process_time()


def since(start):
    """(wall, cpu) seconds since ``start``, a value of clocks()."""
    wall, cpu = clocks()
    return wall - start[0], cpu - start[1]


@dataclass
class Outcome:
    item: inputs.Item
    elapsed: tuple  # (wall, cpu) seconds
    output: object = None
    error: str | None = None


class ColdHomfly:
    """Fresh engine per diagram: nothing is shared between items."""

    loop = "skein"  # calibration loop kind, see calib.py

    def __init__(self, seed, work):
        self.items = inputs.cold_items(seed, load_knots())
        self.reference = checks.load_reference()["items"]
        self._checked = set()

    def run_pass(self, between=calib.nothing):
        diagram, homfly = lib("diagram"), lib("homfly")
        outcomes, expansions = [], 0
        for item in self.items:
            between()
            t0 = clocks()
            try:
                engine = homfly.HomflyEngine()
                p = engine.homfly(diagram.parse_pd(item.pd))
            except Exception as exc:  # counted as a failed item
                outcomes.append(Outcome(item, since(t0), error=repr(exc)))
                continue
            outcomes.append(Outcome(item, since(t0), p))
            expansions += engine.expansions
        return outcomes, expansions

    def check(self, o):
        key = (o.item.name, checks.poly_digest(o.output))
        if key in self._checked:
            return []
        d = lib("diagram").parse_pd(o.item.pd)
        fails = checks.check_reference(o.item, o.output, self.reference.get(o.item.ref))
        fails += checks.check_invariants(o.item.name, d, o.output)
        if not fails:
            self._checked.add(key)
        return fails


class FamilyAudit:
    """One engine shared by every audit of a pass (fresh per pass, so passes
    repeat the same work); each audit ends by flushing the engine's new
    cache entries to a fresh file."""

    loop = "skein"

    def __init__(self, seed, work):
        self.work = work
        self.bases = []
        for base in inputs.family_bases(seed, load_knots()):
            d = lib("diagram").parse_pd(base.pd)
            genus = lib("seifert").diagram_genus(d)
            self.bases.append((base, first_eligible_crossing(d), genus))
        self.items = [b for b, _, _ in self.bases]
        self.reference = checks.load_reference()["family"]
        self._checked = set()
        self._pass = 0

    def run_pass(self, between=calib.nothing):
        diagram, homfly, morton, family = lib("diagram"), lib("homfly"), lib("morton"), lib("family")
        self._pass += 1
        engine = homfly.HomflyEngine()
        outcomes = []
        for k, (base, crossing, genus) in enumerate(self.bases):
            between()
            path = os.path.join(self.work, f"audit-{self._pass}-{k}.jsonl")
            t0 = clocks()
            try:
                d = diagram.parse_pd(base.pd)
                report = morton.verify_theorem_family(
                    family.FamilySpec(d, crossing, []), gc_claimed=genus, n_max=N_MAX,
                    engine=engine, base_name=base.name)
                flushed = engine.flush_cache(path)
            except Exception as exc:  # counted as a failed item
                outcomes.append(Outcome(base, since(t0), error=repr(exc)))
                continue
            outcomes.append(Outcome(base, since(t0),
                                    (d, crossing, report, flushed, path, engine)))
        return outcomes, engine.expansions

    def check(self, o):
        d, crossing, report, flushed, path, engine = o.output
        with open(path, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        os.remove(path)
        fails = []
        if lines != flushed:
            fails.append(f"{o.item.name}: flush reported {flushed} records, file has {lines}")
        key = (o.item.name, json.dumps(report.to_json_obj(), sort_keys=True))
        if key in self._checked:
            return fails
        deep = checks.check_family(o.item, d, crossing, N_MAX, report, engine,
                                   self.reference.get(o.item.ref))
        if not deep:
            self._checked.add(key)
        return fails + deep


class WarmReplay:
    """CLI replays against a cache file that already holds every item.

    Set-up writes the items as a name,pd table and runs each through
    ``homfly --cache`` from an empty cache, keeping the cold output bytes;
    every timed call reloads the whole cache file."""

    loop = "json"

    def __init__(self, seed, work):
        self.items = inputs.cold_items(seed, load_knots())
        self.reference = checks.load_reference()["items"]
        self.table = os.path.join(work, "items.csv")
        self.cache = os.path.join(work, "cache.jsonl")
        self.names = [f"item{k:02d}" for k in range(len(self.items))]
        with open(self.table, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "pd"])
            w.writerows(zip(self.names, (it.pd for it in self.items)))
        self.out = [os.path.join(work, f"{n}.json") for n in self.names]
        self.cold = []
        for name, out in zip(self.names, self.out):
            code, _ = self._call(name, out)
            if code != 0:
                raise RuntimeError(f"cold homfly for {name} exited {code}")
            with open(out, "rb") as fh:
                self.cold.append(fh.read())
        self._checked = set()

    def _call(self, name, out):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = lib("cli").run_command(["homfly", "--table", self.table, "--name", name,
                                           "--cache", self.cache, "--out", out])
        m = _EXPANSIONS.search(err.getvalue())
        return code, int(m.group(1)) if m else None

    def run_pass(self, between=calib.nothing):
        outcomes, expansions = [], 0
        for item, name, out in zip(self.items, self.names, self.out):
            between()
            t0 = clocks()
            try:
                code, n = self._call(name, out)
            except Exception as exc:  # counted as a failed item
                outcomes.append(Outcome(item, since(t0), error=repr(exc)))
                continue
            outcomes.append(Outcome(item, since(t0), (code, n, out)))
            expansions += n or 0
        return outcomes, expansions

    def check(self, o):
        code, n, out = o.output
        with open(out, "rb") as fh:
            data = fh.read()
        k = self.items.index(o.item)
        fails = []
        if code != 0:
            fails.append(f"{o.item.name}: exit code {code}")
        if n != 0:
            fails.append(f"{o.item.name}: warm replay reported expansions {n}")
        if data != self.cold[k]:
            fails.append(f"{o.item.name}: warm output bytes differ from the cold output")
        if k not in self._checked:
            p = lib("poly").LaurentPoly2.from_json_obj(json.loads(self.cold[k])["homfly"])
            cold = checks.check_reference(o.item, p, self.reference.get(o.item.ref))
            if cold:
                fails += cold
            else:
                self._checked.add(k)
        return fails


WORKLOADS = {"cold-homfly": ColdHomfly, "family-audit": FamilyAudit, "warm-replay": WarmReplay}


def checked_pass(workload, stats, tracer=None):
    """Run one pass, traced if a tracer is given, then check its outputs
    with the wrappers removed.  Returns ((wall, cpu) seconds of the pass,
    {item name: (wall, cpu, normalised) seconds} of the items that passed,
    expansions, the pass's calibration scale)."""
    sampler = calib.Sampler(workload.loop)
    if tracer is not None:
        tracer.install()
    try:
        t0 = clocks()
        outcomes, expansions = workload.run_pass(sampler)
        wall, cpu = since(t0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed = (wall - sampler.wall_s, cpu - sampler.cpu_s)
    sampler()
    scale = sampler.scale()
    ok = {}
    for k, o in enumerate(outcomes):
        stats["attempted"] += 1
        try:
            fails = [o.error] if o.error else workload.check(o)
        except Exception as exc:  # a check that cannot run fails the item
            fails = [f"{o.item.name}: check raised {exc!r}"]
        if fails:
            stats["failed"] += 1
            stats["failures"].extend(fails[: max(0, 5 - len(stats["failures"]))])
        else:
            ok[o.item.name] = (*o.elapsed, o.elapsed[1] * sampler.scale(k))
    return elapsed, ok, expansions, scale


def timed_phase(workload, seconds):
    stats = {"attempted": 0, "failed": 0, "failures": []}
    passes, latencies, expansions, scales = [], [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(passes) < MIN_PASSES) and \
            time.perf_counter() - start < MAX_TIMED_S:
        elapsed, ok, x, scale = checked_pass(workload, stats)
        passes.append(elapsed)
        latencies.append(ok)
        expansions.append(x)
        scales.append(scale)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return dict(stats, passes=passes, latencies=latencies, expansions=expansions,
                scales=scales, items=len(workload.items), peak_rss_mb=peak)


def traced_phase(workload, seconds, spans_path):
    """Untraced and traced passes in turn, at least two of each; layer
    metrics are medians over the traced passes."""
    import layers

    tracer = layers.Tracer()
    stats = {"attempted": 0, "failed": 0, "failures": []}
    overheads, per_pass, first_spans = [], [], None
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(overheads) < 2) and \
            time.perf_counter() - start < MAX_TIMED_S:
        (_, plain), _, _, plain_scale = checked_pass(workload, stats)
        (_, traced), _, _, traced_scale = checked_pass(workload, stats, tracer)
        overheads.append(traced * traced_scale / (plain * plain_scale) - 1)
        metrics, spans = tracer.take_pass()
        per_pass.append(metrics)
        if first_spans is None:
            first_spans = spans
    layers.write_spans(spans_path, first_spans)
    out = layers.median_metrics(per_pass)
    # normalised pass times of neighbouring passes, as pass_norm_s is measured
    out["trace.overhead_frac"] = statistics.median(overheads)
    return dict(stats, layers=out, spans=spans_path)


def main():
    cfg = json.loads(sys.argv[1])
    os.environ.pop("MORTONLAB_CACHE", None)
    workload = WORKLOADS[cfg["workload"]](cfg["seed"], cfg["work"])
    result = {"setup_s": time.monotonic() - cfg["t0"]}
    sampler = calib.Sampler(workload.loop)
    for _ in range(calib.SETUP_LOOPS):
        sampler()
    result["setup_norm_s"] = result["setup_s"] * sampler.scale()
    if cfg["mode"] == "trace":
        result.update(traced_phase(workload, cfg["seconds"], cfg["spans"]))
    elif cfg["mode"] == "run":
        result.update(timed_phase(workload, cfg["seconds"]))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
