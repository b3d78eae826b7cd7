"""mortonlab benchmark.

    python3 perfbench/run.py --workload cold-homfly --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all   # every workload, one after another

Workloads (see BENCHMARK.json and perfbench/README.md):
  cold-homfly   HomflyEngine().homfly(d), a fresh engine per diagram
  family-audit  verify_theorem_family over seeded bases, shared engine,
                each audit flushed to a fresh cache file
  warm-replay   `mortonlab homfly --table --cache --out` against a full cache

Each workload runs in its own interpreter (workloads.py).  With --trace 0
the run sets up several times in fresh interpreters (setup_s is their
median) and the last one goes on to the timed phase.  With --trace 1 one
interpreter alternates untraced and traced passes and reports per-layer
metrics; its spans are written to .perfbench/spans/.  The last line of
stdout is one JSON object; the exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-homfly", "family-audit", "warm-replay")
# setup_s is the median of 3 to 9 set-ups: as many as fit in about a second
# (cold-homfly and family-audit set up in 0.15 s, warm-replay in 4-5 s).
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 1.0
CHILD_TIMEOUT_S = 170
# The tail is p90 over items; see e2e_metrics.
TAIL_PCT = 90


def host_probe_ms():
    """Median time of a fixed pure-Python loop: a host-speed diagnostic,
    recorded beside the results and not gated."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


class ChildError(RuntimeError):
    pass


def run_child(cfg, deadline):
    """Run one workload interpreter; returns its JSON result, in which
    ``setup_s`` runs from just before the start of the interpreter (the
    monotonic clock is shared by processes) until it was ready to time, and
    ``setup_norm_s`` is that time scaled by calibration loops timed in the
    interpreter just after its set-up."""
    env = dict(os.environ)
    env.pop("MORTONLAB_CACHE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cfg = dict(cfg, t0=time.monotonic())
    proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), json.dumps(cfg)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildError(f"{cfg['workload']} ({cfg['mode']}) timed out") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{cfg['workload']} ({cfg['mode']}) exited {proc.returncode}")
    return json.loads(lines[-1])


def item_latencies(r):
    """{item name: normalised latencies in ms, one per pass it passed}"""
    per_item = {}
    for ok in r["latencies"]:
        for name, (_, _, norm) in ok.items():
            per_item.setdefault(name, []).append(norm * 1e3)
    return per_item


def e2e_metrics(setups, r):
    """Time metrics are normalised CPU times (calib.py): the worker's CPU
    time, scaled by the calibration loops timed between the items of each
    pass (an item by the loops nearest to it), or after each set-up.  The
    work is single-threaded and CPU-bound, and on a shared host both its
    wall and CPU time follow the host's speed, which drifts by up to 2x in
    phases of seconds to minutes; the scaled time does not.  setup_s is the
    median set-up; pass_norm_s is the median pass; each item's latency is
    its median over passes, and p50 and the tail are taken over items.

    p50 is the upper of the two middle items when their number is even: the
    16 cold-homfly items are eight braid closures below eight doubles, and
    the mean of the middle two would mix the slowest braid, whose work the
    seed changes by 2x, with the fastest double."""
    items = sorted(statistics.median(v) for v in item_latencies(r).values())
    passes = [cpu * scale for (_, cpu), scale in zip(r["passes"], r["scales"])]
    return {
        "setup_s": {"value": statistics.median(norm for _, norm in setups), "unit": "s"},
        "pass_norm_s": {"value": statistics.median(passes), "unit": "s"},
        "item_norm_p50_ms": {"value": statistics.median_high(items), "unit": "ms"},
        "item_norm_tail_ms": {"value": statistics.quantiles(items, n=100, method="inclusive")[TAIL_PCT - 1],
                              "unit": "ms"},
        "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"},
    }


def run_workload(workload, seed, seconds, trace):
    """One workload; prints its metric lines, a detail line and the JSON
    result line, and returns the exit code."""
    probe = host_probe_ms()
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cfg = {"workload": workload, "seed": seed, "seconds": seconds,
           "spans": str(ROOT / ".perfbench" / "spans" / f"{workload}-seed{seed}.jsonl.gz")}
    try:
        setups = []
        while not trace and len(setups) < MAX_SETUPS - 1 and (
                len(setups) < MIN_SETUPS - 1 or sum(raw for raw, _ in setups) < SETUP_BUDGET_S):
            (work / f"setup{len(setups)}").mkdir(parents=True)
            setup = run_child(dict(cfg, mode="setup", work=str(work / f"setup{len(setups)}")),
                              deadline)
            setups.append((setup["setup_s"], setup["setup_norm_s"]))
        (work / "run").mkdir(parents=True)
        r = run_child(dict(cfg, mode="trace" if trace else "run", work=str(work / "run")),
                      deadline)
        setups.append((r["setup_s"], r["setup_norm_s"]))
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in r["failures"]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    correct = r["failed"] == 0
    failed_frac = r["failed"] / r["attempted"]
    detail = {"workload": workload, "seed": seed, "host_probe_ms": probe,
              "attempted": r["attempted"], "failed": r["failed"], "failed_frac": failed_frac}
    if trace:
        values = dict(r["layers"], host_probe_ms=probe)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        detail["spans"] = os.path.relpath(r["spans"], ROOT)
        notes = {}
    else:
        if not any(r["latencies"]):
            print("perfbench: no item passed its checks", file=sys.stderr)
            return 1
        metrics = e2e_metrics(setups, r)
        passes = len(r["passes"])
        wall_s = statistics.median(w for w, _ in r["passes"])
        detail.update(pass_walls_s=[w for w, _ in r["passes"]],
                      pass_cpus_s=[c for _, c in r["passes"]], pass_scales=r["scales"],
                      wall_s=wall_s, items_per_pass=r["items"], tail_pct=TAIL_PCT,
                      expansions_per_pass=sorted(set(r["expansions"])),
                      setup_runs_s=[raw for raw, _ in setups],
                      setup_runs_norm_s=[norm for _, norm in setups],
                      item_median_ms={name: statistics.median(v)
                                      for name, v in item_latencies(r).items()})
        notes = {"setup_s": f"median of {len(setups)} set-ups",
                 "pass_norm_s": f"median of {passes} passes",
                 "item_norm_p50_ms": f"upper middle of {r['items']} items, each median of {passes}",
                 "item_norm_tail_ms": f"p{TAIL_PCT} over {r['items']} items, each median of {passes}"}
    print(f"# {workload} seed={seed} host_probe_ms={probe:.2f}")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>14.6g} {m['unit']:5s} {notes.get(name, '')}".rstrip())
    if not trace:
        # not gated: wall time follows the host's load, and both counts
        # are 0 on a correct warm-replay run
        print(f"{'wall_s':42s} {wall_s:>14.6g} s     median of {passes} passes")
        print(f"{'expansions':42s} {r['expansions'][0]:>14d} count per pass")
        print(f"{'failed_frac':42s} {failed_frac:>14.6g} ratio")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [ROOT / "src" / "mortonlab" / "__init__.py", ROOT / "tests" / "data" / "small_knots.csv"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a mortonlab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(w, args.seed, args.seconds, args.trace) for w in names)


if __name__ == "__main__":
    sys.exit(main())
