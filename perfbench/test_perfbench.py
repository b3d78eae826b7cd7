"""Tests for the benchmark's own pieces.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def _inputs(seed):
    knots = workloads.load_knots()
    return ([(i.name, i.pd) for i in inputs.cold_items(seed, knots)],
            [(i.name, i.pd) for i in inputs.family_bases(seed, knots)])


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert _inputs(7) == _inputs(7)
    cold, family = _inputs(7)
    other_cold, other_family = _inputs(8)
    assert cold != other_cold and family != other_family


def test_braid_catalogue_parses_as_written():
    diagram = workloads.lib("diagram")
    for key, word in inputs.BRAID_CATALOGUE + inputs.FAMILY_BRAIDS + (("t", inputs.TORUS_45),):
        d = diagram.parse_pd(inputs.braid_pd(word))
        assert [x.sign for x in d.crossings] == [1 if g > 0 else -1 for g in word], key
        if key.startswith(("k", "f", "t")):
            assert d.num_components() == 1 and d.is_connected(), key
        elif key.startswith("l"):
            assert d.num_components() > 1 and d.is_connected(), key
        else:
            assert not d.is_connected(), key


def _cheap_cold_workload(tmp_path):
    w = workloads.ColdHomfly(1, str(tmp_path))
    w.items = [i for i in w.items if i.ref in ("braid/s1", "braid/l1", "braid/k2")]
    assert len(w.items) == 3
    return w


def _failed_frac(w):
    stats = {"attempted": 0, "failed": 0, "failures": []}
    workloads.checked_pass(w, stats)
    return stats["failed"] / stats["attempted"], stats["failures"]


def test_outputs_pass_their_checks(tmp_path):
    frac, failures = _failed_frac(_cheap_cold_workload(tmp_path))
    assert frac == 0, failures


def test_corrupted_polynomial_raises_failed_frac(tmp_path):
    w = _cheap_cold_workload(tmp_path)
    outcomes, expansions = w.run_pass()
    one = workloads.lib("poly").LaurentPoly2.one()
    outcomes[1].output = outcomes[1].output + one

    def replay(between):
        for _ in outcomes:
            between()
        return outcomes, expansions

    w.run_pass = replay
    frac, failures = _failed_frac(w)
    assert frac == 1 / 3
    assert "reference" in failures[0]


def test_self_time_is_span_minus_children():
    # root [0, 100] has children a [10, 40] and b [50, 90]; a has child c [20, 30]
    spans = [
        [0, -1, "root", 0, 100],
        [1, 0, "a", 10, 40],
        [2, 1, "c", 20, 30],
        [3, 0, "b", 50, 90],
        [4, -1, "a", 200, 205],
    ]
    agg = layers.self_times(spans)
    assert agg["root"] == [1, 100, 100 - 30 - 40]
    assert agg["a"] == [2, 30 + 5, 30 - 10 + 5]
    assert agg["c"] == [1, 10, 10]
    assert agg["b"] == [1, 40, 40]


def test_tracer_records_nesting_and_restores_the_library():
    diagram = workloads.lib("diagram")
    original = diagram.Diagram.__dict__["simplify"]
    tracer = layers.Tracer()
    tracer.install()
    try:
        d = diagram.parse_pd(inputs.braid_pd((1, -1, 1, 1)))
        d.simplify()
    finally:
        tracer.uninstall()
    assert diagram.Diagram.__dict__["simplify"] is original
    metrics, spans = tracer.take_pass()
    assert metrics["diagram.parse_pd.calls"] == 1
    assert metrics["diagram.simplify.calls"] == 1
    assert metrics["diagram.simplify.removed_crossings"] == 2
    names = {s[2]: s for s in spans}
    assert names["diagram.simplify"][1] == -1
    assert all(s[1] < s[0] for s in spans)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cold-homfly",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_metrics_match_benchmark_json():
    declared = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    produced = set(layers.Tracer().take_pass()[0]) | {"trace.overhead_frac", "host_probe_ms"}
    assert produced == declared
