"""Outside-in layer trace.

Spans are recorded by wrappers that this file installs around public calls
into each mortonlab module (class methods and the module attributes that
callers look names up through).  Nothing inside the library changes, and
the wrappers are removed again after every traced pass, so untraced passes
run the program as shipped.

A span is ``[id, parent, name, start_ns, end_ns]``; ids are list indices.
A layer's self time is its spans' duration minus the duration of their
direct children.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import statistics
import time
from collections import defaultdict


def self_times(spans):
    """{name: [calls, total_ns, self_ns]} for a list of spans."""
    child = [0] * len(spans)
    for sid, parent, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for sid, _, name, start, end in spans:
        agg = out.setdefault(name, [0, 0, 0])
        agg[0] += 1
        agg[1] += end - start
        agg[2] += end - start - child[sid]
    return out


class CountingCache(dict):
    """Engine cache that counts lookups and hits (the engine only reads it
    through ``get``)."""

    def __init__(self, data, counts):
        super().__init__(data)
        self.counts = counts

    def get(self, key, default=None):
        self.counts["homfly.cache.lookups"] += 1
        value = dict.get(self, key, default)
        if value is not None:
            self.counts["homfly.cache.hits"] += 1
        return value


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.engines = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span; ``count(counts, args, result)`` runs after."""
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, clock(), 0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, out)
            return out

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(self, owner, attr, name, count=None):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(owner, attr, classmethod(self.wrap(name, raw.__func__, count)))
        else:
            self._set(owner, attr, self.wrap(name, raw, count))

    def patch_name(self, modules, attr, name, count=None):
        """Wrap a function in every module that binds it by name."""
        wrapped = None
        for mod in modules:
            if wrapped is None:
                wrapped = self.wrap(name, mod.__dict__[attr], count)
            self._set(mod, attr, wrapped)

    # -- install / remove --------------------------------------------------

    def install(self):
        m = {n: importlib.import_module(f"mortonlab.{n}") for n in
             ("diagram", "homfly", "poly", "seifert", "family", "morton", "cli")}
        pkg = importlib.import_module("mortonlab")
        D, E, P = m["diagram"].Diagram, m["homfly"].HomflyEngine, m["poly"].LaurentPoly2

        def simplified(counts, args, out):
            removed = len(args[0].crossings) - len(out.crossings)
            counts["diagram.simplify.removed_crossings"] += removed
            counts["diagram.simplify.useful"] += removed > 0

        self.patch(D, "simplify", "diagram.simplify", simplified)
        self.patch(D, "canonical_code", "diagram.canonical_code")
        self.patch(D, "smooth_crossing", "diagram.smooth_crossing")
        self.patch(D, "switch_crossing", "diagram.switch_crossing")
        self.patch(D, "is_connected", "diagram.is_connected")
        self.patch(D, "split_pieces", "diagram.split_pieces")
        self.patch(D, "component_cycles", "diagram.component_cycles")
        self.patch_name((m["diagram"], pkg, m["cli"]), "parse_pd", "diagram.parse_pd")

        tracer = self
        engine_init = E.__dict__["__init__"]

        def init(engine, *args, **kwargs):
            engine_init(engine, *args, **kwargs)
            engine.cache = CountingCache(engine.cache, tracer.counts)
            tracer.engines.append(engine)

        self._set(E, "__init__", init)
        self.patch(E, "homfly", "homfly")
        self.patch_name((m["homfly"],), "choose_skein_crossing", "homfly.choose_skein_crossing")

        def loaded(counts, args, out):
            counts["homfly.load_cache.records"] += out
            counts["homfly.load_cache.bytes"] += os.path.getsize(args[1])

        self.patch(E, "load_cache", "homfly.load_cache", loaded)
        flush = self.wrap("homfly.flush_cache", E.__dict__["flush_cache"])

        def flush_sized(engine, path):
            before = os.path.getsize(path) if os.path.exists(path) else 0
            n = flush(engine, path)
            tracer.counts["homfly.flush_cache.records"] += n
            tracer.counts["homfly.flush_cache.bytes"] += os.path.getsize(path) - before if n else 0
            return n

        self._set(E, "flush_cache", flush_sized)

        def terms(counts, args, out):
            counts["poly.arith.terms_out"] += len(out)

        for op in ("__add__", "__mul__", "mono_mul", "__pow__"):
            self.patch(P, op, "poly.arith", terms)
        self.patch(P, "from_json_obj", "poly.from_json_obj")
        self.patch(P, "to_json_obj", "poly.to_json_obj")

        self.patch_name((m["seifert"], pkg, m["family"], m["morton"], m["cli"]),
                        "seifert_circles", "seifert.seifert_circles")
        self.patch_name((m["family"], m["morton"], m["cli"]),
                        "insert_parallel_bands", "family.insert_parallel_bands")
        self.patch_name((m["family"], m["morton"]),
                        "crossing_change_candidates", "family.crossing_change_candidates")

        def rows(counts, args, out):
            counts["morton.rows"] += len(out.rows)

        self.patch_name((m["morton"], m["cli"]), "verify_theorem_family", "morton", rows)
        self.patch_name((m["cli"],), "run_command", "cli.run_command")
        self.patch_name((m["cli"],), "load_knot_table", "cli.load_knot_table")
        self.patch_name((m["cli"],), "export_report", "cli.export_report")

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- per-pass results --------------------------------------------------

    def take_pass(self):
        """Layer metrics of the pass just traced; clears the recording and
        returns (metrics, spans)."""
        agg = self_times(self.spans)
        c = self.counts

        def calls(*names):
            return sum(agg[n][0] for n in names if n in agg)

        def self_s(*names):
            return sum(agg[n][2] for n in names if n in agg) / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        simplify_calls = calls("diagram.simplify")
        lookups = c["homfly.cache.lookups"]
        out = {
            "diagram.simplify.calls": simplify_calls,
            "diagram.simplify.self_s": self_s("diagram.simplify"),
            "diagram.simplify.removed_crossings": c["diagram.simplify.removed_crossings"],
            "diagram.simplify.useful_ratio": ratio(c["diagram.simplify.useful"], simplify_calls),
            "diagram.canonical_code.calls": calls("diagram.canonical_code"),
            "diagram.canonical_code.self_s": self_s("diagram.canonical_code"),
            "diagram.smooth_crossing.self_s": self_s("diagram.smooth_crossing"),
            "diagram.switch_crossing.self_s": self_s("diagram.switch_crossing"),
            "diagram.connectivity.calls": calls("diagram.is_connected", "diagram.split_pieces"),
            "diagram.connectivity.self_s": self_s("diagram.is_connected", "diagram.split_pieces"),
            "diagram.split_pieces.calls": calls("diagram.split_pieces"),
            "diagram.component_cycles.self_s": self_s("diagram.component_cycles"),
            "diagram.parse_pd.calls": calls("diagram.parse_pd"),
            "diagram.parse_pd.self_s": self_s("diagram.parse_pd"),
            "homfly.self_s": self_s("homfly"),
            "homfly.expansions": sum(e.expansions for e in self.engines),
            "homfly.cache.lookups": lookups,
            "homfly.cache.hits": c["homfly.cache.hits"],
            "homfly.cache.hit_ratio": ratio(c["homfly.cache.hits"], lookups),
            "homfly.cache.entries": sum(len(e.cache) for e in self.engines),
            "homfly.choose_skein_crossing.self_s": self_s("homfly.choose_skein_crossing"),
            "homfly.load_cache.self_s": self_s("homfly.load_cache"),
            "homfly.load_cache.records": c["homfly.load_cache.records"],
            "homfly.load_cache.bytes": c["homfly.load_cache.bytes"],
            "homfly.flush_cache.self_s": self_s("homfly.flush_cache"),
            "homfly.flush_cache.records": c["homfly.flush_cache.records"],
            "homfly.flush_cache.bytes": c["homfly.flush_cache.bytes"],
            "poly.arith.calls": calls("poly.arith"),
            "poly.arith.self_s": self_s("poly.arith"),
            "poly.arith.terms_out": c["poly.arith.terms_out"],
            "poly.from_json_obj.calls": calls("poly.from_json_obj"),
            "poly.from_json_obj.self_s": self_s("poly.from_json_obj"),
            "poly.to_json_obj.self_s": self_s("poly.to_json_obj"),
            "seifert.seifert_circles.calls": calls("seifert.seifert_circles"),
            "seifert.seifert_circles.self_s": self_s("seifert.seifert_circles"),
            "family.insert_parallel_bands.calls": calls("family.insert_parallel_bands"),
            "family.insert_parallel_bands.self_s": self_s("family.insert_parallel_bands"),
            "family.crossing_change_candidates.self_s": self_s("family.crossing_change_candidates"),
            "morton.rows": c["morton.rows"],
            "morton.self_s": self_s("morton"),
            "cli.run_command.calls": calls("cli.run_command"),
            "cli.run_command.self_s": self_s("cli.run_command"),
            "cli.load_knot_table.self_s": self_s("cli.load_knot_table"),
            "cli.export_report.self_s": self_s("cli.export_report"),
        }
        spans = list(self.spans)
        self.spans.clear()
        self.counts.clear()
        self.engines.clear()
        return out, spans


def median_metrics(per_pass):
    """Median of each metric over traced passes (counts repeat exactly)."""
    return {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}


def write_spans(path, spans):
    """Spans of one traced pass as gzipped JSON lines, times relative to
    the first span's start."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    t0 = spans[0][3] if spans else 0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["id", "parent", "name", "start_ns", "end_ns"]}) + "\n")
        for sid, parent, name, start, end in spans:
            fh.write(json.dumps([sid, parent, name, start - t0, end - t0]) + "\n")
