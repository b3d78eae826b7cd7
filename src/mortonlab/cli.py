"""Command-line front end: table ingestion, cache persistence, reports.

Commands: parse, homfly, seifert, family, verify, skein-tree, double,
oracle-check, each a function called by one run sequence that reads the
diagram, --expect and the cache first and appends to the cache before it
writes any output.  family serializes each member as it is built and
takes its manifest row from family.band_bookkeeping, so it decomposes
only the base and keeps no member diagram.  Exit codes: 0 success / all
verifications passed, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from functools import cache

from .diagram import Diagram, parse_pd
from .errors import (
    DisconnectedError,
    DuplicateNameError,
    EmptyTableError,
    MFWViolationError,
    MortonLabError,
    TableError,
    UnsupportedFormatError,
    UsageError,
)
from .family import FamilySpec, band_bookkeeping, insert_parallel_bands, whitehead_double
from .homfly import (
    DEFAULT_ORACLE_LIMIT,
    DEFAULT_TRACE_LIMIT,
    TRACE_NODE_LIMIT,
    HomflyEngine,
    SkeinTrace,
    naive_homfly,
    skein_trace,
    trace_to_dot,
)
from .morton import (
    FamilyReport,
    check_v_degree_bound,
    match_expected_polynomial,
    verify_theorem_family,
)
from .poly import LaurentPoly2
from .seifert import seifert_circles

__all__ = ["KnotTableEntry", "load_knot_table", "run_command", "export_report", "main"]

CACHE_ENV = "MORTONLAB_CACHE"
# the bound of --twists either way, of each --ns count and of --nmax: a
# double gets 2 |twists| crossings, L_n a band of n, built one at a time,
# and the n-th audit row two polynomial terms that grow linearly in n; at
# this bound `double` takes about 0.2 s and 43 MB, and `verify` on the
# trefoil about 107 s of CPU and 70 MB
MAX_CHAIN = 10_000


@dataclass
class KnotTableEntry:
    name: str
    source: str
    diagram: Diagram


def _table_rows(path, warn):
    """(name, pd, line number) for each row of a name,pd CSV (RFC-4180; the
    pd field carries commas and must be quoted), no PD parsed.  Blank rows
    are skipped and short rows reported and skipped; a repeated name, a
    file not in UTF-8 and a field over csv's size limit are errors.  A
    leading byte-order mark, as spreadsheets write, is dropped."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            records = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise TableError(f"cannot read table {path}: {exc}") from exc
    if not records:
        raise EmptyTableError(f"{path}: empty file")
    if [h.strip().lower() for h in records[0][:2]] != ["name", "pd"]:
        raise TableError(f'{path}: header must be "name,pd", got {records[0]!r}')
    rows = []
    seen = {}
    for lineno, row in enumerate(records[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            warn(f"{path}:{lineno}: skipping malformed row {row!r}")
            continue
        name = row[0].strip()
        if name in seen:
            raise DuplicateNameError(
                f"{path}: duplicate name {name!r} on lines {seen[name]} and {lineno}"
            )
        seen[name] = lineno
        rows.append((name, row[1].strip(), lineno))
    return rows


def load_knot_table(path, warn=None):
    """Every row of a name,pd CSV (see _table_rows) whose PD parses; rows
    with an invalid PD are reported with their line number and skipped."""
    warn = warn or (lambda msg: print(msg, file=sys.stderr))
    entries = []
    for name, pd, lineno in _table_rows(path, warn):
        try:
            diagram = parse_pd(pd)
        except MortonLabError as exc:
            warn(f"{path}:{lineno}: skipping {name!r}: {exc}")
            continue
        entries.append(KnotTableEntry(name, f"{path}:{lineno}", diagram))
    if not entries:
        raise EmptyTableError(f"{path}: no valid entries")
    return entries


def export_report(payload, fmt) -> bytes:
    """Deterministic bytes for a report payload (a FamilyReport, a
    SkeinTrace, a dict, or for CSV a list of dicts with the same keys) in
    the requested format."""
    if fmt == "json":
        obj = payload.to_json_obj() if isinstance(payload, (FamilyReport, SkeinTrace)) else payload
        return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    if isinstance(payload, FamilyReport) and fmt == "table":
        return payload.to_text_table().encode()
    if isinstance(payload, SkeinTrace) and fmt == "dot":
        return trace_to_dot(payload).encode()
    if isinstance(payload, (dict, list, FamilyReport)) and fmt == "csv":
        if isinstance(payload, FamilyReport):
            # a split row's s and genus (None) are written as empty cells
            header = FamilyReport.COLUMNS
            rows = [{**row, "strict": str(row["strict"]).lower()}
                    for row in payload.to_json_obj()["rows"]]
        else:
            rows = [payload] if isinstance(payload, dict) else payload
            header = rows[0]
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header, *(r.values() for r in rows)])
        return out.getvalue().encode()
    raise UnsupportedFormatError(f"cannot export {type(payload).__name__} as {fmt}")


# -- argument plumbing ---------------------------------------------------------


def _number(cast, low, high=None):
    """argparse type of a number from low to high (no upper bound when high
    is None) as cast reads it; NaN is in no range."""
    kind = "an integer" if cast is int else "a number"
    span = f">= {low}" if high is None else f"from {low} to {high}"

    def read(text):
        try:
            value = cast(text)
            if low <= value and (high is None or value <= high):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {kind} {span}, got {text!r}")
    return read


_COUNT = _number(int, 0)

_SHARED_OPTIONS = {
    "--pd": {"help": "PD text, e.g. \"X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]\""},
    "--table": {"help": "name,pd CSV file"},
    "--name": {"help": "entry name inside --table"},
    "--cache": {"help": f"polynomial cache file (or ${CACHE_ENV})"},
    "--out": {"help": "write primary output to this file instead of stdout"},
    # every crossing of a diagram on the sphere joins two Seifert circles
    "--crossing": {"type": lambda text: 0 if text == "auto" else _COUNT(text), "default": 0},
}


@cache
def _build_parser():
    """The argument parser, built once per process: parsing does not change
    it, and each build leaves about 500 objects in reference cycles."""
    top = argparse.ArgumentParser(prog="mortonlab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, help, options, formats=(), mirrors=()):
        """Subparser taking the listed shared options (a space-separated
        string), and --format and --mirror with the given values, the
        first of each the default."""
        p = sub.add_parser(name, help=help)
        for flag in options.split():
            p.add_argument(flag, **_SHARED_OPTIONS[flag])
        if formats:
            p.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
        if mirrors:
            p.add_argument("--mirror", choices=mirrors, default=mirrors[0])
        return p

    command("parse", "validate PD text and echo the diagram", "--pd --table --name --out",
            ("json", "csv"))

    p = command("homfly", "HOMFLY polynomial of a diagram",
                "--pd --table --name --cache --out", ("json",), ("auto", "off", "on"))
    p.add_argument("--expect", help="expected polynomial as JSON term records")

    command("seifert", "Seifert circles / genus report (CSV)", "--pd --table --name --out")

    p = command("family", "emit parallel-band diagrams L_n",
                "--pd --table --name --out --crossing", ("table", "json"))
    band = _number(int, 0, MAX_CHAIN)
    p.add_argument("--ns", type=lambda text: [band(v) for v in text.split(",") if v != ""],
                   default="0,1,2,3",
                   help=f"comma-separated band counts, each at most {MAX_CHAIN:,}")

    p = command("verify", "audit M(L_n) < 2*gc - 1 + n over a family",
                "--pd --table --name --cache --out --crossing", ("table", "json", "csv"),
                ("auto", "off"))
    p.add_argument("--gc", type=_COUNT, required=True, help="knot-level canonical genus (given)")
    p.add_argument("--nmax", type=band, default=5,
                   help=f"last band count n audited, at most {MAX_CHAIN:,}")
    p.add_argument("--budget", type=_number(float, 0), default=None, help="seconds")
    p.add_argument("--expect", help="expected base polynomial as JSON term records")

    p = command("skein-tree", "materialize the resolution tree", "--pd --table --name --out",
                ("dot", "json"))
    p.add_argument("--trace-limit", type=_COUNT, default=DEFAULT_TRACE_LIMIT,
                   help="max crossings; bounds crossing count, not tree size (a tree of "
                        f"more than {TRACE_NODE_LIMIT:,} nodes exits 2 with TOO_LARGE)")

    p = command("double", "blackboard-framed Whitehead double", "--pd --table --name --out",
                ("json", "csv"))
    p.add_argument("--clasp", type=int, default=1, choices=[1, -1])
    p.add_argument("--twists", type=_number(int, -MAX_CHAIN, MAX_CHAIN), default=0,
                   help=f"full twists of the band, at most {MAX_CHAIN:,} either way")

    p = command("oracle-check", "homfly vs naive oracle over a table", "--table --cache --out",
                ("json", "csv"))
    p.add_argument("--limit", type=_COUNT, default=DEFAULT_ORACLE_LIMIT,
                   help="max crossings; bounds crossing count, not time (18 s CPU at 10 crossings)")

    return top


def _diagram_from_args(args):
    if args.pd and args.table:
        raise UsageError("pass either --pd or --table, not both")
    if args.pd:
        return parse_pd(args.pd), "pd"
    if args.table:
        if not args.name:
            raise UsageError("--table needs --name to pick an entry")
        for name, pd, _ in _table_rows(args.table, lambda msg: None):
            if name == args.name:
                return parse_pd(pd), name
        raise UsageError(f"no entry named {args.name!r} in {args.table}")
    raise UsageError("need --pd or --table/--name")


def _emit(data: bytes, args):
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())


def run_command(argv) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MortonLabError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2
    except IndexError as exc:
        print(f"INDEX_OUT_OF_RANGE: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"IO_ERROR: {exc}", file=sys.stderr)
        return 2


def _dispatch(args):
    """Run a parsed command in one sequence: read the diagram (for each
    command taking --pd, but seifert --table without --name), parse
    --expect, build the engine and load its cache (for each command taking
    --cache), then call the command's function in _COMMANDS with (args,
    diagram, name, engine, expected polynomial); it returns (output bytes
    or None, exit code, stderr lines).  Only a command that returned
    output appends to the cache; its stderr lines follow, and the output
    is written last.  A failed check of the engine's own polynomials
    returns no output, so it writes neither output nor cache."""
    d = name = None
    if "pd" in args and not (args.command == "seifert" and args.table and not args.name):
        d, name = _diagram_from_args(args)
    elif not args.table:
        raise UsageError(f"{args.command} needs --table")
    # a malformed --expect stops the run before any engine or cache work
    expected = LaurentPoly2.from_json(args.expect) if getattr(args, "expect", None) else None
    engine = cache_path = None
    if "cache" in args:
        engine, cache_path = HomflyEngine(), args.cache or os.environ.get(CACHE_ENV)
        if cache_path:
            engine.load_cache(cache_path)
    out, code, err = _COMMANDS[args.command](args, d, name, engine, expected)
    if out is not None and cache_path:
        engine.flush_cache(cache_path)
    for line in err:
        print(line, file=sys.stderr)
    if out is not None:
        _emit(out, args)
    return code


def _parse(args, d, name, engine, expected):
    obj = {
        "crossings": len(d.crossings),
        "components": d.num_components(),
        "writhe": d.writhe(),
        "free_loops": d.free_loops,
        "pd": d.serialize(),
    }
    return export_report(obj, args.fmt), 0, []


def _homfly(args, d, name, engine, expected):
    p = engine.homfly(d)
    if args.mirror == "on":
        p = p.mirror()
    obj = {
        "name": name,
        "homfly": p.to_json_obj(),
        "pretty": p.pretty(),
        "maxdeg_z": p.maxdeg_z(),
    }
    code = 0
    if expected is not None:
        obj["expected_match"] = match = match_expected_polynomial(p, expected, args.mirror)
        code = 0 if match else 1
    stats = [f"expansions: {engine.expansions}",
             f"braid evaluations: {engine.braid_evaluations}"]
    return export_report(obj, args.fmt), code, stats


def _seifert(args, d, name, engine, expected):
    if d is None:
        named = []
        for e in load_knot_table(args.table):
            try:
                named.append((e.name, e.diagram, seifert_circles(e.diagram)))
            except DisconnectedError as exc:
                # printed at once, like load_knot_table's warnings, even if no row is left
                print(f"{e.source}: skipping {e.name!r}: {exc}", file=sys.stderr)
        if not named:
            raise EmptyTableError(f"{args.table}: no connected entries")
    else:
        named = [(name, d, seifert_circles(d))]
    rows = [{"name": name, "c": len(d.crossings), "s": dec.num_circles,
             "mu": d.num_components(), "genus": dec.diagram_genus}
            for name, d, dec in named]
    return export_report(rows, "csv"), 0, []


def _family(args, d, name, engine, expected):
    # L_0 is built first, as verify_theorem_family builds it, so a bad
    # --crossing is rejected even when --ns lists no member; each member
    # is serialized as it is built and its row read off L_0 and the base
    l0 = insert_parallel_bands(d, args.crossing, 0)
    circles, sign = seifert_circles(d).num_circles, d.crossings[args.crossing].sign
    members = []
    for n in args.ns:
        c, mu, _, s, genus = band_bookkeeping(l0, d, circles, sign, n)
        pd = (insert_parallel_bands(d, args.crossing, n) if n else l0).serialize()
        members.append({"n": n, "c": c, "s": s, "genus": genus, "components": mu, "pd": pd})
    if args.fmt == "table":
        return "".join(m["pd"] + "\n" for m in members).encode(), 0, []
    return export_report({"base": name, "crossing": args.crossing, "members": members},
                         args.fmt), 0, []


def _verify(args, d, name, engine, expected):
    try:
        report = verify_theorem_family(
            FamilySpec(d, args.crossing, []), gc_claimed=args.gc, n_max=args.nmax, engine=engine,
            budget_seconds=args.budget, base_name=name)
    except MFWViolationError as exc:
        return None, 1, [f"MFW_VIOLATION {name}: {exc}"]
    code = 0 if report.all_strict() else 1
    payload, err = report, []
    if expected is not None:
        p = engine.homfly(d)
        match = match_expected_polynomial(p, expected, args.mirror)
        if args.fmt == "json":
            payload = {**report.to_json_obj(), "expected_match": match}
        elif not match:
            # the table and CSV have no field for the comparison
            err = [f"EXPECT_MISMATCH {name}: base polynomial {p.pretty()} "
                   f"does not match --expect (--mirror {args.mirror})"]
        code = code if match else 1
    return export_report(payload, args.fmt), code, err


def _skein_tree(args, d, name, engine, expected):
    return export_report(skein_trace(d, args.trace_limit), args.fmt), 0, []


def _double(args, d, name, engine, expected):
    w = whitehead_double(d, clasp_sign=args.clasp, twists=args.twists)
    obj = {
        "c": len(w.crossings),
        "components": w.num_components(),
        "writhe": w.writhe(),
        "genus": seifert_circles(w).diagram_genus,
        "genus_bound_crossings_of_base": len(d.crossings),
        "pd": w.serialize(),
    }
    return export_report(obj, args.fmt), 0, []


def _oracle_check(args, d, name, engine, expected):
    checked = skipped = 0
    for e in load_knot_table(args.table):
        d = e.diagram
        if len(d.crossings) > args.limit:
            if d.is_connected():
                try:
                    check_v_degree_bound(engine.homfly(d), d.writhe(),
                                         seifert_circles(d).num_circles,
                                         "the engine's polynomial")
                except MFWViolationError as exc:
                    return None, 1, [f"MFW_VIOLATION {e.name}: {exc}"]
            skipped += 1
            continue
        fast = engine.homfly(d)
        slow = naive_homfly(d, args.limit)
        if fast != slow:
            return None, 1, [f"MISMATCH {e.name}: engine={fast.pretty()} oracle={slow.pretty()}"]
        checked += 1
    return export_report({"checked": checked, "skipped": skipped, "agree": True}, args.fmt), 0, []


_COMMANDS = {"parse": _parse, "homfly": _homfly, "seifert": _seifert, "family": _family,
             "verify": _verify, "skein-tree": _skein_tree, "double": _double,
             "oracle-check": _oracle_check}


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
