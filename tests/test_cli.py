"""CLI dispatch, table ingestion, exports, exit codes, cache behavior."""

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
import tracemalloc

import pytest

from conftest import DATA_DIR, TREFOIL_PD

from mortonlab.cli import _build_parser, export_report, load_knot_table, run_command
from mortonlab.diagram import parse_pd
from mortonlab.errors import (
    DuplicateNameError,
    EmptyTableError,
    TableError,
    UnsupportedFormatError,
)
from mortonlab.family import (
    FamilySpec,
    braid_closure,
    crossing_change_candidates,
    whitehead_double,
)
from mortonlab.homfly import HomflyEngine, skein_trace
from mortonlab.morton import verify_theorem_family
from mortonlab.poly import LaurentPoly2
from mortonlab.seifert import seifert_circles

SMALL = os.path.join(DATA_DIR, "small_knots.csv")


def _evaluate_then(value):
    """HomflyEngine.homfly that evaluates the diagram, so the engine holds
    polynomials a cache flush would write, and returns value instead.
    A failed check must write neither output nor cache."""
    homfly = HomflyEngine.homfly

    def evaluate(engine, d):
        homfly(engine, d)
        return value

    return evaluate


class TestTable:
    def test_load(self):
        entries = load_knot_table(SMALL)
        assert len(entries) == 14
        byname = {e.name: e for e in entries}
        assert len(byname["3_1"].diagram.crossings) == 3
        assert byname["7_7"].source.endswith(":15")

    def test_single_line_table(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text('name,pd\ntrefoil,"X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"\n')
        entries = load_knot_table(p)
        assert len(entries) == 1 and len(entries[0].diagram.crossings) == 3

    def test_malformed_pd_skipped_with_warning(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text('name,pd\nbad,"X[1,2,3]"\nok,"X[1,1,2,2]"\n')
        warnings = []
        entries = load_knot_table(p, warn=warnings.append)
        assert [e.name for e in entries] == ["ok"]
        assert len(warnings) == 1 and ":2" in warnings[0]

    def test_duplicate_names(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text('name,pd\na,"X[1,1,2,2]"\na,"X[1,2,2,1]"\n')
        with pytest.raises(DuplicateNameError):
            load_knot_table(p)

    def test_duplicate_name_after_invalid_pd(self, tmp_path, capsys):
        # names are checked on every well-formed row before any PD is parsed
        p = tmp_path / "t.csv"
        p.write_text('name,pd\na,"X[1,2,3]"\na,"X[1,1,2,2]"\n')
        with pytest.raises(DuplicateNameError):
            load_knot_table(p)
        assert run_command(["homfly", "--table", str(p), "--name", "a"]) == 2
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err.startswith("DUPLICATE_NAME:")

    def test_lookup_parses_only_the_named_row(self, tmp_path, capsys):
        p = tmp_path / "t.csv"
        p.write_text(f'name,pd\nbad,"X[1,2,3]"\nok,"{TREFOIL_PD}"\nshort\n')
        assert run_command(["homfly", "--table", str(p), "--name", "ok"]) == 0
        assert "skipping" not in capsys.readouterr().err
        assert run_command(["homfly", "--table", str(p), "--name", "bad"]) == 2
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err.startswith("PARSE_ERROR:")

    def test_missing_file(self, tmp_path):
        with pytest.raises(TableError):
            load_knot_table(tmp_path / "absent.csv")

    def test_empty_table(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("name,pd\n")
        with pytest.raises(EmptyTableError):
            load_knot_table(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("knot,code\na,b\n")
        with pytest.raises(TableError):
            load_knot_table(p)

    @pytest.mark.parametrize("content", [
        b"\xff\xfename,pd\n",
        b'name,pd\nbig,"' + b" ".join(b"X[1,1,2,2]" for _ in range(20000)) + b'"\n',
    ], ids=["not-utf8", "field-over-csv-limit"])
    def test_undecodable_table_exit2(self, content, tmp_path, capsys):
        p = tmp_path / "t.csv"
        p.write_bytes(content)
        with pytest.raises(TableError):
            load_knot_table(p)
        for argv in (["seifert", "--table", str(p)], ["homfly", "--table", str(p), "--name", "big"]):
            assert run_command(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"IO_ERROR: cannot read table {p}: ")


class TestExport:
    def test_family_report_formats(self, engine):
        rep = verify_theorem_family(FamilySpec(parse_pd(TREFOIL_PD), 0, []),
                                    gc_claimed=1, n_max=2, engine=engine)
        assert export_report(rep, "csv").decode().startswith("n,c,s,genus,M,bound,strict")
        assert json.loads(export_report(rep, "json"))["rows"]
        assert b"strict" in export_report(rep, "table")
        with pytest.raises(UnsupportedFormatError):
            export_report(rep, "dot")

    def test_trace_formats(self):
        t = skein_trace(parse_pd(TREFOIL_PD))
        dot = export_report(t, "dot").decode()
        assert dot.startswith("digraph skein {")
        obj = json.loads(export_report(t, "json"))
        assert obj["stats"]["nodes"] == len(t.nodes)
        with pytest.raises(UnsupportedFormatError):
            export_report(t, "csv")

    def test_deterministic_bytes(self, engine):
        rep = verify_theorem_family(FamilySpec(parse_pd(TREFOIL_PD), 0, []),
                                    gc_claimed=1, n_max=2, engine=engine)
        assert export_report(rep, "json") == export_report(rep, "json")

    @pytest.mark.parametrize("pd, digest", [
        (TREFOIL_PD, "d28ac7b7121c446ece871d95a7a10881984e4aa178fda123b780ab5e9c1a7354"),
        (braid_closure([1, 2, 3, 4, -3, -2, -1, 5, 6, 7], 8).serialize(),
         "97fc5d17713043eea83f6400773c117e6396a94b088873fc496759b5d1b733e9"),
    ], ids=["trefoil", "braid10"])
    def test_skein_tree_dot_pinned(self, pd, digest, capsys):
        # the trace keeps least-label basepoints whatever the engine chooses
        assert run_command(["skein-tree", "--pd", pd, "--format", "dot"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestCommands:
    def test_homfly_exit0(self, capsys):
        assert run_command(["homfly", "--pd", TREFOIL_PD]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["maxdeg_z"] == 2

    def test_parse_error_exit2(self, capsys):
        assert run_command(["homfly", "--pd", "X[1,2,3]"]) == 2
        assert "PARSE_ERROR" in capsys.readouterr().err

    def test_usage_error_exit2(self, capsys):
        assert run_command(["homfly"]) == 2
        assert run_command(["verify", "--pd", "O O", "--gc", "1"]) == 2

    @pytest.mark.parametrize("cmd", ["verify", "family"])
    def test_crossing_out_of_range_exit2(self, cmd, capsys):
        argv = [cmd, "--pd", TREFOIL_PD, "--crossing", "9"] + (["--gc", "1"] if cmd == "verify"
                                                               else [])
        assert run_command(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("INDEX_OUT_OF_RANGE: ")

    @pytest.mark.parametrize("pd, crossing, message", [
        (TREFOIL_PD, ["--crossing", "7"], "crossing index 7 out of range (0..2)"),
        ("O", [], "crossing index 0 out of range (the diagram has no crossings)"),
        ("O", ["--crossing", "auto"],
         "crossing index 0 out of range (the diagram has no crossings)"),
    ], ids=["past-the-end", "crossingless", "crossingless-auto"])
    def test_family_checks_crossing_before_members(self, pd, crossing, message, capsys):
        # family builds L_0 first, as verify does, so an empty --ns is no
        # way round the check, and both commands give the same message
        for argv in (["family", "--pd", pd, *crossing, "--ns", "", "--format", "json"],
                     ["family", "--pd", pd, *crossing],
                     ["verify", "--pd", pd, *crossing, "--gc", "1"]):
            assert run_command(argv) == 2
            assert capsys.readouterr() == ("", f"INDEX_OUT_OF_RANGE: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["homfly", "--pd", TREFOIL_PD, "--table", SMALL, "--name", "3_1"],
        ["homfly", "--table", SMALL],
        ["homfly", "--table", SMALL, "--name", "9_99"],
        ["oracle-check"],
    ], ids=["pd-and-table", "table-without-name", "unknown-name", "oracle-without-table"])
    def test_usage_errors_exit2(self, argv, capsys):
        assert run_command(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: ")

    @pytest.mark.parametrize("pd", ["X[{n},1,1,2]", "free_loops={n}"], ids=["label", "loops"])
    def test_overlong_pd_number_is_a_parse_error(self, pd, capsys):
        # int() reads at most sys.get_int_max_str_digits() digits
        limit = sys.get_int_max_str_digits()
        assert run_command(["parse", "--pd", pd.format(n="9" * (limit + 1))]) == 2
        assert capsys.readouterr() == ("", f"PARSE_ERROR: a number has more than {limit} "
                                           "digits\n")
        assert run_command(["parse", "--pd", f"X[{'9' * limit},1,1,2]"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("INVALID_PD: ")

    def test_overlong_pd_number_skips_table_row(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        p = tmp_path / "t.csv"
        p.write_text(f'name,pd\n3_1,"{TREFOIL_PD}"\nbig,"X[{"9" * (limit + 1)},1,1,2]"\n')
        assert run_command(["seifert", "--table", str(p)]) == 0
        assert capsys.readouterr() == (
            "name,c,s,mu,genus\n3_1,3,2,1,1\n",
            f"{p}:3: skipping 'big': a number has more than {limit} digits\n")

    def test_empty_wrapper_exit2(self, capsys):
        assert run_command(["parse", "--pd", "PD[ ]"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("INVALID_PD: empty link")

    @pytest.mark.parametrize("cmd", ["parse", "homfly", "verify", "family"])
    def test_nonplanar_pd_exit2(self, cmd, capsys):
        argv = [cmd, "--pd", "X[1,4,2,3] X[2,4,3,1]"] + (["--gc", "1"] if cmd == "verify"
                                                         else [])
        assert run_command(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("INVALID_PD: ")

    def test_homfly_mirror_on(self, capsys):
        assert run_command(["homfly", "--pd", TREFOIL_PD, "--mirror", "on"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert LaurentPoly2.from_json_obj(obj["homfly"]) == \
            HomflyEngine().homfly(parse_pd(TREFOIL_PD)).mirror()

    def test_verify_expect_json_writes_match(self, capsys):
        expect = HomflyEngine().homfly(parse_pd(TREFOIL_PD)).to_json()
        argv = ["verify", "--pd", TREFOIL_PD, "--gc", "1", "--nmax", "1", "--format", "json",
                "--expect", expect]
        assert run_command(argv) == 1  # the trefoil's rows are not strict
        obj = json.loads(capsys.readouterr().out)
        assert obj["expected_match"] == "exact" and obj["all_strict"] is False

    def test_verify_budget_spent_table(self, capsys):
        argv = ["verify", "--pd", TREFOIL_PD, "--gc", "1", "--budget", "0"]
        assert run_command(argv) == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("status: INCOMPLETE (budget exceeded); NOT all rows strict")

    def test_parse_command(self, capsys):
        assert run_command(["parse", "--pd", TREFOIL_PD]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["writhe"] == -3 and obj["components"] == 1

    def test_seifert_command(self, capsys):
        assert run_command(["seifert", "--table", SMALL]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "name,c,s,mu,genus"
        assert len(lines) == 15

    def test_seifert_quotes_names(self, tmp_path, capsys):
        p = tmp_path / "t.csv"
        with open(p, "w", newline="") as fh:
            csv.writer(fh).writerows([["name", "pd"], ['knot, "left"', TREFOIL_PD]])
        assert run_command(["seifert", "--table", str(p)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows == [["name", "c", "s", "mu", "genus"], ['knot, "left"', "3", "2", "1", "1"]]

    def test_seifert_table_skips_split_rows(self, tmp_path, capsys):
        p = tmp_path / "t.csv"
        p.write_text(f'name,pd\n3_1,"{TREFOIL_PD}"\nsplit,O O\n')
        assert run_command(["seifert", "--table", str(p)]) == 0
        out, err = capsys.readouterr()
        assert out == "name,c,s,mu,genus\n3_1,3,2,1,1\n"
        assert err == (f"{p}:3: skipping 'split': "
                       "Seifert decomposition requires a connected diagram\n")

    def test_seifert_split_only_exit2(self, tmp_path, capsys):
        p = tmp_path / "t.csv"
        p.write_text("name,pd\nsplit,O O\n")
        assert run_command(["seifert", "--table", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1] == f"EMPTY_TABLE: {p}: no connected entries"
        for argv in (["--pd", "O O"], ["--table", str(p), "--name", "split"]):
            assert run_command(["seifert", *argv]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("DISCONNECTED: ")

    def test_homfly_from_table(self, capsys):
        assert run_command(["homfly", "--table", SMALL, "--name", "5_1"]) == 0
        assert json.loads(capsys.readouterr().out)["maxdeg_z"] == 4

    def test_homfly_expect_match(self, tmp_path, capsys):
        left = '[{"ev":-2,"ez":2,"c":"1"},{"ev":-2,"ez":0,"c":"2"},{"ev":-4,"ez":0,"c":"-1"}]'
        assert run_command(["homfly", "--pd", TREFOIL_PD, "--expect", left]) == 0
        capsys.readouterr()
        # mirrored expectation still accepted in auto mode, exit 0
        right = left.replace("-2", "2").replace("-4", "4")
        assert run_command(["homfly", "--pd", TREFOIL_PD, "--expect", right,
                            "--mirror", "auto"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["expected_match"] == "mirror"
        # exact-only mode rejects the mirror, exit 1, and still writes its
        # output and cache records
        cache = tmp_path / "c.jsonl"
        assert run_command(["homfly", "--pd", TREFOIL_PD, "--expect", right,
                            "--mirror", "off", "--cache", str(cache)]) == 1
        assert json.loads(capsys.readouterr().out)["expected_match"] is None
        assert cache.read_bytes()

    @pytest.mark.parametrize("expect, err", [
        ("[{bad", "bad polynomial JSON: Expecting property name enclosed in double quotes: "
                  "line 1 column 3 (char 2)"),
        ('[{"ev":-2.5,"ez":2,"c":"1"}]', "bad polynomial record: not an integer: -2.5"),
        ("{}", "bad polynomial JSON: not an array of term records"),
        ('""', "bad polynomial JSON: not an array of term records"),
    ], ids=["not-json", "not-an-integer", "object", "string"])
    @pytest.mark.parametrize("command", [["homfly"], ["verify", "--gc", "1"]])
    def test_malformed_expect_exits_before_engine_work(self, command, expect, err, tmp_path,
                                                       monkeypatch, capsys):
        # --expect is parsed right after the diagram: no evaluation, no
        # cache record, and the error alone on stderr
        calls = []
        monkeypatch.setattr(HomflyEngine, "homfly", lambda engine, d: calls.append(d))
        cache = tmp_path / "c.jsonl"
        argv = [*command, "--pd", TREFOIL_PD, "--expect", expect, "--cache", str(cache)]
        assert run_command(argv) == 2
        assert capsys.readouterr() == ("", f"PARSE_ERROR: {err}\n")
        assert calls == [] and not cache.exists()

    def test_verify_exit_codes(self, capsys):
        code = run_command(["verify", "--pd", TREFOIL_PD, "--gc", "1",
                            "--crossing", "auto", "--nmax", "2"])
        assert code == 1  # rows are not strict for the trefoil
        capsys.readouterr()

    def test_verify_csv_split_row_and_empty_report(self, capsys):
        # crossing 3 of the closure of s1^3 s2 is a kink, so L_0 is split:
        # its s and genus are null in JSON and empty cells in CSV
        kinked = "X[1,5,2,4] X[5,3,6,2] X[3,7,4,6] X[8,8,1,7]"
        argv = ["verify", "--pd", kinked, "--gc", "1", "--crossing", "3", "--nmax", "2"]
        assert run_command(argv + ["--format", "json"]) == 1
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert (rows[0]["s"], rows[0]["genus"]) == (None, None)
        assert run_command(argv + ["--format", "csv"]) == 1
        header = ["n", "c", "s", "genus", "M", "bound", "strict"]
        assert capsys.readouterr().out.splitlines() == [",".join(header)] + [
            ",".join("" if row[k] is None else str(row[k]).lower() for k in header)
            for row in rows]
        # a zero budget leaves no rows: the header alone
        assert run_command(argv + ["--format", "csv", "--budget", "0"]) == 1
        assert capsys.readouterr().out == "n,c,s,genus,M,bound,strict\n"

    @pytest.mark.parametrize("knot, nmax, fmt, digest", [
        ("7_1", 12, "json", "a13b292df085d39c89a8d0a6ecd7d303033f429e9514353dc9cf730ad1679a06"),
        ("7_1", 12, "table", "866488c335cce9f556fc464e3fe001c6dd0de4c2921b48e5ffe75d8254b96729"),
        ("7_1", 12, "csv", "08ddfa2e5c9e2a57352bb71609f75c72ab2b552096c75f0d0cf410fc9a77e653"),
        ("W(3_1)", 10, "json", "a129ad572dc6ba0a6ab631d952cb6f804a4549b983894f8b24230c4a8e665704"),
        ("W(3_1)", 10, "table", "2cfa5778a4c6716776992a1ad3a9719febca1ed742a79e9aabd7df61124af381"),
        ("W(3_1)", 10, "csv", "3c101a9aba49c06aaf8a07248c6210790898261d7f6896c2bec7bfe7f0304da6"),
    ])
    def test_verify_output_pinned(self, knot, nmax, fmt, digest, capsys):
        # rows n >= 2 are derived from L_0 and L_1; every byte of the
        # report must match the one measured on built diagrams
        if knot == "7_1":
            source = ["--table", SMALL, "--name", "7_1"]
        else:
            trefoil = next(e.diagram for e in load_knot_table(SMALL) if e.name == "3_1")
            source = ["--pd", whitehead_double(trefoil, 1, 0).serialize()]
        argv = ["verify", *source, "--gc", "3", "--nmax", str(nmax), "--format", fmt]
        assert run_command(argv) == 1  # every row lands on its bound
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_verify_expect_mismatch_on_stderr(self, fmt, tmp_path, capsys):
        # --gc 2 makes every row strict, so only the expectation fails
        argv = ["verify", "--pd", TREFOIL_PD, "--gc", "2", "--nmax", "2",
                "--mirror", "off", "--format", fmt]
        assert run_command(argv) == 0
        plain_out, plain_err = capsys.readouterr()
        right = '[{"ev":2,"ez":2,"c":"1"},{"ev":2,"ez":0,"c":"2"},{"ev":4,"ez":0,"c":"-1"}]'
        cache = tmp_path / "c.jsonl"
        assert run_command(argv + ["--expect", right, "--cache", str(cache)]) == 1
        out, err = capsys.readouterr()
        assert out == plain_out and plain_err == ""
        assert err.startswith("EXPECT_MISMATCH pd: ") and err.count("\n") == 1
        assert cache.read_bytes()  # the verdict has output, so the cache is appended to
        # a met expectation writes nothing more
        left = '[{"ev":-2,"ez":2,"c":"1"},{"ev":-2,"ez":0,"c":"2"},{"ev":-4,"ez":0,"c":"-1"}]'
        assert run_command(argv + ["--expect", left]) == 0
        assert capsys.readouterr() == (plain_out, "")

    def test_family_emits_pd_texts(self, capsys):
        assert run_command(["family", "--pd", TREFOIL_PD, "--crossing", "0",
                            "--ns", "0,1,2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        assert all(parse_pd(line) for line in out)

    def test_family_with_no_members_writes_no_table(self, capsys):
        assert run_command(["family", "--pd", TREFOIL_PD, "--ns", ""]) == 0
        assert capsys.readouterr() == ("", "")
        assert run_command(["family", "--pd", TREFOIL_PD, "--ns", "", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["members"] == []

    def test_family_json_manifest(self, capsys):
        assert run_command(["family", "--pd", TREFOIL_PD, "--crossing", "auto",
                            "--ns", "1,3", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [m["c"] for m in obj["members"]] == [3, 5]

    def test_family_manifest_matches_members(self, capsys):
        # each member's c, s, genus and components are read off L_0 and the
        # base; they must be what its own PD text measures, at every crossing
        # of each table knot, of W(3_1) and of a closure with a kink, whose
        # L_0 at crossing 3 is split (s and genus null)
        kinked = "X[1,5,2,4] X[5,3,6,2] X[3,7,4,6] X[8,8,1,7]"
        bases = [e.diagram for e in load_knot_table(SMALL)]
        bases += [whitehead_double(parse_pd(TREFOIL_PD), 1, 0), parse_pd(kinked)]
        split = 0
        for base in bases:
            for i in range(len(base.crossings)):
                assert run_command(["family", "--pd", base.serialize(), "--crossing", str(i),
                                    "--ns", "0,1,2,5", "--format", "json"]) == 0
                for member in json.loads(capsys.readouterr().out)["members"]:
                    d = parse_pd(member["pd"])
                    dec = seifert_circles(d) if d.is_connected() else None
                    measured = (len(d.crossings), d.num_components(),
                                *((dec.num_circles, dec.diagram_genus) if dec else (None, None)))
                    assert measured == tuple(member[k] for k in ("c", "components", "s", "genus"))
                    split += dec is None
        assert split == 1

    def test_family_keeps_no_member(self, capsys):
        # each member is serialized as it is built and then dropped, so ten
        # members of 2,000 bands peak at about the memory of one
        def peak(ns):
            tracemalloc.start()
            try:
                assert run_command(["family", "--pd", TREFOIL_PD, "--ns", ns]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        one = peak("2000")
        assert peak(",".join(["2000"] * 10)) < 1.5 * one

    def test_crossing_auto_is_crossing_zero(self, capsys):
        # family (table, json) and verify --gc <diagram genus> --nmax 3
        # (table, json, csv) on every row of the small table: exit codes
        # and stdout are the same for auto, 0 and no --crossing, and the
        # digest is the one recorded when auto was still resolved apart
        # from the index
        digests = set()
        for crossing in ([], ["--crossing", "auto"], ["--crossing", "0"]):
            h = hashlib.sha256()
            for e in load_knot_table(SMALL):
                source = ["--table", SMALL, "--name", e.name]
                gc = str(seifert_circles(e.diagram).diagram_genus)
                runs = [["family", *source, "--format", fmt] for fmt in ("table", "json")]
                runs += [["verify", *source, "--gc", gc, "--nmax", "3", "--format", fmt]
                         for fmt in ("table", "json", "csv")]
                for argv in runs:
                    code = run_command(argv + crossing)
                    h.update(f"{code}\n{capsys.readouterr().out}".encode())
            digests.add(h.hexdigest())
        assert digests == {"67b221db4647f28a144300bccbe832d56e9188af10e73d44ae37cbc1d22f85f4"}
        assert _build_parser().parse_args(["family", "--crossing", "auto"]).crossing == 0

    def test_family_band_count_out_of_range_exit2(self, capsys):
        # L_n has a band of n crossings, built one at a time, so a huge
        # count would run out of memory before it is rejected
        start = time.process_time()
        assert run_command(["family", "--pd", TREFOIL_PD, "--ns", "1,100000000000"]) == 2
        assert time.process_time() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and "--ns: expected an integer from 0 to 10000, got '100000000000'" in err
        assert _build_parser().parse_args(["family", "--ns", "0,10000"]).ns == [0, 10000]
        assert run_command(["family", "--help"]) == 0
        assert "each at most 10,000" in " ".join(capsys.readouterr().out.split())

    def test_verify_nmax_bounded_like_ns(self, capsys):
        # a band family's n has one bound on family and verify
        assert _build_parser().parse_args(["verify", "--gc", "1", "--nmax", "10000"]).nmax == 10000
        assert run_command(["verify", "--help"]) == 0
        assert "--nmax NMAX last band count n audited, at most 10,000" in " ".join(
            capsys.readouterr().out.split())

    @pytest.mark.parametrize("pd", ["free_loops=1001", "O " * 1001,
                                    TREFOIL_PD + " O free_loops=1000"],
                             ids=["suffix", "tokens", "both"])
    def test_free_loops_over_bound_exit2(self, pd, capsys):
        # the polynomial of k free loops has about k^2/2 terms, so more than
        # 1,000 are rejected at parse, before any engine work
        start = time.process_time()
        assert run_command(["homfly", "--pd", pd]) == 2
        assert time.process_time() - start < 0.1
        assert capsys.readouterr() == ("", "INVALID_PD: free_loops must be at most 1,000\n")
        assert run_command(["parse", "--pd", "free_loops=1000"]) == 0
        assert json.loads(capsys.readouterr().out)["free_loops"] == 1000

    def test_skein_tree_dot(self, capsys):
        assert run_command(["skein-tree", "--pd", "X[1,1,2,2]"]) == 0
        assert capsys.readouterr().out.startswith("digraph skein {")

    def test_double_command(self, capsys):
        assert run_command(["double", "--pd", TREFOIL_PD]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["c"] == 14 and obj["components"] == 1
        assert obj["genus"] <= obj["genus_bound_crossings_of_base"]

    @pytest.mark.parametrize("twists", ["100000000000", "-10001", "1e3"])
    def test_double_twists_out_of_range_exit2(self, twists, capsys):
        # 2 |twists| crossings are built one at a time, so a huge count
        # would run out of memory before it is rejected
        start = time.process_time()
        assert run_command(["double", "--pd", TREFOIL_PD, "--twists", twists]) == 2
        assert time.process_time() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and "--twists: expected an integer from -10000 to 10000" in err
        assert _build_parser().parse_args(["double", "--twists", "-10000"]).twists == -10000

    def test_oracle_check(self, tmp_path, capsys):
        p = tmp_path / "t.csv"
        p.write_text('name,pd\ntre,"X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"\n')
        assert run_command(["oracle-check", "--table", str(p)]) == 0
        assert json.loads(capsys.readouterr().out)["checked"] == 1

    def test_oracle_check_skips_nonplanar_row(self, tmp_path, capsys):
        # the curl's slots describe no diagram on the sphere, and the engine
        # and the oracle disagree on its switched form
        p = tmp_path / "t.csv"
        p.write_text(f'name,pd\ncurl,"X[1,4,2,3] X[2,4,3,1]"\ntre,"{TREFOIL_PD}"\n')
        assert run_command(["oracle-check", "--table", str(p)]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out) == {"agree": True, "checked": 1, "skipped": 0}
        assert err == f"{p}:2: skipping 'curl': the PD slots describe no diagram on the sphere\n"

    def test_oracle_check_mismatch_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("mortonlab.cli.naive_homfly", lambda d, limit: LaurentPoly2.one())
        cache = tmp_path / "c.jsonl"
        assert run_command(["oracle-check", "--table", SMALL, "--cache", str(cache)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("MISMATCH 3_1: engine=")
        assert not cache.exists()

    def test_oracle_check_report_bytes_with_rows_above_limit(self, capsys):
        # rows above --limit are evaluated and checked against the
        # v-degree bound; a passing table keeps the report bytes
        assert run_command(["oracle-check", "--table", SMALL, "--limit", "5"]) == 0
        out, err = capsys.readouterr()
        assert out == '{\n  "agree": true,\n  "checked": 4,\n  "skipped": 10\n}\n'
        assert err == ""

    def test_oracle_check_v_degree_violation_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(HomflyEngine, "homfly", _evaluate_then(LaurentPoly2({(99, 0): 1})))
        cache = tmp_path / "c.jsonl"
        assert run_command(["oracle-check", "--table", SMALL, "--limit", "0",
                            "--cache", str(cache)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("MFW_VIOLATION 3_1: v-degree bound violated")
        assert not cache.exists()

    def test_verify_v_degree_violation_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(HomflyEngine, "homfly", _evaluate_then(LaurentPoly2({(99, 0): 1})))
        cache = tmp_path / "c.jsonl"
        argv = ["verify", "--table", SMALL, "--name", "3_1", "--gc", "1", "--nmax", "2",
                "--cache", str(cache)]
        assert run_command(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("MFW_VIOLATION 3_1: v-degree bound violated for family row n=0")
        assert err.count("\n") == 1
        assert not cache.exists()

    def test_oracle_check_zero_polynomial_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(HomflyEngine, "homfly", _evaluate_then(LaurentPoly2({})))
        cache = tmp_path / "c.jsonl"
        assert run_command(["oracle-check", "--table", SMALL, "--limit", "0",
                            "--cache", str(cache)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("MFW_VIOLATION 3_1: v-degree bound violated for the engine's "
                       "polynomial: zero polynomial, w=3, s=2\n")
        assert not cache.exists()

    def test_verify_zero_polynomial_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(HomflyEngine, "homfly", _evaluate_then(LaurentPoly2({})))
        cache = tmp_path / "c.jsonl"
        argv = ["verify", "--table", SMALL, "--name", "3_1", "--gc", "1", "--nmax", "2",
                "--cache", str(cache)]
        assert run_command(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "MFW_VIOLATION 3_1: zero polynomial for family row n=0\n"
        assert not cache.exists()

    @pytest.mark.parametrize("fake, message", [
        (lambda p: LaurentPoly2.zero(), "zero polynomial for certificate crossing 3"),
        (lambda p: p.mono_mul(1, ev=100),
         "v-degree bound violated for certificate crossing 3: deg_v in [98, 106], w=4, s=9"),
    ], ids=["zero", "v_shifted"])

    def test_verify_checks_certificate_candidates(self, tmp_path, monkeypatch, capsys, fake,
                                                  message):
        # the engine goes wrong only on the W(3_1) candidate switched at
        # crossing 3, which no other candidate's canonical code matches;
        # the trefoil's candidates are all genus drops and never evaluated
        w = whitehead_double(parse_pd(TREFOIL_PD), 1, 0)
        codes = [switched.canonical_code() for _, switched in crossing_change_candidates(w)]
        assert codes.count(codes[3]) == 1
        homfly = HomflyEngine.homfly

        def wrong_at_3(self, d):
            p = homfly(self, d)
            return fake(p) if d.canonical_code() == codes[3] else p

        monkeypatch.setattr(HomflyEngine, "homfly", wrong_at_3)
        cache = tmp_path / "c.jsonl"
        assert run_command(["verify", "--pd", w.serialize(), "--gc", "1", "--nmax", "2",
                            "--cache", str(cache)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"MFW_VIOLATION pd: {message}\n"
        assert not cache.exists()

    def test_out_file(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_command(["homfly", "--pd", TREFOIL_PD, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["maxdeg_z"] == 2

    @pytest.mark.parametrize("argv", [
        ["parse", "--pd", TREFOIL_PD, "--cache", "c.jsonl"],
        ["parse", "--pd", TREFOIL_PD, "--mirror", "on"],
        ["seifert", "--pd", TREFOIL_PD, "--cache", "c.jsonl"],
        ["seifert", "--pd", TREFOIL_PD, "--mirror", "on"],
        ["family", "--pd", TREFOIL_PD, "--cache", "c.jsonl"],
        ["family", "--pd", TREFOIL_PD, "--mirror", "on"],
        ["skein-tree", "--pd", TREFOIL_PD, "--cache", "c.jsonl"],
        ["skein-tree", "--pd", TREFOIL_PD, "--mirror", "on"],
        ["double", "--pd", TREFOIL_PD, "--cache", "c.jsonl"],
        ["double", "--pd", TREFOIL_PD, "--mirror", "on"],
        ["oracle-check", "--table", SMALL, "--pd", TREFOIL_PD],
        ["oracle-check", "--table", SMALL, "--name", "3_1"],
        ["oracle-check", "--table", SMALL, "--mirror", "on"],
    ])
    def test_unread_options_are_usage_errors(self, argv, capsys):
        assert run_command(argv) == 2

    @pytest.mark.parametrize("argv", [
        ["parse", "--pd", TREFOIL_PD, "--out", "{missing}"],
        ["family", "--pd", TREFOIL_PD, "--ns", "1,-1"],
        ["family", "--pd", TREFOIL_PD, "--ns", "1,a"],
        ["family", "--pd", TREFOIL_PD, "--ns", "-1"],
        ["family", "--pd", TREFOIL_PD, "--ns", "10001"],
        ["family", "--pd", TREFOIL_PD, "--crossing", "abc"],
        ["verify", "--pd", TREFOIL_PD, "--gc", "1", "--crossing", "x"],
        ["verify", "--pd", TREFOIL_PD, "--gc", "1", "--nmax", "-1"],
        ["verify", "--pd", TREFOIL_PD, "--gc", "1", "--nmax", "10001"],
        ["verify", "--pd", TREFOIL_PD, "--gc", "-2"],
        ["verify", "--pd", TREFOIL_PD, "--gc", "1.5"],
        ["verify", "--pd", TREFOIL_PD, "--gc", "1", "--budget", "nan"],
        ["verify", "--pd", TREFOIL_PD, "--gc", "1", "--budget", "-1"],
        ["verify", "--pd", TREFOIL_PD, "--gc", "1", "--budget", "x"],
        ["oracle-check", "--table", SMALL, "--limit", "-3"],
        ["skein-tree", "--pd", TREFOIL_PD, "--trace-limit", "-1"],
    ], ids=["out-missing-dir", "ns-negative", "ns-not-int", "ns-minus-one", "ns-over-bound",
            "crossing-abc", "crossing-x", "nmax-negative", "nmax-over-bound", "gc-negative",
            "gc-not-int", "budget-nan", "budget-negative", "budget-not-number",
            "limit-negative", "trace-limit-negative"])
    def test_bad_value_or_unwritable_out_exit2(self, argv, tmp_path, capsys):
        missing = tmp_path / "missing" / "x"
        assert run_command([a.format(missing=missing) for a in argv]) == 2
        cap = capsys.readouterr()
        assert cap.out == "" and not missing.exists()
        if "--out" in argv:
            assert cap.err.startswith("IO_ERROR: ")
        else:  # rejected by the parser, before any work
            assert ": error: argument --" in cap.err

    def test_seifert_has_no_format(self, capsys):
        # the report is always CSV; --format json used to print CSV anyway
        assert run_command(["seifert", "--pd", TREFOIL_PD, "--format", "json"]) == 2
        assert capsys.readouterr().out == ""



def _parser_choices(flag):
    """{subcommand: values of flag} as the parser declares them."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: tuple(a.choices) for name, p in sub.choices.items()
            for a in p._actions if flag in a.option_strings}


# the values each subcommand writes, default first
FORMATS = {
    "parse": ("json", "csv"),
    "homfly": ("json",),
    "family": ("table", "json"),
    "verify": ("table", "json", "csv"),
    "skein-tree": ("dot", "json"),
    "double": ("json", "csv"),
    "oracle-check": ("json", "csv"),
}
MIRRORS = {"homfly": ("auto", "off", "on"), "verify": ("auto", "off")}
REMOVED = [("homfly", "--format", v) for v in ("table", "dot", "csv")] + [
    ("parse", "--format", "table"), ("parse", "--format", "dot"),
    ("family", "--format", "csv"), ("family", "--format", "dot"),
    ("verify", "--format", "dot"),
    ("skein-tree", "--format", "csv"), ("skein-tree", "--format", "table"),
    ("double", "--format", "table"), ("double", "--format", "dot"),
    ("oracle-check", "--format", "table"), ("oracle-check", "--format", "dot"),
    ("verify", "--mirror", "on"),
]
ARGV = {
    "parse": ["--pd", TREFOIL_PD],
    "homfly": ["--pd", TREFOIL_PD],
    "seifert": ["--pd", TREFOIL_PD],
    "family": ["--pd", TREFOIL_PD],
    # --gc 2 overstates the trefoil's genus, so every row is strict and verify exits 0
    "verify": ["--pd", TREFOIL_PD, "--gc", "2", "--nmax", "2"],
    "skein-tree": ["--pd", TREFOIL_PD],
    "double": ["--pd", TREFOIL_PD],
    "oracle-check": ["--table", SMALL, "--limit", "5"],
}
# sha256 of each subcommand's output for ARGV with no --format, recorded
# before --format and --mirror were narrowed to the values written
DEFAULT_DIGESTS = {
    "parse": "8138cae8b8af2272337b5e520db3d0694acc1e7b2034f59a903c48176b1f38aa",
    "homfly": "6a08994055b68f71541ce58718697a7ad689d98e33ef8040570393eda3f0b937",
    "seifert": "9d4f3af6d65104c92378b06a69deb7468493c31c2f9b32b49d669d3a92d1f7a2",
    "family": "d967ae93ffddf84d6cf83569b02aca6b2549a93873baf6574f65b23dbf51db6d",
    "verify": "522e718bdcc9a4a11fdb7721506af1b8a961c8624eddcc049c45ecf48389a0eb",
    "skein-tree": "d28ac7b7121c446ece871d95a7a10881984e4aa178fda123b780ab5e9c1a7354",
    "double": "327701cc75d22cbde72998e3953a62e4201119467781e1c5988a0e44f00e84f6",
    "oracle-check": "fe49e2666cf8fabd1f0e5622cdb987a2204998e438cbcdc7ae2204921d1ea6a3",
}
ACCEPTED = [(cmd, fmt) for cmd, fmts in _parser_choices("--format").items() for fmt in fmts]


def _run(cmd, *extra, capsys):
    code = run_command([cmd, *ARGV[cmd], *extra])
    return code, capsys.readouterr().out


class TestFormats:
    def test_parser_accepts_exactly_the_written_values(self):
        assert _parser_choices("--format") == FORMATS
        assert _parser_choices("--mirror") == MIRRORS

    @pytest.mark.parametrize("cmd, fmt", ACCEPTED)
    def test_accepted_pair_exits0(self, cmd, fmt, capsys):
        code, out = _run(cmd, "--format", fmt, capsys=capsys)
        assert code == 0 and out

    @pytest.mark.parametrize("cmd", sorted(FORMATS))
    def test_formats_differ_pairwise(self, cmd, capsys):
        outs = [_run(cmd, "--format", fmt, capsys=capsys)[1] for fmt in FORMATS[cmd]]
        assert len(set(outs)) == len(outs)

    @pytest.mark.parametrize("cmd", [cmd for cmd, fmt in ACCEPTED if fmt == "csv"])
    def test_csv_reads_back(self, cmd, capsys):
        code, out = _run(cmd, "--format", "csv", capsys=capsys)
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and len(rows) >= 2
        assert len({len(r) for r in rows}) == 1
        if cmd in ("parse", "double"):
            d = parse_pd(TREFOIL_PD)
            pd = dict(zip(*rows))["pd"]
            assert pd == (d if cmd == "parse" else whitehead_double(d)).serialize()

    @pytest.mark.parametrize("cmd", sorted(DEFAULT_DIGESTS))
    def test_default_output_pinned(self, cmd, capsys):
        code, out = _run(cmd, capsys=capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_DIGESTS[cmd]

    @pytest.mark.parametrize("cmd, flag, value", REMOVED)
    def test_removed_value_is_usage_error(self, cmd, flag, value, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_command([cmd, *ARGV[cmd], flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()


def _stderr_counts(err):
    """The engine counters that homfly prints on stderr, in their order."""
    return [(k, int(v)) for k, v in (line.split(": ") for line in err.splitlines()
                                      if line.startswith(("expansions:", "braid evaluations:")))]


class TestCacheFlag:
    def _cold_then_warm(self, name, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_command(["homfly", "--table", SMALL, "--name", name,
                            "--cache", str(cache), "--out", str(out1)]) == 0
        err1 = capsys.readouterr().err
        assert run_command(["homfly", "--table", SMALL, "--name", name,
                            "--cache", str(cache), "--out", str(out2)]) == 0
        err2 = capsys.readouterr().err
        assert out1.read_bytes() == out2.read_bytes()
        return _stderr_counts(err1), _stderr_counts(err2)

    def test_warm_cache_identical_output_fewer_expansions(self, tmp_path, capsys):
        # 5_2's table diagram is not a closed braid, so it takes the skein route
        cold, warm = [dict(c) for c in self._cold_then_warm("5_2", tmp_path, capsys)]
        assert warm["expansions"] < cold["expansions"]
        assert warm["expansions"] == 0

    def test_warm_cache_braid_route(self, tmp_path, capsys):
        # 6_2's table diagram reads as a closed braid: the cold run takes
        # one Hecke trace and no expansion, the warm one neither
        cold, warm = self._cold_then_warm("6_2", tmp_path, capsys)
        assert cold == [("expansions", 0), ("braid evaluations", 1)]
        assert warm == [("expansions", 0), ("braid evaluations", 0)]

    def test_cache_env_var(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        monkeypatch.setenv("MORTONLAB_CACHE", str(cache))
        assert run_command(["homfly", "--pd", TREFOIL_PD]) == 0
        capsys.readouterr()
        assert cache.exists()
        engine = HomflyEngine()
        engine.load_cache(cache)
        assert engine.homfly(parse_pd(TREFOIL_PD))
        assert engine.expansions == 0

    def _corrupt_cache(self, tmp_path, capsys, mangle):
        # 5_2 takes the skein route, so its cold run writes several records
        cache = tmp_path / "cache.jsonl"
        argv = ["homfly", "--table", SMALL, "--name", "5_2", "--cache", str(cache)]
        assert run_command(argv) == 0
        capsys.readouterr()
        lines = cache.read_text().splitlines(keepends=True)
        assert len(lines) >= 3
        cache.write_text("".join(mangle(lines)))
        code = run_command(argv)
        return code, capsys.readouterr(), cache

    def test_torn_final_line_exit2(self, tmp_path, capsys):
        code, cap, cache = self._corrupt_cache(
            tmp_path, capsys, lambda lines: lines[:-1] + [lines[-1][: len(lines[-1]) // 2]])
        assert code == 2
        assert cap.out == ""
        n = len(cache.read_text().splitlines())
        assert cap.err.startswith(f"PARSE_ERROR: {cache}:{n}: bad cache record")

    def test_corrupt_middle_line_exit2(self, tmp_path, capsys):
        def mangle(lines):
            return [lines[0], '{"code":"zz","poly":[]}\n'] + lines[2:]

        code, cap, cache = self._corrupt_cache(tmp_path, capsys, mangle)
        assert code == 2
        assert cap.err.startswith(f"PARSE_ERROR: {cache}:2: bad cache record")

    def test_cache_directory_exit2(self, tmp_path, capsys):
        assert run_command(["homfly", "--pd", TREFOIL_PD, "--cache", str(tmp_path)]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith(f"IO_ERROR: cannot read cache {tmp_path}")

    @pytest.mark.parametrize("argv", [["homfly"], ["verify", "--gc", "1", "--nmax", "2"]])
    def test_cache_under_regular_file_exit2_before_engine_work(
            self, argv, tmp_path, capsys, monkeypatch):
        """Only a missing file is an empty cache: a path that cannot be
        opened for another reason stops the run at load."""
        (tmp_path / "plain").write_text("")
        cache, out = tmp_path / "plain" / "c.jsonl", tmp_path / "out.json"

        def no_engine_work(self, d):
            raise AssertionError("engine work before the cache was read")

        monkeypatch.setattr(HomflyEngine, "homfly", no_engine_work)
        assert run_command(argv + ["--pd", TREFOIL_PD, "--cache", str(cache),
                                   "--out", str(out)]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith(f"IO_ERROR: cannot read cache {cache}")
        assert not out.exists()

    def test_cache_not_utf8_exit2(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        assert run_command(["homfly", "--pd", TREFOIL_PD, "--cache", str(cache)]) == 0
        capsys.readouterr()
        lines = cache.read_bytes().splitlines(keepends=True)
        cache.write_bytes(lines[0] + b'{"code":"\xff\xfe","poly":[]}\n' + b"".join(lines[1:]))
        assert run_command(["homfly", "--pd", TREFOIL_PD, "--cache", str(cache)]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == f"PARSE_ERROR: {cache}:2: bad cache record\n"

    @pytest.mark.parametrize("argv", [
        ["homfly", "--pd", TREFOIL_PD],
        ["verify", "--gc", "1", "--nmax", "2", "--pd", TREFOIL_PD],
        ["oracle-check", "--table", SMALL, "--limit", "5"],
    ])
    def test_cache_in_missing_directory_exit2_before_engine_work(self, argv, tmp_path, capsys):
        # a flush could not create the file, so the load refuses it
        cache, out = tmp_path / "missing" / "cache.jsonl", tmp_path / "out.json"
        assert run_command(argv + ["--cache", str(cache), "--out", str(out)]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith(f"IO_ERROR: cannot read cache {cache}")
        assert "expansions:" not in cap.err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["homfly"], ["verify", "--gc", "1", "--nmax", "2"]])
    def test_cache_flush_failure_exit2(self, argv, tmp_path, capsys, monkeypatch):
        # the cache's directory goes away between the load and the flush
        cache = tmp_path / "gone" / "cache.jsonl"
        cache.parent.mkdir()
        flush = HomflyEngine.flush_cache

        def flush_after_rmdir(engine, path):
            cache.parent.rmdir()
            return flush(engine, path)

        monkeypatch.setattr(HomflyEngine, "flush_cache", flush_after_rmdir)
        assert run_command(argv + ["--pd", TREFOIL_PD, "--cache", str(cache)]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith(f"IO_ERROR: cannot write cache {cache}")

    def test_oracle_check_appends_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        argv = ["oracle-check", "--table", SMALL, "--limit", "5", "--cache", str(cache)]
        assert run_command(argv) == 0
        written = cache.read_bytes()
        assert written
        assert run_command(argv) == 0
        assert cache.read_bytes() == written
        capsys.readouterr()
        assert run_command(["homfly", "--table", SMALL, "--name", "3_1",
                            "--cache", str(cache)]) == 0
        assert "expansions: 0" in capsys.readouterr().err.splitlines()

    def test_skein_tree_never_reads_cache(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        cache.write_text("not a cache record\n")
        monkeypatch.setenv("MORTONLAB_CACHE", str(cache))
        assert run_command(["skein-tree", "--pd", TREFOIL_PD]) == 0
        assert capsys.readouterr().out.startswith("digraph skein {")
