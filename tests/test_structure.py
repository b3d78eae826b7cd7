"""Source-level guards over src/mortonlab: invariant checks that python -O
cannot strip, no interpreter-global recursion-limit changes, no thread
pools, no unused imports or unread private names, the skein rule, the
zero-dropping term fold, the permutation-cycle walk, the Seifert
successor map, the PD slot pairing, the crossing switch, the R2-pair
test and the polynomial term-map code written once, a diagram's label
and planarity errors each raised in one function over that pairing,
every engine route in one recursive method that splits and reads braids
in one place each and looks each code up once, a Hecke trace that keeps
no state between calls, free loops built as no diagram and bounded in
one function, braid words checked in one function, filed cache codes
kept in one map, RecursionError caught in one function, a package
namespace that does not shadow its modules, the attributes the
benchmark's layer trace wraps, crossing strands stored as fields, PD
slots read only in diagram.py, a braid reader and diagram pieces without
union-find, and a cold evaluation that neither validates
nor walks cycles again, builds one edge table, and walks pieces only
where a diagram is parsed; the CLI's run sequence (diagram, --expect,
engine and cache, output) written once, in cli._dispatch; every CLI
option value read by one argparse type, with no second path for
--crossing auto; every band-family row derived in family.band_bookkeeping
alone, with no Seifert decomposition per family member, and each audit
polynomial checked in one function; and over scripts/: nothing imported
from the test tree."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import mortonlab
from helpers import SPLIT_WHEN_SIMPLIFIED_PD, skein_homfly, trefoil_beside_its_double

from mortonlab.braid import hecke_homfly
from mortonlab.diagram import Crossing, Diagram, parse_pd
from mortonlab.family import braid_closure, whitehead_double
from mortonlab.homfly import HomflyEngine
from mortonlab.poly import LaurentPoly1, LaurentPoly2, _skein_step

SOURCES = sorted(Path(mortonlab.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_recursion_limit_changes(path):
    lines = [n.lineno for n in ast.walk(_tree(path))
             if isinstance(n, ast.Attribute) and n.attr == "setrecursionlimit"]
    assert not lines, f"{path.name}: setrecursionlimit on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_thread_imports(path):
    banned = ("threading", "concurrent")
    found = []
    for n in ast.walk(_tree(path)):
        if isinstance(n, ast.Import):
            found += [a.name for a in n.names if a.name.split(".")[0] in banned]
        elif isinstance(n, ast.ImportFrom) and n.module and n.module.split(".")[0] in banned:
            found.append(n.module)
    assert not found, f"{path.name}: imports {found}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_imported_names_are_used(path):
    # this also keeps every name the layer trace rebinds in a module by
    # import (TRACED_MODULE_NAMES below) called through that module
    tree = _tree(path)
    imported = {(a.asname or a.name).split(".")[0] for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom))
                and getattr(n, "module", None) != "__future__" for a in n.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == [], f"{path.name}: unused imports"


SCRIPTS = sorted((Path(__file__).parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_scripts_do_not_import_tests(path):
    # scripts run against the installed library, not the test tree
    found = []
    for n in ast.walk(_tree(path)):
        if isinstance(n, ast.Import):
            found += [a.name for a in n.names if a.name.split(".")[0] in ("helpers", "tests")]
        elif isinstance(n, ast.ImportFrom) and n.module and n.module.split(".")[0] in ("helpers", "tests"):
            found.append(n.module)
        elif (isinstance(n, ast.Attribute) and n.attr in ("insert", "append")
              and isinstance(n.value, ast.Attribute) and n.value.attr == "path"):
            found.append(f"sys.path.{n.attr} on line {n.lineno}")
    assert not found, f"{path.name}: imports {found}"


def test_private_module_names_are_read():
    # a module-level _name that nothing loads, reads as an attribute or
    # imports is dead code
    trees = [_tree(path) for path in SOURCES]
    read = set()
    for n in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read.update(a.name for a in n.names)
    unread = []
    for path, tree in zip(SOURCES, trees):
        for n in tree.body:
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                names = [n.name]
            elif isinstance(n, (ast.Assign, ast.AnnAssign)):
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                names = [e.id for t in targets for e in ast.walk(t) if isinstance(e, ast.Name)]
            else:
                names = []
            unread += [f"{path.stem}.{name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unread == []


def _mono_mul_lines(tree):
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "mono_mul"]


@pytest.mark.parametrize("module", ["morton", "homfly"])
def test_skein_rule_written_once(module):
    # the engine, the oracle, the trace and the family recurrence each take
    # P from poly._skein_step, the only code that calls mono_mul, so the
    # skein rule stays written once
    callers = {path.stem: _mono_mul_lines(_tree(path)) for path in SOURCES}
    assert [name for name, calls in callers.items() if calls] == ["poly"]
    poly = _functions(_tree(Path(mortonlab.__file__).parent / "poly.py"))
    assert [name for name, f in poly.items() if _mono_mul_lines(f)] == ["_skein_step"]
    tree = _tree(Path(mortonlab.__file__).parent / f"{module}.py")
    imported = [a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module == "poly"
                for a in n.names]
    assert "_skein_step" in imported


def test_hecke_weights_are_the_skein_rule_without_its_writhe_factor():
    # the trace multiplies by g_i = v^-1 T_i, so its two weights (1 for the
    # switch, s z for the smoothing) are the skein rule's with v^(2s) and
    # v^s divided out
    zero = LaurentPoly2.zero()
    for s in (1, -1):
        assert _skein_step(s, LaurentPoly2({(-2 * s, 0): 1}), zero) == LaurentPoly2.one()
        assert _skein_step(s, zero, LaurentPoly2({(-s, 0): 1})) == LaurentPoly2({(0, 1): s})


def _functions(tree):
    return {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}


def _called(f):
    return {n.func.id for n in ast.walk(f) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)}


def test_term_fold_written_once():
    # every zero-dropping term sum goes through poly._fold
    functions = _functions(_tree(Path(mortonlab.__file__).parent / "poly.py"))
    owners = sorted(name for name, f in functions.items()
                    if any(isinstance(n, ast.Delete) for n in ast.walk(f)))
    assert owners == ["_fold"]


def test_permutation_cycle_walk_written_once():
    # component cycles and Seifert circles are both read off
    # diagram._permutation_cycles
    src = Path(mortonlab.__file__).parent
    seifert = _tree(src / "seifert.py")
    walks = [f.name for f in (_functions(seifert)["seifert_circles"],
                              _functions(_tree(src / "diagram.py"))["component_cycles"])
             if any(isinstance(n, ast.While) for n in ast.walk(f))]
    assert walks == []
    imported = [a.name for n in ast.walk(seifert)
                if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module == "diagram"
                for a in n.names]
    assert "_permutation_cycles" in imported


def test_seifert_successor_map_written_once():
    # seifert._seifert_cycles alone walks the circles, off the one map
    # under-in -> over-out, over-in -> under-out, and stores them on the
    # diagram, where seifert_circles and the braid reader read them; only
    # switch_crossing hands stored circles on
    functions = {f"{path.stem}.{name}": f for path in SOURCES
                 for name, f in _functions(_tree(path)).items()}
    assert sorted(name for name, f in functions.items() if "_permutation_cycles" in _called(f)) == \
        ["diagram.component_cycles", "seifert._seifert_cycles"]
    stores = sorted(name for name, f in functions.items() for n in ast.walk(f)
                    if isinstance(n, ast.Attribute) and n.attr == "_seifert"
                    and isinstance(n.ctx, ast.Store))
    assert stores == ["diagram.__init__", "diagram.switch_crossing", "seifert._seifert_cycles"]
    assert "_seifert_cycles" in _called(functions["seifert.seifert_circles"])
    assert "_seifert_cycles" in _called(functions["braid.read_braid"])


def test_pd_slots_read_only_in_diagram():
    # PD slot order is a fact of the text format: Crossing.pd is read by
    # serialize and validation, both in diagram.py
    readers = [f"{path.name}:{n.lineno}" for path in SOURCES if path.name != "diagram.py"
               for n in ast.walk(_tree(path)) if isinstance(n, ast.Call)
               and isinstance(n.func, ast.Attribute) and n.func.attr == "pd"]
    assert readers == []


def test_slot_pairing_written_once():
    # parse_pd and validation each pair the two slots of each label once,
    # through diagram._slot_mates, for the sign walk and the face walk
    functions = _functions(_tree(Path(mortonlab.__file__).parent / "diagram.py"))
    assert sorted(name for name, f in functions.items() if "_slot_mates" in _called(f)) == \
        ["_validate", "parse_pd"]
    pairing = sorted(f"{path.stem}.{f.name}" for path in SOURCES
                     for f in _functions(_tree(path)).values()
                     if any(isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
                            and isinstance(n.value, ast.Name) and n.value.id == "mate"
                            for n in ast.walk(f)))
    assert pairing == ["diagram._slot_mates"]


def _raisers(functions, message):
    """Names of the functions with a raise whose string constants hold message."""
    return sorted(name for name, f in functions.items() for n in ast.walk(f)
                  if isinstance(n, ast.Raise) and message in "".join(
                      c.value for c in ast.walk(n)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)))


def test_braid_words_checked_once():
    # braid_closure and the Hecke trace take the same words, checked by one
    # function in braid.py
    functions = {f"{path.stem}.{name}": f for path in SOURCES
                 for name, f in _functions(_tree(path)).items()}
    assert _raisers(functions, "word letters must be") == ["braid._check_word"]
    assert [name for name, f in functions.items() if "_check_word" in _called(f)] == [
        "braid.hecke_homfly", "family.braid_closure"]


def test_entry_rules_checked_once():
    # a diagram's labels and planarity are each checked in one function,
    # over the one slot pairing that parse_pd and validation build: only
    # _slot_mates raises the label error, with no separate label count,
    # and only _check_planar the planarity error
    tree = _tree(Path(mortonlab.__file__).parent / "diagram.py")
    functions = _functions(tree)
    assert _raisers(functions, "edge labels must be") == ["_slot_mates"]
    assert _raisers(functions, "no diagram on the sphere") == ["_check_planar"]
    assert sorted(name for name, f in functions.items() if "_check_planar" in _called(f)) == \
        ["_validate", "parse_pd"]
    names = set(functions) | {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert {"_check_labels", "Counter"} & names == set()


def _sign_negations(tree):
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.UnaryOp)
            and isinstance(n.op, ast.USub) and isinstance(n.operand, ast.Attribute)
            and n.operand.attr == "sign"]


def test_switch_and_r2_pair_written_once():
    # a crossing's sign is negated only by Crossing.switched, and the
    # reduction and the engine's look-ahead both test an R2 pair through
    # diagram._r2_pair, reading no sign themselves
    src = Path(mortonlab.__file__).parent
    diagram = _functions(_tree(src / "diagram.py"))
    negations = [(path.stem, line) for path in SOURCES for line in _sign_negations(_tree(path))]
    assert negations == [("diagram", line) for line in _sign_negations(diagram["switched"])]
    assert len(negations) == 1
    for f in (diagram["_first_move"],
              _functions(_tree(src / "homfly.py"))["choose_skein_crossing"]):
        assert "_r2_pair" in _called(f)
        assert [n.lineno for n in ast.walk(f) if isinstance(n, ast.Attribute)
                and n.attr == "sign"] == [], f.name


@pytest.mark.parametrize("module", ["braid", "diagram"])
def test_no_union_find(module):
    # closed braids are read from each circle's neighbours on its two
    # sides, with no merge of faces into regions, and a diagram's pieces
    # are found by one walk along its strands
    functions = _functions(_tree(Path(mortonlab.__file__).parent / f"{module}.py"))
    assert "find" not in functions and "_regions" not in functions


def test_polynomial_term_map_written_once():
    # both polynomial types inherit the term-map code; without __slots__ = ()
    # on each, every polynomial would carry a __dict__ as well
    shared = ("__init__", "_of", "terms", "__bool__", "__eq__")
    assert [(cls.__name__, m) for cls in (LaurentPoly1, LaurentPoly2) for m in shared
            if m in cls.__dict__] == []
    assert [p for p in (LaurentPoly1({0: 1}), LaurentPoly2.one()) if hasattr(p, "__dict__")] == []


def test_engine_recursion_is_one_method():
    # every route of the engine (look up, Hecke trace, split product,
    # layered lift, skein step) lies in one recursive method, which takes
    # one frame per level of the resolution tree and splits in one place
    # and reads braids in one branch, the root as given and as simplified
    tree = _tree(Path(mortonlab.__file__).parent / "homfly.py")
    engine = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "HomflyEngine")
    methods = {f.name: f for f in engine.body if isinstance(f, ast.FunctionDef)}
    assert list(methods) == ["__init__", "homfly", "_eval", "load_cache", "flush_cache"]
    called = [getattr(n.func, "attr", getattr(n.func, "id", None))
              for n in ast.walk(engine) if isinstance(n, ast.Call)]
    assert (called.count("split_pieces"), called.count("read_braid")) == (1, 2)
    reads = [sum(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "read_braid"
                 for c in ast.walk(n.test))
             for n in ast.walk(methods["_eval"]) if isinstance(n, ast.If)]
    assert [k for k in reads if k] == [2]
    reach = {name: {n.attr for n in ast.walk(f) if isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"} & methods.keys()
             for name, f in methods.items()}
    for _ in methods:  # close over calls of calls
        reach = {name: r.union(*(reach[c] for c in r)) for name, r in reach.items()}
    assert [name for name, r in reach.items() if name in r] == ["_eval"]


def test_trace_keeps_no_state_between_calls():
    # the Hecke trace reads only its word and strand count, so it keeps
    # nothing on the engine, which holds its cache, its two counters and
    # its filed codes alone
    assert list(inspect.signature(hecke_homfly).parameters) == ["word", "strands"]
    assert vars(HomflyEngine()).keys() == {"cache", "expansions", "braid_evaluations", "_filed"}


def test_free_loops_and_filed_codes_kept_in_one_form():
    # free loops are a count, so no 0-crossing Diagram((), ...) stands for
    # one; the codes of the engine's cache files are one map, with no
    # separate queue of records to decode or set of written keys
    built = [f"{path.name}:{n.lineno}" for path in SOURCES for n in ast.walk(_tree(path))
             if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "Diagram"
             and n.args and isinstance(n.args[0], (ast.Tuple, ast.List)) and not n.args[0].elts]
    assert built == []
    assert {"_undecoded", "_loaded_keys"} & vars(HomflyEngine()).keys() == set()
    # PD text and Diagram(...) bound the count through one function
    functions = _functions(_tree(Path(mortonlab.__file__).parent / "diagram.py"))
    assert _raisers(functions, "free_loops must be") == ["_check_free_loops"] * 2
    assert sorted(name for name, f in functions.items() if "_check_free_loops" in _called(f)) \
        == ["_validate", "parse_pd"]


def test_recursion_error_caught_once():
    # the engine, the oracle and the trace all map RecursionError to
    # TooLargeError through homfly._guarded
    catching = {"RecursionError", "RuntimeError", "Exception", "BaseException"}
    owners = [f"{path.stem}.{f.name}" for path in SOURCES for f in ast.walk(_tree(path))
              if isinstance(f, ast.FunctionDef)
              and any(isinstance(h, ast.ExceptHandler)
                      and (h.type is None
                           or catching & {n.id for n in ast.walk(h.type) if isinstance(n, ast.Name)})
                      for h in ast.walk(f))]
    assert owners == ["homfly._guarded"]


def test_crossing_strands_are_fields():
    # a crossing stores its strands, so no read works out a PD slot again
    assert [name for name, v in vars(Crossing).items() if isinstance(v, property)] == []


def test_cli_run_sequence_written_once():
    # every subcommand is a function returning its output to cli._dispatch,
    # the one place that reads the diagram and --expect, builds the engine,
    # loads and appends to the cache and writes the output
    tree = _tree(Path(mortonlab.__file__).parent / "cli.py")
    callers = {}
    for f in tree.body:
        if isinstance(f, ast.FunctionDef):
            for n in ast.walk(f):
                if isinstance(n, ast.Call):
                    name = getattr(n.func, "attr", getattr(n.func, "id", None))
                    callers.setdefault(name, []).append(f.name)
    once = ("_diagram_from_args", "from_json", "HomflyEngine", "load_cache", "flush_cache",
            "_emit")
    assert {name: callers.get(name) for name in once} == {name: ["_dispatch"] for name in once}


def test_cli_option_values_read_by_one_type():
    # argparse turns each option's text into its final value, through one
    # bounded-number type; --crossing auto is crossing 0 there, so no
    # command function resolves it again
    tree = _tree(Path(mortonlab.__file__).parent / "cli.py")
    functions = [f for f in tree.body if isinstance(f, ast.FunctionDef)]
    typed = [f.name for f in functions
             if any(isinstance(n, ast.Raise) and "ArgumentTypeError" in ast.unparse(n)
                    for n in ast.walk(f))]
    assert typed == ["_number"]
    assert "_auto_crossing" not in {f.name for f in functions}
    assert [f.name for f in functions for n in ast.walk(f)
            if isinstance(n, ast.Compare) and "'auto'" in ast.unparse(n)] == []


def test_band_rows_derived_once():
    # each row's c, mu, w, s and genus follow from L_0 and the base, as band
    # insertion keeps the Seifert circles: only band_bookkeeping (and
    # seifert_circles, for a diagram it decomposes) works out a genus, and
    # cli._family decomposes the base once, none of its members
    src = Path(mortonlab.__file__).parent
    assert sorted(f"{path.stem}.{name}" for path in SOURCES
                  for name, f in _functions(_tree(path)).items()
                  if "surface_genus" in _called(f)) == \
        ["family.band_bookkeeping", "seifert.seifert_circles"]
    family = _functions(_tree(src / "cli.py"))["_family"]
    loops = [n for n in ast.walk(family) if isinstance(n, (ast.For, ast.While, ast.ListComp,
                                                             ast.GeneratorExp, ast.DictComp))]
    assert loops and [n.lineno for n in loops if "seifert_circles" in _called(n)] == []
    # the audit checks every polynomial, row or certificate candidate, in
    # one function, with the certificate search inside verify_theorem_family
    morton = _functions(_tree(src / "morton.py"))
    assert "_hypothesis_certificates" not in morton
    assert len(_raisers(morton, "zero polynomial for")) == 1


def test_homfly_module_not_shadowed():
    module = importlib.import_module("mortonlab.homfly")
    assert mortonlab.homfly is module
    assert module.HomflyEngine is mortonlab.HomflyEngine


# The benchmark's layer trace (perfbench/layers.py) wraps these attributes
# from outside; moving one off its class or module detaches a layer silently.
TRACED_DIAGRAM_METHODS = ("simplify", "canonical_code", "smooth_crossing", "switch_crossing",
                          "is_connected", "split_pieces", "component_cycles")
TRACED_ENGINE_METHODS = ("__init__", "homfly", "load_cache", "flush_cache")
TRACED_POLY_METHODS = ("__add__", "__mul__", "mono_mul", "__pow__", "from_json_obj", "to_json_obj")
# (module, name) for every name the trace rebinds in a module; "" is the package
TRACED_MODULE_NAMES = (
    [(m, "parse_pd") for m in ("diagram", "", "cli")]
    + [("homfly", "choose_skein_crossing")]
    + [(m, "seifert_circles") for m in ("seifert", "", "family", "morton", "cli")]
    + [(m, "insert_parallel_bands") for m in ("family", "morton", "cli")]
    + [(m, "crossing_change_candidates") for m in ("family", "morton")]
    + [(m, "verify_theorem_family") for m in ("morton", "cli")]
    + [("cli", n) for n in ("run_command", "load_knot_table", "export_report")]
)


def test_traced_methods_stay_on_their_classes():
    assert [m for m in TRACED_DIAGRAM_METHODS if not callable(Diagram.__dict__.get(m))] == []
    assert [m for m in TRACED_ENGINE_METHODS if not callable(HomflyEngine.__dict__.get(m))] == []
    assert [m for m in TRACED_POLY_METHODS if m not in LaurentPoly2.__dict__] == []


def test_traced_names_stay_bound():
    unbound = [(m, n) for m, n in TRACED_MODULE_NAMES
               if not callable(importlib.import_module(f"mortonlab.{m}".rstrip(".")).__dict__.get(n))]
    assert unbound == []


TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"


def test_engine_looks_up_skein_choice_on_module(monkeypatch):
    module = importlib.import_module("mortonlab.homfly")
    calls = []
    original = module.choose_skein_crossing

    def counted(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(module, "choose_skein_crossing", counted)
    # a Whitehead double is not a closed braid, so it takes the skein route
    HomflyEngine().homfly(whitehead_double(parse_pd(TREFOIL)))
    assert calls


class _GetOnlyCache(dict):
    """Engine cache that counts get() and its hits and refuses every other
    read."""

    def __init__(self):
        super().__init__()
        self.gets = self.hits = 0

    def get(self, key, default=None):
        self.gets += 1
        if dict.__contains__(self, key):
            self.hits += 1
        return dict.get(self, key, default)

    def __getitem__(self, key):
        raise AssertionError("engine read its cache with []")

    def __contains__(self, key):
        raise AssertionError("engine read its cache with 'in'")


def test_engine_reads_cache_only_through_get():
    engine = HomflyEngine()
    engine.cache = cache = _GetOnlyCache()
    d = parse_pd(TREFOIL)
    first = engine.homfly(d)
    assert engine.homfly(d) == first
    assert cache.gets > 0 and len(cache) > 0


@pytest.mark.parametrize("make", [lambda: whitehead_double(parse_pd(TREFOIL)),
                                  lambda: parse_pd(SPLIT_WHEN_SIMPLIFIED_PD),
                                  trefoil_beside_its_double],
                         ids=["W(3_1)", "split-when-simplified", "braid-beside-double"])
def test_engine_looks_up_each_code_once(make):
    # each miss is stored, and no code is looked up again on its way there
    engine = HomflyEngine()
    engine.cache = cache = _GetOnlyCache()
    engine.homfly(make())
    assert cache.gets == cache.hits + len(cache)


def test_engine_neither_revalidates_nor_rewalks_cycles(monkeypatch):
    # renumbered and switched diagrams are built valid and carry their
    # component cycles, so a cold evaluation validates nothing after
    # parse_pd and walks the cycles only of diagrams made otherwise
    module = importlib.import_module("mortonlab.diagram")
    d = parse_pd(braid_closure([1, 2, 3] * 5, 4).serialize())
    validations, walks, made = [], [], {}

    def keep(made_by):
        def made_here(*args, **kwargs):
            out = made_by(*args, **kwargs)
            made[id(out)] = out
            return out
        return made_here

    def counted_validate(self):
        validations.append(self)
        return validate(self)

    def counted_cycles(self):
        if self._cycles is None:
            walks.append(self)
        return cycles(self)

    validate, cycles = Diagram._validate, Diagram.component_cycles
    monkeypatch.setattr(module, "_renumber", keep(module._renumber))
    monkeypatch.setattr(Diagram, "switch_crossing", keep(Diagram.switch_crossing))
    monkeypatch.setattr(Diagram, "_validate", counted_validate)
    monkeypatch.setattr(Diagram, "component_cycles", counted_cycles)
    # the skein route; the public one reads T(4,5) as a closed braid
    engine = HomflyEngine()
    skein_homfly(engine, d)
    assert engine.expansions > 0 and len(made) > engine.expansions
    assert validations == []
    assert walks and [w for w in walks if id(w) in made] == []
    # the public route, from a fresh parse
    validations.clear()
    walks.clear()
    d = parse_pd(d.serialize())
    public = HomflyEngine()
    public.homfly(d)
    assert (public.expansions, public.braid_evaluations) == (0, 1)
    assert validations == []
    assert [id(w) for w in walks] == [id(d)]


def test_engine_builds_one_edge_table_and_walks_pieces_only_at_parse(monkeypatch):
    # parse_pd walks the root's pieces over its edge table for the
    # planarity check; renumbered and switched diagrams carry their edge
    # tables, and the first canonical walk records a diagram's pieces when
    # its crossings form one, so a cold evaluation builds a table only for
    # the parsed root and walks the pieces of no diagram whose code it
    # computed
    module = importlib.import_module("mortonlab.diagram")
    text = braid_closure([1, 2, 3] * 5, 4).serialize()
    tables, walks, coded = [], [], []

    def counted_entries(crossings):
        tables.append(crossings)
        return entries(crossings)

    def counted_pieces(self):
        if self._pieces is None:
            walks.append(self)
        return pieces(self)

    def counted_code(self):
        coded.append(self)
        return code(self)

    entries, pieces, code = module._entries, Diagram._crossing_graph_pieces, Diagram._compute_code
    monkeypatch.setattr(module, "_entries", counted_entries)
    monkeypatch.setattr(Diagram, "_crossing_graph_pieces", counted_pieces)
    monkeypatch.setattr(Diagram, "_compute_code", counted_code)
    d = parse_pd(text)
    assert tables == [d.crossings] and [id(x) for x in walks] == [id(d)] and coded == []
    walks.clear()
    # the skein route; the public one reads T(4,5) as a closed braid
    engine = HomflyEngine()
    skein_homfly(engine, d)
    assert engine.expansions > 0 and len(coded) > engine.expansions
    assert any(x.crossings and x.free_loops for x in coded)  # free loops beside crossings
    assert tables == [d.crossings]
    assert {id(x) for x in walks} & {id(x) for x in coded} == set()
    # the public route, from a fresh parse: the reader uses the root's
    # table and pieces, both from parse_pd
    for seen in (tables, walks, coded):
        seen.clear()
    d = parse_pd(text)
    public = HomflyEngine()
    public.homfly(d)
    assert (public.expansions, public.braid_evaluations) == (0, 1)
    assert tables == [d.crossings]
    assert [id(x) for x in coded] == [id(d)] and [id(x) for x in walks] == [id(d)]
