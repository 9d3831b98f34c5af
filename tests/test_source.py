"""Properties of the library source itself."""

import ast
import contextlib
import importlib
import io
import os
import subprocess
import sys
import types
from functools import cached_property
from pathlib import Path

import pytest

import quandleworks
from conftest import build_corpus, two_orbit_quandle_mod
from quandleworks import (MEDIAL, FiniteQuandle, MalformedTable,
                          affine_quandle, check_axioms, collapse,
                          dihedral_quandle, n_quandle, parse_table_text,
                          quandle, quotient_by_identity, relabel,
                          render_table_text, trivial_quandle, variety,
                          verify_theorem)
from quandleworks.cli import main
from quandleworks.ring import reduce

PACKAGE_DIR = Path(quandleworks.__file__).parent
BENCH_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, and with them any check they hold
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(PACKAGE_DIR.glob("*.py"))) > 1
    assert found == []


def _absolute_imports():
    """(file:line, top-level module) of each absolute import in the library."""
    assert len(list(PACKAGE_DIR.glob("*.py"))) > 1
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno}", name.partition(".")[0]


def test_the_library_imports_only_the_standard_library_and_itself():
    # quandleworks has no runtime dependencies
    found = [f"{where} {name}" for where, name in _absolute_imports()
             if name not in sys.stdlib_module_names and name != "quandleworks"]
    assert found == []


# every command pays for these modules when it imports quandleworks.cli,
# and the benchmark times that import (setup_s): a module joins the list on
# purpose, not as a side effect.  dataclasses is the exception: ring.py
# imports it only inside FrozenValue, on a failed assignment, to raise its
# FrozenInstanceError
STANDARD_MODULES = frozenset({
    "argparse", "dataclasses", "functools", "itertools", "math", "operator",
    "pathlib", "random", "re", "sys", "typing"})


def test_the_library_imports_only_the_listed_standard_modules():
    found = {name for _, name in _absolute_imports()}
    # __future__ imports are compiler directives
    assert found - {"__future__", "quandleworks"} == STANDARD_MODULES



def _unused_imports(source):
    """Each name that an import in `source` binds and the module never
    reads, but the __future__ directive annotations."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [alias.asname or alias.name.partition(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    return [name for name in bound if name != "annotations" and name not in read]


def test_the_library_reads_every_name_it_imports():
    # an import nobody reads still costs its compile and load time, which
    # the benchmark's setup_s measures; __init__.py imports to re-export
    assert _unused_imports("from __future__ import annotations\nimport itertools\n"
                           "import os.path as p\nfrom re import sub, split\n"
                           "def f(x: p) -> None:\n    return sub\n") == [
        "itertools", "split"]
    found = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "__init__.py"}
    assert len(found) > 1
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_one_worklist_closure_finds_the_translators_and_the_orbits():
    # quandle.reach is the one place that closes a set under translations;
    # the orbits follow the translators, not the n^2 table entries, and
    # every reader of translations reads the translators: no generating set
    # is kept beside them
    tree = ast.parse((PACKAGE_DIR / "quandle.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}

    def pops_in_a_while(function):
        return any(isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                   and call.func.attr == "pop"
                   for loop in ast.walk(function) if isinstance(loop, ast.While)
                   for call in ast.walk(loop))

    def calls(function, name):
        return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == name for node in ast.walk(function))

    def reads(tree, attr):
        return [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == attr]

    assert [name for name, node in functions.items() if pops_in_a_while(node)] == ["reach"]
    assert calls(functions["translators"], "reach")
    assert calls(functions["_orbit_blocks"], "reach")
    # _orbit_blocks reads no table entries: self.table appears only as the
    # owner of an attribute (its translators), never subscripted, iterated
    # or bound to a name
    blocks = functions["_orbit_blocks"]
    owners = {id(node.value) for node in ast.walk(blocks)
              if isinstance(node, ast.Attribute)}
    assert [node.lineno for node in ast.walk(blocks)
            if isinstance(node, ast.Attribute) and node.attr == "table"
            and id(node) not in owners
            or isinstance(node, ast.Name) and node.id == "table"] == []
    assert reads(blocks, "translators")
    assert reads(functions["n_quandle_violations"], "translators")
    variety = ast.parse((PACKAGE_DIR / "variety.py").read_text(encoding="utf-8"))
    assert reads(tree, "generators") == reads(variety, "generators") == []
    assert "generators" not in vars(quandle._Rows)


def test_the_ring_is_exact_arithmetic_only_and_collapse_owns_the_draws():
    # the sampled checks draw their samples with collapse.random_draws, at
    # collapse.SAMPLE_BOUND; ring.py draws nothing
    ring_imports = [name for where, name in _absolute_imports()
                    if where.startswith("ring.py:")]
    assert ring_imports and "random" not in ring_imports
    assert [m.__name__ for m in _library_modules()
            if hasattr(m, "random_draws")] == ["quandleworks.collapse"]

def test_importing_the_cli_loads_no_dataclass_machinery():
    # setup_s times this import in a fresh interpreter; the frozen values
    # derive from ring.FrozenValue, which loads dataclasses only to raise
    # FrozenInstanceError
    probe = "\n".join([
        "import sys",
        "import quandleworks.cli",
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))",
        "from quandleworks.variety import MEDIAL",
        "try:",
        "    MEDIAL.tag = 'n_quandle'",
        "except Exception as error:",
        "    import dataclasses",
        "    print(type(error) is dataclasses.FrozenInstanceError, error)",
    ])
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    run = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == ["[]", "True cannot assign to field 'tag'"]


# the symbolic axiom suite, which checks premises of fixed code and is the
# test oracle tests/seed_symbolic.py, shift_gap, which only tests called,
# and the tests' random ring elements (tests/seed_ring.py)
TEST_ONLY_NAMES = (
    "check_axioms_symbolic", "SymbolicCase", "SymbolicAxiomReport", "_AXIOMS",
    "_sides_idempotence", "_sides_op_after_undo", "_sides_undo_after_op",
    "_sides_distributivity", "_sides_mediality", "_counterexample", "PLAIN",
    "REVERSED", "reversed_op_inv", "shift_gap", "random_pair", "random_elem",
)


def _library_modules():
    return [quandleworks] + [importlib.import_module(f"quandleworks.{path.stem}")
                             for path in sorted(PACKAGE_DIR.glob("*.py"))
                             if path.stem not in ("__init__", "__main__")]


def test_the_library_binds_no_test_only_name():
    modules = _library_modules()
    assert {m.__name__ for m in modules} >= {
        "quandleworks", "quandleworks.affine", "quandleworks.collapse"}
    assert [f"{m.__name__}.{name}" for m in modules for name in TEST_ONLY_NAMES
            if hasattr(m, name)] == []
    collapse = importlib.import_module("quandleworks.collapse")
    assert not hasattr(collapse.CollapseReport, "lattice_index")
    assert not hasattr(quandleworks.AffineExpr, "__rsub__")
    # only a test read an expression's sorted variable names
    assert not hasattr(quandleworks.AffineExpr, "variables")
    # a SymPoint is evaluated at ring values only by the tests (conftest.py)
    assert not hasattr(quandleworks.SymPoint, "evaluate")
    # the certificate holds what it certifies, and nothing constant
    assert collapse.CollapseLattice.__slots__ == ("generators", "basis_combinations")


VALUE_CLASSES = {"RingElem", "AffineExpr", "Point", "SymPoint", "CollapseLattice",
                 "CollapseReport", "AxiomReport", "IdentitySpec"}


def test_every_value_class_is_a_frozen_value_and_no_module_binds_a_slot_setter():
    # FrozenValue is the one implementation of the value dunders: every class
    # with fields in __slots__ derives from it, and AffineExpr keeps only
    # its own repr
    modules = _library_modules()
    slotted = {cls for m in modules for cls in vars(m).values()
               if isinstance(cls, type) and vars(cls).get("__slots__")}
    assert {cls.__name__ for cls in slotted} == VALUE_CLASSES
    assert [cls.__name__ for cls in slotted
            if not issubclass(cls, quandleworks.ring.FrozenValue)] == []
    assert {"__eq__", "__reduce__"}.isdisjoint(vars(quandleworks.AffineExpr))
    # each __init__ sets its fields with object.__setattr__, the one way; no
    # module keeps a slot descriptor's __set__ per field
    found = [f"{m.__name__}.{name}" for m in modules
             for name, value in vars(m).items()
             if isinstance(getattr(value, "__self__", None), types.MemberDescriptorType)]
    assert found == []


def test_all_lists_every_public_binding_of_the_package():
    public = {name for name, value in vars(quandleworks).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(quandleworks.__all__)) == len(quandleworks.__all__)
    assert set(quandleworks.__all__) == public


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _production_runs():
    return [
        verify_theorem(20).render(),
        cli("verify-paper", "--samples", "5"),
        cli("demo-affine", "--witness", "(3,-4)", "1"),
        cli("demo-affine", "--witness", "(3,-4)", "2"),
    ]


def test_production_never_runs_the_ring_specification(monkeypatch):
    # Laurent-polynomial arithmetic (tests/seed_ring.py, out of the library's
    # reach) followed by reduce is the specification of RingElem arithmetic,
    # which the tests check it against; the library must not compute through
    # reduce, and it holds no polynomial class of its own
    assert not hasattr(quandleworks, "LaurentPoly")
    assert not hasattr(quandleworks.RingElem, "lift")
    expected = _production_runs()

    def forbidden(*args, **kwargs):
        raise AssertionError("production code ran the ring specification")

    for name, module in list(sys.modules.items()):
        if name.startswith("quandleworks") and getattr(module, "reduce", None) is reduce:
            monkeypatch.setattr(module, "reduce", forbidden)
    assert _production_runs() == expected


def _operation_demos():
    return [cli("demo-affine", "--op", f"(3,-4)@{i}", f"(-7,2)@{j}")
            for i in (1, 2) for j in (1, 2)]


def test_operations_on_points_never_run_the_integer_kernels(monkeypatch):
    # op and op_inv compute the ring formula for Points as for SymPoints;
    # the integer kernels serve only the sampled checks, which compare them
    # with the symbolic expansion that op and op_inv build
    expected = _operation_demos()
    assert [code for code, _, _ in expected] == [0, 0, 0, 0]

    def forbidden(*args, **kwargs):
        raise AssertionError("an integer kernel ran")

    for name, module in list(sys.modules.items()):
        if name.startswith("quandleworks"):
            for kernel in ("op_kernel", "op_inv_kernel"):
                if hasattr(module, kernel):
                    monkeypatch.setattr(module, kernel, forbidden)
    assert _operation_demos() == expected
    with pytest.raises(AssertionError, match="an integer kernel ran"):
        verify_theorem(1)


def _count_constructions(monkeypatch):
    """Patch AffineExpr.__init__ and RingElem.__init__ to count the values
    built; the running counts are the entries of the dict returned."""
    built = {"AffineExpr": 0, "RingElem": 0}
    for cls in (quandleworks.AffineExpr, quandleworks.RingElem):
        init = cls.__init__

        def counted(self, *args, name=cls.__name__, init=init, **kwargs):
            built[name] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_symbolic_arithmetic_builds_one_expression_per_operation(monkeypatch):
    # op and op_inv are one affine.combine each, which sums integer pairs
    # and builds its result once, the integer orbit shift being a scalar;
    # the separation stage builds one zero expression, then one expression
    # with a constant and no coefficient for each of its four operations;
    # the rest of verify_theorem(0) builds 28 expressions: the four
    # variables and three operations of each side, two substitution values
    # (the others are plain ring values), three per derived relation and
    # six in the transport stage
    w, z = (quandleworks.SymPoint(tag, quandleworks.AffineExpr.var(name))
            for tag, name in ((1, "w"), (2, "z")))
    points = [quandleworks.parse_point(f"(3,-4)@{tag}") for tag in (1, 2)]
    built = _count_constructions(monkeypatch)
    for acting in (w, z):
        built.update(AffineExpr=0, RingElem=0)
        quandleworks.reversed_op(w, acting)
        assert built["AffineExpr"] == 1
    for operation in (quandleworks.op, quandleworks.op_inv):
        for a in points:
            for b in points:
                built.update(AffineExpr=0, RingElem=0)
                operation(a, b)
                assert built == {"AffineExpr": 0, "RingElem": 1}
    built.update(AffineExpr=0, RingElem=0)
    collapse.orbits_stay_apart()
    assert built == {"AffineExpr": 1 + 4, "RingElem": 4}
    built.update(AffineExpr=0, RingElem=0)
    assert verify_theorem(0).total == 2
    assert built == {"AffineExpr": 28 + 5, "RingElem": 49 + 4}


def _medial_confirmations(tables, directory):
    files = {}
    for name, q in (("dihedral33", dihedral_quandle(33)), ("dihedral15", dihedral_quandle(15)),
                    ("affine13t2", affine_quandle(13, 2))):
        files[name] = directory / name
        files[name].write_text(render_table_text(q))
    # reversing an orbit of these gives a medial table again: dihedral and
    # trivial translations are involutions, and connected affine(13, 2)
    # becomes affine(13, 7)
    corpus = directory / "medial"
    corpus.mkdir(exist_ok=True)
    for q in (dihedral_quandle(3), dihedral_quandle(9), trivial_quandle(3),
              affine_quandle(13, 2)):
        (corpus / f"table{q.n}-{len(q.orbits())}").write_text(render_table_text(q))
    return [
        [q.is_medial() for q in tables],
        cli("check", str(files["dihedral33"]), "--medial"),
        cli("quotient", str(files["dihedral15"]), "--variety", "medial"),
        cli("quotient", str(files["affine13t2"]), "--variety", "medial"),
        cli("reversal-experiment", str(corpus)),
    ]


def _corpus_validations(corpus):
    """The tables the engine builds, each validated, while it rebuilds,
    relabels, reverses and quotients every corpus quandle."""
    built = []
    for _, q in corpus:
        built += [FiniteQuandle(q.table), relabel(q, reversed(range(q.n)))]
        built += [q.reverse_orbit(block[0]) for block in q.orbits()]
        built += [quotient_by_identity(q, spec)[0]
                  for spec in (MEDIAL, n_quandle(2), n_quandle(3))]
    return [q.table for q in built]


def test_confirming_mediality_never_scans_instances(monkeypatch, tmp_path):
    # a generating set confirms distributivity, and the displacement group
    # a medial table or quotient, on its own; the instance scans run only to
    # name the witness of a failure
    corpus = build_corpus()
    tables = [q for _, q in corpus if q.is_medial()[0]]
    assert len(tables) > 20
    expected = _medial_confirmations(tables, tmp_path)
    assert expected[1] == (0, "axioms: idempotent=True bijective_columns=True"
                               " distributive=True\nmedial: True\n", "")
    validations = _corpus_validations(corpus)

    def forbidden(*args, **kwargs):
        raise AssertionError("a quandle was scanned instance by instance")

    monkeypatch.setattr(quandle, "scan_distributive", forbidden)
    assert _corpus_validations(corpus) == validations
    monkeypatch.setattr(quandle, "scan_medial", forbidden)
    assert _medial_confirmations(tables, tmp_path) == expected


def test_a_medial_quotient_builds_one_table_and_scans_no_instance(monkeypatch):
    # the closure joins the forced pairs in one pass, then builds the
    # quotient table once, and only when a class merged: a table where
    # nothing merges is its own quotient.  The displacement group confirms
    # the quotient medial
    cases = [q for _, q in build_corpus()]
    cases += [two_orbit_quandle_mod(m, t).reverse_orbit(m) for m, t in ((5, 2), (11, 3))]
    expected = [quotient_by_identity(q, MEDIAL) for q in cases]
    assert sum(quotient.n < q.n for q, (quotient, _) in zip(cases, expected)) == 4
    for q, (quotient, proj) in zip(cases, expected):
        assert (quotient is q) == (quotient.n == q.n)
        assert (proj == list(range(q.n))) == (quotient is q)
    calls = [0]
    induced_rows = variety.induced_rows

    def counted(*args):
        calls[0] += 1
        return induced_rows(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("a quandle was scanned instance by instance")

    monkeypatch.setattr(variety, "induced_rows", counted)
    monkeypatch.setattr(quandle, "scan_medial", forbidden)
    assert [quotient_by_identity(q, MEDIAL) for q in cases] == expected
    assert len(cases) == 43 and calls[0] == 4


def _quotient_runs(directory):
    """Every quotient of the corpus and two reversed shadows, and the CLI
    commands that take quotients."""
    shadows = [two_orbit_quandle_mod(m, t) for m, t in ((5, 2), (11, 3))]
    cases = [q for _, q in build_corpus()] + [q.reverse_orbit(q.n - 1) for q in shadows]
    table = directory / "shadow11-rev"
    table.write_text(render_table_text(cases[-1]))
    corpus = directory / "medial"
    corpus.mkdir(exist_ok=True)
    for q in shadows + [dihedral_quandle(9), affine_quandle(13, 2)]:
        (corpus / f"table{q.n}").write_text(render_table_text(q))
    return [
        [quotient_by_identity(q, spec) for q in cases
         for spec in (MEDIAL, n_quandle(2), n_quandle(3), n_quandle(-2))],
        cli("quotient", str(table), "--variety", "medial"),
        cli("quotient", str(table), "--variety", "nquandle", "--n", "-2"),
        cli("reversal-experiment", str(corpus)),
    ]


def test_quotients_build_no_inverse_table(monkeypatch, tmp_path):
    # a partition closed under both arguments of the operation is closed
    # under the inverse translations, so the congruence check compares rows
    # and columns only, and no quotient inverts a translation
    assert not hasattr(FiniteQuandle, "_inverse_table")
    expected = _quotient_runs(tmp_path)
    assert sum(quotient.n < len(proj) for quotient, proj in expected[0]) == 59
    assert expected[3][1].count(" 2 drop\n") == 4

    def forbidden(*args, **kwargs):
        raise AssertionError("production code built an inverse table")

    monkeypatch.setattr(FiniteQuandle, "inverse_translations", forbidden)
    assert _quotient_runs(tmp_path) == expected


def _count_compositions(monkeypatch):
    """Patch quandle.gather so that each call of a composition it builds is
    counted; the running count is the one entry of the list returned."""
    calls = [0]
    gather = quandle.gather

    def counted(indices):
        take = gather(indices)

        def composed(f):
            calls[0] += 1
            return take(f)
        return composed

    monkeypatch.setattr(quandle, "gather", counted)
    return calls


def test_is_medial_composes_linearly_many_translations(monkeypatch):
    # |T| = 2 translators, the first of them e with g_e the identity: n
    # displacements g_x, each commuted with g_t for the other translator t,
    # against two compositions for each of the n^2 / 2 pairs of them
    q = dihedral_quandle(33)
    assert len(q.table.translators) == 2
    calls = _count_compositions(monkeypatch)
    assert q.is_medial() == (True, None)
    assert calls[0] == 1 + 33 + 2 * 33


def test_check_axioms_composes_linearly_many_translations(monkeypatch):
    # the reversed shadow of order n = 202 has |T| = 3 translators: two
    # compositions for each translator t and element j, against two for
    # each of the n^2 pairs (j, k)
    m = 101
    t = next(t for t in range(m) if (t * t + t - 1) % m == 0)
    q = two_orbit_quandle_mod(m, t).reverse_orbit(m)
    assert len(q.table.translators) == 3
    calls = _count_compositions(monkeypatch)
    assert check_axioms(q.table).ok
    assert calls[0] == 2 * 3 * 202
    # every element of a trivial table is a generator, but all n of them
    # translate by the identity, which is checked once
    trivial = trivial_quandle(300)
    assert trivial.table.translators == (0,)
    calls[0] = 0
    assert check_axioms(trivial.table).ok
    assert calls[0] == 2 * 300


def test_the_order_law_and_the_orbits_read_only_the_translators_columns():
    # every R_z is conjugate to some R_t, t a translator, so the law
    # R_z^2 = 1 is decided and forced on the columns R_t alone: |T| = 2 on
    # dihedral_quandle(301), where a walk of every column reads 301.  Its
    # 2-quandle quotient is itself: the closure, the compatibility check
    # and the postcondition each read the two.  The orbits of a trivial
    # table close under its one translation, not its n equal ones
    read = []

    class Recording(tuple):
        def __getitem__(self, i):
            read.append(i)
            return tuple.__getitem__(self, i)

    def reads(q, run):
        assert q.table.translators  # derived before the columns are watched
        q.table.columns = Recording(q.table.columns)
        read.clear()
        run(q)
        return list(read)

    d301 = dihedral_quandle(301)
    assert reads(d301, lambda q: q.is_n_quandle(2)) == [0, 1]
    assert reads(d301, lambda q: quotient_by_identity(q, n_quandle(2))[0] is q) == [
        0, 1] * 3
    assert d301.is_n_quandle(2) and not d301.is_n_quandle(3)
    assert reads(trivial_quandle(300), FiniteQuandle.orbits) == [0]


def test_a_medial_quotient_builds_only_the_displacements_it_reaches(monkeypatch):
    # g_x = R_x R_e^-1 is built only for an x still least in its class when
    # the commutators reach it, each g_s once.  On the reversed shadow of
    # order 22 (T = 0, 1, 11) the first pairs collapse it to its 2 orbits,
    # so 2 g_s and 3 g_x are built, where building every g_x first took
    # 2 + 22.  On the medial shadow nothing merges: each g_x is built once
    # by the closure and once by the postcondition's mediality check
    def displacements(q):
        inverse_e = quandle._inverse(q.columns()[q.table.translators[0]])
        calls = [0]

        def counted(indices):
            take = gather(indices)
            if tuple(indices) != inverse_e:
                return take

            def displace(f):
                calls[0] += 1
                return take(f)
            return displace

        with monkeypatch.context() as patch:
            patch.setattr(quandle, "gather", counted)
            quotient, proj = quotient_by_identity(q, MEDIAL)
        return quotient, proj, calls[0]

    gather = quandle.gather
    shadow = two_orbit_quandle_mod(11, 3)
    reversed_q = shadow.reverse_orbit(11)
    assert reversed_q.table.translators == shadow.table.translators == (0, 1, 11)
    quotient, proj, built = displacements(reversed_q)
    assert (quotient.n, built) == (2, 2 + 3)
    assert proj == [0] * 11 + [1] * 11
    quotient, proj, built = displacements(shadow)
    assert quotient is shadow and proj == list(range(22))
    assert built == 2 * (2 + 22)


def test_a_quandle_validates_its_table_shape_once(monkeypatch):
    # FiniteQuandle checks the shape of a table that is not already a
    # validated _Rows (q.table is one), then hands the validated rows to
    # check_axioms, which bench/tracer.py counts and which still checks the
    # shape of anything else it is given; relabel, reverse_orbit, the
    # quotient and the parser build _Rows, so only the raw table is checked
    m = 19
    q = two_orbit_quandle_mod(m, 4).reverse_orbit(m)
    raw = [list(row) for row in q.table]
    calls = {"_as_rows": 0, "check_axioms": 0}
    for name in calls:
        original = getattr(quandle, name)

        def counted(table, name=name, original=original):
            calls[name] += 1
            return original(table)
        monkeypatch.setattr(quandle, name, counted)
    built = [FiniteQuandle(raw), FiniteQuandle(q.table), relabel(q, range(q.n)[::-1]),
             q.reverse_orbit(m), quotient_by_identity(q, MEDIAL)[0],
             FiniteQuandle(parse_table_text(render_table_text(q)))]
    assert calls == {"_as_rows": 1, "check_axioms": 6}
    assert quandle.check_axioms(raw) == quandle.check_axioms(q.table)
    assert calls == {"_as_rows": 2, "check_axioms": 8}
    assert built[0] == built[1] == built[5] == q and built[4].n == 2
    for bad in ([[0, 1], [1]], [[0, 2], [1, 1]], [[0, 1.0], [1, 1]], ()):
        with pytest.raises(MalformedTable):
            check_axioms(bad)
        with pytest.raises(MalformedTable):
            FiniteQuandle(bad)


def test_each_table_is_transposed_once(monkeypatch):
    # a _Rows keeps its columns, which the axioms, the orbits, mediality and
    # the closure all read; a reversal builds its columns and hands them to
    # the table it builds from them.  zip(*rows) on a table of order n = 22
    # is the only zip call with 22 arguments.  Reversing either orbit gives
    # a medial table, which is its own medial quotient and is not
    # transposed again; its 2-quandle quotient has 2 elements
    n = 22
    text = render_table_text(two_orbit_quandle_mod(11, 3).reverse_orbit(11))
    calls = [0]

    def counted(*args):
        calls[0] += len(args) == n
        return zip(*args)

    monkeypatch.setattr(quandle, "zip", counted, raising=False)

    def transpositions(run):
        calls[0] = 0
        run(FiniteQuandle(parse_table_text(text)))
        return calls[0]

    runs = [lambda q: None, FiniteQuandle.orbits, FiniteQuandle.is_medial,
            lambda q: quotient_by_identity(q, MEDIAL),
            lambda q: quotient_by_identity(q, n_quandle(2)),
            lambda q: q.reverse_orbit(11),
            lambda q: quotient_by_identity(q.reverse_orbit(11), n_quandle(2)),
            lambda q: quotient_by_identity(q.reverse_orbit(11), MEDIAL)]
    assert [transpositions(run) for run in runs] == [1, 1, 1, 1, 1, 2, 2, 2]


def test_each_table_derives_its_generating_set_once(monkeypatch, tmp_path):
    # a _Rows keeps its translators T, which the axioms, the orbits,
    # mediality and the medial closure all read.  A reversal hands its
    # columns to the table it builds, never T: the reversed table derives
    # its own T once.  A medial quotient that merges is a new table, whose T
    # serves both its axioms and its postcondition; a medial table is its
    # own medial quotient, so its T serves that too.  reversal-experiment
    # reads the input's T for mediality and the orbits, and each of the two
    # orbits gives a reversed table and its quotient
    shadow = two_orbit_quandle_mod(11, 3)
    text = render_table_text(shadow.reverse_orbit(11))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "shadow22").write_text(render_table_text(shadow))
    derive = quandle._Rows.translators.func
    calls = [0]

    def counted(rows):
        calls[0] += 1
        return derive(rows)

    patched = cached_property(counted)
    patched.__set_name__(quandle._Rows, "translators")
    monkeypatch.setattr(quandle._Rows, "translators", patched)

    def derivations(run):
        calls[0] = 0
        run(FiniteQuandle(parse_table_text(text)))
        return calls[0]

    runs = [lambda q: None, FiniteQuandle.orbits, FiniteQuandle.is_medial,
            lambda q: quotient_by_identity(q, MEDIAL),
            lambda q: q.reverse_orbit(11),
            lambda q: quotient_by_identity(q.reverse_orbit(11), MEDIAL)]
    assert [derivations(run) for run in runs] == [1, 1, 1, 2, 2, 2]
    calls[0] = 0
    code, out, err = cli("reversal-experiment", str(corpus))
    assert (code, err, out.count("shadow22 ")) == (0, "", 2)
    assert calls[0] == 5


def test_only_the_rows_and_a_reversal_transpose_a_table():
    # _Rows.columns keeps the transposition it builds; reverse_orbit builds
    # the rows from its columns, and inverse_translations is test-only
    tree = ast.parse((PACKAGE_DIR / "quandle.py").read_text(encoding="utf-8"))
    functions = [(f"{owner.name}.{node.name}", node) for owner in tree.body
                 if isinstance(owner, ast.ClassDef) for node in owner.body
                 if isinstance(node, ast.FunctionDef)]
    functions += [(node.name, node) for node in tree.body
                  if isinstance(node, ast.FunctionDef)]
    transposing = [name for name, function in functions
                   if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                          and call.func.id == "zip"
                          and any(isinstance(arg, ast.Starred) for arg in call.args)
                          for call in ast.walk(function))]
    assert sorted(transposing) == ["FiniteQuandle.inverse_translations",
                                   "FiniteQuandle.reverse_orbit", "_Rows.columns"]
    assert not hasattr(FiniteQuandle, "_columns")


def test_every_name_the_bench_tracer_wraps_exists():
    # bench/run.py --trace 1 wraps these by name, looked up the way
    # Tracer.install looks them up; the source is executed, not imported,
    # so no bytecode cache is written beside it
    tracer = {"__name__": "bench_tracer"}
    exec(compile(BENCH_TRACER.read_text(encoding="utf-8"), str(BENCH_TRACER), "exec"),
         tracer)
    missing = []
    for module, path, *_ in tracer["TARGETS"]:
        owner = importlib.import_module(f"{tracer['PACKAGE']}.{module}")
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            vars(owner)[attr]
        except (AttributeError, KeyError):
            missing.append(f"{module}.{path}")
    assert len(tracer["TARGETS"]) > 20
    assert missing == []
