"""Properties of the library source itself."""

import ast
import contextlib
import importlib
import io
import sys
from pathlib import Path

import quandleworks
from conftest import build_corpus
from quandleworks import (affine_quandle, check_axioms_symbolic, dihedral_quandle,
                          quandle, render_table_text, trivial_quandle,
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


def test_the_library_imports_only_the_standard_library_and_itself():
    # quandleworks has no runtime dependencies
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names
                      and name.partition(".")[0] != "quandleworks"]
    assert len(list(PACKAGE_DIR.glob("*.py"))) > 1
    assert found == []


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _production_runs():
    return [
        verify_theorem(20).render(),
        repr(check_axioms_symbolic("plain")),
        repr(check_axioms_symbolic("reversed")),
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


def test_confirming_mediality_never_scans_instances(monkeypatch, tmp_path):
    # the displacement group confirms a medial table or quotient on its own;
    # the O(n^4) instance scan runs only to name the witness of a failure
    tables = [q for _, q in build_corpus() if q.is_medial()[0]]
    assert len(tables) > 20
    expected = _medial_confirmations(tables, tmp_path)
    assert expected[1] == (0, "axioms: idempotent=True bijective_columns=True"
                               " distributive=True\nmedial: True\n", "")

    def forbidden(*args, **kwargs):
        raise AssertionError("a medial table was scanned instance by instance")

    monkeypatch.setattr(quandle, "scan_medial", forbidden)
    assert _medial_confirmations(tables, tmp_path) == expected


def test_is_medial_composes_quadratically_many_translations(monkeypatch):
    q = dihedral_quandle(33)
    calls = 0
    gather = quandle.gather

    def counted(indices):
        take = gather(indices)

        def composed(f):
            nonlocal calls
            calls += 1
            return take(f)
        return composed

    monkeypatch.setattr(quandle, "gather", counted)
    assert q.is_medial() == (True, None)
    assert 0 < calls <= q.n ** 2


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
