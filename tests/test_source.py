"""Properties of the library source itself."""

import ast
import contextlib
import io
import sys
from pathlib import Path

import quandleworks
from quandleworks import check_axioms_symbolic, verify_theorem
from quandleworks.cli import main
from quandleworks.ring import LaurentPoly, RingElem, reduce

PACKAGE_DIR = Path(quandleworks.__file__).parent


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, and with them any check they hold
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(PACKAGE_DIR.glob("*.py"))) > 1
    assert found == []


def _production_runs():
    def cli(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        return code, out.getvalue()

    return [
        verify_theorem(20).render(),
        repr(check_axioms_symbolic("plain")),
        repr(check_axioms_symbolic("reversed")),
        cli("verify-paper", "--samples", "5"),
        cli("demo-affine", "--witness", "(3,-4)", "1"),
        cli("demo-affine", "--witness", "(3,-4)", "2"),
    ]


def test_production_never_runs_the_ring_specification(monkeypatch):
    # LaurentPoly products, lift and reduce are the specification of RingElem
    # arithmetic, which the tests check it against; the library must not
    # compute through them
    expected = _production_runs()

    def forbidden(*args, **kwargs):
        raise AssertionError("production code ran the ring specification")

    for name, module in list(sys.modules.items()):
        if name.startswith("quandleworks") and getattr(module, "reduce", None) is reduce:
            monkeypatch.setattr(module, "reduce", forbidden)
    monkeypatch.setattr(LaurentPoly, "__mul__", forbidden)
    monkeypatch.setattr(RingElem, "lift", forbidden)
    assert _production_runs() == expected
