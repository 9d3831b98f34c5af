"""Properties of the library source itself."""

import ast
from pathlib import Path

import quandleworks

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
