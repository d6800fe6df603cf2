import ast
import pathlib

import combstat

SOURCES = sorted(pathlib.Path(combstat.__file__).parent.glob("*.py"))


def test_library_has_no_assert():
    # python -O strips asserts, so a check the library relies on must
    # raise on its own
    found = ["%s:%d" % (path.name, node.lineno)
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found
