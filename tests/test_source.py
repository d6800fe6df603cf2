import ast
import pathlib
from collections import Counter

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


def _named(node):
    """How often each name is read under node: as a name, an attribute or
    an imported alias."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def test_every_definition_has_a_user():
    # a top-level function or class that nothing else in the library
    # names is dead code, or a helper of the tests that belongs with them
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    named = sum((_named(tree) for tree in trees.values()), Counter())
    unused = ["%s:%s" % (name, node.name)
              for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and named[node.name] == _named(node)[node.name]]
    assert trees and not unused, unused
