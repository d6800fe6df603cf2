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


def _library():
    """Each module's parsed source by file name, and how often each name
    is read in all of them."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    return trees, sum((_named(tree) for tree in trees.values()), Counter())


def test_every_definition_has_a_user():
    # a top-level function or class that nothing else in the library
    # names is dead code, or a helper of the tests that belongs with them
    trees, named = _library()
    unused = ["%s:%s" % (name, node.name)
              for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and named[node.name] == _named(node)[node.name]]
    assert trees and not unused, unused


def test_every_constant_has_a_reader():
    # a module-level constant that no other statement of the library reads
    # is dead too, or a value of the tests; dunders such as __all__ are read
    # by Python itself
    trees, named = _library()
    unread = ["%s:%s" % (name, target.id)
              for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in ast.walk(ast.Tuple(
                  node.targets if isinstance(node, ast.Assign) else [node.target]))
              if isinstance(target, ast.Name) and not target.id.startswith("__")
              and named[target.id] == _named(node)[target.id]]
    assert trees and not unread, unread


def test_every_import_is_read():
    # an import that nothing in its module reads keeps a dead definition
    # alive in test_every_definition_has_a_user, which counts it as a use
    unread = []
    for name, tree in _library()[0].items():
        reads = Counter(n.id for n in ast.walk(tree)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if not reads[bound]:
                        unread.append("%s:%s" % (name, bound))
    assert SOURCES and not unread, unread
