"""No module of the package imports a name it never uses, and no private
module-level name is left that the package never reads.  There is no
linter in the toolchain, so this walks each module's syntax tree: a name
bound by an import must be read somewhere in the module, as a name or as
the base of an attribute.  ``__init__`` is left out of the import check:
its imports are the public names, which ``test_public_api`` lists."""

import ast
from pathlib import Path

import pytest

import specvar

SRC = Path(specvar.__file__).parent


def _imported(tree):
    """(bound name, line) of every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0],
                       node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", sorted(
    p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(name, line) for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _private_definitions(tree):
    """(name, line) of every module-level function, class or assigned
    name with a leading underscore (dunder names are Python's)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_every_private_name_is_read():
    # a private helper that no module of the package reads any more is
    # dead code (tests do not count: they must not keep it alive)
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    defined = [(module, name, line) for module, tree in trees.items()
               for name, line in _private_definitions(tree)]
    unread = [entry for entry in defined if entry[1] not in read]
    assert not unread, f"private names that no module reads: {unread}"
