"""No module of the package imports a name it never uses.  There is no
linter in the toolchain, so this walks each module's syntax tree: a name
bound by an import must be read somewhere in the module, as a name or as
the base of an attribute.  ``__init__`` is left out: its imports are the
public names, which ``test_public_api`` lists."""

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
