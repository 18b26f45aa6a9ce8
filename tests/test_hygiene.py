"""Source hygiene of the package, checked with the standard library only.

Every name a module of src/semimart imports must be used in that module.
An import kept for another reader (a name wrapped from outside the
package, say) is marked on its statement with ``# noqa: F401``.  The
package's ``__init__.py`` re-exports by design and is not checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semimart"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path) -> list:
    """(line, name) of each imported name the module never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        statement = "\n".join(lines[node.lineno - 1:node.end_lineno])
        if "# noqa: F401" in statement:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_the_package_has_modules_to_check():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import math\n"
        "import os.path\n"
        "from numpy import array as arr, zeros\n"
        "from json import dumps  # noqa: F401\n"
        "from re import (  # noqa: F401\n"
        "    compile,\n"
        ")\n"
        "x = zeros(3)\n"
        "y = os.path.join('a')\n"
    )
    assert unused_imports(module) == [(1, "math"), (3, "arr")]
