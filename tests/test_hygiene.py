"""Source hygiene of the package, checked with the standard library only.

Every name a module of src/semimart imports must be used in that module.
An import kept for another reader (a name wrapped from outside the
package, say) is marked on its statement with ``# noqa: F401``.  The
package's ``__init__.py`` re-exports by design, so this check skips it.

The package's ``__init__.py`` is its public surface: ``__all__`` lists
exactly the names it imports, each of them resolves, and it covers every
``semimart.<name>`` that the benchmark in perfbench/ reads, submodules
aside.  Test-only code lives in tests/helpers.py, not in the package.

Every module-level function and class must be read somewhere in the
package outside its own definition, or be listed in ``__all__``.

Every method or property of a class in the package, dunders aside, must
be read as an attribute somewhere in the package or the benchmark in
perfbench/; a reader in the tests alone does not keep a member alive.

Neither importing the package and its CLI nor writing and reading an
ensemble in forked children imports ``multiprocessing``: the package
shares work out with ``os.fork`` alone.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semimart"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TESTS = Path(__file__).resolve().parent
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


def exported_names(init: Path = PACKAGE / "__init__.py") -> set:
    """The names a package's ``__init__.py`` lists in ``__all__``."""
    tree = ast.parse(init.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unreferenced_definitions(paths, exported) -> list:
    """(module, name) of each module-level function or class that no
    module reads outside the definition itself and that is not exported."""
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    defined = [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    out = []
    for module, definition in defined:
        inside = {id(node) for node in ast.walk(definition)}
        referenced = any(
            id(node) not in inside
            and (
                (isinstance(node, ast.Name) and node.id == definition.name)
                or (isinstance(node, ast.Attribute) and node.attr == definition.name)
            )
            for tree in trees.values()
            for node in ast.walk(tree)
        )
        if not referenced and definition.name not in exported:
            out.append((module, definition.name))
    return out


def test_every_module_level_definition_is_read_or_exported():
    assert unreferenced_definitions(sorted(PACKAGE.glob("*.py")), exported_names()) == []


def test_an_unreferenced_definition_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "def exported():\n    pass\n\n"
        "class Lonely:\n    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import used\n\n"
        "def caller():\n    return used()\n\n"
        "class Holder:\n    def method(self, a):\n        return a.caller\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    assert unreferenced_definitions(paths, {"exported"}) == [
        ("a.py", "recursive"), ("a.py", "Lonely"), ("b.py", "Holder"),
    ]


def unread_members(paths, readers) -> list:
    """(module, class, name) of each non-dunder method or property of a
    class in ``paths`` that no file in ``readers`` reads as ``.name``."""
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    read = {
        node.attr
        for path in readers
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    out = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in read
                ):
                    out.append((module, cls.name, node.name))
    return out


def test_every_method_and_property_is_read():
    sources = sorted(PACKAGE.glob("*.py"))
    assert unread_members(sources, sources + sorted(TESTS.glob("*.py"))) == []


def test_every_method_and_property_is_read_outside_the_tests():
    sources = sorted(PACKAGE.glob("*.py"))
    assert unread_members(sources, sources + sorted(PERFBENCH.glob("*.py"))) == []


def test_an_unread_member_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self.x = 1\n\n"
        "    def used(self):\n        return self.x\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    @classmethod\n    def build(cls):\n        return cls()\n\n"
        "    def _helper(self):\n        return self.used()\n"
    )
    (tmp_path / "test_a.py").write_text("def test_box(box):\n    assert box.size\n")
    module = tmp_path / "a.py"
    assert unread_members([module], sorted(tmp_path.glob("*.py"))) == [
        ("a.py", "Box", "build"), ("a.py", "Box", "_helper"),
    ]


def package_reads(paths) -> set:
    """Every name the files read as ``semimart.<name>``."""
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "semimart"
    }


def surface_faults(init: Path, readers, modules) -> list:
    """(fault, name) for each name ``__all__`` lists that ``init`` does not
    import, each name it imports that ``__all__`` does not list, and each
    ``semimart.<name>`` the readers take that ``__all__`` does not list,
    the submodules in ``modules`` aside."""
    exported = exported_names(init)
    imported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return sorted(
        [("not imported", name) for name in exported - imported]
        + [("not exported", name) for name in imported - exported]
        + [("read but not exported", name) for name in package_reads(readers) - exported - modules]
    )


def test_the_public_surface_covers_what_perfbench_reads():
    readers = sorted(PERFBENCH.glob("*.py"))
    assert {"EnsembleProcess", "detect", "integral_process"} <= package_reads(readers)
    modules = {path.stem for path in MODULES}
    assert surface_faults(PACKAGE / "__init__.py", readers, modules) == []


def test_every_exported_name_resolves():
    import semimart

    assert set(semimart.__all__) == exported_names()
    for name in semimart.__all__:
        assert getattr(semimart, name) is not None


def test_a_stale_public_surface_is_found(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text(
        '"""A package."""\n\n'
        "from .a import kept, unlisted\n"
        "from .b import inner as renamed\n\n"
        "__version__ = '1'\n\n"
        "__all__ = ['kept', 'renamed', 'stale']\n"
    )
    reader = tmp_path / "op.py"
    reader.write_text(
        "import semimart\nimport semimart.cli\n\n"
        "x = semimart.kept\ny = semimart.dropped\n"
        "semimart.cli.main([])\nz = other.missing\n"
    )
    assert surface_faults(init, [reader], {"cli"}) == [
        ("not exported", "unlisted"), ("not imported", "stale"), ("read but not exported", "dropped"),
    ]


def test_importing_the_package_and_cli_leaves_out_multiprocessing():
    code = (
        "import sys, semimart, semimart.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), timeout=120)
    assert out.stdout.strip() == "[]"


def test_forked_ensemble_io_leaves_out_multiprocessing(tmp_path):
    """At 2 CPUs a distinct-valued ensemble of several blocks is written
    and read with one forked child each, and no multiprocessing or mmap
    module is loaded."""
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "import semimart.io as sio\n"
        "from semimart.generators import GeneratorSpec, generate\n"
        "sio.BLOCK_CELLS = 33 * 7\n"
        "spec = GeneratorSpec(kind='rl_fractional', level=4, mode='ensemble', paths=256, hurst=0.75)\n"
        "src = generate(spec)\n"
        "path = sys.argv[1]\n"
        "sio.write_ensemble(path, spec, src.probs, src.xi, src.values)\n"
        "assert sio.read_ensemble(path).values.tobytes() == src.values.tobytes()\n"
        "print(len(forks), sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'mmap'))))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "ensemble.jsonl")], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), timeout=120)
    assert out.stdout.strip() == "2 []"
