"""Every module-level import in the package and its tests is used, and
the package imports no SciPy.

No linter ships with the project, so this walks each module's syntax
tree: a name bound by a top-level import must be read somewhere in the
module. The package's `__all__` re-exports count as reads. SciPy is a
test dependency only: no import of it may appear anywhere in the
package, inside a function or not.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "hivc").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str):
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def scipy_imports(source: str):
    """Lines of the module's imports of scipy, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_finds_a_scipy_import_at_any_depth():
    source = (
        "import scipy\n"
        "def f():\n"
        "    from scipy.sparse.linalg import lsqr\n"
        "    class C:\n"
        "        def g(self):\n"
        "            import numpy, scipy.ndimage as nd\n"
        "from scipyx import y\n"
        "from . import scipy\n"
    )
    assert scipy_imports(source) == [1, 3, 6]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_no_scipy(path):
    assert scipy_imports(path.read_text()) == []


def test_finds_an_unused_import_and_honours_all():
    source = "import os\nimport sys as system\nfrom a import b, c\n__all__ = ['c']\nsystem.exit()\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []
