"""Every module-level import in the package and its tests is used, the
package imports no SciPy, and no package module reads another's
private names.

No linter ships with the project, so this walks each module's syntax
tree: a name bound by a top-level import must be read somewhere in the
module. The package's `__all__` re-exports count as reads. SciPy is a
test dependency only: no import of it may appear anywhere in the
package, inside a function or not. A `_name` is private to its module:
another package module may neither import it nor read it as an
attribute of the module. Tests may.
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _dotted(node):
    """`a.b.c` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def private_reads(source: str):
    """(line, name) of each read of a package module's private name: an
    import of it from `hivc` or a relative module, or an attribute of a
    name imported from `hivc`, at any depth."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "hivc"):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append((node.lineno, alias.name))
                else:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hivc":
                    modules.add(alias.asname or "hivc")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            owner = _dotted(node.value)
            if owner is not None and owner.split(".")[0] in modules:
                found.append((node.lineno, f"{owner}.{node.attr}"))
    return sorted(found)


def test_finds_a_read_of_another_modules_private_name():
    source = (
        "import numpy as np\n"
        "import hivc.flow\n"
        "from hivc import homogeneous as hom, entropy\n"
        "from hivc.codec import _scaled_config, encode\n"
        "def f(self):\n"
        "    from .bits import _helper\n"
        "    return hom._dot, hivc.flow._gaussian, entropy.encode, np._x, self._y, hom.__doc__\n"
        "_own = encode\n"
    )
    assert private_reads(source) == [
        (4, "_scaled_config"),
        (6, "_helper"),
        (7, "hivc.flow._gaussian"),
        (7, "hom._dot"),
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_reads_no_other_modules_private_name(path):
    assert private_reads(path.read_text()) == []


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
