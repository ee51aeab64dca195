"""Static checks, with the standard library's ``ast``: every module of the
package (``__init__.py`` aside, whose imports are its exports) uses each
name it imports, and every module-level private definition is read by some
module of the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bicsi"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """'line N: name' for each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .errors import A, B\nprint(np.pi, os.sep, B)\n"
    assert unused_imports(source) == ["line 3: A"]


def test_modules_found():
    assert "cli.py" in MODULES and "evaluation.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> list:
    """Names of the module-level ``_name`` functions, classes and assignments
    (dunder names aside)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def read_names(source: str) -> set:
    """Every name a module reads: a bare name, an attribute or an imported name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_private_helpers(sources: dict) -> list:
    """'module: name' for each private definition whose name no module reads."""
    read = set().union(*map(read_names, sources.values()))
    return [f"{module}: {name}" for module, source in sorted(sources.items())
            for name in private_definitions(source) if name not in read]


def test_finds_a_dead_private_helper():
    sources = {
        "a.py": "_LIMIT = 3\n_A, _B = 1, 2\ndef _used():\n    return _B\n"
                "def _dead():\n    return _LIMIT\nclass _Gone:\n    pass\n__all__ = []\n",
        "b.py": "from .a import _used\nprint(_used())\n",
    }
    assert dead_private_helpers(sources) == ["a.py: _A", "a.py: _dead", "a.py: _Gone"]


def test_every_private_helper_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert dead_private_helpers(sources) == []
