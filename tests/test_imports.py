"""Checks of the package's modules and of what ``import bicsi`` exports.

Static checks, with the standard library's ``ast``: every module of the
package (``__init__.py`` aside, which imports the online path's names to
re-export them) uses each name it imports, no module computes a float dot
product or uses ``@``, every module-level
private definition is read by some module of the package, and every entry
of ``__init__``'s lazy table names a module-level definition of its module.
Then, by importing: ``import bicsi`` leaves the study harnesses unloaded,
``bicsi.cli``'s ``synth``, ``train`` and ``match`` leave ``evaluation``
unloaded, and each public name is one object however it is reached."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bicsi

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


# numpy's float dot products: their sum order, and so their last bit, depends
# on the BLAS build; a pick must not rest on one
FLOAT_PRODUCTS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot", "linalg"}


def float_products(source: str) -> list:
    """'line N: name' for each numpy float dot product (``np.linalg``
    included) that a module reads or imports, and each ``@``."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy") and node.attr in FLOAT_PRODUCTS):
            found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names = [f"{module}.{alias.name}".lstrip(".") for alias in node.names]
            found += [(node.lineno, name) for name in names if name.split(".")[0] == "numpy"
                      and FLOAT_PRODUCTS & set(name.split(".")[1:2])]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_finds_a_float_product():
    source = ("import numpy as np\nimport numpy.linalg\nfrom numpy import dot, sum\n"
              "def product(a, b):\n    return a @ b\n"
              "x = np.einsum('i,i', a, b) + np.linalg.norm(a)\ny = a @ b\nx @= b\n"
              "z = np.add(a, b) + a.dot(b) + np.sum(a * b)\n")
    assert float_products(source) == ["line 2: numpy.linalg", "line 3: numpy.dot",
                                      "line 5: @", "line 6: np.einsum", "line 6: np.linalg",
                                      "line 7: @", "line 8: @"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_float_product_decides_a_pick(module):
    assert float_products((PACKAGE / module).read_text(encoding="utf-8")) == []


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


def lazy_table(source: str) -> dict:
    """The ``_LAZY`` dict literal of ``__init__.py``: name -> module name."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_LAZY" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no _LAZY table")


def module_level_names(source: str) -> set:
    """Names a module defines at its top level: functions, classes, assignments."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def dead_lazy_entries(table: dict, sources: dict) -> list:
    """'name -> module' for each entry that names no module of the package, or
    no module-level definition of its module (a module's own name aside)."""
    dead = []
    for name, module in table.items():
        source = sources.get(f"{module}.py")
        if source is None or name != module and name not in module_level_names(source):
            dead.append(f"{name} -> {module}")
    return dead


def test_finds_a_dead_lazy_entry():
    sources = {"a.py": "X = 1\ndef f():\n    pass\nclass C:\n    pass\n"}
    table = {"a": "a", "X": "a", "f": "a", "C": "a", "gone": "a", "b": "b", "Y": "b"}
    assert dead_lazy_entries(table, sources) == ["gone -> a", "b -> b", "Y -> b"]


def test_every_lazy_entry_names_a_definition():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    table = lazy_table(sources["__init__.py"])
    assert set(table.values()) == {"evaluation", "synth"}
    assert dead_lazy_entries(table, sources) == []


# every public name of ``bicsi/__init__.py``, by the module that defines it
PUBLIC = {
    "encoding": ["GeneMatrix", "encode_matrix"],
    "errors": ["BicsiError", "ConfigError", "DataDomainError", "DbFormatError", "DbLengthError",
               "DbMagicError", "DbTruncatedError", "DbVersionError", "EmptyInputError",
               "EmptyTraceError", "LengthMismatchError", "SessionMismatchError",
               "TraceParseError", "UnknownLabelError"],
    "evaluation": ["EvalReport", "LabeledWindows", "evaluate_windows", "metric_comparison",
                   "temporal_eval", "threshold_sweep"],
    "fingerprint": ["FingerprintDb", "build_db", "fraction_to_micro", "load_db", "save_db",
                    "threshold_count", "windows"],
    "ingest": ["AmplitudeMatrix", "LabeledTrace", "SubcarrierFilter", "build_matrix",
               "load_filter", "load_trace"],
    "matcher": ["MatchResult", "match_trace"],
    "similarity": ["MetricKind"],
    "synth": ["SynthConfig", "SynthDataset", "drift_sessions", "generate"],
}
PUBLIC_NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}


def run_python(code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], env=SUBPROCESS_ENV,
                          capture_output=True, text=True, check=True).stdout.strip()


def test_import_leaves_the_study_harnesses_unloaded():
    code = ("import sys, bicsi; "
            "print(sorted(m for m in ('bicsi.evaluation', 'bicsi.synth', 'csv', 'json') "
            "if m in sys.modules))")
    assert run_python(code) == "[]"


def test_cli_loads_evaluation_only_in_its_commands(tmp_path):
    # synth, train and match run in a fresh process; none calls evaluation
    data, db = tmp_path / "data", tmp_path / "fp.db"
    argvs = [["synth", "--out-dir", str(data), "--positions", "2", "--subcarriers", "4",
              "--train-packets", "60", "--test-packets", "60"],
             ["train", "--manifest", str(data / "train" / "manifest.csv"), "--out-db", str(db)],
             ["match", "--db", str(db), "--trace", str(data / "test" / "p01.csv"),
              "--out-json", str(tmp_path / "match.json"), "--window", "30"]]
    code = "\n".join([
        "import sys, bicsi.cli",
        "loaded = ['bicsi.evaluation' in sys.modules]",
        f"for argv in {argvs!r}:",
        "    bicsi.cli.main(argv, standalone_mode=False)",
        "    loaded.append('bicsi.evaluation' in sys.modules)",
        "print(loaded)",
    ])
    assert run_python(code).splitlines()[-1] == "[False, False, False, False]"


def test_public_name_is_one_object():
    # in a fresh process, so that each lazy name is first reached through the
    # package's __getattr__: by ``from bicsi import`` or by attribute, in turn
    code = "\n".join([
        "import importlib, sys, bicsi",
        f"public = {PUBLIC_NAMES!r}",
        "for i, (module, name) in enumerate(public):",
        "    if i % 2:",
        "        value = getattr(bicsi, name)",
        "    else:",
        "        space = {}",
        "        exec(f'from bicsi import {name} as value', space)",
        "        value = space['value']",
        "    own = getattr(importlib.import_module(f'bicsi.{module}'), name)",
        "    assert value is own is getattr(bicsi, name), name",
        "    assert getattr(bicsi, module) is sys.modules[f'bicsi.{module}'], module",
        "print('ok')",
    ])
    assert run_python(code) == "ok"


def test_dir_lists_every_public_name():
    listed = dir(bicsi)
    assert {name for _, name in PUBLIC_NAMES} | set(PUBLIC) <= set(listed)
    assert listed == sorted(listed)


def test_star_import_binds_every_public_name():
    space = {}
    exec("from bicsi import *", space)
    assert {name for _, name in PUBLIC_NAMES} | set(PUBLIC) <= set(space)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'bicsi' has no attribute 'no_such_name'"):
        bicsi.no_such_name
    with pytest.raises(ImportError):
        exec("from bicsi import no_such_name", {})
