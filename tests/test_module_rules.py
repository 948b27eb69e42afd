"""Static checks of the package's module rules.

Modules share only public names: none imports an underscore name from a
sibling or reads ``sibling._name``, every ``__all__`` entry is defined in
its module, and the package namespace re-exports no underscore name.
Only ``serialization`` parses JSON: no other module calls ``json.load``
or ``json.loads``, and only it and ``cli`` write JSON: no other module
uses ``json.dump``, ``json.dumps`` or ``json.JSONEncoder``.  Only ``cli``
writes to standard output and CSV: no other module calls ``print``,
touches ``sys.stdout`` or imports ``csv``.  Every module-level underscore
function is called or named by its own module outside its own body: since
no sibling may read it, a private function nothing in the package uses is
dead code, or a second code path kept alive only by the tests.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chromlc"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _sibling_import(node):
    """True for ``from .x import ...``, ``from . import ...`` and ``from chromlc...``."""
    return node.level > 0 or (node.module or "").split(".")[0] == "chromlc"


def _top_level(body):
    """Statements at module level, including those under ``if``."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _top_level(node.body + node.orelse)


def _defined_names(tree):
    names = set()
    for node in _top_level(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _names(node):
    """How often each name is read, written or looked up as an attribute under ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _unreferenced_private_functions(tree):
    names = _names(tree)
    return [
        node.name
        for node in _top_level(tree.body)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _private(node.name)
        and names[node.name] == _names(node)[node.name]  # only its own body names it
    ]


def _violations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings = set()
    problems = []
    # the package namespace takes no underscore name from anywhere
    strict = path.name == "__init__.py"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (strict or _sibling_import(node)):
            for alias in node.names:
                if _private(alias.name):
                    problems.append(f"line {node.lineno}: imports {alias.name}")
                if _sibling_import(node) and node.module in (None, "chromlc"):  # modules
                    siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "chromlc" and alias.asname:
                    siblings.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and _private(node.attr)
        ):
            problems.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
            and node.attr in ("load", "loads")
            and path.name != "serialization.py"
        ):
            problems.append(f"line {node.lineno}: parses JSON outside serialization")
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
            and node.attr in ("dump", "dumps", "JSONEncoder")
            and path.name not in ("cli.py", "serialization.py")
        ):
            problems.append(f"line {node.lineno}: writes JSON outside cli and serialization")
        if path.name != "cli.py" and (
            (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == "csv")
        ):
            problems.append(f"line {node.lineno}: imports csv outside cli")
        if path.name != "cli.py" and (
            (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print")
            or (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
                and node.attr == "stdout"
            )
        ):
            problems.append(f"line {node.lineno}: writes to standard output outside cli")
    defined = _defined_names(tree)
    for name in _exported(tree):
        if name not in defined:
            problems.append(f"__all__ lists {name!r}, which the module does not define")
    for name in _unreferenced_private_functions(tree):
        problems.append(f"nothing in the package uses the private function {name}")
    return problems


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_rules(path):
    assert _violations(path) == []


def test_rules_catch_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import linalg\n"
        "from .graphs import _search, level_decompose\n"
        "__all__ = ['level_decompose', 'write_csv']\n"
        "x = linalg._as_square\n"
        "import json\n"
        "doc = json.loads('{}')\n"
        "print(doc)\n"
        "text = json.dumps(doc)\n"
        "import csv\n"
    )
    problems = _violations(bad)
    assert len(problems) == 7
    assert any("_search" in p for p in problems)
    assert any("linalg._as_square" in p for p in problems)
    assert any("write_csv" in p for p in problems)
    assert "line 6: parses JSON outside serialization" in problems
    assert "line 7: writes to standard output outside cli" in problems
    assert "line 8: writes JSON outside cli and serialization" in problems
    assert "line 9: imports csv outside cli" in problems
    package = tmp_path / "__init__.py"
    package.write_text("from numpy import _pytesttester\nfrom os import path\n")
    assert len(_violations(package)) == 1


def test_rules_catch_an_unreferenced_private_function(tmp_path):
    module = tmp_path / "orphan.py"
    module.write_text(
        "def _used(x):\n"
        "    return x\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else 0\n"
        "def _unused():\n"
        "    pass\n"
        "def public(x):\n"
        "    return _used(x)\n"
    )
    assert _violations(module) == [
        "nothing in the package uses the private function _recursive",
        "nothing in the package uses the private function _unused",
    ]
