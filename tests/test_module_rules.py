"""Static checks of the package's module rules.

Modules share only public names: none imports an underscore name from a
sibling or reads ``sibling._name``, and every ``__all__`` entry is defined
in its module.  The package namespace is not a second copy of the API:
``chromlc/__init__.py`` holds only its docstring.  No module imports
itself through its siblings: the graph of sibling imports, those under
``if TYPE_CHECKING:`` and inside functions included, has no cycle.
Only ``serialization`` parses JSON: no other module calls ``json.load``
or ``json.loads``, and only it and ``cli`` write JSON: no other module
uses ``json.dump``, ``json.dumps`` or ``json.JSONEncoder``.  Only ``cli``
writes to standard output and CSV: no other module calls ``print``,
touches ``sys.stdout`` or imports ``csv``.  No module bypasses a
constructor: none calls ``object.__new__``, and ``object.__setattr__``
appears only inside a ``__post_init__``, where a frozen dataclass stores
the values it has checked.  Every module-level underscore
function is called or named by its own module outside its own body: since
no sibling may read it, a private function nothing in the package uses is
dead code, or a second code path kept alive only by the tests.  For the
same reason every public name, an ``__all__`` entry or a public method of
a class, is read somewhere in the package outside its own body and the
bodies of other unused names (``__all__`` strings do not count), unless
``KEPT_UNUSED`` lists it with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chromlc"
MODULES = sorted(PACKAGE.glob("*.py"))
# Public names nothing in the package reads, each kept for the reason given.
KEPT_UNUSED = {
    "compiler.embed_discrete": "paper construction C01: a gate network as a continuous schedule",
    "compiler.rechromatize": "paper construction C09: chromatic throttling",
    "hamiltonian.pauli_matrix": "test oracle: the inverse of pauli_coeffs",
    "linalg.expm_i": "test oracle: exp(-i*s*h) from one eigendecomposition",
    "graphs.EdgeColoring.is_valid_for": "test oracle: a proper coloring of exactly the given pairs",
    "serialization.loads_schedule": "text reader, the inverse of dumps_schedule, driven by the fuzz tests",
    "serialization.loads_gates": "text reader, the inverse of dumps_gates, driven by the fuzz tests",
    "serialization.load_gates": "perfbench's compile check loads every gate file with it",
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _sibling_import(node):
    """True for ``from .x import ...``, ``from . import ...`` and ``from chromlc...``."""
    return node.level > 0 or (node.module or "").split(".")[0] == "chromlc"


def _sibling_modules(path, modules):
    """The modules among ``modules`` that ``path`` imports anywhere in its body."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and _sibling_import(node):
            parts = (node.module or "").split(".")[node.level == 0 :]  # drop "chromlc"
            imported.update([parts[0]] if parts and parts[0] else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            imported.update(a.name.split(".")[1] for a in node.names if a.name.startswith("chromlc."))
    return imported & modules


def _import_cycle(paths):
    """A cycle ``[a, b, ..., a]`` in the sibling imports of the modules at ``paths``, or ``[]``."""
    graph = {p.stem: _sibling_modules(p, {q.stem for q in paths}) for p in paths}
    acyclic = set()

    def visit(module, trail):
        if module in trail:
            return trail[trail.index(module) :] + [module]
        if module not in acyclic:
            for target in sorted(graph[module]):
                cycle = visit(target, trail + [module])
                if cycle:
                    return cycle
            acyclic.add(module)
        return []

    for module in sorted(graph):
        cycle = visit(module, [])
        if cycle:
            return cycle
    return []


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
    if path.name == "__init__.py" and not (len(tree.body) == 1 and ast.get_docstring(tree) is not None):
        problems.append("the package namespace holds more than its docstring")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling_import(node):
            for alias in node.names:
                if _private(alias.name):
                    problems.append(f"line {node.lineno}: imports {alias.name}")
                if _sibling_import(node) and node.module in (None, "chromlc"):  # modules
                    siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "chromlc" and alias.asname:
                    siblings.add(alias.asname)
    inits = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
    post_init = {id(n) for f in inits for n in ast.walk(f)}  # the nodes inside a __post_init__
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
            and node.value.id == "object"
            and (node.attr == "__new__" or (node.attr == "__setattr__" and id(node) not in post_init))
        ):
            problems.append(f"line {node.lineno}: bypasses a constructor with object.{node.attr}")
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


def _reads(node):
    """How often each name is read, or read as an attribute, under ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def _public_definitions(tree, module):
    """{qualified name: defining node} for the ``__all__`` names of ``module``
    and the public methods of its classes."""
    exported = set(_exported(tree))
    out = {}
    for node in _top_level(tree.body):
        if isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = [getattr(node, "name", None)]
        out.update((f"{module}.{name}", node) for name in names if name in exported)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name[0] != "_":
                    out[f"{module}.{node.name}.{item.name}"] = item
    return out


def _unused_public_names(paths, kept):
    """The qualified public names nothing in the modules at ``paths`` reads
    outside their own body.  Reads in the body of an unused name not in
    ``kept`` do not count either, so a helper only dead code calls is dead."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    defined = {}
    for module, tree in trees.items():
        defined.update(_public_definitions(tree, module))
    unused = set()
    while True:
        live = reads - sum((_reads(defined[q]) for q in unused - set(kept)), Counter())
        found = set()
        for q, node in defined.items():
            name = q.rsplit(".", 1)[1]
            if live[name] <= _reads(node)[name]:
                found.add(q)
        if found == unused:
            return unused
        unused = found


def _public_name_problems(paths, kept):
    unused = _unused_public_names(paths, kept)
    return [f"nothing in the package uses the public {q}" for q in sorted(unused - set(kept))] + [
        f"{q} is kept as unused, but the package uses it or does not define it"
        for q in sorted(set(kept) - unused)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_rules(path):
    assert _violations(path) == []


def test_sibling_imports_have_no_cycle():
    assert _import_cycle(MODULES) == []


def test_every_public_name_is_used_or_kept():
    assert _public_name_problems(MODULES, KEPT_UNUSED) == []


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
        "class Box:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'size', 1)\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        box = object.__new__(cls)\n"
        "        object.__setattr__(box, 'size', 2)\n"
        "        return box\n"
    )
    problems = _violations(bad)
    assert len(problems) == 9
    assert any("_search" in p for p in problems)
    assert any("linalg._as_square" in p for p in problems)
    assert any("write_csv" in p for p in problems)
    assert "line 6: parses JSON outside serialization" in problems
    assert "line 7: writes to standard output outside cli" in problems
    assert "line 8: writes JSON outside cli and serialization" in problems
    assert "line 9: imports csv outside cli" in problems
    assert "line 15: bypasses a constructor with object.__new__" in problems
    assert "line 16: bypasses a constructor with object.__setattr__" in problems
    package = tmp_path / "__init__.py"
    package.write_text('"""The package."""\n')
    assert _violations(package) == []
    package.write_text('"""The package."""\nfrom .graphs import level_decompose\n')
    assert _violations(package) == ["the package namespace holds more than its docstring"]


def test_rules_catch_an_import_cycle(tmp_path):
    (tmp_path / "a.py").write_text("from .b import f\nfrom . import c\n")
    (tmp_path / "b.py").write_text("import numpy\nfrom .errors import BadParams\n")
    (tmp_path / "c.py").write_text("from chromlc.d import g\n")
    (tmp_path / "d.py").write_text("def g():\n    import chromlc.b\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert _import_cycle(paths) == []
    (tmp_path / "b.py").write_text(
        "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .c import h\n"
    )
    assert _import_cycle(paths) == ["b", "c", "d", "b"]


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


def test_rules_catch_an_unused_public_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['LIMIT', 'Box', 'dead', 'helper', 'kept', 'kept_calls', 'used', 'recursive']\n"
        "LIMIT = 3\n"
        "def helper(x):\n"
        "    return x\n"
        "def dead(x):\n"
        "    return helper(x)\n"
        "def kept(x):\n"
        "    return kept_calls(x)\n"
        "def kept_calls(x):\n"
        "    return x\n"
        "def used(x):\n"
        "    return x\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "class Box:\n"
        "    def size(self):\n"
        "        return LIMIT\n"
        "    def unread(self):\n"
        "        return self.size()\n"
    )
    (tmp_path / "b.py").write_text("from .a import Box, used\nvalue = used(Box().size())\n")
    paths = sorted(tmp_path.glob("*.py"))
    kept = {"a.kept": "reason", "a.used": "stale: b reads it", "a.gone": "stale: not defined"}
    assert _public_name_problems(paths, kept) == [
        "nothing in the package uses the public a.Box.unread",
        "nothing in the package uses the public a.dead",
        "nothing in the package uses the public a.helper",
        "nothing in the package uses the public a.recursive",
        "a.gone is kept as unused, but the package uses it or does not define it",
        "a.used is kept as unused, but the package uses it or does not define it",
    ]
