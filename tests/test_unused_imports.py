"""Three conventions of the sources, checked by parsing each module with ``ast``.

Every name a module imports is used in that module: this covers the package,
the scripts and the test suite. A name bound by an import statement must
appear as a name somewhere else in the module. Package ``__init__`` files
(whose imports are re-exports), ``__future__`` imports and import statements
marked ``# noqa`` are exempt.

The package holds no dead source. Every module-level function and every
method that is not a dunder of ``src/pseudocp`` (``__init__.py`` left out,
since a re-export is no use) is named somewhere else in the package: as a
name, an attribute or a string, outside its own body. The check runs to a
fixpoint, so a name used only by dead code is dead too (two dead functions
that name each other still escape it). ``PINNED`` lists the functions kept
without a caller in the package, each with its pin; they count as live.

The test suite keeps one independent reference per quantity in
``tests/oracles.py``: no other test module defines a function whose name
starts with one of ``REFERENCE_PREFIXES``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "pseudocp", ROOT / "scripts", ROOT / "tests")
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)
REFERENCE_PREFIXES = ("_ref_", "_oracle_", "_scalar_", "_nested_", "_reference_")
PACKAGE = sorted(path for path in (ROOT / "src" / "pseudocp").glob("*.py") if path.name != "__init__.py")
#: functions of the package that no package code calls, and why each stays
PINNED = {
    "curvature_tensor": "a perfbench/tracing.py LAYERS name",
    "orthonormalize_real_metric": "a perfbench/tracing.py LAYERS name",
}
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def _definitions(tree) -> list:
    """Module-level functions and non-dunder methods of a module."""
    items = [item for node in tree.body for item in (node.body if isinstance(node, ast.ClassDef) else [node])]
    return [
        item
        for item in items
        if isinstance(item, FUNCTION_NODES) and not (item.name.startswith("__") and item.name.endswith("__"))
    ]


def _uses(node, skip: set, owner=None) -> set:
    """Identifiers that ``node`` names (names, attributes and strings),
    leaving out the function bodies in ``skip`` and, inside a function, its
    own name."""
    if id(node) in skip:
        return set()
    if isinstance(node, FUNCTION_NODES):
        owner = node.name
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    else:
        name = None
    out = {name} if name is not None and name != owner else set()
    for child in ast.iter_child_nodes(node):
        out |= _uses(child, skip, owner)
    return out


def dead_functions(sources: list, keep=()) -> list:
    """Names of the functions of ``sources`` that no live code names; the
    names in ``keep`` count as live."""
    trees = [ast.parse(source) for source in sources]
    defs = [node for tree in trees for node in _definitions(tree)]
    dead = set()
    while True:
        skip = {id(node) for node in defs if node.name in dead}
        used = set().union(*(_uses(tree, skip) for tree in trees))
        found = {node.name for node in defs if node.name not in used and node.name not in keep}
        if found == dead:
            return sorted(dead)
        dead = found


def reference_definitions(source: str) -> list:
    """(line, name) of each function, at any depth, named as a reference."""
    return [
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith(REFERENCE_PREFIXES)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom math import pi, tau  # noqa\nfrom json import dumps\nprint(dumps)\n"
    assert unused_imports(source) == [(1, "os")]


def test_references_live_only_in_oracles():
    found = {
        path.name: reference_definitions(path.read_text(encoding="utf-8"))
        for path in (ROOT / "tests").glob("*.py")
        if path.name != "oracles.py"
    }
    assert {name: defs for name, defs in found.items() if defs} == {}
    assert reference_definitions((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))


def test_the_check_sees_a_reference_definition():
    source = "def _ref_a():\n    def _nested_b():\n        pass\n\n\ndef _reform():\n    pass\n"
    assert reference_definitions(source) == [(1, "_ref_a"), (2, "_nested_b")]


def test_no_dead_functions_in_the_package():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert dead_functions(sources, keep=PINNED) == []
    assert set(PINNED) <= set(dead_functions(sources)), "a pin whose function has a caller now"


def test_the_check_sees_dead_code_through_a_chain():
    source = (
        "def live():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\n"
        "def dead():\n    return dead() + only_dead_uses()\n\n\ndef only_dead_uses():\n    return 2\n\n\n"
        "class K:\n    def __init__(self):\n        pass\n\n"
        "    def method(self):\n        return self.method()\n\n"
        "    def named(self):\n        pass\n\n\n"
        "live()\ngetattr(K, 'named')\n"
    )
    assert dead_functions([source]) == ["dead", "method", "only_dead_uses"]
    assert dead_functions([source], keep=("dead",)) == ["method"]
