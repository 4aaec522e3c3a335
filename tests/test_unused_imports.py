"""Two conventions of the sources, checked by parsing each module with ``ast``.

Every name a module imports is used in that module: this covers the package,
the scripts and the test suite. A name bound by an import statement must
appear as a name somewhere else in the module. Package ``__init__`` files
(whose imports are re-exports), ``__future__`` imports and import statements
marked ``# noqa`` are exempt.

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
