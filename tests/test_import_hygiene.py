"""Import hygiene: every name a module of the package imports is used in it,
and every public function or class of the package is used outside the tests.

A statement marked `# noqa: F401` is exempt; it keeps a binding that the
benchmark tests look up on purpose.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "abrlab"
MODULES = sorted(PACKAGE.glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> tuple[list[str], list[str]]:
    """(unused imported names, unused names on `# noqa: F401` lines), in order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused, exempt = [], []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        marked = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                (exempt if marked else unused).append(name)
    return unused, exempt


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    unused, _ = unused_imports(path.read_text(encoding="utf-8"))
    assert unused == [], f"{path.name} imports but never uses {unused}"


def test_exemptions_are_the_pinned_bindings():
    exempt = {(path.stem, name) for path in MODULES
              for name in unused_imports(path.read_text(encoding="utf-8"))[1]}
    assert exempt == {("cli", "run_session"), ("capacity", "run_session"),
                      ("imitation", "beam_expert_decide")}


def test_checker_flags_unused_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp\n"
              "from math import pi, tau  # noqa: F401\n"
              "from math import e, inf\n"
              "x = e + pi\n")
    assert unused_imports(source) == (["os", "osp", "inf"], ["tau"])


def referenced_names(tree: ast.AST) -> set[str]:
    """Names a tree refers to: by name, as an attribute, or in an import.
    Strings, docstrings among them, refer to nothing."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names


def uses_outside_the_tests() -> set[str]:
    """Names referred to by the package's modules (a definition's own body
    does not count for its name), the demos, the benchmark and the README's
    python blocks. A re-export in the package `__init__` is not a use."""
    used = set()
    for path in (p for p in MODULES if p.stem != "__init__"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            refs = referenced_names(stmt)
            if isinstance(stmt, DEFINITIONS):
                refs.discard(stmt.name)
            used |= refs
    for path in sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("benchmarks/**/*.py")):
        used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.S):
        used |= referenced_names(ast.parse(block))
    return used


def test_every_public_definition_is_used_outside_the_tests():
    used = uses_outside_the_tests()
    unused = [f"{path.stem}.{stmt.name}" for path in MODULES
              for stmt in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("_") and stmt.name not in used]
    assert unused == [], f"public, but used by the tests alone (or not at all): {unused}"


def test_references_skip_strings_and_count_attributes_and_imports():
    source = ("import a.b\n"
              "from c import d as e\n"
              "def f():\n"
              "    'g h'\n"
              "    return k.m(SPANS, 'n')\n")
    assert referenced_names(ast.parse(source)) == {"a", "b", "d", "k", "m", "SPANS"}
