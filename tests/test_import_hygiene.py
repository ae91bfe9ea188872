"""Import hygiene: every name a module of the package imports is used in it.

A statement marked `# noqa: F401` is exempt; it keeps a binding that the
benchmark tests look up on purpose. The package's `__init__` imports only to
re-export, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "abrlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
