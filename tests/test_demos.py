"""Each demo runs to completion against the package's current API.

Each demo keeps its `main()` behind `if __name__ == "__main__"`, so importing
one runs nothing; the test imports it, then calls `main()` with its printout
captured. The five take a few seconds together.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0[1-5]_*.py"))


def test_all_five_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert capsys.readouterr().out == ""  # importing runs nothing
    module.main()
    assert capsys.readouterr().out.strip()
