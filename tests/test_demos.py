"""Each demo runs to completion against the package's current API.

Each demo keeps its `main()` behind `if __name__ == "__main__"`, so importing
one runs nothing; the test imports it, then calls `main()` with its printout
captured. The five take a few seconds together. The shell demo and README's
CLI quick start are too slow to run here, so each of their `abrlab` lines is
only parsed by the CLI's own parser.
"""

import importlib.util
import shlex
from pathlib import Path

import pytest

from abrlab.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def _documented_commands() -> list[tuple[str, str]]:
    """(source, line) of every `abrlab` line in README's CLI quick start and the shell demo."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start (CLI)", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    shell = (ROOT / "demos" / "06_full_pipeline.sh").read_text(encoding="utf-8")
    return [(source, line) for source, text in (("README.md", quick_start), ("06_full_pipeline.sh", shell))
            for line in text.splitlines() if line.startswith("abrlab ")]


COMMANDS = _documented_commands()


def test_documented_commands_found():
    assert {source for source, _ in COMMANDS} == {"README.md", "06_full_pipeline.sh"}


@pytest.mark.parametrize("source, line", COMMANDS, ids=[f"{s}:{i}" for i, (s, _) in enumerate(COMMANDS)])
def test_documented_command_parses(source, line):
    argv = [{"$CFG": "exp.yaml", "$RUN": "runs/demo"}.get(tok, tok)
            for tok in shlex.split(line, comments=True)]
    args = build_parser().parse_args(argv[1:])
    assert args.fn.__name__ == f"cmd_{argv[1].replace('-', '_')}"


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
