"""The package's self-checks must survive `python -O`, which strips every
`assert` statement; they raise `SelfCheckError` instead."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rga"


def test_sources_found():
    assert len(list(SRC.glob("*.py"))) > 5


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


def test_self_checks_fire_under_dash_o():
    # their tests expect each raise with `pytest.raises`, which -O keeps
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_self_checks.py"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
        text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
