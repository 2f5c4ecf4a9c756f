"""`tools/line_kinds.py`: every line of a module is of exactly one kind."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "line_kinds", ROOT / "tools" / "line_kinds.py")
line_kinds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_kinds)

MODULES = sorted((ROOT / "src" / "rga").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_kinds_sum_to_the_line_count(path):
    text = path.read_text(encoding="utf-8")
    counts = line_kinds.line_kinds(text)
    assert set(counts) == set(line_kinds.KINDS)
    assert sum(counts.values()) == text.count("\n")  # as `wc -l` counts
    assert counts["code"] > 0


def test_each_kind_on_a_small_module():
    source = '''"""Module
docstring."""

# a comment
X = """not a
docstring"""  # trailing comment


def f():
    """One line."""
    return (1 +
            2)
'''
    assert line_kinds.line_kinds(source) == {
        "code": 5, "docstring": 3, "comment": 1, "blank": 3}


def test_main_prints_a_row_per_module_and_a_total(capsys):
    assert line_kinds.main([str(ROOT / "src" / "rga")]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == len(MODULES) + 2
    assert rows[-1].split()[-1] == str(
        sum(p.read_text(encoding="utf-8").count("\n") for p in MODULES))
