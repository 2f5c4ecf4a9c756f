"""`rga.cli` only dispatches and prints: the JSON documents belong to
`rga.category`, so the CLI imports no private name of another `rga` module
and spells no JSON path of its own."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "rga" / "cli.py"
TREE = ast.parse(CLI.read_text(encoding="utf-8"), str(CLI))


def test_no_private_imports():
    bad = [f"{alias.name} (line {node.lineno})" for node in ast.walk(TREE)
           if isinstance(node, ast.ImportFrom)
           and (node.level or (node.module or "").startswith("rga"))
           for alias in node.names if alias.name.startswith("_")]
    assert not bad, f"cli.py imports private names: {bad}"


def test_no_json_paths():
    bad = [f"{node.value!r} (line {node.lineno})" for node in ast.walk(TREE)
           if isinstance(node, ast.Constant) and isinstance(node.value, str)
           and node.value.startswith("$")]
    assert not bad, f"cli.py spells JSON paths: {bad}"
