"""`rga.cli` only dispatches and prints: the JSON documents belong to
`rga.category`, so the CLI imports no private name of another `rga` module
and spells no JSON path of its own.  It dispatches through its command
table alone: each leaf of the argparse tree carries its handler, and no
code compares a command name."""

import argparse
import ast
from pathlib import Path

from rga import cli

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


def test_no_command_name_is_read():
    names = ("command", "checker", "wickop", "dualop")
    reads = [f".{node.attr} (line {node.lineno})" for node in ast.walk(TREE)
             if isinstance(node, ast.Attribute) and node.attr in names]
    chains = [node.name for node in ast.walk(TREE)
              if isinstance(node, ast.FunctionDef)
              and node.name.startswith("_dispatch")]
    assert not reads and not chains, (reads, chains)


def parsers(parser, path=()):
    """(path, handler default) of `parser` and of every parser under it."""
    yield path, parser.get_default("handler")
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from parsers(sub, path + (name,))


def test_each_leaf_carries_the_handler_of_its_row():
    tree = dict(parsers(cli._build_parser()))
    rows = {tuple(path.split()): target
            for path, _, _, target in cli.COMMANDS}
    handlers = {path: target for path, target in rows.items()
                if not isinstance(target, str)}
    assert len(handlers) == 16 and len(set(handlers.values())) == 16
    assert {path: h for path, h in tree.items() if h is not None} == handlers
    assert set(tree) == {()} | set(rows)
