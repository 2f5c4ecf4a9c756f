"""The help text of `rga` and the usage errors of its command groups, pinned.

`cli_help.txt` holds one section per call, headed
`==> rga <args>: exit <code> on <stream> <==`: `rga --help` and
`rga <path> --help` for every command path print on stdout and exit 0; a
bare command group prints its usage error, which names the group's `dest`,
on stderr and exits 2.  argparse wraps help to the terminal width, so the
calls run at COLUMNS=80.
"""

from pathlib import Path

import pytest

from rga.cli import main

HELP = Path(__file__).resolve().parent / "cli_help.txt"

PATHS = [
    [], ["eval"], ["nf"], ["invert"], ["annihilate"], ["obstruction"],
    ["idempotents"], ["confluence"], ["decompose"],
    ["check"], ["check", "cocycle"], ["check", "functor"],
    ["check", "bialgebra"], ["check", "module"],
    ["wick"], ["wick", "eval"], ["wick", "coherence"],
    ["dual"], ["dual", "delta"], ["report"],
]
CALLS = [path + ["--help"] for path in PATHS] + [["check"], ["wick"],
                                                 ["dual"]]


def sections() -> dict:
    """Header -> pinned text, from cli_help.txt."""
    text = HELP.read_text(encoding="utf-8")
    return dict(block.split(" <==\n", 1) for block in text.split("==> ")[1:])


def call(argv, monkeypatch, capsys) -> tuple:
    """(header, text) of one in-process call that ends in SystemExit."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    if exc.value.code == 0:
        stream, text, other = "stdout", out, err
    else:
        stream, text, other = "stderr", err, out
    assert other == ""
    return f"rga {' '.join(argv)}: exit {exc.value.code} on {stream}", text


def test_every_call_is_pinned():
    assert len(PATHS) == 20
    assert len(sections()) == len(CALLS)


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_help_and_usage_errors_are_pinned(argv, monkeypatch, capsys):
    header, text = call(argv, monkeypatch, capsys)
    assert header in sections(), header
    assert text == sections()[header]
    assert header.endswith("exit 0 on stdout" if argv[-1:] == ["--help"]
                           else "exit 2 on stderr")
