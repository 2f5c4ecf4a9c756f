"""The eight snapshot reports are the same on every Python the package
admits (`requires-python = ">=3.10"`).

For each of python3.10 ... python3.13 that is on PATH, starts, and is not
the interpreter running the tests, `python3.N -m rga.cli report --all
--out <dir>` runs from the source tree, and each file it writes must equal
its copy under tests/snapshots byte for byte.  A version that is missing
or does not start is skipped.

The help text is left out: argparse in Python 3.13 wraps two sections of
`tests/cli_help.txt` (`rga --help` and `rga check bialgebra --help`)
differently from 3.11 at the same width, and that file pins the help as
3.11 prints it.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rga.reports import REPORTS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "snapshots"
VERSIONS = ["python3.10", "python3.11", "python3.12", "python3.13"]


def other_interpreter(name: str) -> str:
    """The path of `name` on PATH when it starts and is not the running
    interpreter; skips the test otherwise."""
    path = shutil.which(name)
    if path is None:
        pytest.skip(f"{name} is not on PATH")
    try:
        done = subprocess.run(
            [path, "-c", "import sys; print(sys.executable)"],
            capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip(f"{name} does not start")
    if done.returncode != 0:
        pytest.skip(f"{name} does not start")
    if os.path.realpath(done.stdout.strip()) == os.path.realpath(
            sys.executable):
        pytest.skip(f"{name} is the running interpreter")
    return path


@pytest.mark.parametrize("name", VERSIONS)
def test_snapshots_on_every_supported_python(name, tmp_path):
    python = other_interpreter(name)
    out = tmp_path / "reports"
    done = subprocess.run(
        [python, "-m", "rga.cli", "report", "--all", "--out", str(out)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH="src",
                           PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert sorted(p.name for p in out.iterdir()) == sorted(REPORTS)
    for report in REPORTS:
        assert (out / report).read_bytes() == (GOLDEN / report).read_bytes()
