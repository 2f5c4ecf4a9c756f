"""`tools/report_times.py`: one timed row per snapshot report."""

import importlib.util
from pathlib import Path

from rga.reports import REPORTS

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "report_times", ROOT / "tools" / "report_times.py")
report_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_times)


def test_main_prints_a_row_per_report_and_write_all(capsys):
    assert report_times.main(["-k", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["report", "best_ms"]
    assert [row.split()[0] for row in rows] == [*REPORTS, "write_all"]
    assert all(float(row.split()[1]) > 0 for row in rows)
