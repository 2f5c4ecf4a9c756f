"""Time each snapshot report and `write_all`, best of k calls.

    python3 tools/report_times.py [-k K]

One row per entry of `rga.reports.REPORTS`, in its order, then one for
`write_all` into a temporary directory; each row is the fewest
milliseconds of K calls (default 5).  The first call of a report also
pays for filling the shared product memos, which later calls find warm,
so the best of several calls is the warm cost.  The `rga` package is
imported from `src` next to this script.  Only the standard library is
used.
"""

import argparse
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rga.reports import REPORTS, write_all  # noqa: E402


def best_ms(call, k: int) -> float:
    """The fewest milliseconds of k calls of `call`."""
    best = float("inf")
    for _ in range(k):
        start = perf_counter()
        call()
        best = min(best, perf_counter() - start)
    return best * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", type=int, default=5,
                        help="calls per row, the best is printed")
    args = parser.parse_args(argv)
    if args.k < 1:
        parser.error("-k must be at least 1")
    print(f"{'report':<28}{'best_ms':>10}")
    for name, make in REPORTS.items():
        print(f"{name:<28}{best_ms(make, args.k):>10.2f}")
    with tempfile.TemporaryDirectory() as out:
        print(f"{'write_all':<28}"
              f"{best_ms(lambda: write_all(out), args.k):>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
