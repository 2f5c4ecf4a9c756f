"""Count the code, docstring, comment and blank lines of Python modules.

    python3 tools/line_kinds.py [path ...]

Each path is a module or a directory, whose `*.py` files are read in name
order; with no path, `src/rga` next to this script is read.  One row per
module and a total row are printed.  Each line of a module is of exactly
one kind, so the four counts of a module add up to its line count:

- docstring: a line of the string that opens a module, class or function
  body (`ast`);
- code: any other line that holds part of a token other than a comment,
  including every line of a string that spans several;
- comment: a line whose only token is a comment;
- blank: a line with no token at all.

Only the standard library is used, so the benchmark can import
`line_kinds` too.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def line_kinds(source: str) -> dict:
    """{kind: number of lines} for the text of one module."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for n in range(1, len(source.splitlines()) + 1):
        kind = ("docstring" if n in docs else "code" if n in code
                else "comment" if n in comments else "blank")
        counts[kind] += 1
    return counts


def modules(paths) -> list:
    """The `.py` files named by `paths`, directories expanded in name
    order."""
    out = []
    for p in map(Path, paths):
        out.extend(sorted(p.glob("*.py")) if p.is_dir() else [p])
    return out


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or [
        Path(__file__).resolve().parent.parent / "src" / "rga"]
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<24}" + "".join(f"{k:>11}" for k in KINDS)
          + f"{'lines':>8}")
    for path in modules(paths):
        counts = line_kinds(path.read_text(encoding="utf-8"))
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.name:<24}" + "".join(f"{counts[k]:>11}" for k in KINDS)
              + f"{sum(counts.values()):>8}")
    print(f"{'total':<24}" + "".join(f"{total[k]:>11}" for k in KINDS)
          + f"{sum(total.values()):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
