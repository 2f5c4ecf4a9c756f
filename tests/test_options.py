"""A ratchet on options: every parameter with a default in `src/rga`.

A default is a setting some caller may change, so each one is a concept a
reader has to keep in mind.  The list below is every (module, function,
parameter) with a default, found by AST.  Change the list only together
with a CHANGES.md line that names the new option and the two non-test
callers that need different values; an option that one caller sets, or
none, is a constant.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rga"

OPTIONS = [
    ("algebra", "Combination.__init__", "terms"),
    ("algebra", "Combination._new", "d"),
    ("algebra", "Element.from_word", "coeff"),
    ("algebra", "annihilator", "side"),
    ("category", "_matrix_from_json", "where"),
    ("category", "cocycle_from_json", "where"),
    ("category", "cocycle_to_json", "pairings"),
    ("cli", "main", "argv"),
    ("parser", "ParseError.__init__", "text"),
    ("rewrite", "RewriteSystem.__init__", "symbol"),
    ("rewrite", "Word.__new__", "letters"),
    ("rewrite", "Word.to_text", "symbol"),
    ("rewrite", "require_size", "max_len"),
    ("scalar", "Scalar.__init__", "a"),
    ("scalar", "Scalar.__init__", "b"),
    ("tensor", "TensorElement.single", "coeff"),
    ("tensor", "check_dual_pairing_identity", "convention"),
    ("tensor", "pair_tensor", "convention"),
    ("tensor", "tensor_mul", "signs"),
    ("wick", "CrossSymmetry.__init__", "label"),
    ("wick", "CrossSymmetry.regular", "vacuum"),
    ("wick", "WickElement.single", "coeff"),
]


def _defaulted(scope: str, node) -> list:
    """(qualified function name, parameter) for each default under node."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            a = child.args
            positional = a.posonlyargs + a.args
            params = positional[len(positional) - len(a.defaults):] + [
                k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            function = scope + getattr(child, "name", "<lambda>")
            found += [(function, p.arg) for p in params]
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                   ast.AsyncFunctionDef))
        found += _defaulted(f"{scope}{child.name}." if named else scope, child)
    return found


def test_defaulted_parameters_are_the_listed_ones():
    got = sorted((path.stem, function, param)
                 for path in SRC.glob("*.py")
                 for function, param in _defaulted("", ast.parse(
                     path.read_text(encoding="utf-8"), str(path))))
    assert got == sorted(OPTIONS)
