"""A ratchet on options: every parameter with a default in `src/rga`.

A default is a setting some caller may change, so each one is a concept a
reader has to keep in mind.  The list below is every (module, function,
parameter) with a default, found by AST; a field with a default in the
body of a `NamedTuple` class is a parameter of the class's `__new__`.
Change the list only together with a CHANGES.md line that names the new
option and the two non-test callers that need different values; an option
that one caller sets, or none, is a constant.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rga"

OPTIONS = [
    ("algebra", "Combination.__init__", "terms"),
    ("algebra", "Element.from_word", "coeff"),
    ("category", "cocycle_from_json", "where"),
    ("category", "cocycle_to_json", "pairings"),
    ("cli", "main", "argv"),
    ("rewrite", "RewriteSystem.__init__", "symbol"),
    ("rewrite", "Word.to_text", "symbol"),
    ("rewrite", "require_size", "max_len"),
    ("scalar", "Scalar.__init__", "b"),
    ("tensor", "tensor_mul", "signs"),
    ("wick", "WickElement.single", "coeff"),
]


def _defaulted(scope: str, node) -> list:
    """(qualified function name, parameter) for each default under node; a
    defaulted field of a `NamedTuple` body is a parameter of its `__new__`."""
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
        if isinstance(child, ast.ClassDef) and _is_named_tuple(child):
            found += [(f"{scope}{child.name}.__new__", f.target.id)
                      for f in child.body if isinstance(f, ast.AnnAssign)
                      and f.value is not None]
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                   ast.AsyncFunctionDef))
        found += _defaulted(f"{scope}{child.name}." if named else scope, child)
    return found


def _is_named_tuple(cls: ast.ClassDef) -> bool:
    """A `class C(NamedTuple)` body declares fields; the functional base
    `NamedTuple("C", fields)` declares none there."""
    return any(_name(b) == "NamedTuple" and not isinstance(b, ast.Call)
               for b in cls.bases)


def _name(expr) -> str:
    """The name an expression calls or is: `f` for `f`, `m.f` or `f(...)`."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    return getattr(expr, "id", None) or getattr(expr, "attr", "")


def test_defaulted_parameters_are_the_listed_ones():
    got = sorted((path.stem, function, param)
                 for path in SRC.glob("*.py")
                 for function, param in _defaulted("", ast.parse(
                     path.read_text(encoding="utf-8"), str(path))))
    assert got == sorted(OPTIONS)
