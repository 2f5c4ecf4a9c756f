"""Command-line interface.

Every subcommand prints canonical text and exits 0 on success, 1 when a
checker answers false (including `invert` on a non-invertible element),
and 2 on usage or parse errors.  A `check` or `wick coherence` that
answers false writes its first witness on stderr as `witness: <law> at
<where>: <lhs> != <rhs>`.  Any other exception is a fault and propagates
out of `main`.  Output is deterministic: identical invocations produce
byte-identical stdout.  When the reader of stdout closes it early (`rga
decompose ... | head`), the console script `entry` stops writing and
exits with EXIT_BROKEN_PIPE, without a traceback.

Each command is one row of `COMMANDS`, from which `_build_parser` makes
the argparse tree once per process; it holds no per-call state, since
`parse_args` makes a fresh namespace each time, no option has a mutable
default and help text is formatted when it is printed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .algebra import (THETA, NotInvertible, annihilator, decompose,
                      find_idempotent_obstructions, invert, obstruction)
from .category import (DocumentError, check_duality_identity,
                       check_obstructed_functor, check_regular_cocycle,
                       cocycle_from_json, dual_cocycle, functor_from_json,
                       module_from_json, read_document)
from .parser import ParseError, parse_element, parse_wick, parse_word_letters
from .rewrite import RewriteSystem, SizeLimitError, ZERO, require_size
from .reports import comultiplication_lines, write_all
from .tensor import (BIALGEBRA_RELATIONS, SIGN_CONVENTIONS,
                     bialgebra_candidates, check_almost_bialgebra,
                     check_regular_module, dual_comultiplication)
from .wick import (ConjugatedPair, CrossSymmetry, check_coherence,
                   order_coherent)

# the status a shell reports for a process that SIGPIPE ended (128 + 13)
EXIT_BROKEN_PIPE = 141


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rga",
        description="exact computer algebra for regular graded algebras")
    groups = {"": top.add_subparsers(dest="command", required=True)}
    for path, text, arguments, target in COMMANDS:
        group, _, name = path.rpartition(" ")
        p = groups[group].add_parser(name, **({"help": text} if text else {}))
        for name_or_flag, options in arguments:
            p.add_argument(name_or_flag, **options)
        if isinstance(target, str):
            groups[path] = p.add_subparsers(dest=target, required=True)
        else:
            p.set_defaults(handler=target)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    max_deg = getattr(args, "max_deg", 0)
    if max_deg < 0:
        print(f"error: --max-deg must be >= 0, got {max_deg}")
        return 2
    try:
        # before any rule or word is built; `wick` works at n = 2
        require_size(getattr(args, "n", 2), max_deg)
        return args.handler(args)
    except (ParseError, SizeLimitError) as exc:
        print(f"error: {exc}")
        return 2
    except DocumentError as exc:
        print(f"error: {args.file}: {exc}")
        return 2


def _answer(verdict) -> int:
    """0 when a verdict holds, else 1 and its first witness on stderr."""
    if verdict:
        return 0
    print(f"witness: {verdict.witnesses[0]}", file=sys.stderr)
    return 1


def _note_leftmost(n: int) -> None:
    """Say on stderr that an n = 1 answer is one of several normal forms."""
    if n == 1:
        print("note: n = 1 is not confluent; the answer is the leftmost "
              "normal form", file=sys.stderr)


def _eval(args) -> int:
    print(parse_element(args.expr, RewriteSystem(args.n)))
    _note_leftmost(args.n)
    return 0


def _nf(args) -> int:
    sys_ = RewriteSystem(args.n)
    nf = sys_.normal_form(parse_word_letters(args.word, sys_))
    print("0" if nf is ZERO else nf.to_text(sys_.symbol))
    _note_leftmost(args.n)
    return 0


def _invert(args) -> int:
    try:
        print(invert(parse_element(args.expr, THETA)))
        return 0
    except NotInvertible as exc:
        print(f"error: {exc}")
        return 1


def _annihilate(args) -> int:
    basis = annihilator(parse_element(args.expr, THETA), args.side)
    print("\n".join(map(str, basis)) or "0")
    return 0


def _obstruction(args) -> int:
    print(obstruction(parse_element(args.expr, THETA)))
    return 0


def _idempotents(args) -> int:
    print(*find_idempotent_obstructions(), sep="\n")
    return 0


def _confluence(args) -> int:
    rep = RewriteSystem(args.n).check_local_confluence()
    joinable = ("all" if rep.locally_confluent
                else sum(1 for p in rep.critical_pairs if p.joinable))
    print(f"locally confluent: {str(rep.locally_confluent).lower()} "
          f"(critical pairs: {len(rep.critical_pairs)}, {joinable} joinable)")
    return 0 if rep.locally_confluent else 1


def _decompose(args) -> int:
    for space in decompose(RewriteSystem(args.n), args.max_deg):
        print(f"{space.label}: " + ", ".join(space.basis_texts()))
    return 0


def _check_cocycle(args) -> int:
    cocycle, pairings = cocycle_from_json(read_document(args.file))
    verdict = check_regular_cocycle(cocycle)
    if not verdict:
        print(f"regular cocycle: false "
              f"(fails at index {verdict.witnesses[0].at})")
        return _answer(verdict)
    print("regular cocycle: true")
    if pairings is not None:
        dual = dual_cocycle(cocycle, pairings)
        verdict = (check_regular_cocycle(dual)
                   and check_duality_identity(cocycle, dual, pairings))
        print(f"duality identity: {str(verdict.ok).lower()}")
    return _answer(verdict)


def _check_functor(args) -> int:
    cocycle, functor = functor_from_json(read_document(args.file))
    verdict = check_obstructed_functor(functor, [cocycle])
    print(f"obstructed functor: {str(verdict.ok).lower()}")
    return _answer(verdict)


def _check_bialgebra(args) -> int:
    gens = bialgebra_candidates()[f"e1={args.evacuum},e2={args.evacuum}"]
    verdict = check_almost_bialgebra(gens, args.signs)
    failed = {w.law for w in verdict.witnesses}
    for law in BIALGEBRA_RELATIONS:
        print(f"{law}: {str(law not in failed).lower()}")
    return _answer(verdict)


def _check_module(args) -> int:
    verdict = check_regular_module(*module_from_json(read_document(args.file)))
    print(f"regular module law: {str(verdict.ok).lower()}")
    if verdict.witnesses:
        w, j = verdict.witnesses[0].at
        print(f"  first failure at word {w.to_text()} basis index {j}")
    return _answer(verdict)


def _wick_eval(args) -> int:
    print(parse_wick(args.expr,
                     CrossSymmetry.regular(ConjugatedPair(), args.vacuum)))
    return 0


def _wick_coherence(args) -> int:
    verdict = check_coherence(
        CrossSymmetry.regular(ConjugatedPair(), args.vacuum), args.max_deg)
    if verdict:
        print(f"coherent: true (instances: {verdict.checked})")
    else:
        print(f"coherent: false (instances: {verdict.checked}, "
              f"order coherent: {str(order_coherent(verdict)).lower()}, "
              f"disagreements: {len(verdict.witnesses)})")
    for w in verdict.witnesses[:10]:
        print(f"  {w}")
    return _answer(verdict)


def _dual_delta(args) -> int:
    table = dual_comultiplication()
    print(*comultiplication_lines(table), sep="\n")
    return 0


def _report(args) -> int:
    try:
        written = write_all(args.out)
    except OSError as exc:  # `--out` cannot be made or written
        print(f"error: {exc.filename}: cannot write ({exc.strerror})")
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


# argparse arguments, as (name or flag, `add_argument` keywords)
_N = ("-n", {"type": int, "required": True})
_N2 = ("-n", {"type": int, "required": True, "choices": (2,)})
_EXPR = ("expr", {})
_FILE = ("file", {})
_MAX_DEG = ("--max-deg", {"type": int, "required": True})
_VACUUM = ("--vacuum", {"choices": ("unit", "idem"), "default": "unit"})

# (path, help, arguments, handler); a command group names, in place of a
# handler, the `dest` of its sub-command
COMMANDS = [
    ("eval", "evaluate an element expression", (_N, _EXPR), _eval),
    ("nf", "normal form of a raw word",
     (_N, ("word", {"metavar": "letters",
                    "help": 'word letters, e.g. "1 2 1"'})), _nf),
    ("invert", "closed-form inverse (n=2)", (_N2, _EXPR), _invert),
    ("annihilate", "annihilator basis (n=2)",
     (_N2, ("--side", {"choices": ("left", "right"), "required": True}),
      _EXPR), _annihilate),
    ("obstruction", "the obstruction map (n=2)", (_N2, _EXPR), _obstruction),
    ("idempotents", "idempotent obstruction elements (n=2)", (_N2,),
     _idempotents),
    ("confluence", "local confluence check", (_N,), _confluence),
    ("decompose", "the subspaces X_i", (_N, _MAX_DEG), _decompose),
    ("check", "structure checkers", (), "checker"),
    ("check cocycle", None, (_FILE,), _check_cocycle),
    ("check functor", None, (_FILE,), _check_functor),
    ("check bialgebra", None,
     (_N2, ("--signs", {"choices": SIGN_CONVENTIONS, "required": True}),
      ("--evacuum", {"choices": ("unit", "idem"), "required": True})),
     _check_bialgebra),
    ("check module", None, (_FILE,), _check_module),
    ("wick", "Wick cross-product operations", (), "wickop"),
    ("wick eval", None, (_EXPR, _VACUUM), _wick_eval),
    ("wick coherence", None, (_MAX_DEG, _VACUUM), _wick_coherence),
    ("dual", "duality operations", (), "dualop"),
    ("dual delta", None, (), _dual_delta),
    ("report", "write every snapshot report",
     (("--all", {"action": "store_true", "required": True}),
      ("--out", {"default": "reports"})), _report),
]


def entry():  # console script hook
    """Run `main` on the command line.  A stdout that its reader closed is
    not a fault: as the `signal` module's note on SIGPIPE advises, the
    rest of the output goes to os.devnull, so the flush at exit cannot
    fail again, and the exit code is EXIT_BROKEN_PIPE."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, inside the guard
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
