"""Command-line interface.

Every subcommand prints canonical text and exits 0 on success, 1 when a
checker answers false (including `invert` on a non-invertible element),
and 2 on usage or parse errors.  A `check` that answers false also writes
its first witness on stderr, as `witness: <law> at <where>: <lhs> !=
<rhs>` (`check functor` excepted).  Any other exception is a fault and
propagates out of `main`.  Output is deterministic: identical
invocations produce byte-identical stdout.  When the reader of stdout
closes it early (`rga decompose ... | head`), the console script `entry`
stops writing and exits with EXIT_BROKEN_PIPE, without a traceback.

The argparse tree is built once per process, on the first `main` call,
and reused by every later call: it holds no per-call state, since
`parse_args` makes a fresh namespace each time, no option has a mutable
default and help text is formatted when it is printed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .algebra import (NotInvertible, annihilator, decompose,
                      find_idempotent_obstructions, invert, obstruction)
from .category import (DocumentError, NotAFunctorError,
                       check_duality_identity, check_obstructed_functor,
                       check_regular_cocycle, cocycle_from_json, dual_cocycle,
                       functor_from_json, module_from_json, read_document)
from .parser import ParseError, parse_element, parse_wick, parse_word_letters
from .rewrite import RewriteSystem, SizeLimitError, ZERO, require_size
from .reports import comultiplication_lines, write_all
from .tensor import (BIALGEBRA_RELATIONS, SIGN_CONVENTIONS,
                     bialgebra_candidates, check_almost_bialgebra,
                     check_regular_module, dual_comultiplication, dual_system)
from .wick import (ConjugatedPair, CrossSymmetry, check_coherence,
                   order_coherent)

# the status a shell reports for a process that SIGPIPE ended (128 + 13)
EXIT_BROKEN_PIPE = 141


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rga",
        description="exact computer algebra for regular graded algebras")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an element expression")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("expr")

    p = sub.add_parser("nf", help="normal form of a raw word")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("word", metavar="letters",
                   help='word letters, e.g. "1 2 1"')

    p = sub.add_parser("invert", help="closed-form inverse (n=2)")
    p.add_argument("-n", type=int, required=True, choices=[2])
    p.add_argument("expr")

    p = sub.add_parser("annihilate", help="annihilator basis (n=2)")
    p.add_argument("-n", type=int, required=True, choices=[2])
    p.add_argument("--side", choices=["left", "right"], required=True)
    p.add_argument("expr")

    p = sub.add_parser("obstruction", help="the obstruction map (n=2)")
    p.add_argument("-n", type=int, required=True, choices=[2])
    p.add_argument("expr")

    p = sub.add_parser("idempotents",
                       help="idempotent obstruction elements (n=2)")
    p.add_argument("-n", type=int, required=True, choices=[2])

    p = sub.add_parser("confluence", help="local confluence check")
    p.add_argument("-n", type=int, required=True)

    p = sub.add_parser("decompose", help="the subspaces X_i")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--max-deg", type=int, required=True)

    check = sub.add_parser("check", help="structure checkers")
    checksub = check.add_subparsers(dest="checker", required=True)
    p = checksub.add_parser("cocycle")
    p.add_argument("file")
    p = checksub.add_parser("functor")
    p.add_argument("file")
    p = checksub.add_parser("bialgebra")
    p.add_argument("-n", type=int, required=True, choices=[2])
    p.add_argument("--signs", choices=list(SIGN_CONVENTIONS), required=True)
    p.add_argument("--evacuum", choices=["unit", "idem"], required=True)
    p = checksub.add_parser("module")
    p.add_argument("file")

    wick = sub.add_parser("wick", help="Wick cross-product operations")
    wicksub = wick.add_subparsers(dest="wickop", required=True)
    p = wicksub.add_parser("eval")
    p.add_argument("expr")
    p.add_argument("--vacuum", choices=["unit", "idem"], default="unit")
    p = wicksub.add_parser("coherence")
    p.add_argument("--max-deg", type=int, required=True)
    p.add_argument("--vacuum", choices=["unit", "idem"], default="unit")

    dual = sub.add_parser("dual", help="duality operations")
    dualsub = dual.add_subparsers(dest="dualop", required=True)
    dualsub.add_parser("delta")

    p = sub.add_parser("report", help="write every snapshot report")
    p.add_argument("--all", action="store_true", required=True)
    p.add_argument("--out", default="reports")

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, SizeLimitError) as exc:
        print(f"error: {exc}")
        return 2
    except DocumentError as exc:
        print(f"error: {args.file}: {exc}")
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    max_deg = getattr(args, "max_deg", 0)
    if max_deg < 0:
        print(f"error: --max-deg must be >= 0, got {max_deg}")
        return 2
    # before any rule or word is built; `wick` works at n = 2
    require_size(getattr(args, "n", 2), max_deg)
    if cmd == "eval":
        sys_ = RewriteSystem(args.n)
        print(parse_element(args.expr, sys_))
        _note_leftmost(args.n)
        return 0
    if cmd == "nf":
        sys_ = RewriteSystem(args.n)
        word = parse_word_letters(args.word, sys_)
        nf = sys_.normal_form(word)
        print("0" if nf is ZERO else nf.to_text(sys_.symbol))
        _note_leftmost(args.n)
        return 0
    if cmd == "invert":
        sys_ = RewriteSystem(2)
        try:
            print(invert(parse_element(args.expr, sys_)))
            return 0
        except NotInvertible as exc:
            print(f"error: {exc}")
            return 1
    if cmd == "annihilate":
        sys_ = RewriteSystem(2)
        basis = annihilator(parse_element(args.expr, sys_), args.side)
        if not basis:
            print("0")
        for e in basis:
            print(e)
        return 0
    if cmd == "obstruction":
        sys_ = RewriteSystem(2)
        print(obstruction(parse_element(args.expr, sys_)))
        return 0
    if cmd == "idempotents":
        for e in find_idempotent_obstructions(RewriteSystem(2)):
            print(e)
        return 0
    if cmd == "confluence":
        rep = RewriteSystem(args.n).check_local_confluence()
        k = len(rep.critical_pairs)
        if rep.locally_confluent:
            print(f"locally confluent: true (critical pairs: {k}, "
                  f"all joinable)")
            return 0
        joinable = sum(1 for p in rep.critical_pairs if p.joinable)
        print(f"locally confluent: false (critical pairs: {k}, "
              f"{joinable} joinable)")
        return 1
    if cmd == "decompose":
        sys_ = RewriteSystem(args.n)
        for space in decompose(sys_, args.max_deg):
            print(f"{space.label}: " + ", ".join(space.basis_texts()))
        return 0
    if cmd == "check":
        return _dispatch_check(args)
    if cmd == "wick":
        return _dispatch_wick(args)
    if cmd == "dual":
        table = dual_comultiplication(RewriteSystem(2), dual_system())
        for line in comultiplication_lines(table):
            print(line)
        return 0
    try:  # report
        written = write_all(args.out)
    except OSError as exc:  # `--out` cannot be made or written
        print(f"error: {exc.filename}: cannot write ({exc.strerror})")
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


def _note_leftmost(n: int) -> None:
    """Say on stderr that an n = 1 answer is one of several normal forms."""
    if n == 1:
        print("note: n = 1 is not confluent; the answer is the leftmost "
              "normal form", file=sys.stderr)


def _dispatch_check(args) -> int:
    if args.checker == "functor":
        cocycle, functor = functor_from_json(read_document(args.file))
        try:
            verdict = check_obstructed_functor(functor, [cocycle])
        except NotAFunctorError as exc:
            print(f"obstructed functor: false ({exc})")
            return 1
        print(f"obstructed functor: {str(verdict.ok).lower()}")
        return 0 if verdict.ok else 1
    if args.checker == "cocycle":
        cocycle, pairings = cocycle_from_json(read_document(args.file))
        verdict = check_regular_cocycle(cocycle)
        if verdict.ok:
            print("regular cocycle: true")
        else:
            print(f"regular cocycle: false "
                  f"(fails at index {verdict.witnesses[0].at})")
        if pairings is not None and verdict.ok:
            dual = dual_cocycle(cocycle, pairings)
            verdict = (check_regular_cocycle(dual)
                       and check_duality_identity(cocycle, dual, pairings))
            print(f"duality identity: {str(verdict.ok).lower()}")
    elif args.checker == "bialgebra":
        sys_ = RewriteSystem(2)
        name = f"e1={args.evacuum},e2={args.evacuum}"
        gens = bialgebra_candidates(sys_)[name]
        verdict = check_almost_bialgebra(gens, args.signs)
        failed = {w.law for w in verdict.witnesses}
        for law in BIALGEBRA_RELATIONS:
            print(f"{law}: {str(law not in failed).lower()}")
    else:  # module
        verdict = check_regular_module(
            *module_from_json(read_document(args.file)))
        print(f"regular module law: {str(verdict.ok).lower()}")
        if verdict.witnesses:
            w, j = verdict.witnesses[0].at
            print(f"  first failure at word {w.to_text()} basis index {j}")
    if not verdict.ok:
        print(f"witness: {verdict.witnesses[0]}", file=sys.stderr)
    return 0 if verdict.ok else 1


def _dispatch_wick(args) -> int:
    psi = CrossSymmetry.regular(ConjugatedPair(), args.vacuum)
    if args.wickop == "eval":
        print(parse_wick(args.expr, psi))
        return 0
    verdict = check_coherence(psi, args.max_deg)  # coherence
    if verdict.ok:
        print(f"coherent: true (instances: {verdict.checked})")
        return 0
    print(f"coherent: false (instances: {verdict.checked}, "
          f"order coherent: {str(order_coherent(verdict)).lower()}, "
          f"disagreements: {len(verdict.witnesses)})")
    for w in verdict.witnesses[:10]:
        print(f"  {w}")
    return 1


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
