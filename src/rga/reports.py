"""Plain-text snapshot reports.

Each generator returns a deterministic UTF-8 string with LF line endings;
`write_all` drops them into a directory.  These tables are the package's
record of every documented discrepancy and of the verdicts the source
material leaves open (n=1 degeneracy, odd-n grading, the zero-divisor
claim, the almost-bialgebra relation table, cross-symmetry coherence).
Their content is the deliverable: a fail row here is a finding, not a bug.
The checkers return data; this module and `rga.cli` are the only ones
that turn their answers into text.
"""

from __future__ import annotations

from pathlib import Path

from .algebra import (THETA, Element, N2_BASIS, check_representation,
                      grading_check, left_mul_matrix, mul, obstruction,
                      annihilator, Subspace)
from .category import cocycle_from_algebra, check_regular_cocycle
from .rewrite import ZERO, RewriteSystem
from .tensor import (BIALGEBRA_RELATIONS, bialgebra_candidates,
                     check_almost_bialgebra, check_coalgebra_obstruction,
                     check_coassociativity, check_dual_pairing_identity,
                     check_regular_module, dual_comultiplication,
                     SIGN_CONVENTIONS)
from .wick import (ConjugatedPair, CrossSymmetry, WickElement,
                   check_coherence, check_regular_cross_symmetry,
                   order_coherent, wick_mul_regular)


def _show(w) -> str:
    """A critical-pair word as dotted letters, `e` when empty, `0` for ZERO."""
    return "0" if w is ZERO else (".".join(map(str, w)) if w else "e")


def confluence_report() -> str:
    lines = ["critical-pair analysis of the generator presentations", ""]
    for n in range(1, 5):
        sys = RewriteSystem(n)
        rep = sys.check_local_confluence()
        lines.append(f"n={rep.n} strategy=leftmost "
                     f"critical_pairs={len(rep.critical_pairs)} "
                     f"locally_confluent={str(rep.locally_confluent).lower()}")
        for p in rep.critical_pairs:
            lines.append(
                f"  overlap={_show(p.overlap)} [{p.rule_left} | "
                f"{p.rule_right}] -> {_show(p.left_reduct)} | "
                f"{_show(p.right_reduct)} joinable={str(p.joinable).lower()}")
        if n == 1:
            lines.append(
                "  note: for n=1 the square rule and the cyclic rule overlap "
                "on the same word 11 with")
            lines.append(
                "  irreconcilable reducts 0 and 1, so the one-generator "
                "quotient (which forces the")
            lines.append(
                "  generator itself to vanish) is not seen by rewriting "
                "alone.")
        lines.append("")
    lines.append("normal-form counts by word length")
    for n in range(2, 5):
        counts = [0] * 7
        for w in RewriteSystem(n).enumerate_normal_forms(6):
            counts[len(w)] += 1
        lines.append(f"  n={n}: " + " ".join(str(c) for c in counts))
    lines.append("")
    return "\n".join(lines) + "\n"


def representation_report() -> str:
    lines = ["left/right multiplication operator laws "
             "(L_i L_j = L_ij, R_i R_j = R_ji)", ""]
    for n, deg in ((1, 3), (2, 3), (3, 4)):
        verdict = check_representation(n, deg)
        # two laws at each of the n * n generator pairs and each word
        words = verdict.checked // (2 * n * n)
        lines.append(f"n={n} max_deg={deg} words={words} "
                     f"left_right_operator_laws="
                     f"{'pass' if verdict.ok else 'FAIL'}")
        lines.extend(f"  {w.law} failure at i={w.at[0]} j={w.at[1]} "
                     f"word={w.at[2]}" for w in verdict.witnesses)
    lines.append("")
    return "\n".join(lines) + "\n"


def grading_report() -> str:
    lines = ["parity behaviour of the product", ""]
    for n in (2, 3):
        sys = RewriteSystem(n)
        words = [w for w in sys.enumerate_normal_forms(3) if len(w)]
        elements = [(w, Element.from_word(sys, w)) for w in words]
        pair_bad = []
        triple_bad = []
        for u, a in elements:
            for v, b in elements:
                laws = {w.law for w in grading_check(a, b).witnesses}
                if "product grade" in laws:
                    pair_bad.append(
                        f"  {u.to_text()} * {v.to_text()} = {mul(a, b)} "
                        f"(expected grade {(u.parity + v.parity) % 2})")
                if "odd triple" in laws:
                    triple = mul(mul(a, b), a)
                    triple_bad.append(
                        f"  {u.to_text()} * {v.to_text()} * {u.to_text()} "
                        f"= {triple} (expected odd)")
        lines.append(f"n={n}: pairs={len(words) ** 2} "
                     f"pair_violations={len(pair_bad)} "
                     f"odd_triple_violations={len(triple_bad)}")
        lines.extend(pair_bad)
        if triple_bad:
            lines.append("  odd*odd*odd closure failures:")
            lines.extend(triple_bad)
        if n % 2 == 1:
            lines.append(
                f"  note: the cyclic rule shortens words by n={n}, an odd "
                "amount, so the Z2 grade of a")
            lines.append(
                "  product is not determined by the grades of its factors; "
                "the quotient is not Z2-graded.")
        lines.append("")
    return "\n".join(lines) + "\n"


def zero_divisor_report() -> str:
    b = Element.from_coeffs(THETA, (1, -1, -1, 0, 0))
    samples = [
        ("1", Element.unit(THETA)),
        ("generic", Element.from_coeffs(THETA, (1, 2, 3, 5, 7))),
        ("T1", Element.generator(THETA, 1)),
        ("a0=0 family", Element.from_coeffs(THETA, (0, 1, 1, 1, 1))),
    ]
    lines = ["claimed universal zero divisor b = 1 - T1 - T2", "",
             f"b = {b}", ""]
    for name, a in samples:
        ab = mul(a, b)
        ba = mul(b, a)
        lines.append(f"a ({name}) = {a}")
        lines.append(f"  a*b = {ab}   [zero: {str(ab.is_zero()).lower()}]")
        lines.append(f"  b*a = {ba}   [zero: {str(ba.is_zero()).lower()}]")
    lines.append("")
    lines.append("componentwise, a*b = a0 + (a1-a12-a0) T1 + (a2-a21-a0) T2"
                 " + (a12-a1) T1T2 + (a21-a2) T2T1,")
    lines.append("so a*b = 0 forces a0 = 0, a1 = a12 and a2 = a21: "
                 "b annihilates only that family, not every element.")
    lines.append("")
    generic = samples[1][1]
    lines.append(f"right annihilator of the generic sample "
                 f"(a0, D nonzero): dimension "
                 f"{len(annihilator(generic, 'right'))}")
    t1 = Element.generator(THETA, 1)
    ann = annihilator(t1, "right")
    lines.append("right annihilator of T1:")
    for e in ann:
        lines.append(f"  {e}")
    lines.append("")
    return "\n".join(lines) + "\n"


def bialgebra_report() -> str:
    lines = ["multiplicative consistency of Delta(T_i) = "
             "T_i (x) e_i + e_i (x) T_i", "",
             "relations checked: Delta(T1)^2 = 0, Delta(T2)^2 = 0,",
             "                   D1 D2 D1 = D1,  D2 D1 D2 = D2", ""]
    header = (f"{'candidate':<18} {'signs':<7} {'sq1':<5} {'sq2':<5} "
              f"{'121':<5} {'212':<5} ok")
    lines.append(header)
    for name, gens in bialgebra_candidates().items():
        for signs in SIGN_CONVENTIONS:
            verdict = check_almost_bialgebra(gens, signs)
            failed = {w.law for w in verdict.witnesses}
            lines.append(f"{name:<18} {signs:<7} " + "".join(
                f"{str(law not in failed).lower():<5} "
                for law in BIALGEBRA_RELATIONS) + str(verdict.ok).lower())
    lines.append("")
    lines.append("no candidate satisfies all defining relations under "
                 "either sign convention; the displayed")
    lines.append("comultiplication does not extend multiplicatively to "
                 "the whole algebra as stated.")
    lines.append("")
    return "\n".join(lines) + "\n"


def psi_coherence_report() -> str:
    pair = ConjugatedPair()
    lines = ["cross-symmetry coherence (both laws, all splits, degree <= 2)",
             ""]
    for vacuum in ("unit", "idem"):
        psi = CrossSymmetry.regular(pair, vacuum)
        lines.extend(_coherence_lines(psi, 2))
        value = psi.apply((1,), (1, 2))
        lines.append(f"  psi(X1 (x) T1 T2) = {value}")
        lines.append("")
    lines.extend(_coherence_lines(CrossSymmetry.flip(pair), 2))
    lines.append("")
    return "\n".join(lines) + "\n"


def _coherence_lines(psi, max_deg: int) -> list:
    """The verdict of `check_coherence` on psi and its first witnesses."""
    verdict = check_coherence(psi, max_deg)
    lines = [f"base={psi.label} max_deg={max_deg} "
             f"instances={verdict.checked} "
             f"order_coherent={str(order_coherent(verdict)).lower()} "
             f"full_law_coherent={str(verdict.ok).lower()}"]
    if verdict.witnesses:
        lines.append(f"  disagreements: {len(verdict.witnesses)} "
                     "(showing up to 8)")
    return lines + [f"  {w}" for w in verdict.witnesses[:8]]


def comultiplication_lines(table) -> list:
    """One `Delta(w) = ...` line per X-word of a comultiplication table."""
    return [f"Delta({w.to_text('X')}) = {table[w]}"
            for w in sorted(table, key=lambda w: w.sort_key())]


def dual_comultiplication_report() -> str:
    table = dual_comultiplication()
    lines = ["comultiplication transported through the reversal pairing", "",
             *comultiplication_lines(table)]
    lines.append("")
    lines.append(f"coassociative: "
                 f"{str(check_coassociativity(table).ok).lower()}")
    for conv in ("straight", "flip"):
        ok = check_dual_pairing_identity(table, conv).ok
        lines.append(f"pairing transport identity "
                     f"<Delta(w), u (x) v> = <w, uv> [{conv}]: "
                     f"{str(ok).lower()}")
    verdict = check_coalgebra_obstruction(table)
    lines.append(f"coalgebra obstruction law Delta.e = (e (x) e).Delta: "
                 f"{str(verdict.ok).lower()}")
    if verdict.witnesses:
        lines.append("  fails at: " + ", ".join(
            w.at for w in verdict.witnesses))
    lines.append("")
    return "\n".join(lines) + "\n"


def wick_regular_report() -> str:
    pair = ConjugatedPair()
    psi = CrossSymmetry.regular(pair, "unit")
    lines = ["regular Wick structure with the obstruction map on both legs",
             ""]
    verdict = check_regular_cross_symmetry(psi, obstruction, obstruction, 2)
    lines.append(f"regular cross symmetry law "
                 f"(e (x) e).psi = psi.(e (x) e): {str(verdict.ok).lower()}")
    if verdict.witnesses:
        lines.append(f"  witnesses: {len(verdict.witnesses)}; first at "
                     f"{verdict.witnesses[0].at}")
    x = WickElement.single(pair, (1,), ())
    y = WickElement.single(pair, (), (1,))
    value = wick_mul_regular(x, y, psi, obstruction, obstruction)
    lines.append(f"regular Wick product (T1 (x) 1)(1 (x) X1) = {value}")
    lines.append("")

    sys = pair.theta
    space = Subspace("A", N2_BASIS)
    action = {w: left_mul_matrix(Element.from_word(sys, w), space, space)
              for w in N2_BASIS}

    def e_module(vec):
        return obstruction(Element.from_coeffs(sys, vec)).coeffs_n2()

    verdict = check_regular_module(action, obstruction, e_module, sys)
    lines.append("module law rho.(e_A (x) e_M) = e_M.rho with M = A, "
                 "rho = multiplication,")
    lines.append(f"e_A = e_M = obstruction map: {str(verdict.ok).lower()}")
    if verdict.witnesses:
        shown = ", ".join(f"({w.at[0].to_text()}, {w.at[1]})"
                          for w in verdict.witnesses[:4])
        lines.append(f"  fails at {len(verdict.witnesses)} basis pairs, "
                     f"first: {shown}")
    identity = check_regular_module(action, lambda a: a, lambda v: v, sys)
    lines.append(f"same with identity obstruction maps: "
                 f"{str(identity.ok).lower()}")
    lines.append("")

    cocycle, pruned = cocycle_from_algebra(RewriteSystem(3), 4)
    verdict = check_regular_cocycle(cocycle)
    dims = [s.dim for s in sorted(cocycle.spaces, key=lambda s: s.label)]
    lines.append("n=3 truncated cocycle at degree 4: "
                 f"dims={dims} pruned={len(pruned)} "
                 f"regular={str(verdict.ok).lower()}")
    lines.append("")
    return "\n".join(lines) + "\n"


REPORTS = {
    "confluence.txt": confluence_report,
    "representation.txt": representation_report,
    "grading.txt": grading_report,
    "zero_divisor.txt": zero_divisor_report,
    "bialgebra.txt": bialgebra_report,
    "psi_coherence.txt": psi_coherence_report,
    "dual_comultiplication.txt": dual_comultiplication_report,
    "wick_regular.txt": wick_regular_report,
}


def write_all(outdir) -> list:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, make in REPORTS.items():
        path = out / name
        path.write_text(make(), encoding="utf-8", newline="\n")
        written.append(path)
    return written
