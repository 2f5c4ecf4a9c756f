"""String rewriting for algebras of square-zero generators with a cyclic
collapse relation.

The algebra on n odd generators is the free product of n one-dimensional
Grassmann algebras divided by

    g_i g_i = 0                                   (square_zero)
    g_i g_{i+1} ... g_n g_1 ... g_{i-1} g_i = g_i (cyclic, one per i)

Monomials are words over the alphabet 1..n.  Both rule families strictly
shorten a word, so exhaustive rewriting terminates; normal forms are
computed under a fixed deterministic strategy (leftmost position first,
square_zero before cyclic at equal positions).  Whether the resulting
normal form is independent of the strategy is exactly local confluence,
which `check_local_confluence` decides by enumerating critical pairs.

Only the stated orientation of the cyclic relation rewrites; the reversed
cycle (e.g. 1,3,2,1 for n=3) is in normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union


class LetterRangeError(ValueError):
    """A word letter lies outside the generator range 1..n."""


class SelfCheckError(AssertionError):
    """A result failed the package's own consistency check: a bug, not bad
    input.  Raised explicitly, so the checks also run under `python -O`."""


class _ZeroWord:
    """Absorbing out-of-band result of a square_zero rule; not a Word."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ZERO"


ZERO = _ZeroWord()


class Word:
    """An immutable monomial: a finite sequence of generator indices.

    The empty word is the unit monomial; its parity is even.  Words order
    by (length, letters), which is the canonical term order everywhere in
    the package.
    """

    __slots__ = ("letters", "_hash")

    def __init__(self, letters: Sequence[int] = ()):
        letters = tuple(int(i) for i in letters)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_hash", hash(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (len(self.letters), self.letters)

    def __lt__(self, other: "Word"):
        return self.sort_key() < other.sort_key()

    @property
    def parity(self) -> int:
        return len(self.letters) % 2

    def reverse(self) -> "Word":
        return Word(self.letters[::-1])

    def to_text(self, symbol: str = "T") -> str:
        if not self.letters:
            return "1"
        return " ".join(f"{symbol}{i}" for i in self.letters)

    def __repr__(self):
        return f"Word({list(self.letters)!r})"

    def __str__(self):
        return self.to_text()


EMPTY_WORD = Word(())

WordOrZero = Union[Word, _ZeroWord]


@dataclass(frozen=True)
class Rule:
    name: str
    pattern: tuple
    replacement: object  # tuple of letters, or ZERO

    def __str__(self):
        rhs = "0" if self.replacement is ZERO else (
            "".join(map(str, self.replacement)) or "1")
        return f"{self.name}: {''.join(map(str, self.pattern))} -> {rhs}"


@dataclass(frozen=True)
class CriticalPair:
    rule_left: str
    rule_right: str
    overlap: Word
    left_reduct: WordOrZero
    right_reduct: WordOrZero
    joinable: bool


@dataclass(frozen=True)
class ConfluenceReport:
    n: int
    strategy: str
    critical_pairs: tuple
    locally_confluent: bool

    def render(self) -> str:
        def show(w):
            return "0" if w is ZERO else (
                ".".join(map(str, w.letters)) if len(w) else "e")

        lines = [f"n={self.n} strategy={self.strategy} "
                 f"critical_pairs={len(self.critical_pairs)} "
                 f"locally_confluent={str(self.locally_confluent).lower()}"]
        for p in self.critical_pairs:
            lines.append(
                f"  overlap={show(p.overlap)} [{p.rule_left} | {p.rule_right}]"
                f" -> {show(p.left_reduct)} | {show(p.right_reduct)}"
                f" joinable={str(p.joinable).lower()}")
        return "\n".join(lines)


class RewriteSystem:
    """The rewrite presentation of the algebra on n regular generators.

    `symbol` only affects printing ("T" for the base algebra, "X" for the
    dual copy).  `strategy` fixes the reduction order: "leftmost" (default)
    or "rightmost" scanning, with square_zero taking priority over cyclic
    at equal positions.  Instances are immutable and safe to share.
    """

    __slots__ = ("n", "symbol", "strategy", "rules", "_cyclic")

    def __init__(self, n: int, symbol: str = "T", strategy: str = "leftmost"):
        if n < 1:
            raise ValueError(f"generator count must be >= 1, got {n}")
        if strategy not in ("leftmost", "rightmost"):
            raise ValueError(f"unknown strategy {strategy!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "strategy", strategy)
        rules = []
        cyclic = {}
        for i in range(1, n + 1):
            rules.append(Rule(f"square_zero({i})", (i, i), ZERO))
        for i in range(1, n + 1):
            pat = tuple(range(i, n + 1)) + tuple(range(1, i)) + (i,)
            rule = Rule(f"cyclic({i})", pat, (i,))
            rules.append(rule)
            cyclic[i] = rule
        object.__setattr__(self, "rules", tuple(rules))
        object.__setattr__(self, "_cyclic", cyclic)

    def __setattr__(self, name, value):
        raise AttributeError("RewriteSystem is immutable")

    def __eq__(self, other):
        return (isinstance(other, RewriteSystem)
                and self.n == other.n and self.symbol == other.symbol
                and self.strategy == other.strategy)

    def __hash__(self):
        return hash((self.n, self.symbol, self.strategy))

    def __repr__(self):
        return f"RewriteSystem(n={self.n}, symbol={self.symbol!r})"

    # -- single-step machinery ----------------------------------------

    def _check_letters(self, letters):
        for x in letters:
            if not 1 <= x <= self.n:
                raise LetterRangeError(
                    f"letter {x} outside generator range 1..{self.n}")

    def _redex_at(self, letters, p) -> Optional[Rule]:
        # square_zero before cyclic at the same position (fixed tie-break)
        if p + 1 < len(letters) and letters[p] == letters[p + 1]:
            return self.rules[letters[p] - 1]
        rule = self._cyclic[letters[p]]
        k = len(rule.pattern)
        if letters[p:p + k] == rule.pattern:
            return rule
        return None

    def _find_redex(self, letters, strategy):
        positions = range(len(letters))
        if strategy == "rightmost":
            positions = reversed(positions)
        for p in positions:
            rule = self._redex_at(letters, p)
            if rule is not None:
                return p, rule
        return None

    @staticmethod
    def _apply(letters, p, rule):
        if rule.replacement is ZERO:
            return ZERO
        return letters[:p] + rule.replacement + letters[p + len(rule.pattern):]

    # -- public operations ----------------------------------------------

    def normal_form(self, word, strategy: Optional[str] = None) -> WordOrZero:
        """Reduce to the unique fixpoint of the chosen strategy (or ZERO).

        Every step strictly shortens the word, which bounds the loop by the
        initial length.
        """
        letters = tuple(word.letters) if isinstance(word, Word) else tuple(word)
        self._check_letters(letters)
        strategy = strategy or self.strategy
        steps = 0
        bound = len(letters)
        while True:
            hit = self._find_redex(letters, strategy)
            if hit is None:
                return Word(letters)
            p, rule = hit
            letters = self._apply(letters, p, rule)
            if letters is ZERO:
                return ZERO
            steps += 1
            if steps > bound:
                raise SelfCheckError("rewriting failed to shorten the word")

    def is_normal(self, word) -> bool:
        letters = tuple(word.letters) if isinstance(word, Word) else tuple(word)
        self._check_letters(letters)
        return self._find_redex(letters, "leftmost") is None

    def enumerate_normal_forms(self, max_len: int) -> list:
        """All normal-form words of length <= max_len in (length, lex) order.

        Extends irreducible words letter by letter; a fresh redex can only
        appear in a suffix ending at the new letter, but the full scan is
        cheap at these sizes and keeps the check obviously right.
        """
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        out = [EMPTY_WORD]
        layer = [()]
        for _ in range(max_len):
            nxt = []
            for letters in layer:
                for a in range(1, self.n + 1):
                    cand = letters + (a,)
                    if self._find_redex(cand, "leftmost") is None:
                        nxt.append(cand)
            out.extend(Word(ls) for ls in nxt)
            layer = nxt
        return out

    def check_local_confluence(self) -> ConfluenceReport:
        """Enumerate all critical pairs and test joinability.

        Overlaps between every ordered pair of rule patterns are listed:
        proper suffix/prefix overlaps and containments, including
        self-overlaps.  A pair is joinable when both one-step reducts reach
        the same normal form under the fixed strategy.
        """
        pairs = []
        for r1 in self.rules:
            l1 = r1.pattern
            for r2 in self.rules:
                l2 = r2.pattern
                # containment: l2 occurs inside l1
                if len(l2) <= len(l1):
                    for p in range(len(l1) - len(l2) + 1):
                        if r1 is r2 and p == 0 and len(l1) == len(l2):
                            continue  # a rule on top of itself is trivial
                        if l1[p:p + len(l2)] == l2:
                            pairs.append(self._critical(r1, r2, l1, 0, p))
                # proper overlap: suffix of l1 = prefix of l2
                for k in range(1, min(len(l1), len(l2))):
                    if l1[len(l1) - k:] == l2[:k]:
                        word = l1 + l2[k:]
                        pairs.append(
                            self._critical(r1, r2, word, 0, len(l1) - k))
        pairs.sort(key=lambda p: (p.overlap.sort_key(),
                                  p.rule_left, p.rule_right))
        ok = all(p.joinable for p in pairs)
        return ConfluenceReport(self.n, self.strategy, tuple(pairs), ok)

    def _critical(self, r1, r2, word, p1, p2) -> CriticalPair:
        left = self._apply(word, p1, r1)
        right = self._apply(word, p2, r2)
        left_nf = ZERO if left is ZERO else self.normal_form(left)
        right_nf = ZERO if right is ZERO else self.normal_form(right)
        joinable = left_nf == right_nf if not (
            left_nf is ZERO or right_nf is ZERO) else left_nf is right_nf
        return CriticalPair(r1.name, r2.name, Word(word),
                            left_nf, right_nf, joinable)


def parity(word: Word) -> int:
    """Grade of a monomial: word length mod 2.  Undefined for ZERO."""
    if word is ZERO:
        raise ValueError("parity of ZERO is undefined")
    return word.parity
