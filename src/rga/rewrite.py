"""String rewriting for algebras of square-zero generators with a cyclic
collapse relation.

The algebra on n odd generators is the free product of n one-dimensional
Grassmann algebras divided by

    g_i g_i = 0                                   (square_zero)
    g_i g_{i+1} ... g_n g_1 ... g_{i-1} g_i = g_i (cyclic, one per i)

Monomials are words over the alphabet 1..n.  Both rule families strictly
shorten a word, so rewriting terminates.  Normal forms have a closed form.
nf(w) is ZERO exactly when w has two equal adjacent letters.  Otherwise
split w into maximal runs in which each letter is the cyclic successor
(x % n + 1) of the one before; a run of length L keeps its first
(L - 1) % n + 1 letters, and nf(w) is what the runs keep, in order.

Why: reduce w left to right on a stack that stays irreducible.  The top of
the stack is always the last letter read: a push puts x on top, and a
cyclic collapse of x, x+1, ..., x-1, x keeps the earlier copy of x.  So
square_zero fires exactly at an equal adjacent pair of the input; a stack
run goes on exactly while the input's next letter is a successor, so the
stack's runs are the input's runs, and each collapse shortens a run by n.
For n = 1 every word of two or more letters holds an equal pair, so it
goes to ZERO.  This is where the leftmost derivation (square_zero first at
equal positions) ends, and the tests check it against a reducer that
rescans for the leftmost redex after every step.  Whether every reduction
order reaches the same normal form is exactly local confluence, which
`check_local_confluence` decides from critical pairs.

Only the stated orientation of the cyclic relation rewrites; the reversed
cycle (e.g. 1,3,2,1 for n=3) is in normal form.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cache
from itertools import repeat
from operator import add
from typing import NamedTuple, Sequence, Union


class LetterRangeError(ValueError):
    """A word letter lies outside the generator range 1..n."""


class SelfCheckError(AssertionError):
    """A result failed the package's own consistency check: a bug, not bad
    input.  Raised explicitly, so the checks also run under `python -O`."""


class SizeLimitError(ValueError):
    """A generator count or degree outside the package's size bounds."""


MAX_GENERATORS = 64
"""The largest generator count n a RewriteSystem accepts.  Its rules hold
n(n + 3) letters and the critical-pair check is cubic in n: about 0.5 s at
n = 64 (Python 3.11, shared 2-vCPU Xeon).  `normal_form` encodes a word
as bytes, one letter a byte, so the ceiling must stay at most 255."""

MAX_WORDS = 200_000
"""The ceiling on the words one normal-form enumeration may have to list,
which sets the largest degree for each n (see `require_size`).  At n = 4,
degree 10 lists 112,273 words in about 0.1 s on the same machine, and each
degree triples it."""

MAX_PRODUCTS = 1 << 15
"""The most normal-word products one RewriteSystem memoises; past it, a
memo miss still answers but stores nothing more.  A full memo of n = 4
words of up to 8 letters holds about 8 MB (Python 3.11), plus the operand
words it keeps alive."""


def _word_bound(n: int, max_len: int) -> int:
    """The count of words of length <= max_len without two equal adjacent
    letters, n(n-1)^(k-1) of each length k >= 1; normal forms are among
    them."""
    if n == 1:
        return 1 + min(max_len, 1)
    if n == 2:
        return 1 + 2 * max_len
    k = min(max_len, 64)  # beyond 2**64 words every ceiling is passed
    return 1 + n * ((n - 1) ** k - 1) // (n - 2)


def require_size(n: int, max_len: int = 0) -> None:
    """Refuse, before anything is built, a generator count below 1 or above
    MAX_GENERATORS or a degree whose enumeration may list more than
    MAX_WORDS words: degree 10 at n = 4, 16 at n = 3, 99,999 at n = 2 and
    none at n = 1, whose normal forms stop at length 1."""
    if n < 1:
        raise SizeLimitError(f"generator count must be >= 1, got {n}")
    if n > MAX_GENERATORS:
        raise SizeLimitError(
            f"generator count must be <= {MAX_GENERATORS}, got {n}")
    if _word_bound(n, max_len) > MAX_WORDS:
        raise SizeLimitError(
            f"degree {max_len} is above the ceiling for n={n} "
            f"(more than {MAX_WORDS} words to list)")


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


class Word(tuple):
    """An immutable monomial: a tuple of int generator indices, which
    equals and hashes as that tuple.

    The empty word is the unit monomial; its parity is even.  The
    canonical term order everywhere in the package is `sort_key`, (length,
    letters); `<` is plain tuple order.  A letter whose type is not exactly
    int raises LetterRangeError.
    """

    __slots__ = ()

    def __new__(cls, letters: Sequence[int]):
        letters = tuple(letters)
        for x in letters:
            if type(x) is not int:
                raise LetterRangeError(f"letter {x!r} is not an int")
        return tuple.__new__(cls, letters)

    @property
    def letters(self) -> "Word":
        """The word itself, a tuple of letters."""
        return self

    def sort_key(self):
        return (len(self), self)

    @property
    def parity(self) -> int:
        return len(self) % 2

    def reverse(self) -> "Word":
        return _word(self[::-1])

    def to_text(self, symbol: str = "T") -> str:
        if not self:
            return "1"
        return " ".join(f"{symbol}{i}" for i in self)

    def __repr__(self):
        return f"Word({list(self)!r})"

    def __str__(self):
        return self.to_text()


_EQUAL_PAIR = re.compile(rb"(.)\1", re.S)
"""Matches two equal adjacent letters in a byte-encoded word."""


@cache
def _extra_rounds(n: int) -> re.Pattern:
    """The pattern that, in a byte-encoded word without two equal adjacent
    letters, matches the first (L - 1) // n rounds of n letters of each
    maximal run of cyclic successors of length L.  Deleting them leaves
    the run's last (L - 1) % n + 1 letters, which are also its first ones,
    as a run has period n.  Built once per n.

    A lookahead first requires the letter n places on to be the same one,
    as it is in any run longer than n.  The rounds starting at that letter
    then match as many times as leave that letter next.  A scan that fails
    at the start of a short run fails at all its later letters, so every
    match starts a maximal run."""
    def letter(i):  # the cycle 1, 2, ..., n counted from 0, modulo n
        return re.escape(bytes((i % n + 1,)))

    rounds = b"|".join(
        b"(?:%s)+" % b"".join(letter(x + k) for k in range(n))
        for x in range(n))
    return re.compile(b"(?=(.).{%d}\\1)(?:%s)(?=\\1)" % (n - 1, rounds), re.S)


def _word(letters) -> Word:
    """The Word over `letters`, ints already checked by the caller; skips
    the public constructor's check."""
    return tuple.__new__(Word, letters)


def _prepended(head: tuple, words: list):
    """`head + w` as a Word for each w of `words`, all built in C."""
    return map(tuple.__new__, repeat(Word), map(add, repeat(head), words))


class _Products(dict):
    """The memo of products of normal words over n generators, keyed by
    the operand pair (u, v): subscripting it gives nf(u v), so a hit costs
    one C-level lookup.  A miss forms nf(u v) from the seam where u and v
    meet, as two normal words can only rewrite there, and stores it while
    the memo holds fewer than MAX_PRODUCTS entries.  It needs only n, so
    it holds no reference to a system.  Both operands must be normal
    Words: a plain tuple equal to one would read its entry, and a word
    that is not normal would get a wrong answer (see `product`)."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __missing__(self, key):
        """nf(u v) in O(n).  ZERO when u ends with the letter v starts
        with; else u v itself, unless v starts with the successor of u's
        last letter and u's tail run of a letters and v's head run of b
        letters, each at most n long in a normal word, join into a run of
        a + b > n.  That run keeps its first a + b - n letters, all from
        u's tail run, as b <= n: u loses its last n - b letters and v its
        first b, and what is left joins without a redex, since the kept
        run ends with v's b-th letter, as a run has period n."""
        u, v = key
        n = self.n
        if not u or not v:
            uv = u or v
        elif u[-1] == v[0]:
            uv = ZERO
        elif v[0] != u[-1] % n + 1:
            uv = _word(u + v)
        else:
            a = b = 1
            while b < len(v) and v[b] == v[b - 1] % n + 1:
                b += 1
            while a < len(u) and u[-a] == u[-a - 1] % n + 1:
                a += 1
            uv = _word(u + v if a + b <= n else u[:len(u) + b - n] + v[b:])
        if len(self) < MAX_PRODUCTS:
            self[key] = uv
        return uv


EMPTY_WORD = Word(())

WordOrZero = Union[Word, _ZeroWord]


class Rule(NamedTuple):
    name: str
    pattern: tuple
    replacement: object  # tuple of letters, or ZERO


class CriticalPair(NamedTuple):
    rule_left: str
    rule_right: str
    overlap: Word
    left_reduct: WordOrZero
    right_reduct: WordOrZero
    joinable: bool


class ConfluenceReport(NamedTuple):
    n: int
    critical_pairs: tuple
    locally_confluent: bool


class RewriteSystem:
    """The rewrite presentation of the algebra on n regular generators.

    `symbol` only affects printing ("T" for the base algebra, "X" for the
    dual copy).  Instances are immutable and safe to share; `_products`
    memoises the normal-word products formed through it.
    """

    __slots__ = ("n", "symbol", "rules", "_products", "_alphabet")

    def __init__(self, n: int, symbol: str = "T"):
        require_size(n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "symbol", symbol)
        rules = []
        for i in range(1, n + 1):
            rules.append(Rule(f"square_zero({i})", (i, i), ZERO))
        for i in range(1, n + 1):
            pat = tuple(range(i, n + 1)) + tuple(range(1, i)) + (i,)
            rules.append(Rule(f"cyclic({i})", pat, (i,)))
        object.__setattr__(self, "rules", tuple(rules))
        object.__setattr__(self, "_products", _Products(n))
        object.__setattr__(self, "_alphabet", bytes(range(1, n + 1)))

    def __setattr__(self, name, value):
        raise AttributeError("RewriteSystem is immutable")

    def __eq__(self, other):
        return (isinstance(other, RewriteSystem)
                and self.n == other.n and self.symbol == other.symbol)

    def __hash__(self):
        return hash((self.n, self.symbol))

    def __repr__(self):
        return f"RewriteSystem(n={self.n}, symbol={self.symbol!r})"

    # -- single-step machinery ----------------------------------------

    def _check_letters(self, letters):
        for x in letters:
            if type(x) is not int or not 1 <= x <= self.n:
                Word((x,))  # refuses a letter that is not an int
                raise LetterRangeError(
                    f"letter {x} outside generator range 1..{self.n}")

    @staticmethod
    def _apply(letters, p, rule):
        if rule.replacement is ZERO:
            return ZERO
        return letters[:p] + rule.replacement + letters[p + len(rule.pattern):]

    # -- public operations ----------------------------------------------

    def normal_form(self, word) -> WordOrZero:
        """The leftmost-derivation normal form of `word` (or ZERO), by the
        closed form of the module docstring: ZERO at an equal adjacent
        pair, else each maximal run of cyclic successors of length L cut
        to its first (L - 1) % n + 1 letters.  The word is encoded as
        bytes, one letter a byte (see MAX_GENERATORS), for one regex
        search and, on words of more than n letters, one regex
        substitution.

        A Word holds exact ints already, so only its range is checked, on
        those bytes: `bytes` refuses a letter outside 0..255, and deleting
        the bytes 1..n leaves nothing exactly when every letter is in
        range.  Either failure reports the first bad letter.  Past the
        range check a word of 0 or 1 letters is normal; past the search
        for an equal pair, so is one of at most n letters, since every
        cyclic pattern has n + 1.  A word that is already normal comes
        back as the object given."""
        if type(word) is Word:
            try:
                data = bytes(word)
            except ValueError:
                data = b"\0"  # a letter outside 0..255, found below
            if data.translate(None, self._alphabet):
                self._check_letters(word)
        else:
            word = _word(word)
            self._check_letters(word)
            data = bytes(word)
        if len(data) <= self.n:  # too short for a cyclic pattern
            if len(data) > 1 and _EQUAL_PAIR.search(data):
                return ZERO
            return word
        if _EQUAL_PAIR.search(data):
            return ZERO
        out = _extra_rounds(self.n).sub(b"", data)
        return word if out is data else _word(out)

    def product(self, u: Word, v: Word) -> WordOrZero:
        """nf(u v): one normal word or ZERO, since every rule's right-hand
        side is one word or 0.  The checked entry to the memo `_products`:
        an operand that is not a Word raises TypeError, since a tuple such
        as (True,) equals, so would find, the entry made for (1,); each
        operand then goes through `normal_form`, which checks its letters
        and may rewrite it, and nf(nf(u) nf(v)) is read from the memo,
        which forms and stores a missing entry (see `_Products`).  That is
        nf(u v) by confluence for n >= 2; at n = 1 every word of two
        letters is ZERO.  Callers that hold normal Words already, such as
        the combination products, subscript the memo directly."""
        if type(u) is not Word or type(v) is not Word:
            raise TypeError(f"product takes two Words, got "
                            f"{type(u).__name__} and {type(v).__name__}")
        u, v = self.normal_form(u), self.normal_form(v)
        if u is ZERO or v is ZERO:
            return ZERO
        return self._products[u, v]

    def enumerate_normal_forms(self, max_len: int) -> list:
        """All normal-form words of length <= max_len in (length, lex) order.

        Builds each length from the one before by prepending letters.  A
        letter x may stand before a normal word w unless w starts with x,
        or with the full run of n successors x % n + 1, ..., x, which would
        complete a cyclic pattern.  In a lex-ordered layer the words with a
        given prefix form one contiguous block, found by bisection, so the
        next layer is, for x = 1..n in order, x prepended to the whole
        slices around those two blocks: already in lex order.
        """
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        n = self.n
        require_size(n, max_len)
        # each letter x, with the prefixes it may not precede in lex order
        # (one when n = 1), and past each the least tuple above its block
        heads = []
        for x in range(1, n + 1):
            run = tuple((x + k) % n + 1 for k in range(n))
            heads.append(((x,), [(p, p[:-1] + (p[-1] + 1,))
                                 for p in sorted({(x,), run})]))
        out = [EMPTY_WORD]
        layer = [EMPTY_WORD]
        for _ in range(max_len):
            nxt = []
            for head, cuts in heads:
                start = 0
                for prefix, past in cuts:
                    stop = bisect_left(layer, prefix)
                    nxt.extend(_prepended(head, layer[start:stop]))
                    start = bisect_left(layer, past)
                nxt.extend(_prepended(head, layer[start:]))
            if not nxt:
                break
            out.extend(nxt)
            layer = nxt
        return out

    def check_local_confluence(self) -> ConfluenceReport:
        """Enumerate all critical pairs and test joinability.

        Overlaps between every ordered pair of rule patterns are listed:
        proper suffix/prefix overlaps and containments, including
        self-overlaps.  A pair is joinable when both one-step reducts reach
        the same normal form.
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
        return ConfluenceReport(self.n, tuple(pairs), ok)

    def _critical(self, r1, r2, word, p1, p2) -> CriticalPair:
        left = self._apply(word, p1, r1)
        right = self._apply(word, p2, r2)
        left_nf = ZERO if left is ZERO else self.normal_form(left)
        right_nf = ZERO if right is ZERO else self.normal_form(right)
        return CriticalPair(r1.name, r2.name, Word(word),
                            left_nf, right_nf, left_nf == right_nf)
