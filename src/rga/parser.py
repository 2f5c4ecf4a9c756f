"""Parser for the canonical element syntax (the printers' exact inverse).

Grammar (whitespace separates juxtaposed factors):

    element := ["+"|"-"] term (("+"|"-") term)*
    term    := scalar ["*"] factor* | factor+
    factor  := GEN | "(" element ")"
    scalar  := rat ["*"] "w" | rat | "w"
    rat     := INT ["/" INT]
    GEN     := ("T"|"X") DIGIT+

Plus and minus always separate terms; a two-part coefficient like 1+2*w
therefore re-parses as two unit-word terms of equal total value, and the
printers parenthesize it whenever a word follows.  In tensor and Wick
contexts a term may carry one "(x)" splitting it into a left and a right
component, and parenthesized subexpressions denote tensor (resp. Wick)
elements multiplied by juxtaposition.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Tuple

from .algebra import Element, mul
from .rewrite import RewriteSystem, Word
from .scalar import OMEGA, Scalar
from .tensor import TensorElement, element_tensor
from .wick import ConjugatedPair, CrossSymmetry, WickElement, wick_mul


class ParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message: str, pos: int, text: str = ""):
        self.pos = pos
        self.text = text
        super().__init__(f"{message} at position {pos}")


# The deepest parenthesis nesting an expression may have.  The descent
# takes three frames per level, so this keeps every accepted input well
# inside the interpreter's recursion limit.
MAX_NESTING = 200


# -- tokenizer ------------------------------------------------------------

_PUNCT = {"+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH",
          "(": "LPAREN", ")": "RPAREN"}


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("(x)", i):
            tokens.append(("TENSOR", "(x)", i))
            i += 3
            continue
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("NUM", int(text[i:j]), i))
            i = j
            continue
        if ch == "w":
            tokens.append(("W", "w", i))
            i += 1
            continue
        if ch in ("T", "X"):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            if j == i + 1:
                raise ParseError(f"generator letter {ch!r} needs an index",
                                 i, text)
            tokens.append(("GEN", (ch, int(text[i + 1:j])), i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i, text)
    tokens.append(("END", None, n))
    return tokens


class _Stream:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # parentheses open around the current token

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}",
                             tok[2], self.text)
        return tok

    def error(self, message: str):
        tok = self.tokens[self.pos]
        raise ParseError(message, tok[2], self.text)


# -- scalar layer ---------------------------------------------------------


def _parse_rat(ts: _Stream) -> Fraction:
    num = ts.expect("NUM")[1]
    if ts.peek() == "SLASH":
        ts.next()
        den = ts.expect("NUM")[1]
        if den == 0:
            ts.error("zero denominator")
        return Fraction(num, den)
    return Fraction(num)


def _try_parse_scalar(ts: _Stream) -> Optional[Scalar]:
    """rat ["*"] "w" | rat | "w"; None when the stream starts elsewhere."""
    if ts.peek() == "W":
        ts.next()
        return OMEGA
    if ts.peek() != "NUM":
        return None
    r = _parse_rat(ts)
    if ts.peek() == "STAR":
        mark = ts.pos
        ts.next()
        if ts.peek() == "W":
            ts.next()
            return Scalar(0, r)
        ts.pos = mark  # the star belonged to something else; back off
        return Scalar(r)
    if ts.peek() == "W":
        ts.next()
        return Scalar(0, r)
    return Scalar(r)


def parse_scalar(text: str) -> Scalar:
    """A standalone scalar, including the two-part form p/q+r/s*w."""
    ts = _Stream(text)
    sign = 1
    if ts.peek() == "MINUS":
        ts.next()
        sign = -1
    first = _try_parse_scalar(ts)
    if first is None:
        ts.error("expected a scalar")
    value = first if sign > 0 else -first
    if ts.peek() in ("PLUS", "MINUS"):
        sign = 1 if ts.next()[0] == "PLUS" else -1
        second = _try_parse_scalar(ts)
        if second is None:
            ts.error("expected the w-part of a scalar")
        if not second.is_rational():
            value = value + (second if sign > 0 else -second)
        else:
            ts.error("second scalar part must involve w")
    ts.expect("END")
    return value


# -- the shared term / sum grammar ---------------------------------------------


class _Context(NamedTuple):
    """What one kind of expression plugs into the shared grammar.

    `unit()` is the empty product, `generator(tok)` the value of one GEN
    token, `product(value, factor, tok)` multiplies a factor that starts at
    token `tok` onto the running product, and `combine(left, right, tok)`
    reads `left (x) right`; None where the kind has no (x).
    """

    unit: Callable[[], object]
    generator: Callable[[tuple], object]
    product: Callable[[object, object, tuple], object]
    combine: Optional[Callable[[object, object, tuple], object]]


def _parse_sum(ts: _Stream, ctx: _Context):
    sign = 1
    if ts.peek() in ("PLUS", "MINUS"):
        sign = 1 if ts.next()[0] == "PLUS" else -1
    value = _parse_term(ts, ctx).scale(sign)
    while ts.peek() in ("PLUS", "MINUS"):
        sign = 1 if ts.next()[0] == "PLUS" else -1
        term = _parse_term(ts, ctx).scale(sign)
        if type(term) is not type(value):
            ts.error("cannot add a plain element to a tensor")
        value = value + term
    return value


def _parse_term(ts: _Stream, ctx: _Context):
    left = _parse_product(ts, ctx)
    if ctx.combine is None or ts.peek() != "TENSOR":
        return left
    tok = ts.next()
    return ctx.combine(left, _parse_product(ts, ctx), tok)


def _parse_product(ts: _Stream, ctx: _Context):
    """A scalar prefix, then juxtaposed generators and parenthesized sums."""
    coeff = _try_parse_scalar(ts)
    if coeff is not None and ts.peek() == "STAR":
        ts.next()
    value = ctx.unit()
    got_factor = False
    while ts.peek() in ("GEN", "LPAREN"):
        got_factor = True
        tok = ts.next()
        if tok[0] == "GEN":
            factor = ctx.generator(tok)
        else:
            if ts.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than "
                                 f"{MAX_NESTING}", tok[2], ts.text)
            ts.depth += 1
            factor = _parse_sum(ts, ctx)
            ts.expect("RPAREN")
            ts.depth -= 1
        value = ctx.product(value, factor, tok)
    if coeff is None and not got_factor:
        ts.error("expected a term")
    return value if coeff is None else value.scale(coeff)


def _gen_index(system: RewriteSystem, tok, text: str) -> int:
    (symbol, index), pos = tok[1], tok[2]
    if symbol != system.symbol:
        raise ParseError(
            f"generator {symbol}{index} does not belong to this "
            f"{system.symbol}-side context", pos, text)
    if not 1 <= index <= system.n:
        raise ParseError(
            f"unknown generator index {index} (n={system.n})", pos, text)
    return index


# -- element context ---------------------------------------------------------


def _element_context(system: RewriteSystem, text: str) -> _Context:
    return _Context(
        lambda: Element.unit(system),
        lambda tok: Element.generator(system, _gen_index(system, tok, text)),
        lambda value, factor, tok: mul(value, factor),
        None)


def parse_element(text: str, system: RewriteSystem) -> Element:
    ts = _Stream(text)
    value = _parse_sum(ts, _element_context(system, text))
    ts.expect("END")
    return value


def parse_word_letters(text: str, system: RewriteSystem) -> Word:
    """A raw word as whitespace- or comma-separated letters, e.g. "1 2 1".

    The first bad letter is refused at its character offset."""
    letters = []
    for m in re.finditer(r"[^\s,]+", text):
        if not m[0].isdecimal():
            raise ParseError("word letters must be integers", m.start(), text)
        x = int(m[0])
        if not 1 <= x <= system.n:
            raise ParseError(f"letter {x} outside 1..{system.n}", m.start(),
                             text)
        letters.append(x)
    return Word(letters)


# -- tensor / wick contexts -----------------------------------------------------


def parse_wick(text: str, pair: ConjugatedPair,
               psi: CrossSymmetry) -> WickElement:
    """A Wick expression; juxtaposition is the Wick product through psi."""

    def generator(tok):
        side = pair.theta if tok[1][0] == "T" else pair.xi
        i = _gen_index(side, tok, text)
        if side is pair.theta:
            return WickElement.single(pair, (i,), ())
        return WickElement.single(pair, (), (i,))

    def combine(left, right, tok):
        # a plain algebra element times a plain dagger element is their
        # Wick product, since psi fixes 1 (x) 1
        if any(len(v) for (_, v), _ in left.terms()) \
                or any(len(u) for (u, _), _ in right.terms()):
            raise ParseError(
                "(x) needs a plain algebra element on the left and a plain "
                "dagger element on the right", tok[2], text)
        return wick_mul(left, right, psi)

    ts = _Stream(text)
    value = _parse_sum(ts, _Context(
        lambda: WickElement.unit(pair), generator,
        lambda value, factor, tok: wick_mul(value, factor, psi), combine))
    ts.expect("END")
    return value


def parse_tensor(text: str, system: RewriteSystem) -> TensorElement:
    """A tensor expression over one algebra: zero, or summands with a (x).

    A product is either a plain element or a product of parenthesized
    tensors, which a plain unit factor may precede.
    """
    unit = Element.unit(system)

    def product(value, factor, tok):
        if type(value) is type(factor):
            return value * factor
        if isinstance(value, TensorElement):
            ts.error(f"cannot mix a bare "
                     f"{'generator' if tok[0] == 'GEN' else 'element'} "
                     f"into a tensor product")
        if value != unit:
            raise ParseError("cannot mix a bare element into a tensor product",
                             tok[2], text)
        return factor

    def combine(left, right, tok):
        if not (isinstance(left, Element) and isinstance(right, Element)):
            raise ParseError("(x) needs plain elements on both sides",
                             tok[2], text)
        return element_tensor(left, right)

    ts = _Stream(text)
    value = _parse_sum(ts, _Context(
        lambda: unit, _element_context(system, text).generator, product,
        combine))
    if isinstance(value, Element):
        if not value.is_zero():
            raise ParseError("a tensor expression needs at least one (x)",
                             ts.tokens[-1][2], text)
        value = TensorElement.zero(system)  # "0", as zero prints
    ts.expect("END")
    return value
