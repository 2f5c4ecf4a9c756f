"""Parser for the canonical element syntax (the printers' exact inverse).

Grammar (whitespace separates juxtaposed factors):

    element := ["+"|"-"] term (("+"|"-") term)*
    term    := scalar ["*"] factor* | factor+
    factor  := GEN | group | "(" element ")"
    group   := "(" ["+"|"-"] sterm (("+"|"-") sterm)* ")"
    sterm   := scalar ["*"] group* | group+
    scalar  := rat ["*"] "w" | rat | "w"
    rat     := INT ["/" INT]
    GEN     := ("T"|"X") DIGIT+

A group holds scalars alone and is one scalar: with the term's sign and
scalar prefix it multiplies into the term's coefficient, so the printers'
`(1+2*w) T1` reads as one term.  Plus and minus always separate terms, so
an unparenthesized 1+2*w T1 is the two terms 1 and 2*w T1.  In tensor and
Wick contexts a term may carry one "(x)" splitting it into a left and a
right component, and parenthesized subexpressions denote tensor (resp.
Wick) elements multiplied by juxtaposition; in a tensor context a group
is a plain element, and a plain factor before a tensor must be 1.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Tuple

from .algebra import Element, linear_combination, mul
from .rewrite import EMPTY_WORD, RewriteSystem, Word
from .scalar import OMEGA, Scalar
from .tensor import TensorElement, element_tensor
from .wick import CrossSymmetry, WickElement, wick_mul


class ParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message: str, pos: int, text: str):
        self.pos = pos
        self.text = text
        super().__init__(f"{message} at position {pos}")


# The deepest parenthesis nesting an expression may have.  The descent
# takes three frames per level, so this keeps every accepted input well
# inside the interpreter's recursion limit.
MAX_NESTING = 200


# -- tokenizer ------------------------------------------------------------

# A token is "(x)", a run of digits, a generator letter with its digits or
# one other visible character; whitespace matches none and is skipped.
_TOKEN = re.compile(r"\(x\)|\d+|[TX]\d*|\S")
_KINDS = {"(x)": "TENSOR", "+": "PLUS", "-": "MINUS", "*": "STAR",
          "/": "SLASH", "(": "LPAREN", ")": "RPAREN", "w": "W"}
# what an error message calls each kind that `_Stream.expect` asks for
_EXPECTED = {"NUM": "a number", "RPAREN": "')'", "END": "end of input"}


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        value, i = m[0], m.start()
        if value in _KINDS:
            tokens.append((_KINDS[value], value, i))
        elif value.isdecimal():
            tokens.append(("NUM", _integer(value, i, text), i))
        elif value[0] in "TX":
            if len(value) == 1:
                raise ParseError(f"generator letter {value!r} needs an index",
                                 i, text)
            tokens.append(
                ("GEN", (value[0], _integer(value[1:], i + 1, text)), i))
        else:
            raise ParseError(f"unexpected character {value!r}", i, text)
    tokens.append(("END", None, len(text)))
    return tokens


def _integer(digits: str, pos: int, text: str) -> int:
    """The int of a run of decimal digits at `pos`; a run longer than the
    interpreter converts (`sys.get_int_max_str_digits()`) is refused."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number longer than "
                         f"{sys.get_int_max_str_digits()} digits",
                         pos, text) from None


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
            found = ("end of input" if tok[0] == "END"
                     else repr(_TOKEN.match(self.text, tok[2])[0]))
            raise ParseError(f"expected {_EXPECTED[kind]}, found {found}",
                             tok[2], self.text)
        return tok

    def error(self, message: str):
        tok = self.tokens[self.pos]
        raise ParseError(message, tok[2], self.text)


# -- scalar layer ---------------------------------------------------------


def _parse_rat(ts: _Stream):
    """An int, or a Fraction when a denominator follows."""
    num = ts.expect("NUM")[1]
    if ts.peek() == "SLASH":
        ts.next()
        _, den, pos = ts.expect("NUM")
        if den == 0:
            raise ParseError("zero denominator", pos, ts.text)
        return Fraction(num, den)
    return num


def _try_parse_scalar(ts: _Stream) -> Optional[Scalar]:
    """rat ["*"] "w" | rat | "w"; None when the stream starts elsewhere."""
    kind = ts.peek()
    if kind == "W":
        ts.next()
        return OMEGA
    if kind != "NUM":
        return None
    r = _parse_rat(ts)
    if ts.peek() == "STAR" and ts.tokens[ts.pos + 1][0] == "W":
        ts.next()  # the star belongs to the scalar only when w follows
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
        pos = ts.tokens[ts.pos][2]
        second = _try_parse_scalar(ts)
        if second is None:
            ts.error("expected the w-part of a scalar")
        if second.is_rational():
            raise ParseError("second scalar part must involve w", pos,
                             ts.text)
        value = value + (second if sign > 0 else -second)
    ts.expect("END")
    return value


# -- the shared term / sum grammar ---------------------------------------------


class _Context(NamedTuple):
    """What one kind of expression plugs into the shared grammar.

    `generator(tok)` is the value of one GEN token, `product(value, factor,
    tok)` multiplies a factor that starts at token `tok` onto the running
    product, and `combine(left, right, tok)` reads `left (x) right`; None
    where the kind has no (x).  Every operand is a value of the kind or,
    for `combine`, None.

    A term is read as (coefficient, value): its sign, its scalar prefix and
    its groups of scalars alone multiply into the coefficient, and a term
    of scalars alone has the value `unit`.  Where `unit` is None, such a
    term, and a sum of such terms, stays a Scalar.  A tensor expression
    sets `unit` to the plain unit element: there a scalar is a plain
    element, which `product` may refuse beside a tensor.
    """

    generator: Callable[[tuple], object]
    product: Callable[[object, object, tuple], object]
    combine: Optional[Callable[[object, object, tuple], object]]
    unit: Optional[object]


def _parse_sum(ts: _Stream, ctx: _Context):
    """A Scalar when every term is one, else the kind's value, built once.

    A term with a zero coefficient is zero of every kind: it takes no part
    in the kind check, and is dropped when its value has another kind."""
    sign = -1 if ts.peek() == "MINUS" else 1
    if ts.peek() in ("PLUS", "MINUS"):
        ts.next()
    terms, kind = [], None
    while True:
        term = _parse_term(ts, ctx, sign)
        if term[0] and term[1] is not None:
            if kind is None:
                kind = type(term[1])
            elif type(term[1]) is not kind:
                ts.error("cannot add a plain element to a tensor")
        terms.append(term)
        if ts.peek() not in ("PLUS", "MINUS"):
            break
        sign = 1 if ts.next()[0] == "PLUS" else -1
    if kind is None:  # every term is a scalar or zero
        kind = next((type(v) for _, v in terms if v is not None), None)
        if kind is None:
            return sum((c for c, _ in terms[1:]), terms[0][0])
    terms = [t for t in terms if t[1] is None or type(t[1]) is kind]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    return linear_combination(terms)


def _parse_term(ts: _Stream, ctx: _Context, sign: int):
    coeff, left = _parse_product(ts, ctx, sign)
    if ctx.combine is None or ts.peek() != "TENSOR":
        return coeff, left
    tok = ts.next()
    scale, right = _parse_product(ts, ctx, 1)
    return coeff * scale, ctx.combine(left, right, tok)


def _parse_product(ts: _Stream, ctx: _Context, sign: int):
    """(coefficient, value) of a scalar prefix, then juxtaposed generators
    and parenthesized sums; the first factor that is not a scalar is the
    value, and each later one multiplies onto it."""
    coeff = _try_parse_scalar(ts)
    if coeff is not None and ts.peek() == "STAR":
        ts.next()
    value = None
    while ts.peek() in ("GEN", "LPAREN"):
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
        if type(factor) is Scalar:
            coeff = factor if coeff is None else coeff * factor
        elif value is None:
            value = factor
        else:
            value = ctx.product(value, factor, tok)
    if coeff is None:
        if value is None:
            ts.error("expected a term")
        return sign, value
    if value is None:
        value = ctx.unit
    elif not coeff:
        value = value.scale(coeff)  # a (x) beside it reads the zero
    return (coeff if sign > 0 else -coeff), value


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
    generators = {}  # each generator of the text is built once

    def generator(tok):
        if tok[1] not in generators:
            generators[tok[1]] = Element.generator(
                system, _gen_index(system, tok, text))
        return generators[tok[1]]

    return _Context(generator, lambda value, factor, tok: mul(value, factor),
                    None, None)


def parse_element(text: str, system: RewriteSystem) -> Element:
    ts = _Stream(text)
    value = _parse_sum(ts, _element_context(system, text))
    ts.expect("END")
    if type(value) is Scalar:
        return Element.from_word(system, EMPTY_WORD, value)
    return value


def parse_word_letters(text: str, system: RewriteSystem) -> Word:
    """A raw word as whitespace- or comma-separated letters, e.g. "1 2 1".

    The first bad letter is refused at its character offset."""
    letters = []
    for m in re.finditer(r"[^\s,]+", text):
        if not m[0].isdecimal():
            raise ParseError("word letters must be integers", m.start(), text)
        x = _integer(m[0], m.start(), text)
        if not 1 <= x <= system.n:
            raise ParseError(f"letter {x} outside 1..{system.n}", m.start(),
                             text)
        letters.append(x)
    return Word(letters)


# -- tensor / wick contexts -----------------------------------------------------


def parse_wick(text: str, psi: CrossSymmetry) -> WickElement:
    """A Wick expression over psi.pair; juxtaposition is the Wick product."""
    pair = psi.pair

    def generator(tok):
        side = pair.theta if tok[1][0] == "T" else pair.xi
        i = _gen_index(side, tok, text)
        if side is pair.theta:
            return WickElement.single(pair, (i,), ())
        return WickElement.single(pair, (), (i,))

    def plain(value, leg):
        """No word on the other leg; None is the unit."""
        return value is None or not any(
            len(key[leg]) for key, _ in value.terms())

    def combine(left, right, tok):
        # a plain algebra element times a plain dagger element is their
        # Wick product, since psi fixes 1 (x) 1
        if not (plain(left, 1) and plain(right, 0)):
            raise ParseError(
                "(x) needs a plain algebra element on the left and a plain "
                "dagger element on the right", tok[2], text)
        if left is None or right is None:
            return right if left is None else left
        return wick_mul(left, right, psi)

    ts = _Stream(text)
    value = _parse_sum(ts, _Context(
        generator, lambda value, factor, tok: wick_mul(value, factor, psi),
        combine, None))
    ts.expect("END")
    if type(value) is Scalar:
        return WickElement.single(pair, (), (), value)
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
        _element_context(system, text).generator, product, combine, unit))
    if isinstance(value, Element):
        if not value.is_zero():
            raise ParseError("a tensor expression needs at least one (x)",
                             ts.tokens[-1][2], text)
        value = TensorElement(system)  # "0", as zero prints
    ts.expect("END")
    return value
