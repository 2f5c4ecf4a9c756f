"""Concrete categories of based spaces and exact matrices: regular
n-cocycles, their obstructions, cocycle morphisms, obstructed functors,
natural transformations, tensor obstructions and duality, and the JSON
documents of the `rga check` cocycles, functors and modules.

Everything is presented matricially: a cyclic chain of spaces X_1 -> X_2
-> ... -> X_n -> X_1 whose round trip composites e_X (the obstructions)
are idempotent exactly when the chain satisfies the regularity identity
psi . psi_(n) . ... . psi = psi at every start point.
"""

from __future__ import annotations

import json
import sys
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, Sequence

# `mul` is not called here; perfbench/test_harness.py wraps and reads it
# as `rga.category.mul`
from .algebra import (Element, Subspace, Verdict, decompose,
                      left_mul_matrix, mul, obstruction,  # noqa: F401
                      verdict_of)
from .linalg import Matrix
from .parser import ParseError, parse_element, parse_scalar
from .rewrite import (MAX_GENERATORS, ZERO, RewriteSystem, SelfCheckError,
                      Word)
from .scalar import ONE


class ChainTypeError(ValueError):
    """Cocycle chain does not type-check at some index."""


class DegeneratePairingError(ValueError):
    """A duality pairing or base-change matrix is singular."""


class LinearMap(NamedTuple("LinearMap", [("domain", Subspace),
                                          ("codomain", Subspace),
                                          ("matrix", Matrix)])):
    """An exact matrix between based spaces (rows = codomain dim)."""

    __slots__ = ()
    # `_make` and `_replace` build through `__new__`, so they check too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, domain: Subspace, codomain: Subspace, matrix: Matrix):
        if matrix.nrows != codomain.dim or matrix.ncols != domain.dim:
            raise ValueError(
                f"matrix is {matrix.nrows}x{matrix.ncols} but "
                f"{codomain.label}<-{domain.label} needs "
                f"{codomain.dim}x{domain.dim}")
        return super().__new__(cls, domain, codomain, matrix)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self . other (apply `other` first)."""
        if other.codomain != self.domain:
            raise ChainTypeError(
                f"cannot compose {self.domain.label}->{self.codomain.label} "
                f"after {other.domain.label}->{other.codomain.label}")
        return LinearMap(other.domain, self.codomain,
                         self.matrix * other.matrix)

    @classmethod
    def identity(cls, space: Subspace) -> "LinearMap":
        return cls(space, space, Matrix.identity(space.dim))

    def is_identity(self) -> bool:
        return self.domain == self.codomain and self.matrix.is_identity()

    def __str__(self):
        return f"{self.domain.label}->{self.codomain.label}{self.matrix!r}"


class Cocycle:
    """A cyclic chain psi_i : X_i -> X_{i+1 mod n} of linear maps.

    Immutable; the regularity verdict and all n cycle composites are kept,
    the composites formed together from shared prefix/suffix products.
    """

    __slots__ = ("spaces", "maps", "_composites", "_regularity")

    def __init__(self, spaces: Sequence[Subspace], maps: Sequence[LinearMap]):
        spaces = tuple(spaces)
        maps = tuple(maps)
        if len(spaces) != len(maps) or not spaces:
            raise ChainTypeError("need one map per space")
        for i, m in enumerate(maps):
            if m.domain != spaces[i]:
                raise ChainTypeError(f"map {i} does not start at space {i}")
            if m.codomain != spaces[(i + 1) % len(spaces)]:
                raise ChainTypeError(f"map {i} does not end at space {i + 1}")
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "_composites", None)
        object.__setattr__(self, "_regularity", None)

    def __setattr__(self, name, value):
        raise AttributeError("Cocycle is immutable")

    @property
    def order(self) -> int:
        return len(self.maps)

    def cycle_composite(self, start: int) -> LinearMap:
        """The n-fold composite around the cycle beginning at `start`.

        The first call forms all n as e_0 = suffix_0 and e_i = prefix_i .
        suffix_i, where suffix_i = psi_{n-1} ... psi_i and prefix_i =
        psi_{i-1} ... psi_0: 3n - 4 products in all (none when n = 1).
        """
        if self._composites is None:
            maps = self.maps
            # prefix_1 .. prefix_{n-1}, then suffix_0 .. suffix_{n-1}
            prefixes = accumulate(maps[1:-1], lambda p, m: m.compose(p),
                                  initial=maps[0])
            suffixes = list(accumulate(reversed(maps[:-1]), LinearMap.compose,
                                       initial=maps[-1]))[::-1]
            object.__setattr__(self, "_composites", (suffixes[0], *(
                p.compose(s) for p, s in zip(prefixes, suffixes[1:]))))
        return self._composites[start % self.order]

    def __repr__(self):
        return "Cocycle(" + " -> ".join(
            s.label for s in self.spaces + (self.spaces[0],)) + ")"


class Obstruction(NamedTuple):
    at: Subspace
    map: LinearMap

    def is_identity(self) -> bool:
        return self.map.is_identity()


def check_regular_cocycle(c: Cocycle) -> Verdict:
    """Verify psi_i . (cycle at i) = psi_i at every start i (1-based)."""
    if c._regularity is None:
        object.__setattr__(c, "_regularity", verdict_of(_regularity_laws(c)))
    return c._regularity


def _regularity_laws(c: Cocycle):
    for i, psi in enumerate(c.maps):
        yield ("regularity", i + 1, psi.compose(c.cycle_composite(i)), psi)


def obstruction_of(c: Cocycle, i: int) -> Obstruction:
    """The idempotent round trip at space index i (0-based); the cocycle
    must be regular, which makes idempotency a theorem (still checked)."""
    verdict = check_regular_cocycle(c)
    if not verdict.ok:
        raise ChainTypeError(f"not a regular cocycle ({verdict.witnesses[0]})")
    e = c.cycle_composite(i)
    if e.compose(e) != e:
        raise SelfCheckError(
            "obstruction of a regular cocycle must be idempotent")
    return Obstruction(c.spaces[i % c.order], e)


def obstruction_order(cocycles: Sequence[Cocycle]) -> Optional[int]:
    """Smallest chain length whose obstruction differs from the identity.

    None when every obstruction of every supplied cocycle is an identity
    (the presentation is unobstructed).
    """
    orders = []
    for c in cocycles:
        if any(not obstruction_of(c, i).is_identity()
               for i in range(c.order)):
            orders.append(c.order)
    return min(orders) if orders else None


def check_cocycle_morphism(alpha: Sequence[LinearMap], c: Cocycle,
                           d: Cocycle) -> Verdict:
    """Check alpha_{i+1} . psi_i = phi_i . alpha_i for all i (cyclically),
    plus the derived relation alpha_1 . e_X1 = e_Y1 . alpha_1."""
    if d.order != c.order or len(alpha) != c.order:
        raise ChainTypeError("morphism length must match the cocycles")
    return verdict_of(_cocycle_morphism_laws(alpha, c, d))


def _cocycle_morphism_laws(alpha: Sequence[LinearMap], c: Cocycle,
                           d: Cocycle):
    n = c.order
    for i in range(n):
        yield ("square", i + 1, alpha[(i + 1) % n].compose(c.maps[i]),
               d.maps[i].compose(alpha[i]))
    yield ("obstruction intertwining", 1,
           alpha[0].compose(c.cycle_composite(0)),
           d.cycle_composite(0).compose(alpha[0]))


# -- functors ---------------------------------------------------------------


def _conjugation(matrices: dict, labels, noun: str):
    """m -> P[codomain] * M * P[domain]^-1 with P = `matrices`, inverted
    once at each of `labels`; a singular P raises DegeneratePairingError."""
    inverses = {}
    for label in labels:
        try:
            inverses[label] = matrices[label].inverse()
        except ValueError:
            raise DegeneratePairingError(
                f"{noun} at {label} is singular") from None
    return lambda m: (matrices[m.codomain.label] * m.matrix
                      * inverses[m.domain.label])


class MatrixFunctor:
    """A functor that fixes every space, given by (and named after) its
    morphism map.  `base_change(change)` builds the standard example: every
    morphism is conjugated by the per-space invertible matrix.

    The morphism map must be a function of its argument: the functor maps
    each distinct morphism once and keeps its image while it lives."""

    def __init__(self, morphism_map: Callable[[LinearMap], LinearMap]):
        self.morphism_map = morphism_map
        self.name = getattr(morphism_map, "__name__", "functor")
        self._images = {}

    @classmethod
    def identity(cls) -> "MatrixFunctor":
        return cls(lambda m: m)

    @classmethod
    def base_change(cls, change: dict) -> "MatrixFunctor":
        """`change` maps space label -> invertible Matrix."""
        conjugate = _conjugation(change, change, "base change")

        def base_change(m: LinearMap) -> LinearMap:
            return LinearMap(m.domain, m.codomain, conjugate(m))

        return cls(base_change)

    def __call__(self, m: LinearMap) -> LinearMap:
        image = self._images.get(m)
        if image is None:
            image = self._images[m] = self.morphism_map(m)
        return image


class FunctorVerdict(Verdict):
    """The `Verdict` of `check_obstructed_functor`; each view below is true
    when no witness names its law (the benchmark's functor workload reads
    them)."""

    __slots__ = ()
    composition_ok = property(lambda self: self._holds("composition"))
    obstruction_preserved = property(lambda self: self._holds("obstruction"))
    images_regular = property(lambda self: self._holds("regularity"))

    def _holds(self, law: str) -> bool:
        return all(w.law != law for w in self.witnesses)


def check_obstructed_functor(functor: MatrixFunctor,
                             source: Sequence[Cocycle]) -> Verdict:
    """Check the obstructed-functor laws against a corpus of cocycles: for
    each, with generators its maps psi_i and cycle composites e_i (i the
    1-based start), `composition` F(g.f) = F(g).F(f) at each composable
    pair (f, g), `obstruction` F(e_i) = the image chain's composite at each
    i, and that chain's `regularity` as `check_regular_cocycle` has it."""
    return FunctorVerdict._make(verdict_of(
        law for c in source for law in _functor_laws(functor, c)))


def _functor_laws(functor: MatrixFunctor, c: Cocycle):
    n = c.order
    gens = list(c.maps) + [c.cycle_composite(i) for i in range(n)]
    names = [f"{k}{i}" for k in ("psi", "e") for i in range(1, n + 1)]
    mapped = [functor(g) for g in gens]  # each generator mapped once
    for g, fg, g_name in zip(gens, mapped, names):
        for f, ff, f_name in zip(gens, mapped, names):
            if f.codomain == g.domain:
                yield ("composition", (f_name, g_name),
                       functor(g.compose(f)), fg.compose(ff))
    image = Cocycle(c.spaces, mapped[:n])
    for i in range(n):
        yield ("obstruction", i + 1, mapped[n + i], image.cycle_composite(i))
    yield from _regularity_laws(image)


def check_natural_transformation(
        components: dict, f: MatrixFunctor, g: MatrixFunctor,
        test_morphisms: Sequence[LinearMap]) -> Verdict:
    """s_Y . F(psi) = G(psi) . s_X for every supplied morphism.

    `components` maps a space label to the LinearMap s_X : F(X) -> G(X).
    """
    return verdict_of(
        ("naturality", psi, components[psi.codomain.label].compose(f(psi)),
         g(psi).compose(components[psi.domain.label]))
        for psi in test_morphisms)


def check_tensor_obstruction(e_x: Matrix, e_y: Matrix,
                             e_xy: Matrix) -> Verdict:
    """e_{X(x)Y} must be the Kronecker product of e_X and e_Y, row by row."""
    if e_xy.nrows != e_x.nrows * e_y.nrows \
            or e_xy.ncols != e_x.ncols * e_y.ncols:
        raise ValueError("tensor obstruction has the wrong dimensions")
    return verdict_of(("tensor obstruction", i, row, want) for i, (row, want)
                      in enumerate(zip(e_xy.rows, e_x.kron(e_y).rows)))


# -- duality ----------------------------------------------------------------


def dual_cocycle(c: Cocycle, pairings: dict) -> Cocycle:
    """The dual chain under nondegenerate pairings, arrows reversed.

    `pairings` maps each space label to its invertible pairing matrix
    G[r][c] = <dual basis r | basis c>.  The dual of psi_i : X_i -> X_{i+1}
    is the pairing adjoint (G_{i+1} M_i G_i^{-1})^T going the other way,
    which makes <e_dual(x*), x> = <x*, e(x)> an identity.
    """
    n = c.order
    for s in c.spaces:
        g = pairings[s.label]
        if g.nrows != s.dim or g.ncols != s.dim:
            raise ValueError(f"pairing at {s.label} has wrong size")
    conjugate = _conjugation(pairings, [s.label for s in c.spaces], "pairing")
    duals = {s.label: Subspace(s.label + "^", s.basis) for s in c.spaces}

    def adjoint(i: int) -> LinearMap:
        m = c.maps[i]
        return LinearMap(duals[m.codomain.label], duals[m.domain.label],
                         conjugate(m).transpose())

    # chain X_1^ -> X_n^ -> ... -> X_2^ -> X_1^
    spaces = [duals[c.spaces[0].label]] + [
        duals[c.spaces[n - k].label] for k in range(1, n)]
    maps = [adjoint((n - 1 - k) % n) for k in range(n)]
    return Cocycle(spaces, maps)


def check_duality_identity(c: Cocycle, dual: Cocycle,
                           pairings: dict) -> Verdict:
    """<e_dual(x*), x> = <x*, e(x)> on all basis pairs, every object."""
    dual_pos = {s.label: i for i, s in enumerate(dual.spaces)}
    return verdict_of(
        ("duality", s.label, dual.cycle_composite(
            dual_pos[s.label + "^"]).matrix.transpose() * g,
         g * c.cycle_composite(i).matrix)
        for i, s in enumerate(c.spaces) for g in [pairings[s.label]])


# -- the cocycle carried by the algebra itself ------------------------------


def cocycle_from_algebra(system: RewriteSystem, max_deg: int):
    """Present the algebra's own decomposition as a cyclic cocycle.

    Spaces are the X_i of `decompose`; the map into X_i is left
    multiplication by generator i acting on X_{i+1 mod n}.  Bases are
    pruned to the largest sub-bases closed under all the maps at this
    truncation degree; everything pruned is reported, never silently
    dropped.  Returns (cocycle, pruned), where `pruned` holds one
    (space label, word, image word) triple per word removed from a basis,
    in pruning order: generator i maps the word, taken out of the basis of
    X_{i+1 mod n}, to the image word, which is outside the basis of X_i.
    """
    n = system.n
    if n < 2:
        raise ValueError("the cyclic cocycle needs n >= 2")
    spaces = decompose(system, max_deg)
    bases = {i + 1: list(s.basis) for i, s in enumerate(spaces)}
    removed = []
    changed = True
    while changed:
        changed = False
        for i in range(1, n + 1):
            src = (i % n) + 1  # f_i acts on X_{i+1 mod n}
            gen = Word((i,))
            keep = []
            for w in bases[src]:
                # a generator times a word is one word or ZERO
                u = system._products[gen, w]
                if u is ZERO or u in bases[i]:
                    keep.append(w)
                else:
                    removed.append((f"X{src}", w, u))
                    changed = True
            bases[src] = keep

    subspaces = {i: Subspace(f"X{i}", tuple(bases[i]))
                 for i in range(1, n + 1)}

    def f_map(i: int) -> LinearMap:
        src = (i % n) + 1
        mat = left_mul_matrix(Element.generator(system, i), subspaces[src],
                              subspaces[i])
        return LinearMap(subspaces[src], subspaces[i], mat)

    # chain X_1 -> X_n -> X_{n-1} -> ... -> X_2 -> X_1
    order = [1] + list(range(n, 1, -1))
    chain_spaces = [subspaces[i] for i in order]
    chain_maps = [f_map(order[(k + 1) % n]) for k in range(n)]
    return Cocycle(chain_spaces, chain_maps), tuple(removed)


# -- JSON interchange ---------------------------------------------------------


def _matrix_to_json(m: Matrix) -> list:
    return [[str(x) for x in row] for row in m.rows]


class DocumentError(ValueError):
    """A JSON document does not have the documented shape.

    `where` is the JSON path of the offending part, e.g. `$.maps[0].from`.
    """

    def __init__(self, where: str, problem: str):
        super().__init__(f"{where}: {problem}")


_JSON_NAMES = {dict: "an object", list: "a list", str: "a string"}


_LONG_INTEGER = object()  # a JSON integer past the int/str digit limit


def _json_int(digits: str):
    try:
        return int(digits)
    except ValueError:  # `_expect` refuses it at its JSON path
        return _LONG_INTEGER


def _expect(value, kind: type, where: str):
    """`value`, checked to be of JSON type `kind`; `where` is its path."""
    if value is _LONG_INTEGER:
        raise DocumentError(where, f"number longer than "
                            f"{sys.get_int_max_str_digits()} digits")
    if not isinstance(value, kind) or isinstance(value, bool):
        want = "an integer" if kind is int else _JSON_NAMES[kind]
        got = _JSON_NAMES.get(type(value)) or json.dumps(value)
        raise DocumentError(where, f"expected {want}, got {got}")
    return value


def _field(obj: dict, key: str, kind: type, where: str):
    """obj[key], checked to be of JSON type `kind`; `where` is obj's path."""
    if key not in obj:
        raise DocumentError(where, f"missing field {key!r}")
    return _expect(obj[key], kind, f"{where}.{key}")


def _matrix_from_json(rows, width: int, where: str) -> Matrix:
    """A matrix given as a list of rows of scalar strings; no rows is the
    0 x `width` matrix, the number of columns the document needs."""
    if rows == []:
        return Matrix.from_columns([()] * width)
    out = []
    for i, row in enumerate(_expect(rows, list, where)):
        out.append([])
        for j, x in enumerate(_expect(row, list, f"{where}[{i}]")):
            at = f"{where}[{i}][{j}]"
            try:
                out[-1].append(parse_scalar(_expect(x, str, at)))
            except ParseError as exc:
                raise DocumentError(at, str(exc)) from None
    try:
        return Matrix(out)
    except ValueError as exc:
        raise DocumentError(where, str(exc)) from None


def _square_matrix(obj: dict, key: str, dim: int, where: str) -> Matrix:
    """obj[key] as a dim x dim matrix; `where` is obj's path."""
    m = _matrix_from_json(_field(obj, key, list, where), dim,
                          f"{where}.{key}")
    if (m.nrows, m.ncols) != (dim, dim):
        raise DocumentError(f"{where}.{key}", f"expected a {dim}x{dim} "
                            f"matrix, got {m.nrows}x{m.ncols}")
    return m


def _invertible(obj: dict, key: str, dim: int, where: str) -> Matrix:
    """obj[key] as an invertible dim x dim matrix; `where` is obj's path."""
    m = _square_matrix(obj, key, dim, where)
    if not m.is_invertible():
        raise DocumentError(f"{where}.{key}", "singular matrix")
    return m


def _per_space(doc: dict, key: str, spaces: Sequence[Subspace],
               where: str) -> dict:
    """doc[key], one invertible square matrix for each of `spaces` keyed by
    its label, with any other label refused; `where` is doc's path."""
    given, at = _field(doc, key, dict, where), f"{where}.{key}"
    labels = {s.label for s in spaces}
    for label in given:
        if label not in labels:
            raise DocumentError(f"{at}.{label}", f"unknown space {label!r}")
    return {s.label: _invertible(given, s.label, s.dim, at) for s in spaces}


def cocycle_to_json(c: Cocycle, pairings: Optional[dict] = None) -> dict:
    doc = {
        "spaces": [{"name": s.label, "basis": s.basis_texts()}
                   for s in c.spaces],
        "maps": [{"from": m.domain.label, "to": m.codomain.label,
                  "matrix": _matrix_to_json(m.matrix)} for m in c.maps],
    }
    if pairings is not None:
        doc["pairings"] = {label: _matrix_to_json(g)
                           for label, g in sorted(pairings.items())}
    return doc


def cocycle_from_json(doc, where: str = "$"):
    """Rebuild (cocycle, pairings-or-None) from the document format.

    A document of the wrong shape raises DocumentError naming the JSON path
    (below `where`) of its first malformed part.
    """
    _expect(doc, dict, where)
    spaces = {}
    for i, sp in enumerate(_field(doc, "spaces", list, where)):
        at = f"{where}.spaces[{i}]"
        _expect(sp, dict, at)
        name = _field(sp, "name", str, at)
        if name in spaces:
            raise DocumentError(f"{at}.name", f"duplicate space {name!r}")
        basis = tuple(_expect(x, str, f"{at}.basis[{j}]") for j, x
                      in enumerate(_field(sp, "basis", list, at)))
        try:
            spaces[name] = Subspace(name, basis)
        except ValueError as exc:
            raise DocumentError(f"{at}.basis", str(exc)) from None
    if not spaces:
        raise DocumentError(f"{where}.spaces", "expected at least one space")
    names, maps = list(spaces), {}
    for i, m in enumerate(_field(doc, "maps", list, where)):
        at = f"{where}.maps[{i}]"
        _expect(m, dict, at)
        src, dst = _field(m, "from", str, at), _field(m, "to", str, at)
        for end, label in (("from", src), ("to", dst)):
            if label not in spaces:
                raise DocumentError(f"{at}.{end}", f"unknown space {label!r}")
        if src in maps:
            raise DocumentError(f"{at}.from", f"second map from {src!r}")
        after = names[(names.index(src) + 1) % len(names)]
        if dst != after:
            raise DocumentError(f"{at}.to", f"expected space {after!r} "
                                f"after {src!r}, got {dst!r}")
        matrix = _matrix_from_json(_field(m, "matrix", list, at),
                                   spaces[src].dim, f"{at}.matrix")
        try:
            maps[src] = LinearMap(spaces[src], spaces[dst], matrix)
        except ValueError as exc:
            raise DocumentError(f"{at}.matrix", str(exc)) from None
    for name in names:
        if name not in maps:
            raise DocumentError(f"{where}.maps", f"no map from {name!r}")
    cocycle = Cocycle(list(spaces.values()), [maps[name] for name in names])
    pairings = None
    if "pairings" in doc:
        pairings = _per_space(doc, "pairings", cocycle.spaces, where)
    return cocycle, pairings


def functor_from_json(doc):
    """Rebuild (cocycle, base-change functor) from a functor document,
    refusing one of the wrong shape as `cocycle_from_json` does."""
    _expect(doc, dict, "$")
    cocycle, _ = cocycle_from_json(_field(doc, "cocycle", dict, "$"),
                                   "$.cocycle")
    change = _per_space(doc, "base_change", cocycle.spaces, "$")
    return cocycle, MatrixFunctor.base_change(change)


def module_from_json(doc):
    """The arguments (action, e_algebra, e_module, system) of
    `check_regular_module`, read from a module document and refused as
    `cocycle_from_json` refuses; nothing is built before `$.n` is checked."""
    _expect(doc, dict, "$")
    n = _field(doc, "n", int, "$") if "n" in doc else 2
    if not 1 <= n <= MAX_GENERATORS:
        raise DocumentError("$.n", f"must be in 1..{MAX_GENERATORS}, "
                                   f"got {n}")
    system = RewriteSystem(n)
    dim = _field(doc, "module_dim", int, "$")
    if dim < 0:
        raise DocumentError("$.module_dim", f"must be >= 0, got {dim}")
    name = (_field(doc, "e_algebra", str, "$") if "e_algebra" in doc
            else "obstruction")
    if name not in ("obstruction", "identity"):
        raise DocumentError("$.e_algebra", f"expected 'obstruction' or "
                                           f"'identity', got {name!r}")
    if name == "obstruction" and n != 2:
        raise DocumentError("$.e_algebra", f"'obstruction' needs n = 2, "
                                           f"got n = {n}")
    e_algebra = obstruction if name == "obstruction" else (lambda a: a)
    action = {}
    for key in _field(doc, "action", dict, "$"):
        try:
            terms = parse_element(key, system).terms()
        except ParseError as exc:
            raise DocumentError(f"$.action.{key}", str(exc)) from None
        if len(terms) != 1 or terms[0][1] != ONE:
            raise DocumentError(f"$.action.{key}", "not a basis word")
        word = terms[0][0]
        if word in action:
            raise DocumentError(f"$.action.{key}",
                                f"names the word {word} a second time")
        action[word] = _square_matrix(doc["action"], key, dim, "$.action")
    for w in action:
        for u in e_algebra(Element.from_word(system, w)).support():
            if u not in action:
                raise DocumentError(f"$.action.{u}", f"missing: the "
                                    f"{name} of {w} needs this word")
    if doc.get("e_module") in (None, "identity"):
        e_module = lambda v: v
    else:
        e_module = _square_matrix(doc, "e_module", dim, "$").apply
    return action, e_algebra, e_module, system


def read_document(path: str) -> dict:
    """The JSON object in the UTF-8 file at `path`; raises DocumentError
    when the file cannot be read, holds invalid JSON, JSON nested deeper
    than `json.load` can follow, or another value."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise DocumentError("$", f"cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise DocumentError("$", f"not UTF-8 ({exc})") from None
    except json.JSONDecodeError as exc:
        raise DocumentError("$", f"invalid JSON ({exc})") from None
    except RecursionError:
        raise DocumentError("$", "nested too deeply") from None
    return _expect(doc, dict, "$")
