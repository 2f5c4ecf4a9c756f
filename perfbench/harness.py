"""Measurement machinery of the benchmark: percentiles, the timed loop,
and the tracer that wraps every public function of every `rga` module.

Stdlib only.  Nothing here knows about a particular workload.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import resource
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

LAYERS = ("scalar", "rewrite", "linalg", "algebra", "category", "tensor",
          "wick", "parser", "reports", "cli")

# Dunder methods that do real work; cheap accessors such as __len__ and
# __getitem__ are left unwrapped, their cost counts to the caller.
WRAPPED_DUNDERS = frozenset((
    "__init__", "__call__", "__eq__", "__hash__", "__str__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__"))


class OpFailed(Exception):
    """The operation did not complete as the program documents.

    Counted in `failed`; it does not make the run incorrect, since
    `correct` speaks of the operations that completed.
    """


class Incorrect(AssertionError):
    """An operation completed with a wrong answer."""


def require(cond, message):
    if not cond:
        raise Incorrect(message)


# -- statistics -------------------------------------------------------------


def percentile(values, q):
    """Linear-interpolation percentile (0 <= q <= 100) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentiles(values):
    """Median plus every tail percentile with at least ten samples beyond it."""
    out = {"p50": percentile(values, 50)}
    for name, q in (("p90", 90.0), ("p99", 99.0), ("p99.9", 99.9)):
        if len(values) * (100.0 - q) / 100.0 >= 10:
            out[name] = percentile(values, q)
    return out


def peak_rss_mb():
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- loading the program ------------------------------------------------------

RGA_MODULES = ("rga",) + tuple(f"rga.{name}" for name in LAYERS)


def load_rga():
    """Import `rga` and every submodule afresh; returns {layer: module}.

    Modules from an earlier load are dropped first, so each call pays the
    full import cost (from the bytecode cache after the first).
    """
    for name in [m for m in sys.modules
                 if m == "rga" or m.startswith("rga.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(name) for name in RGA_MODULES}
    return {name.split(".")[-1]: mod for name, mod in mods.items()}


# -- the timed loop -----------------------------------------------------------


class Op:
    """One operation: `call` is timed, `check(result)` is not."""

    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times = []          # seconds per attempted operation
        self.failures = defaultdict(int)
        self.incorrect = []      # messages of wrong answers
        self.slowness = 1.0      # machine slowness while the tally ran

    @property
    def completed(self):
        return self.attempted - self.failed

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.times.extend(other.times)
        for label, k in other.failures.items():
            self.failures[label] += k
        self.incorrect.extend(other.incorrect)


def run_op(op, tally, tracer=None):
    """Time one operation, then check its result outside the timer."""
    tally.attempted += 1
    if tracer is not None:
        tracer.begin_op()
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a crash is a failed operation, not a stop
        tally.times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        tally.failed += 1
        tally.failures[f"{op.label}: {type(exc).__name__}"] += 1
        return
    tally.times.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.end_op()
    try:
        op.check(result)
    except OpFailed as exc:
        tally.failed += 1
        tally.failures[f"{op.label}: {exc}"] += 1
    except Exception as exc:  # a wrong answer, or a check that cannot run
        tally.incorrect.append(f"{op.label}: {type(exc).__name__}: {exc}")


# -- machine speed ----------------------------------------------------------

# About the seconds the reference work takes on the reference machine (2 cores,
# Python 3.11.7) when nothing else slows it down.
REFERENCE_S = 0.0045


def reference_work():
    """Fixed stdlib-only work shaped like the program's hot paths: exact
    fraction arithmetic, tuple slicing, hashing and dict updates."""
    word = tuple(range(1, 10)) * 4
    table = {}
    total = 0
    for i in range(1, 700):
        x = Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3) + Fraction(1, i + 5)
        key = word[i % 9:i % 9 + 12]
        table[key] = table.get(key, 0) + x.numerator % 97
        total += x.denominator % 7
    return total, len(table)


def slowness():
    """How much slower than the reference machine this one runs now:
    the fastest of three timings of the reference work, over REFERENCE_S."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best / REFERENCE_S


def run_rounds(rounds, seconds):
    """Run whole rounds until `seconds` have passed; one Tally per round.

    The machine's slowness is taken before the first round and after
    each one; a round's `slowness` is the mean of the two around it.
    """
    start = time.perf_counter()
    out = []
    before = slowness()
    while True:
        tally = Tally()
        for op in rounds(len(out)):
            run_op(op, tally)
        after = slowness()
        tally.slowness = (before + after) / 2
        before = after
        out.append(tally)
        if time.perf_counter() - start >= seconds:
            return out


# -- tracing --------------------------------------------------------------------


def self_times(names, parents, starts, ends, layer_of):
    """Self time per layer: each span's duration, minus its child spans.

    `names[i]` is span i's name, `parents[i]` the index of the span that
    caused it (-1 for a root).  Adding a span's duration to its own layer
    and subtracting it from its parent's layer is the same as subtracting,
    for every span, the time its children cover.
    """
    out = defaultdict(float)
    for i, name in enumerate(names):
        d = ends[i] - starts[i]
        out[layer_of(name)] += d
        p = parents[i]
        if p >= 0:
            out[layer_of(names[p])] -= d
    return out


class Tracer:
    """Records a span around every call into a public `rga` function.

    Spans of one operation are kept in memory while it runs and folded
    into per-layer totals when it ends; the first KEEP spans are also
    kept whole and written out by `dump`.  Only calls made while an
    operation runs are recorded, so the output checks do not count.
    """

    ROOT = "bench.op"
    KEEP = 20000  # spans written out by `dump`

    def __init__(self, mods):
        self.mods = mods
        self.span_names = [self.ROOT]
        self.span_layers = ["bench"]
        self.active = False
        self._patches = []
        self.kept = []
        self.reset()

    def reset(self):
        """Forget the totals; the kept spans stay."""
        self._reset_buffer()
        self.counts = defaultdict(int)        # span name -> calls
        self.layer_self = defaultdict(float)  # layer -> seconds
        self.extra = defaultdict(int)         # observer totals
        self._psi_seen = {}                   # id -> (instance, keys seen)

    # -- recording ------------------------------------------------------

    def _reset_buffer(self):
        self.names = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]

    def _name_id(self, name, layer):
        self.span_names.append(name)
        self.span_layers.append(layer)
        return len(self.span_names) - 1

    def begin_op(self):
        self.names.append(0)
        self.parents.append(-1)
        self.ends.append(0.0)
        self.stack.append(0)
        self.active = True
        self.starts.append(time.perf_counter())

    def end_op(self):
        self.ends[0] = time.perf_counter()
        self.active = False
        self.fold()

    def fold(self):
        """Fold the finished operation's spans into the totals."""
        layers = self.span_layers
        for layer, s in self_times(self.names, self.parents, self.starts,
                                   self.ends, layers.__getitem__).items():
            self.layer_self[layer] += s
        counts = self.counts
        names = self.span_names
        for nid in self.names:
            counts[names[nid]] += 1
        room = self.KEEP - len(self.kept)
        if room > 0:
            base = len(self.kept)
            for i in range(min(room, len(self.names))):
                p = self.parents[i]
                self.kept.append((names[self.names[i]],
                                  base + p if p >= 0 else -1,
                                  self.starts[i], self.ends[i]))
        self._reset_buffer()

    def _wrapper(self, fn, name, layer, observe):
        nid = self._name_id(name, layer)
        tr = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            names = tr.names
            idx = len(names)
            names.append(nid)
            tr.parents.append(tr.stack[-1])
            tr.ends.append(0.0)
            tr.stack.append(idx)
            tr.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.ends[idx] = clock()
                tr.stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- patching -------------------------------------------------------

    def install(self):
        """Wrap every binding of every traced function in every module."""
        wrapped = {}   # original module-level function -> wrapper
        observers = self._observers()
        for layer in LAYERS:
            mod = self.mods[layer]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[value] = self._wrapper(
                        value, name, layer, observers.get(name))
                elif inspect.isclass(value) and value.__module__ == mod.__name__ \
                        and not issubclass(value, BaseException):
                    self._wrap_class(value, layer, observers)
        for mod in self.mods.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value], setattr)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrapped:
                            self._patch(value, key, wrapped[item],
                                        dict.__setitem__)

    def _wrap_class(self, cls, layer, observers):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__"):
                if attr not in WRAPPED_DUNDERS:
                    continue
            elif attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            observe = observers.get(name)
            if layer == "scalar" and observe is None:
                observe = observers["scalar.*"]
            if isinstance(value, staticmethod):
                new = staticmethod(self._wrapper(value.__func__, name, layer,
                                                 observe))
            elif isinstance(value, classmethod):
                new = classmethod(self._wrapper(value.__func__, name, layer,
                                                observe))
            elif inspect.isfunction(value):
                new = self._wrapper(value, name, layer, observe)
            else:
                continue
            self._patch(cls, attr, new, setattr)

    def _patch(self, target, key, new, setter):
        old = target[key] if isinstance(target, dict) else vars(target)[key]
        self._patches.append((target, key, old, setter))
        setter(target, key, new)

    def uninstall(self):
        for target, key, old, setter in reversed(self._patches):
            setter(target, key, old)
        self._patches = []

    # -- observers: counts that need the arguments or the result ----------

    def _observers(self):
        tr = self
        Scalar = self.mods["scalar"].Scalar
        Word = self.mods["rewrite"].Word

        def bits(x):
            b = 0
            for part in (x.a, x.b):
                b = max(b, part.numerator.bit_length(),
                        part.denominator.bit_length())
            return b

        def on_scalar(args, result):
            if isinstance(result, Scalar):
                x = result
            elif args and isinstance(args[0], Scalar):
                x = args[0]
            else:
                return
            b = bits(x)
            if b > tr.extra["scalar.max_bits"]:
                tr.extra["scalar.max_bits"] = b

        def on_normal_form(args, result):
            word = args[1]
            n_in = len(word)
            tr.extra["rewrite.letters_in"] += n_in
            n_out = len(result) if isinstance(result, Word) else 0
            tr.extra["rewrite.letters_removed"] += n_in - n_out

        def on_enumerate(args, result):
            tr.extra["rewrite.enumerated_words"] += len(result)

        def on_rref(args, result):
            m = args[0]
            d = max(m.nrows, m.ncols)
            if d > tr.extra["linalg.rref.max_dim"]:
                tr.extra["linalg.rref.max_dim"] = d

        def on_functor_call(args, result):
            if args[0].name == "base_change":
                tr.extra["category.base_change_maps"] += 1

        def on_psi_apply(args, result):
            psi, xi, theta = args[0], args[1], args[2]
            key = (tuple(xi), tuple(theta))
            seen = tr._psi_seen.setdefault(id(psi), (psi, set()))[1]
            if key not in seen:
                seen.add(key)
                tr.extra["wick.psi_apply.distinct"] += 1

        return {
            "scalar.*": on_scalar,
            "rewrite.RewriteSystem.normal_form": on_normal_form,
            "rewrite.RewriteSystem.enumerate_normal_forms": on_enumerate,
            "linalg.Matrix.rref": on_rref,
            "category.MatrixFunctor.__call__": on_functor_call,
            "wick.CrossSymmetry.apply": on_psi_apply,
        }

    # -- results ------------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end in self.kept:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")
