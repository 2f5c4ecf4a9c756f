"""The package's value records are `typing.NamedTuple`s: immutable, slotted,
printed as `Name(field=value, ...)`, and the two that validate refuse bad
fields with their own messages.  The conjugated pair is no record but a
fieldless singleton, as immutable and slotted as one, and refuses to be
built over other systems.  No module imports `dataclasses`, so a
fresh `rga` process loads neither it nor `inspect`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rga.algebra import Subspace, Verdict, Witness
from rga.category import FunctorVerdict, LinearMap, Obstruction
from rga.linalg import Matrix
from rga.rewrite import (ZERO, ConfluenceReport, CriticalPair, RewriteSystem,
                         Rule, Word)
from rga.wick import ConjugatedPair

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rga"

X = Subspace("X", ("u",))
M = LinearMap(X, X, Matrix([[1]]))
SPACE = "Subspace(label='X', basis=('u',))"
MAP = f"LinearMap(domain={SPACE}, codomain={SPACE}, matrix=Matrix[1])"

RECORDS = [
    (Witness("square", 1, 2, 3), "Witness(law='square', at=1, lhs=2, rhs=3)"),
    (Verdict((), 4), "Verdict(witnesses=(), checked=4)"),
    (X, SPACE),
    (M, MAP),
    (Obstruction(X, M), f"Obstruction(at={SPACE}, map={MAP})"),
    (FunctorVerdict((), 3), "FunctorVerdict(witnesses=(), checked=3)"),
    (Rule("cyclic(1)", (1, 2, 1), (1,)),
     "Rule(name='cyclic(1)', pattern=(1, 2, 1), replacement=(1,))"),
    (CriticalPair("a", "b", Word((1, 1, 2)), ZERO, Word((1,)), False),
     "CriticalPair(rule_left='a', rule_right='b', overlap=Word([1, 1, 2]), "
     "left_reduct=ZERO, right_reduct=Word([1]), joinable=False)"),
    (ConfluenceReport(2, (), True),
     "ConfluenceReport(n=2, critical_pairs=(), locally_confluent=True)"),
]
IDS = [type(r).__name__ for r, _ in RECORDS]
PAIR = ConjugatedPair()
VALUES = RECORDS + [(PAIR, "ConjugatedPair()")]
VALUE_IDS = IDS + ["ConjugatedPair"]


def _fields(value) -> tuple:
    """The read-only attributes of `value`: a record's fields, or the
    pair's two systems."""
    return ("theta", "xi") if value is PAIR else value._fields


def _imported(path: Path) -> set:
    """The modules that `path` names in an import statement."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return names


def test_no_module_imports_dataclasses():
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "dataclasses" in _imported(path)] == []


def test_fresh_process_loads_neither_dataclasses_nor_inspect():
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, rga.cli; print("
         "sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n")


@pytest.mark.parametrize("record,text", VALUES, ids=VALUE_IDS)
def test_record_is_immutable_and_slotted(record, text):
    for name in _fields(record) + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record,text", VALUES, ids=VALUE_IDS)
def test_record_repr_names_its_fields(record, text):
    assert repr(record) == text
    # the pair is rebuilt from no fields, and is then the same object
    assert type(record)(*(() if record is PAIR else record)) == record


@pytest.mark.parametrize("build,error,message", [
    (lambda: Subspace("X", ("u", "u")), ValueError,
     "duplicate basis entries in X"),
    (lambda: LinearMap(X, Subspace("Y", ("p", "q")), Matrix([[1]])),
     ValueError, "matrix is 1x1 but Y<-X needs 2x1"),
    # there is one pair: it takes no systems, and has no field to replace
    (lambda: ConjugatedPair(RewriteSystem(3)), TypeError,
     "ConjugatedPair.__new__() takes 1 positional argument but 2 were given"),
    (lambda: Subspace._make(("X", ("u", "u"))), ValueError,
     "duplicate basis entries in X"),
    (lambda: M._replace(matrix=Matrix([[1, 2]])), ValueError,
     "matrix is 1x2 but X<-X needs 1x1"),
    (lambda: ConjugatedPair()._replace(xi=RewriteSystem(3)), AttributeError,
     "'ConjugatedPair' object has no attribute '_replace'"),
], ids=["Subspace", "LinearMap", "ConjugatedPair", "Subspace._make",
        "LinearMap._replace", "ConjugatedPair._replace"])
def test_validating_records_refuse_with_their_message(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message
