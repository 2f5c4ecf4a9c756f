"""Fuzz the `rga check cocycle|functor|module` document loaders.

Each example takes a well-formed document, mutates it once, runs the CLI
on it and calls the document's loader in `rga.category` on it directly.
Any document may only end in exit 0, 1 or 2, never in an exception out of
`main`.  A mutation that breaks the documented shape (README, "File
formats") must end in exit 2 with an `error:` line naming the file, and the
loader must raise DocumentError; one that only changes a matrix entry to
another scalar keeps the document well-formed and must end in 0 or 1 with
no `error:` line, unless it makes a pairing or a base change singular,
which must end in exit 2 naming that matrix.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from rga.category import (DocumentError, cocycle_from_algebra,
                          cocycle_from_json, cocycle_to_json,
                          functor_from_json, module_from_json)
from rga.cli import main
from rga.parser import parse_scalar
from rga.rewrite import RewriteSystem

_COCYCLE, _ = cocycle_from_algebra(RewriteSystem(2), 2)
IDENTITY2 = [["1", "0"], ["0", "1"]]
PAIRING2 = [["1", "w"], ["0", "2"]]

DOCUMENTS = {
    "cocycle": {**cocycle_to_json(_COCYCLE),
                "pairings": {"X1": PAIRING2, "X2": IDENTITY2}},
    "functor": {"cocycle": cocycle_to_json(_COCYCLE),
                "base_change": {"X1": [["1", "0"], ["1", "1"]],
                                "X2": [["2", "w"], ["0", "1"]]}},
    "module": {"n": 2, "module_dim": 2,
               "action": {w: [["1", "0"], ["0", "1"]] if w == "1"
                          else [["0", "1/2"], ["0", "0"]]
                          for w in ("1", "T1", "T2", "T1 T2", "T2 T1")},
               "e_algebra": "obstruction", "e_module": IDENTITY2},
}

LOADERS = {"cocycle": cocycle_from_json, "functor": functor_from_json,
           "module": module_from_json}

# Fields the README lets a document leave out; dropping one keeps it valid.
OPTIONAL = {"pairings", "n", "e_algebra", "e_module"}

# Values of each JSON type, to put where a value of another type belongs.
RETYPED = [None, True, 7, 2.5, "junk", [], [1], {"x": 1}]

SCALARS = ["0", "1", "-1", "1/2", "w", "-w", "1+2*w", "-1/3-w"]


def nodes(value, path=()):
    """Every (path, value) below `value`, itself included."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from nodes(item, path + (i,))


def parent_of(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def json_type(value):
    return type(value) if not isinstance(value, bool) else "bool"


def malformed(doc, data):
    """Mutate `doc` in place so that it breaks the documented shape."""
    paths = [p for p, _ in nodes(doc) if p]
    droppable = [p for p in paths if p[-1] not in OPTIONAL]
    chain = doc.get("cocycle", doc)
    labelled = "pairings" if "pairings" in doc else "base_change"
    kinds = ["drop", "retype"] + (["alias"] if "action" in doc else []) \
        + (["retarget"] if "maps" in chain else []) \
        + (["unknown label"] if labelled in doc else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "retarget":
        # a map that ends at a space other than the next one in the chain
        m = data.draw(st.sampled_from(chain["maps"]))
        m["to"] = data.draw(st.sampled_from(
            [s["name"] for s in chain["spaces"] if s["name"] != m["to"]]))
    elif kind == "unknown label":
        doc[labelled]["X9"] = [["1"]]
    elif kind == "alias":
        # a second key naming an action word already given
        key = data.draw(st.sampled_from(sorted(doc["action"])))
        doc["action"][f"({key})"] = copy.deepcopy(doc["action"][key])
    elif kind == "retype":
        path = data.draw(st.sampled_from(paths))
        old = parent_of(doc, path)[path[-1]]
        new = data.draw(st.sampled_from(
            [v for v in RETYPED if v is not None
             and json_type(v) != json_type(old)]))
        parent_of(doc, path)[path[-1]] = new
    else:
        # every list item and every field but the optional ones is needed;
        # under the obstruction map each n=2 action word is needed by another
        path = data.draw(st.sampled_from(droppable))
        del parent_of(doc, path)[path[-1]]


def reentered(doc, data):
    """Mutate `doc` in place: one matrix entry becomes another scalar."""
    entries = [p for p, v in nodes(doc)
               if len(p) >= 2 and isinstance(p[-1], int)
               and isinstance(p[-2], int)]
    path = data.draw(st.sampled_from(entries))
    parent_of(doc, path)[path[-1]] = data.draw(st.sampled_from(SCALARS))


def singular_path(checker, doc):
    """The JSON path of a singular 2x2 pairing or base change, or None."""
    group = {"cocycle": "pairings", "functor": "base_change"}.get(checker)
    for label, rows in doc.get(group, {}).items():
        (a, b), (c, d) = ([parse_scalar(x) for x in row] for row in rows)
        if a * d - b * c == 0:
            return f"$.{group}.{label}"
    return None


def run_checker(checker, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", checker, path])
    return code, out.getvalue().replace(path, "doc.json")


def test_unmutated_documents_are_accepted():
    for checker, doc in DOCUMENTS.items():
        code, out = run_checker(checker, doc)
        assert code in (0, 1) and not out.startswith("error:"), out
        LOADERS[checker](doc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DOCUMENTS)), st.data())
def test_malformed_documents_exit_2(checker, data):
    doc = copy.deepcopy(DOCUMENTS[checker])
    malformed(doc, data)
    code, out = run_checker(checker, doc)
    assert code == 2, out
    assert out.startswith("error: doc.json: $") and out.count("\n") == 1, out
    with pytest.raises(DocumentError):
        LOADERS[checker](doc)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(DOCUMENTS)), st.data())
def test_reentered_documents_get_a_verdict(checker, data):
    doc = copy.deepcopy(DOCUMENTS[checker])
    reentered(doc, data)
    code, out = run_checker(checker, doc)
    where = singular_path(checker, doc)
    if where is None:
        # a verdict code never hides a refusal
        assert code in (0, 1) and "error:" not in out, out
        LOADERS[checker](doc)
    else:
        assert (code, out) == (2, f"error: doc.json: {where}: singular "
                                  f"matrix\n")
        with pytest.raises(DocumentError, match="singular matrix"):
            LOADERS[checker](doc)
