"""Hostile inputs for the file loaders and the ``check`` command.

Documents are drawn two ways: arbitrary JSON-shaped values, and valid
documents of each kind with one field or cell replaced, dropped or added.
A loader may only answer with a value or an InputError, and ``mengerkit
check`` on a written file may only end in one of its exit codes.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import find, given, settings
from hypothesis import strategies as st

from mengerkit import (
    BinRelation,
    InputError,
    PartialFunction,
    abstract_from_concrete,
    build_closure,
    close_under_operations,
    sum_over_pairs,
)
from mengerkit.cli import main
from mengerkit.fileio import (
    ALGEBRA_FORMAT,
    RELATION_FORMAT,
    algebra_from_doc,
    relation_from_doc,
    representation_from_doc,
    representation_to_doc,
)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

scalars = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
           | st.floats(allow_nan=False, allow_infinity=False))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


def _nested(shape, cell):
    for extent in reversed(shape):
        cell = st.lists(cell, min_size=extent, max_size=extent)
    return cell


@st.composite
def abstract_docs(draw):
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    flavor = draw(st.sampled_from(["menger", "plain"]))
    cell = st.integers(0, m - 1)
    doc = {"format": ALGEBRA_FORMAT, "kind": "abstract", "flavor": flavor,
           "n": n, "size": m, "mann": draw(_nested((n, m, m), cell))}
    if flavor == "menger":
        doc["superposition"] = draw(_nested((m,) * (n + 1), cell))
    if draw(st.booleans()):
        doc["zero"] = draw(cell)
    return doc


@st.composite
def concrete_docs(draw):
    n, base = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    entries = _nested((base**n,), st.none() | st.integers(0, base - 1))
    return {"format": ALGEBRA_FORMAT, "kind": "concrete",
            "flavor": draw(st.sampled_from(["menger", "plain"])), "n": n,
            "base_size": base, "functions": draw(st.lists(entries, max_size=3))}


@st.composite
def relation_docs(draw):
    m = draw(st.integers(0, 3))
    return {"format": RELATION_FORMAT, "size": m,
            "matrix": draw(_nested((m, m), st.integers(0, 1)))}


def _representation_docs():
    """The two-element function algebra's representations, as written."""
    empty = PartialFunction.empty(2, 2)
    proj = PartialFunction.projection(2, 2, 0)
    docs = []
    for flavor in ("menger", "plain"):
        alg = abstract_from_concrete(close_under_operations([empty, proj], flavor))
        chi = build_closure(alg, "chi0" if flavor == "menger" else "chi0_bullet")
        rep = sum_over_pairs(alg, chi, BinRelation.full(2))
        docs.append(representation_to_doc(rep))
    return docs


REPRESENTATIONS = _representation_docs()


def _places(value):
    """(container, key) for every field and list cell below value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield value, key
        if isinstance(child, (dict, list)):
            yield from _places(child)


@st.composite
def damaged(draw, docs):
    """A document from docs with one field or cell replaced, dropped or
    added, or left whole."""
    doc = json.loads(json.dumps(draw(docs)))  # a private deep copy
    change = draw(st.sampled_from(["none", "replace", "drop", "add"]))
    if change == "add":
        doc[draw(st.text(max_size=6))] = draw(json_values)
    elif change != "none":
        container, key = draw(st.sampled_from(list(_places(doc))))
        if change == "replace":
            container[key] = draw(json_values)
        else:
            del container[key]
    return doc


def _loads_or_input_error(loader, doc):
    try:
        loader(doc)
    except InputError:
        pass


@FUZZ
@given(json_values | damaged(abstract_docs() | concrete_docs()))
def test_algebra_loader_raises_only_input_errors(doc):
    _loads_or_input_error(algebra_from_doc, doc)


@FUZZ
@given(json_values | damaged(relation_docs()))
def test_relation_loader_raises_only_input_errors(doc):
    _loads_or_input_error(relation_from_doc, doc)


@FUZZ
@given(json_values | damaged(st.sampled_from(REPRESENTATIONS)))
def test_representation_loader_raises_only_input_errors(doc):
    _loads_or_input_error(representation_from_doc, doc)


def test_written_documents_load_back():
    for doc in REPRESENTATIONS:
        assert representation_to_doc(representation_from_doc(doc)) == doc


def _check_exit(content: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.json")
        with open(path, "wb") as handle:
            handle.write(content)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(["check", "--algebra", path])


@FUZZ
@given(st.binary(max_size=40)
       | st.builds(lambda doc: json.dumps(doc).encode(),
                   json_values | damaged(abstract_docs() | concrete_docs())))
def test_check_command_ends_in_an_exit_code(content):
    assert _check_exit(content) in (0, 1, 2, 3)


def test_drawn_algebras_reach_the_law_checks():
    # whole documents pass the loader, so the fuzz above also runs the laws:
    # some drawn table passes every check and another fails one
    for wanted in (0, 1):
        find(abstract_docs(), lambda doc: _check_exit(json.dumps(doc).encode()) == wanted,
             settings=settings(derandomize=True, database=None))
