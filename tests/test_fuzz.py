"""Loader fuzzing: a mutated document is loaded or refused, never crashes.

Each example takes one of the two fixture documents and applies a few
mutations: a field replaced by a value of another type, a key dropped or
added, a list element dropped, duplicated or swapped, a node wrapped in a
list.  Loading must then give a network, a ``DocumentError`` or a
``TableTooLargeError``, and ``chordalnet check`` must exit 0, 2 or 3.
"""

import copy
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from chordalnet import DocumentError, TableTooLargeError, loads_network
from chordalnet.cli import main
from conftest import FIXTURES

DOCUMENTS = {
    name: json.loads((FIXTURES / f"{name}.json").read_text())
    for name in ("misconception", "bear")
}

JUNK = st.one_of(
    st.sampled_from(
        [None, True, False, 0, -1, 1, 2.5, -0.5, 10**400, math.nan, math.inf, -math.inf,
         "", "A", "na", "x0", [], [None], [[]], ["A", "A"], {}, {"given": []}]
    ),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.one_of(st.none(), st.integers(-2, 2), st.text(max_size=2)), max_size=3),
).map(copy.deepcopy)  # a document may mutate the value, never the shared constant


def _paths(node, path=()):
    """Every path from the root to a node of the document, root included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        node = _at(doc, path)
        parent = _at(doc, path[:-1]) if path else None
        kind = draw(st.sampled_from(["replace", "wrap", "drop", "extra", "duplicate", "swap"]))
        if kind == "replace" and path:
            parent[path[-1]] = draw(JUNK)
        elif kind == "wrap" and path:
            parent[path[-1]] = [node]
        elif kind == "drop" and path:
            del parent[path[-1]]
        elif kind == "extra" and isinstance(node, dict):
            node[draw(st.sampled_from(["extra", "rows", "given", "parents", "clique"]))] = draw(JUNK)
        elif kind == "duplicate" and isinstance(node, list) and node:
            node.append(copy.deepcopy(node[draw(st.integers(0, len(node) - 1))]))
        elif kind == "swap" and isinstance(node, list) and len(node) > 1:
            i, j = draw(st.lists(st.integers(0, len(node) - 1), min_size=2, max_size=2))
            node[i], node[j] = node[j], node[i]
        elif not path:  # the document itself
            doc = draw(JUNK)
    return json.dumps(doc)


@settings(max_examples=1000, deadline=None)
@given(mutated_documents())
def test_mutated_document_loads_or_is_refused(text):
    try:
        loads_network(text)
    except (DocumentError, TableTooLargeError):
        pass


@settings(max_examples=100, deadline=None)
@given(mutated_documents())
def test_check_exits_with_a_documented_code(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(text)
    assert main(["check", str(path)]) in (0, 2, 3)
