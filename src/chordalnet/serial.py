"""JSON documents for networks.

A document is a single JSON object::

    {
      "kind": "bayesian" | "markov" | "chordal",
      "variables": [{"name": ..., "states": [...]}, ...],
      "edges": [[u, v], ...],
      "tables": [...]
    }

The variable listing order IS the total order: it fixes triangulation and
elimination behaviour, so reordering a file is how a caller selects a
different order.  Edge lists of directed kinds must be topological with
respect to it.

Tables are self-describing, one row per conditioning assignment:
``{"child": v, "parents": [...], "rows": [{"given": [...], "values":
[...]}, ...]}`` for directed kinds, and ``{"clique": [...], "rows": ...}``
for Markov networks, where the rows condition on all clique variables but
the last.  Row coverage must be total, every assignment exactly once.
Missing Markov tables mean the all-ones factor.

Loading validates everything and reports all problems at once with field
context; a text that is not UTF-8, or is nested too deeply to decode, is
refused with one line.  One loop reads the tables of every kind; only the
reader of a table's head differs, child and parents checked against the
graph, or a clique of known, distinct vertices in declaration order.  Each
row is looked up once in a map from every assignment to its place; a
miss, values that are not a list of the right count of numbers, or a place
already filled runs the checks that name the fault, in a fixed order.
Each table becomes one array, checked once and wrapped without a copy.

Saving emits a canonical key order and round-trip-exact floats, so
``save(load(x))`` is byte-identical for canonical files.
:func:`dumps_network` alone fixes the layout: key order, edge order and
indentation; the table order and each table's family come from
``networks._tables``.  It writes each line of the fixed layout straight
from the tables: objects and lists that hold containers take one line per
member, and every other list takes one line.  Strings are encoded by
``json.encoder.encode_basestring_ascii`` and the finite table values by
``float.__repr__``, as ``json.dumps`` encodes them.
:func:`network_to_document` is that text parsed back.
"""

from __future__ import annotations

import json
import math
from itertools import product as iter_product
from json.encoder import encode_basestring_ascii
from typing import Any, IO

import numpy as np

from .factors import Factor, Kernel, VariableTable, _adopt, _check_entries
from .graphs import Graph, OrderedDag, OrderedUGraph
from .networks import (
    BayesianNetwork,
    ChordalNetwork,
    MarkovNetwork,
    Network,
    _tables,
    network_violations,
)

# The document kind of each network type.
KIND_NAMES = {
    BayesianNetwork: "bayesian",
    MarkovNetwork: "markov",
    ChordalNetwork: "chordal",
}

# The types of a row value that need no further check: not bool, nor a
# subclass of int or float.
_PLAIN = frozenset((int, float))


class DocumentError(ValueError):
    """A document failed to parse or validate; ``violations`` lists why."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("\n".join(self.violations))


def _parse_variables(doc: dict, errors: list[str]) -> VariableTable | None:
    raw = doc.get("variables")
    if not isinstance(raw, list) or not raw:
        errors.append("variables: must be a nonempty list")
        return None
    entries = []
    for i, item in enumerate(raw):
        where = f"variables[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{where}: must be an object with name and states")
            return None
        name = item.get("name")
        states = item.get("states")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}.name: must be a nonempty string")
            return None
        if (
            not isinstance(states, list)
            or not states
            or not all(isinstance(s, str) for s in states)
        ):
            errors.append(f"{where}.states: must be a nonempty list of strings")
            return None
        entries.append((name, tuple(states)))
    try:
        return VariableTable(tuple(entries))
    except ValueError as exc:
        errors.append(f"variables: {exc}")
        return None


def _parse_edges(
    doc: dict, vt: VariableTable, directed: bool, errors: list[str]
) -> list[tuple[str, str]] | None:
    raw = doc.get("edges", [])
    if not isinstance(raw, list):
        errors.append("edges: must be a list of vertex pairs")
        return None
    pos = vt._index
    out = []
    ok = True
    for i, item in enumerate(raw):
        where = f"edges[{i}]"
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, str) for x in item)
        ):
            errors.append(f"{where}: must be a pair of vertex names")
            ok = False
            continue
        u, v = item
        if u not in pos or v not in pos:
            errors.append(f"{where}: unknown vertex in ({u}, {v})")
            ok = False
            continue
        if u == v:
            errors.append(f"{where}: self-loop on {u}")
            ok = False
            continue
        if directed and pos[u] >= pos[v]:
            errors.append(
                f"{where}: ({u}, {v}) is not topological; the parent must be "
                "declared before the child"
            )
            ok = False
            continue
        out.append((u, v) if directed or pos[u] < pos[v] else (v, u))
    if len(set(out)) != len(out):
        errors.append("edges: duplicate edges")
        ok = False
    return out if ok else None


def _parse_rows(
    rows: Any, family: tuple[str, ...], vt: VariableTable, where: str, errors: list[str]
) -> list[list[float]] | None:
    """The values of a table's rows, one list per assignment of all but the
    last variable of ``family`` in canonical order, or ``None`` after
    appending every row problem."""
    # Before listing the assignments, which costs as much as the table.
    _check_entries(vt.shape(family), where)
    given_vars, out_var = family[:-1], family[-1]
    if not isinstance(rows, list):
        errors.append(f"{where}.rows: must be a list")
        return None
    # Each assignment's slot in canonical order.  A row whose labels hit a
    # slot has the right label count and only known labels, so only a miss
    # is diagnosed label by label.
    slot = {key: i for i, key in enumerate(iter_product(*map(vt.states, given_vars)))}
    card = vt.card(out_var)
    seen: list[list[float] | None] = [None] * len(slot)
    ok = True
    for i, row in enumerate(rows):
        given = row.get("given") if isinstance(row, dict) else None
        try:
            at = slot.get(tuple(given)) if isinstance(given, list) else None
        except TypeError:  # an unhashable label
            at = None
        if not isinstance(row, dict):
            fault = ": must be an object with given and values"
        elif at is None and not (
            isinstance(given, list) and all(isinstance(s, str) for s in given)
        ):
            fault = ".given: must be a list of state labels"
        elif at is None and len(given) != len(given_vars):
            fault = (
                f".given: has {len(given)} labels, expected one per "
                f"conditioning variable {list(given_vars)}"
            )
        elif at is None:
            p, s = next(
                (p, s) for p, s in zip(given_vars, given) if s not in vt.states(p)
            )
            fault = f".given: {s!r} is not a state of {p}"
        elif not isinstance(values := row.get("values"), list) or not (
            _PLAIN.issuperset(map(type, values))
            or all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in values)
        ):
            fault = ".values: must be a list of numbers"
        elif len(values) != card:
            fault = (
                f".values: has {len(values)} entries, expected {card} "
                f"(one per state of {out_var})"
            )
        elif seen[at] is not None:
            fault = f": duplicate row for assignment {given}"
        else:
            seen[at] = values
            continue
        errors.append(f"{where}.rows[{i}]{fault}")
        ok = False
    for key, at in slot.items():
        if seen[at] is None:
            errors.append(f"{where}.rows: missing row for assignment {list(key)}")
            ok = False
    return seen if ok else None


# A table's head: its key in the network's table mapping (the child, or
# the clique's members), its family with the last variable conditioned on
# the rest, and the fault found, if any.
_Head = tuple[str | tuple[str, ...] | None, tuple[str, ...], str | None]


def _child_head(item: dict, vt: VariableTable, graph: OrderedDag, where: str) -> _Head:
    """A known child keys the table even when its parents are wrong, so a
    repeated child is reported before its parents."""
    child = item.get("child")
    if not isinstance(child, str) or child not in vt._index:
        return None, (), f"{where}.child: unknown variable {child!r}"
    parents = item.get("parents", [])
    if not isinstance(parents, list):
        return child, (), f"{where}.parents: must be a list of vertex names"
    expected = graph.parents_of(child)
    if tuple(parents) != expected:
        return child, (), (
            f"{where}.parents: {parents} does not match the graph parents "
            f"{list(expected)} of {child} (in declaration order)"
        )
    return child, (*expected, child), None


def _clique_head(item: dict, vt: VariableTable, graph: Graph, where: str) -> _Head:
    """Known, distinct vertices in declaration order, so that each clique
    has one key."""
    clique = item.get("clique")
    if (
        not isinstance(clique, list)
        or not clique
        or not all(isinstance(x, str) for x in clique)
    ):
        return None, (), f"{where}.clique: must be a nonempty list of vertex names"
    pos = vt._index
    unknown = [x for x in clique if x not in pos]
    if unknown:
        return None, (), f"{where}.clique: unknown vertices {unknown}"
    members = tuple(clique)
    if members != tuple(sorted(members, key=pos.get)) or len(set(members)) != len(
        members
    ):
        return None, (), (
            f"{where}.clique: must list distinct vertices in declaration order"
        )
    return members, members, None


def _parse_tables(
    doc: dict, vt: VariableTable, graph: Graph, net_type: type, errors: list[str]
) -> dict | None:
    """The tables of a document, in a mapping ``net_type`` takes, or
    ``None`` after appending every table problem."""
    directed = net_type is not MarkovNetwork
    # A Markov document may leave its tables out: all-ones factors.
    raw = doc.get("tables", None if directed else [])
    if not isinstance(raw, list):
        errors.append("tables: must be a list")
        return None
    read_head = _child_head if directed else _clique_head
    stochastic = net_type is BayesianNetwork
    tables: dict[str | tuple[str, ...], Kernel | Factor] = {}
    ok = True
    for i, item in enumerate(raw):
        where = f"tables[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{where}: must be an object")
            ok = False
            continue
        key, family, fault = read_head(item, vt, graph, where)
        if key in tables:
            name = key if directed else f"clique {list(key)}"
            fault = f"{where}: duplicate table for {name}"
        if fault is not None:
            errors.append(fault)
            ok = False
            continue
        rows = _parse_rows(item.get("rows"), family, vt, where, errors)
        if rows is None:
            ok = False
            continue
        try:
            values = np.array(rows, dtype=np.float64)
            # NaN fails both comparisons.
            fine = values.min() >= 0 and values.max() < math.inf
        except OverflowError:  # an integer beyond the range of a double
            fine = False
        if not fine:
            errors.append(f"{where}: values must be finite and nonnegative")
            ok = False
            continue
        if directed:
            tables[key] = _adopt(
                Kernel, values, child=key, parents=family[:-1], stochastic=stochastic
            )
        else:
            tables[key] = _adopt(Factor, values, vars=family)
    if directed:
        for v in graph.vertices:
            if v not in tables:
                errors.append(f"tables: missing table for vertex {v}")
                ok = False
    return tables if ok else None


def document_to_network(doc: Any) -> Network:
    """Build and fully validate a network from a parsed JSON document.

    Raises:
        DocumentError: listing every structural and semantic violation.
        TableTooLargeError: if a table would have more than
            ``factors.MAX_TABLE_ENTRIES`` entries; raised before its rows
            are read.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise DocumentError(["document: must be a JSON object"])
    kind = doc.get("kind")
    net_type = next((t for t, name in KIND_NAMES.items() if name == kind), None)
    if net_type is None:
        raise DocumentError(
            [f"kind: must be one of {list(KIND_NAMES.values())}, got {kind!r}"]
        )
    for key in doc:
        if key not in ("kind", "variables", "edges", "tables"):
            errors.append(f"{key}: unknown key")

    vt = _parse_variables(doc, errors)
    if vt is None:
        raise DocumentError(errors)
    directed = net_type is not MarkovNetwork
    edges = _parse_edges(doc, vt, directed, errors)
    if edges is None:
        raise DocumentError(errors)
    graph = (
        OrderedDag(vt.names, set(edges))
        if directed
        else OrderedUGraph(vt.names, {frozenset(e) for e in edges})
    )
    tables = _parse_tables(doc, vt, graph, net_type, errors)
    if tables is None:
        raise DocumentError(errors)
    net = net_type(graph, vt, tables)
    errors.extend(network_violations(net))
    if errors:
        raise DocumentError(errors)
    return net


def _rows(values: np.ndarray, family: list[str], labels: dict[str, list[str]]) -> str:
    """The rows of a table over ``family``, one per assignment of all but its
    last variable, in canonical order; ``labels`` holds encoded states."""
    return ",\n".join(
        f'        {{\n          "given": [{", ".join(given)}],\n'
        f'          "values": [{", ".join(map(float.__repr__, row))}]\n        }}'
        for given, row in zip(
            iter_product(*map(labels.get, family[:-1])),
            values.reshape(-1, len(labels[family[-1]])).tolist(),
        )
    )


def _members(lines: list[str]) -> str:
    """A top-level list of the document, one line per item."""
    return "[\n" + ",\n".join(lines) + "\n  ]" if lines else "[]"


def dumps_network(net: Network) -> str:
    """Serialize to canonical JSON text (stable bytes for identical input).

    Leaf lists stay on one line so documents diff row by row.
    """
    vt, pos = net.vt, net.vt._index
    name = {v: encode_basestring_ascii(v) for v in vt.names}
    labels = {v: [*map(encode_basestring_ascii, s)] for v, s in vt.entries}
    markov = isinstance(net, MarkovNetwork)
    if markov:
        nbrs = net.graph.neighbours_of
        pairs = [(u, w) for u in vt.names for w in nbrs(u) if pos[u] < pos[w]]
    else:
        pairs = [(u, w) for u in vt.names for w in net.graph.children_of(u)]
    variables = [
        f'    {{\n      "name": {name[v]},\n'
        f'      "states": [{", ".join(labels[v])}]\n    }}'
        for v in vt.names
    ]
    edges = [f"    [{name[u]}, {name[w]}]" for u, w in pairs]
    tables = []
    for vars, values in _tables(net):
        if markov:
            head = f'"clique": [{", ".join(map(name.get, vars))}]'
        else:
            parents = ", ".join(map(name.get, vars[:-1]))
            head = f'"child": {name[vars[-1]]},\n      "parents": [{parents}]'
        rows = _rows(values, vars, labels)
        tables.append(f'    {{\n      {head},\n      "rows": [\n{rows}\n      ]\n    }}')
    return (
        f'{{\n  "kind": "{KIND_NAMES[type(net)]}",\n'
        f'  "variables": {_members(variables)},\n'
        f'  "edges": {_members(edges)},\n'
        f'  "tables": {_members(tables)}\n}}\n'
    )


def network_to_document(net: Network) -> dict:
    """Canonical document of a network, as :func:`dumps_network` writes it."""
    return json.loads(dumps_network(net))


def loads_network(text: str) -> Network:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            [f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except RecursionError as exc:
        raise DocumentError(["invalid JSON: nested too deeply to decode"]) from exc
    return document_to_network(doc)


def load_network(source: str | IO[str] | IO[bytes]) -> Network:
    """Load a network from a path or an open stream; a path or a binary
    stream is read as UTF-8."""
    try:
        if hasattr(source, "read"):
            text = source.read()
            if isinstance(text, bytes):
                text = text.decode("utf-8")
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(
            [f"invalid JSON: byte {exc.start} is not UTF-8 ({exc.reason})"]
        ) from exc
    return loads_network(text)
