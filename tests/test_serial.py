"""Document round trips, validation reporting, canonicalization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chordalnet.factors
from chordalnet import (
    DocumentError,
    ChordalNetwork,
    Factor,
    Kernel,
    MarkovNetwork,
    OrderedDag,
    OrderedUGraph,
    TableTooLargeError,
    VariableTable,
    document_to_network,
    dumps_network,
    load_network,
    loads_network,
    mn_partition,
    network_to_document,
)
from helpers import (
    chain_bn,
    mixed_chain_mn,
    random_bn,
    random_cn,
    random_mn,
    reference_dumps,
    wide_document,
    wide_range_mn,
)


def test_fixture_loads_to_misconception_network(fixtures_dir, misconception):
    net = load_network(fixtures_dir / "misconception.json")
    assert isinstance(net, MarkovNetwork)
    assert net.graph == misconception.graph
    assert net.vt == misconception.vt
    assert set(net.factors) == set(misconception.factors)
    for clique, f in misconception.factors.items():
        assert np.array_equal(net.factors[clique].values, f.values)
    assert mn_partition(net) == 7201840.0


def test_save_load_byte_identical(fixtures_dir):
    text = (fixtures_dir / "misconception.json").read_text()
    assert dumps_network(loads_network(text)) == text
    bear = (fixtures_dir / "bear.json").read_text()
    assert dumps_network(loads_network(bear)) == bear


def test_long_chain_bayesian_document_round_trips():
    text = dumps_network(chain_bn(np.random.default_rng(2000), 2000))
    assert dumps_network(loads_network(text)) == text


def test_roundtrip_on_random_networks():
    rng = np.random.default_rng(127)
    for make in (random_bn, random_mn, random_cn):
        for _ in range(10):
            net = make(rng)
            text = dumps_network(net)
            assert dumps_network(loads_network(text)) == text


def test_wide_table_is_refused_before_its_rows_are_listed():
    # Listing the 2**30 parent assignments would take minutes and gigabytes.
    text = json.dumps(wide_document("bayesian", 30))
    assert len(text) < 5000
    with pytest.raises(TableTooLargeError, match="2,147,483,648 entries"):
        loads_network(text)


@pytest.mark.parametrize("kind", ["bayesian", "markov"])
def test_table_cap_applies_on_load(monkeypatch, kind):
    monkeypatch.setattr(chordalnet.factors, "MAX_TABLE_ENTRIES", 1 << 10)
    with pytest.raises(TableTooLargeError, match="8,192 entries"):
        loads_network(json.dumps(wide_document(kind, 12)))


def test_key_order_in_input_does_not_matter(fixtures_dir):
    doc = json.loads((fixtures_dir / "misconception.json").read_text())
    shuffled = {k: doc[k] for k in ("tables", "edges", "kind", "variables")}
    net = document_to_network(shuffled)
    assert dumps_network(net) == (fixtures_dir / "misconception.json").read_text()


def test_missing_row_names_the_assignment(fixtures_dir):
    doc = json.loads((fixtures_dir / "misconception.json").read_text())
    doc["tables"][0]["rows"].pop(1)
    with pytest.raises(DocumentError) as err:
        document_to_network(doc)
    assert any("missing row" in v and "na" in v for v in err.value.violations)


def test_duplicate_row_is_reported(fixtures_dir):
    doc = json.loads((fixtures_dir / "misconception.json").read_text())
    doc["tables"][0]["rows"].append(doc["tables"][0]["rows"][0])
    with pytest.raises(DocumentError) as err:
        document_to_network(doc)
    assert any("duplicate row" in v for v in err.value.violations)


def test_multiple_violations_collected(fixtures_dir):
    doc = json.loads((fixtures_dir / "misconception.json").read_text())
    doc["tables"][0]["rows"][0]["values"] = [1.0]
    doc["tables"][1]["rows"][0]["given"] = ["zzz"]
    with pytest.raises(DocumentError) as err:
        document_to_network(doc)
    assert len(err.value.violations) >= 2
    assert any("tables[0]" in v for v in err.value.violations)
    assert any("tables[1]" in v for v in err.value.violations)


def test_unknown_kind():
    with pytest.raises(DocumentError, match="kind"):
        document_to_network({"kind": "gaussian", "variables": []})


def test_non_topological_edge_reported():
    doc = {
        "kind": "bayesian",
        "variables": [
            {"name": "A", "states": ["0", "1"]},
            {"name": "B", "states": ["0", "1"]},
        ],
        "edges": [["B", "A"]],
        "tables": [],
    }
    with pytest.raises(DocumentError) as err:
        document_to_network(doc)
    assert any("topological" in v for v in err.value.violations)


def test_non_stochastic_bayesian_rows_flagged():
    doc = {
        "kind": "bayesian",
        "variables": [{"name": "A", "states": ["0", "1"]}],
        "edges": [],
        "tables": [{"child": "A", "parents": [], "rows": [
            {"given": [], "values": [0.4, 0.5]},
        ]}],
    }
    with pytest.raises(DocumentError) as err:
        document_to_network(doc)
    assert any("sum to 1" in v for v in err.value.violations)


def test_chordal_kind_accepts_unnormalized_tables():
    doc = {
        "kind": "chordal",
        "variables": [{"name": "A", "states": ["0", "1"]}],
        "edges": [],
        "tables": [{"child": "A", "parents": [], "rows": [
            {"given": [], "values": [2.0, 6.0]},
        ]}],
    }
    net = document_to_network(doc)
    assert not net.kernels["A"].stochastic


def test_chordal_kind_rejects_non_chordal_graph():
    doc = {
        "kind": "chordal",
        "variables": [
            {"name": "A", "states": ["0", "1"]},
            {"name": "B", "states": ["0", "1"]},
            {"name": "C", "states": ["0", "1"]},
        ],
        "edges": [["A", "C"], ["B", "C"]],
        "tables": [
            {"child": "A", "parents": [], "rows": [{"given": [], "values": [1, 1]}]},
            {"child": "B", "parents": [], "rows": [{"given": [], "values": [1, 1]}]},
            {"child": "C", "parents": ["A", "B"], "rows": [
                {"given": ["0", "0"], "values": [1, 1]},
                {"given": ["0", "1"], "values": [1, 1]},
                {"given": ["1", "0"], "values": [1, 1]},
                {"given": ["1", "1"], "values": [1, 1]},
            ]},
        ],
    }
    with pytest.raises(DocumentError, match="chordal"):
        document_to_network(doc)


def test_invalid_json_reports_position():
    with pytest.raises(DocumentError, match="line 1"):
        loads_network("{broken")


def test_network_to_document_is_plain_json(misconception):
    doc = network_to_document(misconception)
    json.dumps(doc)  # serializable without custom encoders
    assert doc["kind"] == "markov"
    assert [v["name"] for v in doc["variables"]] == ["A", "B", "C", "D"]


# Names and labels that exercise every escape of the JSON string encoder.
AWKWARD = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\xe9\u4e2d\U0001f600ab') | st.characters(),
    min_size=1,
    max_size=5,
)
SPECIAL_VALUES = [0.0, -0.0, 5e-324, 0.1, 1e308]


def _relabelled(net, names, labels, values):
    """``net`` with new variable names and state labels, and every table
    filled by repeating ``values``."""
    old = net.vt.names
    new = dict(zip(old, names))
    vt = VariableTable(
        tuple((new[v], tuple(labels[i][: net.vt.card(v)])) for i, v in enumerate(old))
    )

    def fill(size):
        return np.resize(np.array(values), size)

    if isinstance(net, MarkovNetwork):
        graph = OrderedUGraph(names, {frozenset(new[v] for v in e) for e in net.graph.edges})
        factors = {
            frozenset(new[v] for v in c): Factor(
                tuple(new[v] for v in f.vars), fill(f.values.size)
            )
            for c, f in net.factors.items()
        }
        return MarkovNetwork(graph, vt, factors)
    graph = OrderedDag(names, {(new[u], new[w]) for u, w in net.graph.edges})
    kernels = {
        new[v]: Kernel(
            new[v], tuple(new[p] for p in k.parents), fill(k.values.size), k.stochastic
        )
        for v, k in net.kernels.items()
    }
    return type(net)(graph, vt, kernels)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    make=st.sampled_from([random_bn, random_cn, random_mn]),
    names=st.lists(AWKWARD, min_size=6, max_size=6, unique=True),
    labels=st.lists(
        st.lists(AWKWARD, min_size=3, max_size=3, unique=True), min_size=6, max_size=6
    ),
    values=st.lists(
        st.sampled_from(SPECIAL_VALUES) | st.floats(0, 1e308), min_size=1, max_size=7
    ),
)
def test_dumps_matches_the_reference_renderer_byte_for_byte(
    seed, make, names, labels, values
):
    net = make(np.random.default_rng(seed))
    n = len(net.vt.names)
    net = _relabelled(net, names[:n], labels, values)
    assert dumps_network(net) == reference_dumps(net)


def test_special_values_render_exactly():
    vt = VariableTable((("a\"\\\x00\xe9", ("s\n", "\u4e2d", "t", "u", "v")),))
    k = Kernel("a\"\\\x00\xe9", (), SPECIAL_VALUES, stochastic=False)
    net = ChordalNetwork(OrderedDag(vt.names), vt, {vt.names[0]: k})
    text = dumps_network(net)
    assert text == reference_dumps(net)
    assert '"values": [0.0, -0.0, 5e-324, 0.1, 1e+308]' in text
    assert '"name": "a\\"\\\\\\u0000\\u00e9"' in text
    assert dumps_network(loads_network(text)) == text


def _markov_without_factors():
    vt = VariableTable((("A", ("0", "1")), ("B", ("x", "y", "z"))))
    return MarkovNetwork(OrderedUGraph(vt.names, {frozenset("AB")}), vt, {})


def _one_vertex_chordal():
    vt = VariableTable((("A", ("0", "1")),))
    kernel = Kernel("A", (), [0.25, 3.0], stochastic=False)
    return ChordalNetwork(OrderedDag(vt.names), vt, {"A": kernel})


@pytest.mark.parametrize(
    "make, empty",
    [(_markov_without_factors, '"tables": []'), (_one_vertex_chordal, '"edges": []')],
    ids=["markov-no-factors", "one-vertex"],
)
def test_writer_edge_cases(make, empty):
    net = make()
    text = dumps_network(net)
    assert text == reference_dumps(net)
    assert f"\n  {empty}" in text
    assert dumps_network(loads_network(text)) == text
    assert network_to_document(net) == json.loads(text)


@pytest.mark.parametrize("parents", [None, 3, "E", {"0": "E"}])
def test_parents_that_are_not_a_list_are_a_document_error(fixtures_dir, parents):
    doc = json.loads((fixtures_dir / "bear.json").read_text())
    doc["tables"][2]["parents"] = parents
    with pytest.raises(DocumentError) as err:
        loads_network(json.dumps(doc))
    assert err.value.violations[0].startswith("tables[2].parents:")


def test_huge_integer_value_is_a_document_error(fixtures_dir):
    doc = json.loads((fixtures_dir / "bear.json").read_text())
    doc["tables"][0]["rows"][0]["values"][0] = 10**400
    with pytest.raises(DocumentError, match=r"tables\[0\]: values must be finite"):
        loads_network(json.dumps(doc))


@pytest.mark.parametrize("kind, where", [("markov", "tables[0]"), ("bayesian", "tables[30]")])
def test_wide_table_error_names_the_table(kind, where):
    with pytest.raises(TableTooLargeError) as err:
        loads_network(json.dumps(wide_document(kind, 30)))
    assert str(err.value).startswith(f"{where}: a table over 31 variables")


def _violations(doc):
    with pytest.raises(DocumentError) as err:
        loads_network(json.dumps(doc))
    return err.value.violations


def _fixture(fixtures_dir, name):
    return json.loads((fixtures_dir / f"{name}.json").read_text())


def test_self_loop_is_reported(fixtures_dir):
    doc = _fixture(fixtures_dir, "bear")
    doc["edges"].append(["B", "B"])
    assert _violations(doc) == ["edges[3]: self-loop on B"]


def test_undirected_edge_listed_twice_is_reported(fixtures_dir):
    doc = _fixture(fixtures_dir, "misconception")
    doc["edges"].append(doc["edges"][0][::-1])
    assert _violations(doc) == ["edges: duplicate edges"]


@pytest.mark.parametrize("name", ["bear", "misconception"])
def test_tables_that_are_not_a_list_are_reported(fixtures_dir, name):
    doc = _fixture(fixtures_dir, name)
    doc["tables"] = {"0": doc["tables"][0]}
    assert _violations(doc) == ["tables: must be a list"]


@pytest.mark.parametrize("edges", [None, {}, "AB", 3])
@pytest.mark.parametrize("name", ["bear", "misconception"])
def test_edges_that_are_not_a_list_are_reported(fixtures_dir, name, edges):
    doc = _fixture(fixtures_dir, name)
    doc["edges"] = edges
    assert _violations(doc) == ["edges: must be a list of vertex pairs"]


@pytest.mark.parametrize(
    "name, message",
    [
        ("bear", "tables[4]: duplicate table for B"),
        ("misconception", "tables[4]: duplicate table for clique ['A', 'B']"),
    ],
)
def test_repeated_table_is_reported(fixtures_dir, name, message):
    doc = _fixture(fixtures_dir, name)
    doc["tables"].append(doc["tables"][0])
    assert _violations(doc) == [message]


def test_repeated_child_is_reported_before_its_parents(fixtures_dir):
    doc = _fixture(fixtures_dir, "bear")
    doc["tables"].append(dict(doc["tables"][0], parents=None))
    assert _violations(doc) == ["tables[4]: duplicate table for B"]


def test_clique_order_is_reported_before_a_repeat(fixtures_dir):
    doc = _fixture(fixtures_dir, "misconception")
    doc["tables"].append(dict(doc["tables"][0], clique=["B", "A"]))
    assert _violations(doc) == [
        "tables[4].clique: must list distinct vertices in declaration order"
    ]


def test_unknown_clique_vertex_is_reported(fixtures_dir):
    doc = _fixture(fixtures_dir, "misconception")
    doc["tables"].append(dict(doc["tables"][0], clique=["A", "Z"]))
    assert _violations(doc) == ["tables[4].clique: unknown vertices ['Z']"]


def test_too_deeply_nested_json_is_a_document_error():
    with pytest.raises(DocumentError) as err:
        loads_network("[" * 100000)
    [message] = err.value.violations
    assert message.startswith("invalid JSON")


def test_file_that_is_not_utf8_is_a_document_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"{}\xff\xfe")
    with pytest.raises(DocumentError) as err:
        load_network(path)
    [message] = err.value.violations
    assert message.startswith("invalid JSON") and "byte 2" in message


def _two_variable_document():
    """B given A, with three states for B, so a row holds three values."""
    return {
        "kind": "bayesian",
        "variables": [
            {"name": "A", "states": ["a0", "a1"]},
            {"name": "B", "states": ["b0", "b1", "b2"]},
        ],
        "edges": [["A", "B"]],
        "tables": [
            {"child": "A", "parents": [], "rows": [{"given": [], "values": [0.25, 0.75]}]},
            {"child": "B", "parents": ["A"], "rows": [
                {"given": ["a0"], "values": [0.5, 0.25, 0.25]},
                {"given": ["a1"], "values": [0, 1, 0]},
            ]},
        ],
    }


_MISSING_A0 = "tables[1].rows: missing row for assignment ['a0']"
_NO_B = "tables: missing table for vertex B"


def _set_row(field, value):
    def edit(rows):
        rows[0][field] = value
    return edit


@pytest.mark.parametrize(
    "edit, violations",
    [
        (
            lambda rows: rows.__setitem__(0, "row"),
            ["tables[1].rows[0]: must be an object with given and values", _MISSING_A0, _NO_B],
        ),
        (
            _set_row("given", "a0"),
            ["tables[1].rows[0].given: must be a list of state labels", _MISSING_A0, _NO_B],
        ),
        (
            _set_row("given", [["a0"]]),
            ["tables[1].rows[0].given: must be a list of state labels", _MISSING_A0, _NO_B],
        ),
        (
            _set_row("given", ["a0", "b0"]),
            [
                "tables[1].rows[0].given: has 2 labels, expected one per "
                "conditioning variable ['A']",
                _MISSING_A0,
                _NO_B,
            ],
        ),
        (
            _set_row("given", ["a2"]),
            ["tables[1].rows[0].given: 'a2' is not a state of A", _MISSING_A0, _NO_B],
        ),
        (
            _set_row("values", ["0.5", 0.25, 0.25]),
            ["tables[1].rows[0].values: must be a list of numbers", _MISSING_A0, _NO_B],
        ),
        (
            _set_row("values", [True, 0.0, 0.0]),
            ["tables[1].rows[0].values: must be a list of numbers", _MISSING_A0, _NO_B],
        ),
        (
            _set_row("values", [0.5, 0.5]),
            [
                "tables[1].rows[0].values: has 2 entries, expected 3 (one per state of B)",
                _MISSING_A0,
                _NO_B,
            ],
        ),
        (
            lambda rows: rows.append(dict(rows[0])),
            ["tables[1].rows[2]: duplicate row for assignment ['a0']", _NO_B],
        ),
        (
            lambda rows: rows.pop(1),
            ["tables[1].rows: missing row for assignment ['a1']", _NO_B],
        ),
        (
            _set_row("values", [math.nan, 0.5, 0.5]),
            ["tables[1]: values must be finite and nonnegative", _NO_B],
        ),
        (
            _set_row("values", [-0.5, 1.0, 0.5]),
            ["tables[1]: values must be finite and nonnegative", _NO_B],
        ),
        (
            _set_row("values", [0.5, 0.25, 0.26]),
            [
                "kernel for B is flagged stochastic but 1 column(s) do not sum "
                "to 1 (worst deviation 0.01)"
            ],
        ),
        (
            _set_row("given", ("a0",)),
            ["tables[1].rows[0].given: must be a list of state labels", _MISSING_A0, _NO_B],
        ),
        (
            _set_row("given", [0]),
            ["tables[1].rows[0].given: must be a list of state labels", _MISSING_A0, _NO_B],
        ),
        (
            _set_row("values", (0.5, 0.25, 0.25)),
            ["tables[1].rows[0].values: must be a list of numbers", _MISSING_A0, _NO_B],
        ),
    ],
    ids=[
        "row-not-an-object",
        "given-not-a-list",
        "given-not-labels",
        "label-count",
        "unknown-label",
        "value-not-a-number",
        "value-is-a-bool",
        "value-count",
        "duplicate-row",
        "missing-row",
        "nan-value",
        "negative-value",
        "not-stochastic",
        "given-a-tuple",
        "given-a-number",
        "values-a-tuple",
    ],
)
def test_each_row_fault_gives_exactly_its_diagnosis(edit, violations):
    doc = _two_variable_document()
    edit(doc["tables"][1]["rows"])
    with pytest.raises(DocumentError) as err:
        document_to_network(doc)
    assert err.value.violations == violations


def test_numpy_float_values_are_accepted():
    doc = _two_variable_document()
    for row in doc["tables"][1]["rows"]:
        row["values"] = [np.float64(x) for x in row["values"]]
    net = document_to_network(doc)
    assert dumps_network(net) == dumps_network(document_to_network(_two_variable_document()))


class _Label(list):
    pass


class _Count(int):
    pass


def test_rows_of_list_and_number_subclasses_and_extra_keys_are_accepted():
    doc = _two_variable_document()
    first, second = doc["tables"][1]["rows"]
    first["given"] = _Label(first["given"])
    first["values"] = [np.float64(0.5), _Count(0), 0.5]
    second["note"] = "an extra key"
    expected = _two_variable_document()
    expected["tables"][1]["rows"][0]["values"] = [0.5, 0, 0.5]
    net = document_to_network(doc)
    assert dumps_network(net) == dumps_network(document_to_network(expected))


def test_faults_in_two_tables_are_listed_in_table_order():
    doc = _two_variable_document()
    doc["tables"][1]["rows"][1]["values"] = [1.0]
    doc["tables"][0]["rows"][0]["given"] = ["a0"]
    assert _violations(doc) == [
        "tables[0].rows[0].given: has 1 labels, expected one per conditioning "
        "variable []",
        "tables[0].rows: missing row for assignment []",
        "tables[1].rows[1].values: has 1 entries, expected 3 (one per state of B)",
        "tables[1].rows: missing row for assignment ['a1']",
        "tables: missing table for vertex A",
        "tables: missing table for vertex B",
    ]


def test_cliques_missing_from_the_graph_are_listed_in_sorted_order(fixtures_dir):
    doc = _fixture(fixtures_dir, "misconception")
    doc["tables"] = [
        {"clique": [u, w], "rows": [{"given": [s], "values": [1.0, 2.0]} for s in given]}
        for u, w, given in (("B", "D", ["b", "nb"]), ("A", "C", ["a", "na"]))
    ]
    assert _violations(doc) == [
        "factor key ['A', 'C'] is not a clique of the graph",
        "factor key ['B', 'D'] is not a clique of the graph",
    ]


def test_chain_fixture_is_the_helpers_chain(fixtures_dir):
    text = (fixtures_dir / "chain.json").read_text()
    assert dumps_network(mixed_chain_mn(np.random.default_rng(40), 40)) == text


def test_wide_range_fixture_is_the_helpers_network(fixtures_dir):
    text = (fixtures_dir / "wide_range.json").read_text()
    assert dumps_network(wide_range_mn()) == text
