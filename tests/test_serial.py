"""Document round trips, validation reporting, canonicalization."""

import json

import numpy as np
import pytest

import chordalnet.networks
from chordalnet import (
    DocumentError,
    MarkovNetwork,
    TableTooLargeError,
    document_to_network,
    dumps_network,
    load_network,
    loads_network,
    mn_partition,
    network_to_document,
)
from helpers import chain_bn, random_bn, random_cn, random_mn, wide_document


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
    monkeypatch.setattr(chordalnet.networks, "MAX_TABLE_ENTRIES", 1 << 10)
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
