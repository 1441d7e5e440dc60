"""Command line behaviour: transforms, reports, exit codes, determinism."""

import json

import pytest

import numpy as np

from chordalnet import dumps_network
from chordalnet.cli import main
from helpers import chain_bn, chain_mn, oracle_chain_log_partition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def misconception_path(fixtures_dir):
    return str(fixtures_dir / "misconception.json")


@pytest.fixture
def bear_path(fixtures_dir):
    return str(fixtures_dir / "bear.json")


class TestTransforms:
    def test_tr_then_marginal_gives_published_value(
        self, capsys, tmp_path, misconception_path
    ):
        out = tmp_path / "bn.json"
        code, _, _ = run(capsys, "tr", misconception_path, "-o", str(out))
        assert code == 0
        code, text, _ = run(capsys, "marginal", str(out), "--vars", "A")
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "A"
        value = float(lines[1].split()[-1])
        assert value == pytest.approx(0.1806, abs=1e-4)
        assert lines[1].startswith("a 0.180")

    def test_pipeline_equality_tr_vs_triangulate_then_ve(
        self, capsys, tmp_path, misconception_path
    ):
        chordal = tmp_path / "cn.json"
        via_ve = tmp_path / "bn1.json"
        direct = tmp_path / "bn2.json"
        assert run(capsys, "triangulate", misconception_path, "-o", str(chordal))[0] == 0
        assert run(capsys, "ve", str(chordal), "-o", str(via_ve))[0] == 0
        assert run(capsys, "tr", misconception_path, "-o", str(direct))[0] == 0
        assert via_ve.read_bytes() == direct.read_bytes()

    def test_moralise_then_tr_roundtrip(self, capsys, tmp_path, bear_path):
        mn = tmp_path / "mn.json"
        assert run(capsys, "moralise", bear_path, "-o", str(mn))[0] == 0
        doc = json.loads(mn.read_text())
        assert doc["kind"] == "markov"
        assert ["B", "E"] in doc["edges"]

    def test_trmor_outputs_bayesian(self, capsys, tmp_path, bear_path):
        out = tmp_path / "bn.json"
        assert run(capsys, "trmor", bear_path, "-o", str(out))[0] == 0
        assert json.loads(out.read_text())["kind"] == "bayesian"

    def test_transform_to_stdout(self, capsys, misconception_path):
        code, text, _ = run(capsys, "triangulate", misconception_path)
        assert code == 0
        assert json.loads(text)["kind"] == "chordal"

    def test_wrong_kind_is_validation_error(self, capsys, bear_path):
        code, _, err = run(capsys, "triangulate", bear_path)
        assert code == 2
        assert "markov" in err

    def test_deterministic_output(self, capsys, misconception_path):
        first = run(capsys, "tr", misconception_path)
        second = run(capsys, "tr", misconception_path)
        assert first == second


class TestReports:
    def test_joint_table_shape(self, capsys, misconception_path):
        code, text, _ = run(capsys, "joint", misconception_path)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "A B C D"
        assert len(lines) == 17
        assert lines[1] == "a b c d 100000.000000"

    def test_partition(self, capsys, misconception_path):
        code, text, _ = run(capsys, "partition", misconception_path)
        assert code == 0
        assert text.strip() == "7201840"

    def test_marginal_normalized_for_bayesian(self, capsys, tmp_path, bear_path):
        code, text, _ = run(capsys, "marginal", bear_path, "--vars", "B,E")
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "B E"
        total = sum(float(line.split()[-1]) for line in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_forty_variable_chain(self, capsys, tmp_path):
        # The joint would have 2**40 entries; partition and marginal never
        # build it.
        path = tmp_path / "chain.json"
        path.write_text(dumps_network(chain_bn(np.random.default_rng(41), 40)))
        code, text, err = run(capsys, "joint", str(path))
        assert code == 3 and text == ""
        assert "1,099,511,627,776 entries" in err
        code, text, _ = run(capsys, "partition", str(path))
        assert code == 0 and float(text) == pytest.approx(1.0, rel=1e-12)
        code, text, _ = run(capsys, "marginal", str(path), "--vars", "x39,x0")
        assert code == 0 and text.splitlines()[0] == "x0 x39"
        total = sum(float(line.split()[-1]) for line in text.splitlines()[1:])
        assert total == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize(
        "low, high",
        [(1.0, 3.0), (0.01, 0.1)],
        ids=["z-overflows", "z-underflows"],
    )
    def test_result_outside_double_range_is_exit_three(
        self, capsys, tmp_path, low, high
    ):
        mn = chain_mn(np.random.default_rng(600), 600, low, high)
        path = tmp_path / "chain.json"
        path.write_text(dumps_network(mn))
        log_z = oracle_chain_log_partition(mn)
        for argv in (("partition", str(path)), ("marginal", str(path), "--vars", "x0")):
            code, text, err = run(capsys, *argv)
            assert code == 3 and text == ""
            assert float(err.split()[-1]) == pytest.approx(log_z, rel=1e-12)

    def test_joint_outside_double_range_is_exit_three(self, capsys, tmp_path):
        # Eleven pair factors of about 1e30 overflow in every entry.
        mn = chain_mn(np.random.default_rng(12), 12, 1e30, 2e30)
        path = tmp_path / "chain.json"
        path.write_text(dumps_network(mn))
        code, text, err = run(capsys, "joint", str(path))
        assert code == 3 and text == ""
        assert float(err.split()[-1]) == pytest.approx(
            oracle_chain_log_partition(mn), rel=1e-12
        )

    def test_marginal_unknown_variable(self, capsys, bear_path):
        code, _, err = run(capsys, "marginal", bear_path, "--vars", "Q")
        assert code == 2 and "unknown" in err

    def test_jtree_on_triangulated_misconception(
        self, capsys, tmp_path, misconception_path
    ):
        chordal = tmp_path / "cn.json"
        run(capsys, "triangulate", misconception_path, "-o", str(chordal))
        code, text, _ = run(capsys, "jtree", str(chordal))
        assert code == 0
        assert text.splitlines() == [
            "cluster 0: A B C",
            "cluster 1: A C D",
            "edge 0-1 sepset: A C",
            "running intersection: ok",
        ]

    def test_jtree_needs_directed_kind(self, capsys, misconception_path):
        code, _, err = run(capsys, "jtree", misconception_path)
        assert code == 2

    def test_dsep_and_usep(self, capsys, tmp_path, bear_path, misconception_path):
        code, text, _ = run(capsys, "dsep", bear_path, "--x", "B", "--y", "E")
        assert code == 0 and text.strip() == "true"
        code, text, _ = run(
            capsys, "dsep", bear_path, "--x", "B", "--y", "E", "--given", "A"
        )
        assert code == 0 and text.strip() == "false"
        code, text, _ = run(
            capsys, "usep", misconception_path, "--x", "A", "--y", "C", "--given", "B,D"
        )
        assert code == 0 and text.strip() == "true"
        code, text, _ = run(capsys, "usep", misconception_path, "--x", "A", "--y", "C")
        assert code == 0 and text.strip() == "false"

    def test_dsep_overlap_is_validation_error(self, capsys, bear_path):
        code, _, err = run(
            capsys, "dsep", bear_path, "--x", "B", "--y", "B", "--given", "E"
        )
        assert code == 2 and "disjoint" in err


class TestCheckAndExitCodes:
    def test_check_valid_fixture(self, capsys, misconception_path):
        assert run(capsys, "check", misconception_path)[0] == 0

    def test_check_reports_all_violations(self, capsys, tmp_path, misconception_path):
        doc = json.loads(open(misconception_path).read())
        doc["tables"][0]["rows"].pop(0)
        doc["tables"][1]["rows"][0]["values"] = [1.0, -2.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, text, _ = run(capsys, "check", str(bad))
        assert code == 2
        assert "missing row" in text and "nonnegative" in text

    def test_usage_error_is_exit_one(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1
        assert run(capsys)[0] == 1

    def test_parse_error_is_exit_two(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        code, _, err = run(capsys, "joint", str(broken))
        assert code == 2 and "invalid JSON" in err

    def test_degenerate_ve_is_exit_three(self, capsys, tmp_path):
        doc = {
            "kind": "chordal",
            "variables": [{"name": "A", "states": ["0", "1"]}],
            "edges": [],
            "tables": [
                {"child": "A", "parents": [], "rows": [{"given": [], "values": [0.0, 0.0]}]}
            ],
        }
        path = tmp_path / "dead.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ve", str(path))
        assert code == 3 and "degenerate" in err

    def test_missing_file_is_exit_two(self, capsys):
        assert run(capsys, "joint", "/nonexistent/net.json")[0] == 2
