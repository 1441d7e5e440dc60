"""Command line behaviour: transforms, reports, exit codes, determinism."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import numpy as np

import chordalnet
import chordalnet.factors
import chordalnet.transforms
from chordalnet import (
    BayesianNetwork,
    ChordalNetwork,
    Kernel,
    OrderedDag,
    VariableTable,
    dumps_network,
    load_network,
    loads_network,
    marginal_distribution,
    variable_elimination,
)
from chordalnet.cli import _print_table, build_parser, main
from helpers import (
    chain_bn,
    chain_mn,
    hub_last_star,
    oracle_chain_log_partition,
    wide_document,
    zero_behind_overflow_cn,
)


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

    @pytest.mark.parametrize(
        "command, conversion, document",
        [
            ("moralise", "moralise_bn", "fixtures/bear.json"),
            ("triangulate", "triangulate_mn", "fixtures/misconception.json"),
            ("ve", "variable_elimination", "golden/triangulate_misconception.json"),
            ("tr", "mn_to_bn", "fixtures/misconception.json"),
            ("trmor", "triangulate_bn", "fixtures/bear.json"),
        ],
    )
    def test_each_transform_calls_its_conversion_at_call_time(
        self, capsys, monkeypatch, fixtures_dir, command, conversion, document
    ):
        # A wrapper put in ``transforms`` after import, as a tracer's span
        # is, must be the function the command runs.
        path = str(fixtures_dir.parent / document)
        expected = run(capsys, command, path)
        original = getattr(chordalnet.transforms, conversion)
        calls = []

        def spy(net):
            calls.append(net)
            return original(net)

        monkeypatch.setattr(chordalnet.transforms, conversion, spy)
        assert run(capsys, command, path) == expected
        assert expected[0] == 0 and len(calls) == 1

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

    @pytest.mark.parametrize(
        "command, fixture",
        [
            ("tr", "misconception"),
            ("tr", "chain"),
            ("tr", "wide_range"),
            ("triangulate", "misconception"),
            ("moralise", "bear"),
            ("trmor", "bear"),
        ],
    )
    def test_stdout_matches_golden_file(self, capsys, fixtures_dir, command, fixture):
        code, text, err = run(capsys, command, str(fixtures_dir / f"{fixture}.json"))
        assert code == 0 and err == ""
        golden = fixtures_dir.parent / "golden" / f"{command}_{fixture}.json"
        assert text.encode() == golden.read_bytes()


class TestOutOfRangeKernels:
    """A kernel that a transform builds outside the range of a double is a
    semantic failure: exit 3, nothing on stdout, no numpy warning."""

    PREFIX = "table values must be finite and nonnegative: "

    def quiet_run(self, capsys, *argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(capsys, *argv)

    @pytest.mark.parametrize("command", ["triangulate", "tr"])
    def test_markov_product_overflow(self, capsys, fixtures_dir, command):
        path = str(fixtures_dir / "out_of_range.json")
        code, text, err = self.quiet_run(capsys, command, path)
        assert code == 3 and text == ""
        assert err.startswith(self.PREFIX) and "vertex B " in err
        assert "Warning" not in err

    def test_elimination_overflow(self, capsys, tmp_path):
        # B passes A a mass of 1.9, and A's kernel is near the largest double:
        # A's working table overflows, and its exact rebuild is answered.
        vt = VariableTable((("A", ("a0", "a1")), ("B", ("b0", "b1"))))
        cnw = ChordalNetwork(
            OrderedDag(("A", "B"), {("A", "B")}),
            vt,
            {
                "A": Kernel("A", (), [1.7e308, 1.7e308], stochastic=False),
                "B": Kernel("B", ("A",), [1.5, 0.4, 1.5, 0.4], stochastic=False),
            },
        )
        path = tmp_path / "cn.json"
        path.write_text(dumps_network(cnw))
        code, text, err = self.quiet_run(capsys, "ve", str(path))
        assert code == 0 and err == ""
        bn = loads_network(text)
        np.testing.assert_allclose(bn.kernels["A"].values, [0.5, 0.5], rtol=1e-12)
        np.testing.assert_allclose(
            bn.kernels["B"].values, [1.5 / 1.9, 0.4 / 1.9] * 2, rtol=1e-12
        )
        _, trace = variable_elimination(cnw)
        assert trace.log_partition() == pytest.approx(
            math.log(2 * 1.7 * 1.9) + 308 * math.log(10), rel=1e-12
        )


class TestReports:
    def test_joint_table_shape(self, capsys, misconception_path):
        code, text, _ = run(capsys, "joint", misconception_path)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "A B C D"
        assert len(lines) == 17
        assert lines[1] == "a b c d 100000.000000"

    @pytest.mark.parametrize("name", ["misconception.json", "bear.json"])
    def test_joint_prints_the_marginal_over_every_vertex(
        self, capsys, fixtures_dir, name
    ):
        net = load_network(fixtures_dir / name)
        table = marginal_distribution(net, list(net.graph.vertices))
        _print_table(net, table.vars, table.values)
        want = capsys.readouterr().out
        code, text, _ = run(capsys, "joint", str(fixtures_dir / name))
        assert code == 0 and text == want

    def test_partition(self, capsys, misconception_path):
        code, text, _ = run(capsys, "partition", misconception_path)
        assert code == 0
        assert text.strip() == "7201840"

    def test_partition_of_tables_wider_than_a_double(self, capsys, fixtures_dir):
        # Each table of wide_range.json spans 1e400; Z is 4e-100.
        code, text, _ = run(capsys, "partition", str(fixtures_dir / "wide_range.json"))
        assert code == 0
        assert text == "4.0000000000000001e-100\n"

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

    def test_jtree_on_a_disconnected_network(self, capsys, tmp_path):
        # Two components, A-B and C-D-E, joined by an empty separator.
        vt = VariableTable(tuple((v, ("0", "1")) for v in "ABCDE"))
        dag = OrderedDag(vt.names, {("A", "B"), ("C", "D"), ("C", "E"), ("D", "E")})
        half = [0.5, 0.5]
        bn = BayesianNetwork(
            dag,
            vt,
            {
                "A": Kernel("A", (), half),
                "B": Kernel("B", ("A",), half * 2),
                "C": Kernel("C", (), half),
                "D": Kernel("D", ("C",), half * 2),
                "E": Kernel("E", ("C", "D"), half * 4),
            },
        )
        path = tmp_path / "two.json"
        path.write_text(dumps_network(bn))
        code, text, _ = run(capsys, "jtree", str(path))
        assert code == 0
        assert text == (
            "cluster 0: A B\n"
            "cluster 1: C D E\n"
            "edge 0-1 sepset: \n"
            "running intersection: ok\n"
        )

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

    def test_zero_total_behind_overflow_is_degenerate(self, capsys, tmp_path):
        # Z is exactly 0, though A's working table is inf * 0 = NaN.
        path = tmp_path / "hidden.json"
        path.write_text(dumps_network(zero_behind_overflow_cn()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text, err = run(capsys, "ve", str(path))
        assert code == 3 and text == ""
        assert err == (
            "degenerate network: the mass table at vertex A is identically zero\n"
        )

    def test_one_parser_serves_repeated_calls(self, capsys, tmp_path, fixtures_dir):
        # main builds its parser once per process; each call must still
        # behave as the first call of a fresh process would.
        doc = json.loads((fixtures_dir / "bear.json").read_text())
        doc["tables"][2]["parents"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        tr = ("tr", str(fixtures_dir / "misconception.json"))
        calls = [("frobnicate",), tr, ("check", str(bad)), tr]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        build_parser.cache_clear()
        repeated = [run(capsys, *argv) for argv in calls]
        assert build_parser.cache_info().misses == 1
        assert repeated == fresh
        assert [code for code, _, _ in repeated] == [1, 0, 2, 0]
        golden = (fixtures_dir.parent / "golden" / "tr_misconception.json").read_bytes()
        assert repeated[1][1].encode() == repeated[3][1].encode() == golden

    @pytest.mark.parametrize(
        "n_parents, cap, entries",
        [(30, None, "2,147,483,648"), (12, 1 << 10, "8,192")],
        ids=["30-parents", "12-parents-cap-2**10"],
    )
    @pytest.mark.parametrize("command", ["check", "joint"])
    def test_wide_document_table_is_exit_three(
        self, capsys, tmp_path, monkeypatch, command, n_parents, cap, entries
    ):
        if cap is not None:
            monkeypatch.setattr(chordalnet.factors, "MAX_TABLE_ENTRIES", cap)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(wide_document("bayesian", n_parents)))
        code, text, err = run(capsys, command, str(path))
        assert code == 3 and text == ""
        assert f"{entries} entries" in err
        assert err.startswith(f"tables[{n_parents}]: a table over")

    @pytest.mark.parametrize("command", ["tr", "triangulate"])
    def test_family_above_the_cap_is_exit_three(
        self, capsys, fixtures_dir, tmp_path, command
    ):
        # Leaves first, hub last: leaf L24's family has 25 binary variables.
        out = tmp_path / "out.json"
        path = str(fixtures_dir / "hub_last.json")
        code, text, err = run(capsys, command, path, "-o", str(out))
        assert code == 3 and text == "" and not out.exists()
        assert err == (
            "vertex L24: a table over 25 variables would have 33,554,432 "
            "entries, more than the cap of 16,777,216\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [("partition",), ("marginal", "--vars", "L0")],
        ids=["partition", "marginal"],
    )
    def test_bucket_above_the_cap_is_exit_three(self, capsys, fixtures_dir, argv):
        # The hub, declared last, is summed out first, over all 41 vertices.
        path = str(fixtures_dir / "hub_last.json")
        code, text, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 3 and text == ""
        assert err == (
            "vertex H: a table over 41 variables would have 2,199,023,255,552 "
            "entries, more than the cap of 16,777,216\n"
        )

    def test_hub_last_fixture_is_the_forty_leaf_star(self, fixtures_dir):
        text = (fixtures_dir / "hub_last.json").read_text()
        assert text == dumps_network(hub_last_star(40))

    def test_missing_file_is_exit_two(self, capsys):
        assert run(capsys, "joint", "/nonexistent/net.json")[0] == 2

    def test_check_reads_stdin_and_reports_on_stdout(
        self, capsys, monkeypatch, bear_path
    ):
        doc = json.loads(open(bear_path).read())
        doc["tables"][2]["parents"] = None
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, text, err = run(capsys, "check", "-")
        assert code == 2 and err == ""
        assert text.startswith("tables[2].parents: must be a list of vertex names")

    def test_check_missing_file_is_exit_two(self, capsys):
        code, text, err = run(capsys, "check", "/nonexistent/net.json")
        assert code == 2 and text == ""
        assert err.startswith("cannot read /nonexistent/net.json: ")

    @pytest.mark.parametrize(
        "command, wanted",
        [("trmor", "bayesian"), ("ve", "chordal"), ("jtree", "bayesian or chordal")],
    )
    def test_wrong_kind_names_both_kinds(
        self, capsys, misconception_path, command, wanted
    ):
        code, _, err = run(capsys, command, misconception_path)
        assert code == 2
        assert err == f"{command} needs a {wanted} document, got kind 'markov'\n"

    def test_check_parents_null_is_exit_two(self, capsys, tmp_path, bear_path):
        doc = json.loads(open(bear_path).read())
        doc["tables"][2]["parents"] = None
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, text, err = run(capsys, "check", str(path))
        assert code == 2 and err == ""
        assert text.splitlines() == [
            "tables[2].parents: must be a list of vertex names",
            "tables: missing table for vertex A",
        ]

    def test_unwritable_output_is_exit_two(self, capsys, misconception_path):
        out = "/nonexistent/dir/out.json"
        code, text, err = run(capsys, "tr", misconception_path, "-o", out)
        assert code == 2 and text == ""
        assert err.startswith(f"cannot write {out}: ")

    def test_marginal_with_no_variable_is_exit_two(self, capsys, bear_path):
        code, _, err = run(capsys, "marginal", bear_path, "--vars", ",")
        assert code == 2
        assert err == "--vars needs at least one variable\n"

    def test_jtree_on_a_collider_is_exit_three(self, capsys, tmp_path):
        vt = VariableTable(tuple((v, ("0", "1")) for v in "ABC"))
        dag = OrderedDag(vt.names, {("A", "C"), ("B", "C")})
        half = [0.5, 0.5]
        bn = BayesianNetwork(
            dag,
            vt,
            {
                "A": Kernel("A", (), half),
                "B": Kernel("B", (), half),
                "C": Kernel("C", ("A", "B"), half * 4),
            },
        )
        path = tmp_path / "collider.json"
        path.write_text(dumps_network(bn))
        code, text, err = run(capsys, "jtree", str(path))
        assert code == 3 and text == ""
        assert err == "junction_tree requires an ordered chordal graph\n"

    def test_check_on_a_file_that_is_not_utf8_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        code, text, err = run(capsys, "check", str(path))
        assert code == 2 and err == ""
        assert len(text.splitlines()) == 1 and text.startswith("invalid JSON")

    def test_stdin_that_is_not_utf8_is_exit_two(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, text, err = run(capsys, "tr", "-")
        assert code == 2 and text == ""
        assert len(err.splitlines()) == 1 and err.startswith("invalid JSON")

    def test_stdin_is_read_as_utf8_whatever_its_encoding(
        self, tmp_path, misconception_path
    ):
        doc = json.loads(open(misconception_path).read())
        doc["variables"][0]["states"][0] = "\u00e9"
        for table in doc["tables"]:
            for row in table["rows"]:
                row["given"] = ["\u00e9" if s == "a" else s for s in row["given"]]
        path = tmp_path / "accent.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        env = dict(os.environ, PYTHONIOENCODING="latin-1")
        env["PYTHONPATH"] = str(Path(chordalnet.__file__).parents[1])
        command = [sys.executable, "-m", "chordalnet.cli", "tr"]
        outputs = [
            subprocess.run(
                command + [arg], input=stdin, capture_output=True, env=env, timeout=60
            )
            for arg, stdin in (("-", path.read_bytes()), (str(path), b""))
        ]
        assert [p.returncode for p in outputs] == [0, 0]
        assert outputs[0].stdout == outputs[1].stdout
        assert b'"\\u00e9"' in outputs[0].stdout

    def test_too_deeply_nested_stdin_is_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100000))
        code, text, err = run(capsys, "tr", "-")
        assert code == 2 and text == ""
        assert len(err.splitlines()) == 1 and err.startswith("invalid JSON")


# Each subcommand in parser order: its help line, then each argument as
# (dest, option strings, required, default, help), after -h.
_INPUT = ("input", (), True, None, "input document path, or - for stdin")
_TRANSFORM_ARGS = [
    ("input", (), True, None, "input document path, or - for stdin"),
    ("output", ("-o", "--output"), False, None, "output path, or - for stdout"),
]
_SEPARATION_ARGS = [
    _INPUT,
    ("x", ("--x",), True, None, "comma-separated vertex names"),
    ("y", ("--y",), True, None, "comma-separated vertex names"),
    (
        "given",
        ("--given",),
        False,
        "",
        "comma-separated conditioning vertices; none if omitted",
    ),
]
PARSER_TABLE = [
    ("moralise", "bayesian -> markov on the moral graph", _TRANSFORM_ARGS),
    ("triangulate", "markov -> chordal on the triangulated graph", _TRANSFORM_ARGS),
    ("ve", "chordal -> bayesian by variable elimination", _TRANSFORM_ARGS),
    ("tr", "markov -> bayesian (triangulate then eliminate)", _TRANSFORM_ARGS),
    (
        "trmor",
        "bayesian -> bayesian over the triangulated moral graph",
        _TRANSFORM_ARGS,
    ),
    ("joint", "print the full joint / unnormalized table", [_INPUT]),
    (
        "marginal",
        "print a marginal, summing the other variables out by elimination",
        [_INPUT, ("vars", ("--vars",), True, None, "comma-separated variable names")],
    ),
    ("partition", "print the total mass Z", [_INPUT]),
    ("jtree", "print the junction tree of a chordal-graph document", [_INPUT]),
    ("dsep", "directed separation query", _SEPARATION_ARGS),
    ("usep", "undirected separation query", _SEPARATION_ARGS),
    ("check", "validate a document; exit 0 iff it passes", [_INPUT]),
]


class TestParser:
    def test_every_subcommand_and_its_arguments(self):
        (sub,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        helps = {c.dest: c.help for c in sub._choices_actions}
        seen = []
        for name, parser in sub.choices.items():
            help_action, *actions = parser._actions
            assert help_action.option_strings == ["-h", "--help"]
            args = [
                (a.dest, tuple(a.option_strings), a.required, a.default, a.help)
                for a in actions
            ]
            seen.append((name, helps[name], args))
        assert seen == PARSER_TABLE
