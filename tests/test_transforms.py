"""Moralisation, triangulation, variable elimination and the fast path.

The misconception network is the worked regression: its sixteen published
conditional values, partition constant 7,201,840, triangulated edge set,
and exact roundtrip are all asserted here.  Corpus-level preservation
claims run at acceptance scale in test_acceptance.py; here they run on
smaller seeded samples.
"""

import copy
import hashlib
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chordalnet.factors
import chordalnet.morphisms
import chordalnet.transforms

from chordalnet import (
    BayesianNetwork,
    ChordalNetwork,
    DegenerateDistributionError,
    Factor,
    GraphHom,
    Kernel,
    MarkovNetwork,
    OrderedDag,
    OrderedUGraph,
    OutOfRangeError,
    PearlVertexUpdate,
    TableTooLargeError,
    VariableTable,
    bn_joint,
    check_hom,
    cn_product,
    dumps_network,
    factor_entry,
    is_ordered_chordal,
    kernel_to_factor,
    load_network,
    marginal_distribution,
    mn_partition,
    mn_to_bn,
    mn_unnormalized,
    moralise_bn,
    moralise_cn,
    network_violations,
    pearl_update,
    require_valid,
    triangulate_bn,
    triangulate_graph,
    triangulate_mn,
    variable_elimination,
    vstructure_counterexample,
)
from helpers import (
    bear_bn,
    chain_bn,
    chain_mn,
    hub_first_star,
    hub_last_star,
    oracle_chain_log_partition,
    oracle_mn_table,
    random_bn,
    random_cn,
    random_mn,
    random_order_grid,
    reference_triangulate_mn,
    reference_variable_elimination,
    zero_behind_overflow_cn,
)


def binary_vt(*names):
    return VariableTable(tuple((n, ("0", "1")) for n in names))


def kernel_column(net, v, parent_assignment):
    """Child column of a kernel at a parent assignment given by labels."""
    k = net.kernels[v]
    f = kernel_to_factor(k, net.vt)
    values = []
    for state in net.vt.states(v):
        assignment = dict(parent_assignment)
        assignment[v] = state
        values.append(factor_entry(f, assignment, net.vt))
    return values


class TestMoraliseBn:
    def test_bear_factor_placement(self):
        mn = moralise_bn(bear_bn())
        assert set(mn.factors) == {
            frozenset({"B"}),
            frozenset({"E"}),
            frozenset({"B", "E", "A"}),
            frozenset({"E", "R"}),
        }
        assert mn.graph.has_edge("B", "E")

    def test_single_vertex(self):
        vt = binary_vt("A")
        bn = BayesianNetwork(OrderedDag(("A",)), vt, {"A": Kernel("A", (), [0.3, 0.7])})
        mn = moralise_bn(bn)
        assert set(mn.factors) == {frozenset({"A"})}
        assert np.array_equal(mn.factors[frozenset({"A"})].values, [0.3, 0.7])

    def test_chain_preserves_distribution(self):
        vt = binary_vt("A", "B")
        bn = BayesianNetwork(
            OrderedDag(("A", "B"), {("A", "B")}),
            vt,
            {
                "A": Kernel("A", (), [0.25, 0.75]),
                "B": Kernel("B", ("A",), [0.9, 0.1, 0.2, 0.8]),
            },
        )
        table = mn_unnormalized(moralise_bn(bn))
        np.testing.assert_allclose(
            table.values / table.values.sum(), bn_joint(bn).values, rtol=1e-12
        )

    def test_preservation_on_seeded_corpus(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            bn = random_bn(rng)
            table = mn_unnormalized(moralise_bn(bn))
            normalized = table.values / table.values.sum()
            assert np.max(np.abs(normalized - bn_joint(bn).values)) <= 1e-9


class TestMoraliseCn:
    def test_misconception_product_survives_exactly(self, misconception):
        mn = moralise_cn(triangulate_mn(misconception))
        assert np.array_equal(
            mn_unnormalized(mn).values, mn_unnormalized(misconception).values
        )

    def test_single_vertex(self):
        vt = binary_vt("A")
        cnw = ChordalNetwork(
            OrderedDag(("A",)), vt, {"A": Kernel("A", (), [2.0, 3.0], stochastic=False)}
        )
        mn = moralise_cn(cnw)
        assert set(mn.factors) == {frozenset({"A"})}
        assert np.array_equal(mn.factors[frozenset({"A"})].values, [2.0, 3.0])

    def test_complete_dag_places_one_factor_per_vertex(self):
        vt = binary_vt("A", "B", "C")
        graph = OrderedDag(("A", "B", "C"), {("A", "B"), ("A", "C"), ("B", "C")})
        kernels = {
            "A": Kernel("A", (), [1.0, 2.0], stochastic=False),
            "B": Kernel("B", ("A",), [1.0, 2.0, 3.0, 4.0], stochastic=False),
            "C": Kernel("C", ("A", "B"), np.arange(1.0, 9.0), stochastic=False),
        }
        mn = moralise_cn(ChordalNetwork(graph, vt, kernels))
        assert set(mn.factors) == {
            frozenset({"A"}),
            frozenset({"A", "B"}),
            frozenset({"A", "B", "C"}),
        }


class TestTriangulateMn:
    def test_misconception_kernels(self, misconception):
        cnw = triangulate_mn(misconception)
        assert sorted(cnw.graph.edges) == [
            ("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("C", "D"),
        ]
        # f_D = phi_CD * phi_AD over parents (A, C)
        assert kernel_column(cnw, "D", {"A": "a", "C": "c"}) == [100.0, 100.0]
        assert kernel_column(cnw, "D", {"A": "a", "C": "nc"}) == [10000.0, 1.0]
        assert kernel_column(cnw, "D", {"A": "na", "C": "c"}) == [1.0, 10000.0]
        # f_C = phi_BC, constant over the forced input A
        assert kernel_column(cnw, "C", {"A": "a", "B": "b"}) == [100.0, 1.0]
        assert kernel_column(cnw, "C", {"A": "na", "B": "b"}) == [100.0, 1.0]
        # f_B = phi_AB, f_A = all ones
        assert kernel_column(cnw, "B", {"A": "a"}) == [10.0, 1.0]
        assert kernel_column(cnw, "A", {}) == [1.0, 1.0]

    def test_absent_factors_give_all_ones(self):
        vt = binary_vt("A", "B")
        mn = MarkovNetwork(OrderedUGraph(("A", "B"), {frozenset(("A", "B"))}), vt, {})
        cnw = triangulate_mn(mn)
        assert np.array_equal(cnw.kernels["A"].values, [1.0, 1.0])
        assert np.array_equal(cnw.kernels["B"].values, np.ones(4))

    def test_product_preserved_exactly(self, misconception):
        cnw = triangulate_mn(misconception)
        assert np.array_equal(
            cn_product(cnw).values, mn_unnormalized(misconception).values
        )

    def test_product_preserved_on_seeded_corpus(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            mn = random_mn(rng)
            cnw = triangulate_mn(mn)
            left = cn_product(cnw).values
            right = mn_unnormalized(mn).values
            np.testing.assert_allclose(left, right, rtol=1e-12, atol=0)


class TestTriangulateMnAgainstReference:
    """The shared product against ``factor_product`` chains, bit for bit.

    Cards run from 2 to 10, and some networks keep few or none of their
    factors, so that vertices which consume no factor occur.
    """

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 0.5, 0.0]))
    def test_bytes_match_the_factor_products(self, seed, keep):
        rng = np.random.default_rng(seed)
        mn = random_mn(rng, n_max=5, max_card=10)
        factors = {c: f for c, f in mn.factors.items() if rng.random() < keep}
        mn = MarkovNetwork(mn.graph, mn.vt, factors)
        got, want = triangulate_mn(mn), reference_triangulate_mn(mn)
        assert got.graph == want.graph
        for v in mn.graph.vertices:
            assert got.kernels[v].parents == want.kernels[v].parents
            assert got.kernels[v].values.tobytes() == want.kernels[v].values.tobytes()


class TestVariableElimination:
    def test_misconception_published_conditionals(self, misconception):
        bn, _ = variable_elimination(triangulate_mn(misconception))
        expected = {
            ("D", ("a", "c")): 0.5,
            ("D", ("a", "nc")): 0.9999,
            ("D", ("na", "c")): 0.0001,
            ("D", ("na", "nc")): 0.5,
            ("C", ("a", "b")): 0.6666,
            ("C", ("a", "nb")): 0.0002,
            ("C", ("na", "b")): 0.9998,
            ("C", ("na", "nb")): 0.3334,
            ("B", ("a",)): 0.2307,
            ("B", ("na",)): 0.8475,
            ("A", ()): 0.1806,
        }
        for (v, parent_labels), value in expected.items():
            parents = bn.kernels[v].parents
            column = kernel_column(bn, v, dict(zip(parents, parent_labels)))
            assert column[0] == pytest.approx(value, abs=1e-4)
            assert column[1] == pytest.approx(1.0 - value, abs=1e-4)

    def test_stochastic_input_is_fixed_point(self):
        rng = np.random.default_rng(71)
        bn = random_bn(rng)
        while not is_ordered_chordal(bn.graph):
            bn = random_bn(rng)
        cnw = ChordalNetwork(bn.graph, bn.vt, bn.kernels)
        out, trace = variable_elimination(cnw)
        for v in bn.graph.vertices:
            np.testing.assert_allclose(
                out.kernels[v].values, bn.kernels[v].values, rtol=1e-12
            )
        for step in trace.steps:
            np.testing.assert_allclose(step.lam.values, 1.0, rtol=1e-12)

    def test_two_vertex_hand_case(self):
        vt = binary_vt("A", "B")
        cnw = ChordalNetwork(
            OrderedDag(("A", "B"), {("A", "B")}),
            vt,
            {
                "A": Kernel("A", (), [3.0, 1.0], stochastic=False),
                "B": Kernel("B", ("A",), [2.0, 2.0, 2.0, 2.0], stochastic=False),
            },
        )
        bn, trace = variable_elimination(cnw)
        assert np.array_equal(bn.kernels["B"].values, [0.5, 0.5, 0.5, 0.5])
        assert np.array_equal(bn.kernels["A"].values, [0.75, 0.25])
        assert trace.partition_mass() == 16.0
        assert [s.vertex for s in trace.steps] == ["B", "A"]
        assert trace.steps[0].absorbed_into == "A"
        assert trace.steps[1].absorbed_into is None

    def test_zero_column_is_legal_but_zero_mass_fails(self):
        vt = binary_vt("A", "B")
        graph = OrderedDag(("A", "B"), {("A", "B")})
        # one zero column elsewhere is fine
        cnw = ChordalNetwork(
            graph,
            vt,
            {
                "A": Kernel("A", (), [1.0, 0.0], stochastic=False),
                "B": Kernel("B", ("A",), [1.0, 1.0, 0.0, 0.0], stochastic=False),
            },
        )
        bn, _ = variable_elimination(cnw)
        assert np.array_equal(bn.kernels["B"].values, [0.5, 0.5, 0.5, 0.5])
        # a fully zero mass names the offending vertex
        dead = ChordalNetwork(
            graph,
            vt,
            {
                "A": Kernel("A", (), [1.0, 1.0], stochastic=False),
                "B": Kernel("B", ("A",), [0.0, 0.0, 0.0, 0.0], stochastic=False),
            },
        )
        with pytest.raises(DegenerateDistributionError, match="vertex B"):
            variable_elimination(dead)

    def test_joint_matches_normalized_product(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            cnw = random_cn(rng)
            bn, _ = variable_elimination(cnw)
            product = cn_product(cnw)
            assert np.max(
                np.abs(bn_joint(bn).values - product.values / product.values.sum())
            ) <= 1e-9

    def test_trace_mass_matches_partition(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            cnw = random_cn(rng)
            _, trace = variable_elimination(cnw)
            z = mn_partition(moralise_cn(cnw))
            assert trace.partition_mass() == pytest.approx(z, rel=1e-9)
            order = [s.vertex for s in trace.steps]
            assert order == list(reversed(cnw.graph.vertices))

    @pytest.mark.parametrize(
        "low, high",
        [(1.0, 3.0), (0.01, 0.1)],
        ids=["mass-would-overflow", "mass-would-underflow"],
    )
    def test_long_chain_log_partition(self, low, high):
        # Unscaled, the absorbed mass of a 600-chain passes 1e308 with the
        # first range and reaches 0.0 with the second.
        mn = chain_mn(np.random.default_rng(600), 600, low, high)
        bn, trace = variable_elimination(triangulate_mn(mn))
        require_valid(bn)
        assert trace.log_partition() == pytest.approx(
            oracle_chain_log_partition(mn), rel=1e-12
        )
        assert any(s.log2_scale != 0 for s in trace.steps)


class TestEliminationAgainstReference:
    """The array sweep against the step-by-step ``Factor`` sweep, bit for bit.

    Cards run from 2 to 10, so both branches of the normaliser (column by
    column below 8 states, ``sum(axis=1)`` from 8 on) are exercised, and
    some kernel rows are zeroed so that uniform fill and degenerate
    networks occur too.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2]))
    def test_bytes_match_the_factor_sweep(self, seed, p_zero):
        rng = np.random.default_rng(seed)
        cnw = random_cn(rng, n_max=5, max_card=10)
        kernels = {}
        for v, k in cnw.kernels.items():
            rows = k.values.reshape(-1, cnw.vt.card(v)).copy()
            rows[rng.random(rows.shape[0]) < p_zero] = 0.0
            kernels[v] = Kernel(v, k.parents, rows, stochastic=False)
        cnw = ChordalNetwork(cnw.graph, cnw.vt, kernels)
        try:
            want_bn, want = reference_variable_elimination(cnw)
        except DegenerateDistributionError as exc:
            with pytest.raises(DegenerateDistributionError) as info:
                variable_elimination(cnw)
            assert info.value.vertex == exc.vertex
            return
        got_bn, got = variable_elimination(cnw)
        for v in cnw.graph.vertices:
            assert got_bn.kernels[v].parents == want_bn.kernels[v].parents
            assert got_bn.kernels[v].values.tobytes() == want_bn.kernels[v].values.tobytes()
        assert len(got.steps) == len(want.steps)
        for a, b in zip(got.steps, want.steps):
            assert (a.vertex, a.absorbed_into, a.log2_scale) == (
                b.vertex,
                b.absorbed_into,
                b.log2_scale,
            )
            assert a.lam.vars == b.lam.vars
            assert a.lam.values.tobytes() == b.lam.values.tobytes()
        assert got.partition_mass() == want.partition_mass()

    def test_host_overflow_is_still_a_value_error(self):
        # B's mass (1.9, 1.9) is absorbed unscaled into A's kernel, whose
        # entries are near the largest double, so the product overflows.
        # The factor sweep refuses; the array sweep rebuilds A's table
        # exactly and answers.
        vt = binary_vt("A", "B")
        cnw = ChordalNetwork(
            OrderedDag(("A", "B"), {("A", "B")}),
            vt,
            {
                "A": Kernel("A", (), [1.7e308, 1.7e308], stochastic=False),
                "B": Kernel("B", ("A",), [1.5, 0.4, 1.5, 0.4], stochastic=False),
            },
        )
        bn, trace = variable_elimination(cnw)
        assert bn.kernels["A"].values.tolist() == [0.5, 0.5]
        assert trace.log_partition() == pytest.approx(
            math.log(2 * 1.7 * 1.9) + 308 * math.log(10), rel=1e-12
        )
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            reference_variable_elimination(cnw)

    def test_host_with_many_children_stays_in_range(self):
        # Each leaf absorbs (1.5, 1.5) into the hub; 1.5**2000 overflows
        # the hub's table, which is then rebuilt exactly, once.
        n = 2000
        mn = hub_first_star(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bn = mn_to_bn(mn)
            _, trace = variable_elimination(triangulate_mn(mn))
        assert bn.kernels["H"].values.tolist() == [0.5, 0.5]
        for v in mn.graph.vertices[1:]:
            np.testing.assert_allclose(
                bn.kernels[v].values, [2 / 3, 1 / 3, 1 / 3, 2 / 3], rtol=1e-15
            )
        log_z = math.log(2) + n * math.log(3)
        assert trace.log_partition() == pytest.approx(log_z, rel=1e-12)


class TestOutOfRangeTables:
    """A table that the transforms build and that leaves the range of a
    double raises :class:`OutOfRangeError`, quietly, naming its vertex;
    ``log_mass`` is the natural log of that table's total mass.  A working
    table of the sweep that leaves the range is rebuilt exactly, and
    answered wherever one power of two brings its row masses into range."""

    PREFIX = "^table values must be finite and nonnegative: "

    def test_triangulate_product_overflow(self, fixtures_dir):
        # The factors on {A, B} and {B} hold 1e200 each: B's kernel is 1e400.
        mn = load_network(fixtures_dir / "out_of_range.json")
        for transform in (triangulate_mn, mn_to_bn):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OutOfRangeError, match=self.PREFIX) as info:
                    transform(mn)
            assert "vertex B " in str(info.value)
            assert info.value.log_mass == pytest.approx(
                400 * math.log(10) + math.log(4), rel=1e-12
            )

    def test_an_out_of_range_kernel_is_refused_before_the_sweep(self):
        # A - B - C: B's product 1e200 * 1e200 overflows, and C's product is
        # zero, which the sweep, largest vertex first, would meet first.
        # Every transform refuses B, as triangulate_mn refuses it.
        vt = binary_vt("A", "B", "C")
        tables = {"AB": 1e200, "B": 1e200, "BC": 0.0, "C": 1e200}
        mn = MarkovNetwork(
            OrderedUGraph(("A", "B", "C"), {("A", "B"), ("B", "C")}),
            vt,
            {
                frozenset(vars): Factor(tuple(vars), [x] * 2 ** len(vars))
                for vars, x in tables.items()
            },
        )
        for transform in (triangulate_mn, mn_to_bn, lambda net: pearl_update(net, {})):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OutOfRangeError, match=self.PREFIX) as info:
                    transform(mn)
            assert "the table at vertex B " in str(info.value)
            assert info.value.log_mass == pytest.approx(
                400 * math.log(10) + math.log(4), rel=1e-12
            )

    def test_host_overflow(self):
        # B's mass (1.9, 1.9) is absorbed unscaled into A's kernel, whose
        # entries are near the largest double, so A's working table
        # overflows; its exact rebuild has the mass 2 * 1.7e308 * 1.9, which
        # one power of two brings into range.
        cnw = ChordalNetwork(
            OrderedDag(("A", "B"), {("A", "B")}),
            binary_vt("A", "B"),
            {
                "A": Kernel("A", (), [1.7e308, 1.7e308], stochastic=False),
                "B": Kernel("B", ("A",), [1.5, 0.4, 1.5, 0.4], stochastic=False),
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bn, trace = variable_elimination(cnw)
        np.testing.assert_allclose(bn.kernels["A"].values, [0.5, 0.5], rtol=1e-12)
        np.testing.assert_allclose(
            bn.kernels["B"].values, [1.5 / 1.9, 0.4 / 1.9] * 2, rtol=1e-12
        )
        assert trace.log_partition() == pytest.approx(
            math.log(2 * 1.7 * 1.9) + 308 * math.log(10), rel=1e-12
        )

    def test_mass_only_overflow(self):
        # The rows are (0.5, 0.5), but the mass 2e308 overflows.
        cnw = ChordalNetwork(
            OrderedDag(("A",)),
            binary_vt("A"),
            {"A": Kernel("A", (), [1e308, 1e308], stochastic=False)},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bn, trace = variable_elimination(cnw)
        np.testing.assert_allclose(bn.kernels["A"].values, [0.5, 0.5], rtol=1e-12)
        assert trace.log_partition() == pytest.approx(
            math.log(2) + 308 * math.log(10), rel=1e-12
        )

    def test_overflow_then_zero_is_caught(self):
        # C's mass (1.9, 1.9) overflows A's table, and B's mass (1, 0) then
        # makes A's second entry inf * 0 = NaN.  The exact entry is 0, so
        # A's kernel is (1, 0) and the total is A's first entry alone.
        vt = binary_vt("A", "B", "C")
        graph = OrderedDag(("A", "B", "C"), {("A", "B"), ("A", "C")})
        kernels = {
            "A": Kernel("A", (), [1.7e308, 1.7e308], stochastic=False),
            "B": Kernel("B", ("A",), [0.5, 0.5, 0.0, 0.0], stochastic=False),
            "C": Kernel("C", ("A",), [1.5, 0.4, 1.5, 0.4], stochastic=False),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bn, trace = variable_elimination(ChordalNetwork(graph, vt, kernels))
        assert bn.kernels["A"].values.tolist() == [1.0, 0.0]
        assert trace.log_partition() == pytest.approx(
            math.log(1.7 * 1.9) + 308 * math.log(10), rel=1e-12
        )

    def test_row_masses_that_no_power_brings_into_range(self):
        # B's row masses are 3.4e308, which overflows, and 5e-324: they span
        # more than 2**2046, so no one power of two keeps both normal.
        cnw = ChordalNetwork(
            OrderedDag(("A", "B"), {("A", "B")}),
            binary_vt("A", "B"),
            {
                "A": Kernel("A", (), [1.0, 1.0], stochastic=False),
                "B": Kernel("B", ("A",), [1.7e308, 1.7e308, 5e-324, 0.0], stochastic=False),
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRangeError, match=self.PREFIX) as info:
                variable_elimination(cnw)
        assert "vertex B " in str(info.value)
        assert info.value.log_mass == pytest.approx(
            math.log(3.4) + 308 * math.log(10), rel=1e-12
        )

    def test_zero_factor_after_product_overflow(self):
        # C's factors from {A, C} and {B, C} multiply to 1e400 = inf where C
        # is 0, and the factor on {C} then makes those entries inf * 0 = NaN.
        # The exact entries are 0, so C's kernel is (0, 1) at every parent
        # assignment and Z = 4.
        vt = binary_vt("A", "B", "C")
        graph = OrderedUGraph(("A", "B", "C"), {frozenset("AC"), frozenset("BC")})
        factors = {
            frozenset("C"): Factor(("C",), [0.0, 1.0]),
            frozenset("AC"): Factor(("A", "C"), [1e200, 1.0, 1e200, 1.0]),
            frozenset("BC"): Factor(("B", "C"), [1e200, 1.0, 1e200, 1.0]),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cn = triangulate_mn(MarkovNetwork(graph, vt, factors))
            _, trace = variable_elimination(cn)
        assert cn.kernels["C"].values.tolist() == [0.0, 1.0] * 4
        assert trace.partition_mass() == 4.0

    def test_product_that_overflows_part_way_is_kept(self):
        # C's factors from {A, C} and {B, C} multiply to 1e400 = inf, but the
        # factor on {C} brings every entry back to 1e100: the kernel fits,
        # and its total is Z = 8e100.
        vt = binary_vt("A", "B", "C")
        graph = OrderedUGraph(("A", "B", "C"), {frozenset("AC"), frozenset("BC")})
        factors = {
            frozenset("C"): Factor(("C",), [1e-300, 1e-300]),
            frozenset("AC"): Factor(("A", "C"), [1e200] * 4),
            frozenset("BC"): Factor(("B", "C"), [1e200] * 4),
        }
        mn = MarkovNetwork(graph, vt, factors)
        z = float(marginal_distribution(mn, []).values[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cn = triangulate_mn(mn)
            _, trace = variable_elimination(cn)
        assert cn.kernels["A"].values.tolist() == [1.0] * 2
        assert cn.kernels["B"].values.tolist() == [1.0] * 4
        assert float(cn.kernels["C"].values.sum()) == pytest.approx(z, rel=1e-12)
        assert trace.partition_mass() == pytest.approx(z, rel=1e-12)

    def test_product_that_underflows_part_way_is_kept_whole(self):
        # Rescaled to the running maximum after {B, C}, the entries where C = 1
        # would be 1e-400 of it and vanish; each true entry is 1e100, so the
        # kernel's total, and Z, is 8e100.
        vt = binary_vt("A", "B", "C")
        graph = OrderedUGraph(("A", "B", "C"), {frozenset("AC"), frozenset("BC")})
        factors = {
            frozenset("C"): Factor(("C",), [1e-300, 1e100]),
            frozenset("AC"): Factor(("A", "C"), [1e200, 1, 1e200, 1]),
            frozenset("BC"): Factor(("B", "C"), [1e200, 1, 1e200, 1]),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cn = triangulate_mn(MarkovNetwork(graph, vt, factors))
            _, trace = variable_elimination(cn)
        assert cn.kernels["C"].values.ravel() == pytest.approx([1e100] * 8, rel=1e-12)
        assert float(cn.kernels["C"].values.sum()) == pytest.approx(8e100, rel=1e-12)
        assert trace.partition_mass() == pytest.approx(8e100, rel=1e-12)

    def test_product_of_tiny_and_unit_entries_is_multiplied_directly(self, monkeypatch):
        # C's two tables each reach down to 2**-600, so their smallest
        # entries could multiply to 2**-1200; but each small entry meets a 1,
        # no multiply underflows, and the direct product is the kernel.
        vt = binary_vt("A", "B", "C")
        graph = OrderedUGraph(("A", "B", "C"), {frozenset("AC"), frozenset("BC")})
        tiny = 2.0**-600
        factors = {
            frozenset("AC"): Factor(("A", "C"), [tiny, 1, tiny, 1]),
            frozenset("BC"): Factor(("B", "C"), [1, tiny, 1, tiny]),
        }
        calls = []
        wide_product = chordalnet.factors._wide_product

        def counted(*args):
            calls.append(args[1])
            return wide_product(*args)

        monkeypatch.setattr(chordalnet.factors, "_wide_product", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cn = triangulate_mn(MarkovNetwork(graph, vt, factors))
        assert calls == []
        assert cn.kernels["C"].parents == ("A", "B")
        assert cn.kernels["C"].values.tolist() == [tiny] * 8

    def test_wide_product_rounds_as_the_direct_product(self):
        # In range, the per-entry exponent changes no bit of the product.
        rng = np.random.default_rng(7)
        vt = binary_vt("A", "B", "C")
        onto = ("A", "B", "C")
        for _ in range(200):
            tables = []
            for vars in [("A", "C"), ("B", "C"), ("C",), ("A", "B", "C")]:
                values = rng.uniform(0, 4, 2 ** len(vars)) * 10.0 ** rng.integers(-60, 60)
                values[rng.random(values.size) < 0.2] = 0.0
                tables.append((vars, values))
            direct = chordalnet.factors._compact_product(tables, onto, vt)
            wide = np.ldexp(*chordalnet.factors._wide_product(tables, onto, vt))
            assert np.array_equal(direct, wide)

    def test_zero_total_behind_overflow_is_degenerate(self):
        # A's working table is inf * 0 = NaN in both entries; its exact total
        # mass, and so Z, is 0.
        cnw = zero_behind_overflow_cn()
        assert marginal_distribution(cnw, []).values.tolist() == [0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDistributionError, match="vertex A ") as info:
                variable_elimination(cnw)
        assert info.value.vertex == "A"

    def test_exact_rebuild_lets_the_sweep_go_on(self):
        # D's mass (1.9, 1.0) overflows A's first entry, 1.7e308, to inf, and
        # C's mass (0, 1) then makes it inf * 0 = NaN; exactly, that entry
        # is 0 and the other 1.
        names = ("A", "B", "C", "D")
        graph = OrderedDag(names, {("A", v) for v in names[1:]})
        rows = {"A": [1.7e308, 1.0], "B": [0.5] * 4}
        rows.update(C=[0.0, 0.0, 0.5, 0.5], D=[1.5, 0.4, 0.5, 0.5])
        kernels = {
            v: Kernel(v, graph.parents_of(v), rows[v], stochastic=False)
            for v in names
        }
        cn = ChordalNetwork(graph, binary_vt(*names), kernels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bn, trace = variable_elimination(cn)
        assert bn.kernels["A"].values.tolist() == [0.0, 1.0]
        assert trace.partition_mass() == 1.0
        assert trace.partition_mass() == mn_partition(moralise_cn(cn))


class TestTableCap:
    """Every family table of a triangulation is checked against
    ``factors.MAX_TABLE_ENTRIES`` before it is allocated, and a refusal
    names the family's vertex."""

    @pytest.mark.parametrize(
        "transform, make",
        [(triangulate_mn, chain_mn), (mn_to_bn, chain_mn), (triangulate_bn, chain_bn)],
        ids=["triangulate_mn", "mn_to_bn", "triangulate_bn"],
    )
    def test_chain_family_above_the_cap(self, monkeypatch, transform, make):
        # x0's family has 2 entries, x1's has 4.
        net = make(np.random.default_rng(5), 5)
        monkeypatch.setattr(chordalnet.factors, "MAX_TABLE_ENTRIES", 2)
        with pytest.raises(
            TableTooLargeError,
            match="^vertex x1: a table over 2 variables would have 4 entries, "
            "more than the cap of 2$",
        ):
            transform(net)

    @pytest.mark.parametrize("transform", [triangulate_mn, mn_to_bn])
    def test_hub_last_star(self, monkeypatch, transform):
        # The leaves' families have 2, 4, 8 and 16 entries, the hub's 32.
        mn = hub_last_star(4)
        monkeypatch.setattr(chordalnet.factors, "MAX_TABLE_ENTRIES", 16)
        with pytest.raises(TableTooLargeError, match="^vertex H: .* 32 entries"):
            transform(mn)
        monkeypatch.setattr(chordalnet.factors, "MAX_TABLE_ENTRIES", 32)
        assert transform(mn).graph.parents_of("H") == ("L0", "L1", "L2", "L3")

    def test_no_family_is_built_before_a_refusal(self, monkeypatch):
        # L24's family has 2**25 entries; the 24 smaller ones come first.
        built = []
        compact_product = chordalnet.factors._compact_product

        def counted(*args):
            out = compact_product(*args)
            built.append(args[1])
            return out

        monkeypatch.setattr(chordalnet.factors, "_compact_product", counted)
        with pytest.raises(TableTooLargeError, match="^vertex L24: "):
            triangulate_mn(hub_last_star(40))
        assert built == []


class TestFamilyPlanOnce:
    """Each graph is triangulated once, and the family plan that
    ``_triangulate`` and ``_eliminate`` share is built once per graph and
    variable table; the graph cannot change.  A refusal is not kept."""

    @pytest.fixture
    def planned(self, monkeypatch):
        """The vertices whose family a plan checked against the cap."""
        seen = []
        original = chordalnet.transforms._check_entries

        def spy(sizes, where="", *rest):
            seen.append(where)
            return original(sizes, where, *rest)

        monkeypatch.setattr(chordalnet.transforms, "_check_entries", spy)
        return seen

    @staticmethod
    def on(graph, card, rng):
        """A Markov network on ``graph``, ``card`` states per variable."""
        states = tuple(str(i) for i in range(card))
        vt = VariableTable(tuple((v, states) for v in graph.vertices))
        factors = {}
        for edge in graph.edges:
            pair = tuple(sorted(edge, key=graph.position))
            factors[edge] = Factor(pair, rng.uniform(0.5, 2.0, card * card))
        return MarkovNetwork(graph, vt, factors)

    def test_a_second_conversion_plans_nothing(self, planned):
        mn = random_order_grid(np.random.default_rng(1), 4, 3)
        first = dumps_network(mn_to_bn(mn))
        assert planned == [f"vertex {v}" for v in mn.graph.vertices]
        assert dumps_network(mn_to_bn(mn)) == first
        cn = triangulate_mn(mn)
        assert cn.graph is triangulate_graph(mn.graph)
        assert dumps_network(variable_elimination(cn)[0]) == first
        assert len(planned) == 16

    def test_one_graph_under_two_tables(self, planned):
        # Binary, ternary, then binary again on one graph: each network
        # gets its own shapes and the kernels of a fresh equal graph.
        graph = random_order_grid(np.random.default_rng(2), 3, 2).graph
        rng = np.random.default_rng(3)
        for card in (2, 3, 2):
            mn = self.on(graph, card, rng)
            twin = OrderedUGraph(graph.vertices, graph.edges)
            fresh = MarkovNetwork(twin, mn.vt, mn.factors)
            pairs = [(triangulate_mn(mn), triangulate_mn(fresh))]
            pairs.append((mn_to_bn(mn), mn_to_bn(fresh)))
            for got, want in pairs:
                for v, k in got.kernels.items():
                    assert k.values.size == card ** (len(k.parents) + 1)
                    assert k.values.tobytes() == want.kernels[v].values.tobytes()
        # Each new table replans the one graph, and each twin plans once.
        assert len(planned) == 6 * 9

    def test_a_refused_network_is_refused_on_every_call(self, planned):
        mn = hub_last_star(40)
        for transform in (triangulate_mn, mn_to_bn, triangulate_mn):
            with pytest.raises(TableTooLargeError, match="^vertex L24: "):
                transform(mn)
        assert planned.count("vertex L24") == 3

    def test_a_copy_carries_no_plan(self, planned):
        mn = random_order_grid(np.random.default_rng(4), 3, 3)
        dag = triangulate_mn(mn).graph
        twin = OrderedUGraph(mn.graph.vertices, mn.graph.edges)
        assert pickle.dumps(dag) == pickle.dumps(triangulate_graph(twin))
        first = dumps_network(mn_to_bn(mn))
        for clone in (pickle.loads(pickle.dumps(mn)), copy.deepcopy(mn), copy.copy(mn.graph)):
            if isinstance(clone, OrderedUGraph):
                clone = MarkovNetwork(clone, mn.vt, mn.factors)
            assert dumps_network(mn_to_bn(clone)) == first
        # The network, then each clone, plans once.
        assert len(planned) == 4 * 9


def adopted_tables(cnw, mn, bn):
    """Every table that the transforms return for these inputs."""
    out = []
    for net in (variable_elimination(cnw)[0], triangulate_mn(mn), triangulate_bn(bn)):
        out.extend(k.values for k in net.kernels.values())
    out.extend(step.lam.values for step in variable_elimination(cnw)[1].steps)
    return out


class TestAdoptedTables:
    """The kernels and masses that the transforms build around their own
    arrays are as private and as immutable as copied ones."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 0.5, 0.0]))
    def test_read_only_flat_and_unshared(self, seed, keep):
        rng = np.random.default_rng(seed)
        cnw = random_cn(rng, n_max=5, max_card=4)
        mn = random_mn(rng, n_max=5, max_card=4)
        # Some vertices consume no factor, one factor or several.
        mn = MarkovNetwork(
            mn.graph, mn.vt, {c: f for c, f in mn.factors.items() if rng.random() < keep}
        )
        bn = random_bn(rng, n_max=5, max_card=4)
        inputs = [k.values for k in (*cnw.kernels.values(), *bn.kernels.values())]
        inputs += [f.values for f in mn.factors.values()]
        try:
            tables = adopted_tables(cnw, mn, bn)
        except DegenerateDistributionError:
            return
        for i, values in enumerate(tables):
            assert values.dtype == np.float64 and values.ndim == 1
            assert values.flags.c_contiguous and not values.flags.writeable
            assert values.base is None or not values.base.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 1.0
            assert not any(np.shares_memory(values, x) for x in inputs)
            assert not any(np.shares_memory(values, x) for x in tables[i + 1 :])

    def test_pickle_round_trips(self, misconception):
        bn, trace = variable_elimination(triangulate_mn(misconception))
        nets = (bn, triangulate_mn(misconception), triangulate_bn(bear_bn()))
        for net in nets:
            back = pickle.loads(pickle.dumps(net))
            for v, k in net.kernels.items():
                assert back.kernels[v].values.tobytes() == k.values.tobytes()
                assert not back.kernels[v].values.flags.writeable
        back = pickle.loads(pickle.dumps(trace))
        for a, b in zip(back.steps, trace.steps):
            assert a.lam.vars == b.lam.vars
            assert a.lam.values.tobytes() == b.lam.values.tobytes()
            assert not a.lam.values.flags.writeable


class TestValidation:
    @staticmethod
    def spy(monkeypatch):
        calls = []
        real = chordalnet.transforms.require_valid

        def counting(net):
            calls.append(type(net).__name__)
            real(net)

        monkeypatch.setattr(chordalnet.transforms, "require_valid", counting)
        return calls

    def test_mn_to_bn_validates_once(self, monkeypatch, misconception):
        calls = self.spy(monkeypatch)
        mn_to_bn(misconception)
        assert calls == ["MarkovNetwork"]

    def test_direct_elimination_still_validates(self, monkeypatch, misconception):
        cnw = triangulate_mn(misconception)
        calls = self.spy(monkeypatch)
        variable_elimination(cnw)
        assert calls == ["ChordalNetwork"]


def first_kernel(cn):
    """The kernel of the smallest vertex after elimination: its normalized
    marginal."""
    bn, _ = variable_elimination(cn)
    return bn.kernels[cn.graph.vertices[0]]


class TestEliminationMarginal:
    def test_misconception_marginal(self, misconception):
        marg = first_kernel(triangulate_mn(misconception))
        assert (marg.child, marg.parents) == ("A", ())
        assert marg.values[0] == pytest.approx(0.1806, abs=1e-4)
        assert marg.values[1] == pytest.approx(0.8194, abs=1e-4)

    def test_single_vertex(self):
        vt = binary_vt("A")
        cnw = ChordalNetwork(
            OrderedDag(("A",)), vt, {"A": Kernel("A", (), [2.0, 6.0], stochastic=False)}
        )
        assert np.array_equal(first_kernel(cnw).values, [0.25, 0.75])

    def test_deterministic_chain_gives_point_mass(self):
        vt = binary_vt("A", "B")
        cnw = ChordalNetwork(
            OrderedDag(("A", "B"), {("A", "B")}),
            vt,
            {
                "A": Kernel("A", (), [1.0, 0.0], stochastic=False),
                "B": Kernel("B", ("A",), [1.0, 0.0, 1.0, 0.0], stochastic=False),
            },
        )
        assert np.array_equal(first_kernel(cnw).values, [1.0, 0.0])

    def test_equals_marginal_of_normalized_joint(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            cnw = random_cn(rng)
            product = cn_product(cnw)
            normalized = product.values / product.values.sum()
            grid = normalized.reshape(cnw.vt.shape(product.vars))
            first_axis_marginal = grid.reshape(grid.shape[0], -1).sum(axis=1)
            marg = first_kernel(cnw)
            assert np.max(np.abs(marg.values - first_axis_marginal)) <= 1e-9


class TestMnToBn:
    def test_misconception(self, misconception):
        bn = mn_to_bn(misconception)
        assert bn.kernels["A"].values[0] == pytest.approx(0.1806, abs=1e-4)
        table = mn_unnormalized(misconception)
        np.testing.assert_allclose(
            bn_joint(bn).values, table.values / table.values.sum(), atol=1e-9
        )

    def test_single_singleton_factor(self):
        vt = binary_vt("A")
        mn = MarkovNetwork(
            OrderedUGraph(("A",)), vt, {frozenset({"A"}): Factor(("A",), [2.0, 6.0])}
        )
        bn = mn_to_bn(mn)
        assert np.array_equal(bn.kernels["A"].values, [0.25, 0.75])

    def test_seeded_random_mn_matches_enumeration(self):
        rng = np.random.default_rng(89)
        for _ in range(15):
            mn = random_mn(rng, n_max=4)
            table = oracle_mn_table(mn)
            if table.sum() == 0:
                continue
            bn = mn_to_bn(mn)
            assert np.max(np.abs(bn_joint(bn).values - table / table.sum())) <= 1e-9

    def test_degenerate_input_fails(self):
        vt = binary_vt("A")
        mn = MarkovNetwork(
            OrderedUGraph(("A",)), vt, {frozenset({"A"}): Factor(("A",), [0.0, 0.0])}
        )
        with pytest.raises(DegenerateDistributionError):
            mn_to_bn(mn)

    def test_builds_no_chordal_kernel(self, monkeypatch, misconception):
        # mn_to_bn and pearl_update eliminate the network's own tables over
        # the triangulated graph: neither stores a kernel of triangulate_mn.
        cnw = triangulate_mn(misconception)
        update = {"A": PearlVertexUpdate(weight=[0.3, 1.7])}
        nets = [misconception, mn_to_bn(misconception), cnw]
        want = [dumps_network(mn_to_bn(misconception))]
        want += [dumps_network(pearl_update(net, update)[0]) for net in nets]

        def refuse(*args):
            raise AssertionError("a chordal kernel was built")

        monkeypatch.setattr(chordalnet.transforms, "_triangulate", refuse)
        got = [dumps_network(mn_to_bn(misconception))]
        got += [dumps_network(pearl_update(net, update)[0]) for net in nets]
        assert got == want

    def test_equals_triangulate_then_eliminate(self):
        # Same numbers whether or not the kernels are stored first, where
        # triangulate_mn stores no subnormal that lost bits.
        rng = np.random.default_rng(20261020)
        for _ in range(500):
            mn = random_mn(rng)
            bn, _ = variable_elimination(triangulate_mn(mn))
            assert dumps_network(mn_to_bn(mn)) == dumps_network(bn)


class TestTriangulateBn:
    def test_chain_is_unchanged(self):
        vt = binary_vt("A", "B")
        bn = BayesianNetwork(
            OrderedDag(("A", "B"), {("A", "B")}),
            vt,
            {
                "A": Kernel("A", (), [0.25, 0.75]),
                "B": Kernel("B", ("A",), [0.9, 0.1, 0.2, 0.8]),
            },
        )
        out = triangulate_bn(bn)
        assert out.graph == bn.graph
        for v in bn.graph.vertices:
            assert np.array_equal(out.kernels[v].values, bn.kernels[v].values)

    def test_bear_radio_gains_constant_burglary_input(self):
        bn = bear_bn()
        out = triangulate_bn(bn)
        # the moral marriage B - E becomes a new parent of E; R keeps E only
        assert out.graph.edges == {("B", "E"), ("B", "A"), ("E", "A"), ("E", "R")}
        assert out.kernels["E"].parents == ("B",)
        grid = out.kernels["E"].values.reshape(2, 2)
        assert np.array_equal(grid[0], grid[1])  # constant over the new input
        assert np.array_equal(grid[0], bn.kernels["E"].values)
        for v in ("B", "A", "R"):
            assert np.array_equal(out.kernels[v].values, bn.kernels[v].values)

    def test_joint_unchanged_and_idempotent(self):
        rng = np.random.default_rng(97)
        for _ in range(25):
            bn = random_bn(rng)
            once = triangulate_bn(bn)
            assert np.max(np.abs(bn_joint(once).values - bn_joint(bn).values)) <= 1e-12
            twice = triangulate_bn(once)
            assert twice.graph == once.graph
            for v in bn.graph.vertices:
                assert np.array_equal(twice.kernels[v].values, once.kernels[v].values)

    def test_is_triangulate_mn_of_the_moralisation(self):
        # Triangulation pre-composed with moralisation: the same graph and
        # the same kernel values, kernel for kernel, flagged stochastic.
        rng = np.random.default_rng(109)
        for _ in range(40):
            bn = random_bn(rng, n_max=7)
            out = triangulate_bn(bn)
            via_mn = triangulate_mn(moralise_bn(bn))
            assert out.graph == via_mn.graph
            for v in bn.graph.vertices:
                got, want = out.kernels[v], via_mn.kernels[v]
                assert got.stochastic
                assert got.parents == want.parents
                assert got.values.tobytes() == want.values.tobytes()

    def test_roundtrip_identity_on_chordal_networks(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            cnw = random_cn(rng)
            back = triangulate_mn(moralise_cn(cnw))
            assert back.graph == cnw.graph
            for v in cnw.graph.vertices:
                assert back.kernels[v].parents == cnw.kernels[v].parents
                assert np.array_equal(back.kernels[v].values, cnw.kernels[v].values)

    def test_full_pipeline_idempotence(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            mn = random_mn(rng, n_max=4)
            if mn_partition(mn) == 0.0:
                continue
            once = mn_to_bn(mn)
            again = mn_to_bn(moralise_bn(once))
            assert again.graph == once.graph
            for v in once.graph.vertices:
                np.testing.assert_allclose(
                    again.kernels[v].values, once.kernels[v].values, atol=1e-9
                )


class TestVStructureWitness:
    def test_counts_and_exact_inequality(self):
        witness = vstructure_counterexample()
        assert witness.ab_counts == ((1, 2), (2, 1))
        assert witness.total == 6
        assert witness.joint_prob_00 == Fraction(1, 6)
        assert witness.product_prob_00 == Fraction(1, 4)
        assert not witness.independent
        assert not witness.chordal

    def test_identity_into_vstructure_fails_hom_check(self):
        witness = vstructure_counterexample()
        from chordalnet import moralise_graph, triangulate_graph

        covered = triangulate_graph(moralise_graph(witness.dag))
        assert ("A", "B") in covered.edges
        hom = GraphHom(covered, witness.dag, {v: v for v in covered.vertices})
        assert not check_hom(hom)


def isolated_cn(names, masses):
    """Binary vertices without edges, the kernel of each ``[m, m]``."""
    return ChordalNetwork(
        OrderedDag(tuple(names)),
        binary_vt(*names),
        {v: Kernel(v, (), [m, m], stochastic=False) for v, m in zip(names, masses)},
    )


class TestPartitionMass:
    """``partition_mass`` multiplies the scalar masses with a separate
    exponent, so a partial product out of range does not lose Z."""

    @pytest.mark.parametrize("names", ["ABCD", "CDAB"])
    def test_partial_product_out_of_range_keeps_z(self, names):
        # Step by step, 2e200 * 2e200 overflows and 2e-200 * 2e-200 underflows.
        masses = {"A": 1e200, "B": 1e200, "C": 1e-200, "D": 1e-200}
        cnw = isolated_cn(names, [masses[v] for v in names])
        _, trace = variable_elimination(cnw)
        assert trace.partition_mass() == pytest.approx(16.0, rel=1e-12)
        assert trace.log_partition() == pytest.approx(math.log(16.0), rel=1e-12)
        assert marginal_distribution(cnw, []).values[0] == pytest.approx(16.0, rel=1e-12)

    def test_equals_the_running_product_where_that_stays_normal(self):
        rng = np.random.default_rng(2024)
        compared = 0
        for _ in range(200):
            cnw = random_cn(rng, n_max=8)
            scale = 10.0 ** rng.uniform(-120, 120, size=len(cnw.graph.vertices))
            cnw = ChordalNetwork(
                cnw.graph,
                cnw.vt,
                {
                    v: Kernel(v, k.parents, k.values * s, stochastic=False)
                    for (v, k), s in zip(cnw.kernels.items(), scale)
                },
            )
            _, trace = variable_elimination(cnw)
            scalars = trace._scalars()
            exponent = sum(s.log2_scale for s in trace.steps)
            with np.errstate(over="ignore", under="ignore"):
                running = np.cumprod(scalars)
                old = float(np.ldexp(np.prod(scalars), exponent))
            if not (np.isfinite(running).all() and (running >= 2.0**-1022).all()):
                continue
            assert trace.partition_mass() == old
            compared += 1
        assert compared >= 150


def test_trace_of_the_three_state_chain_is_pinned(fixtures_dir):
    # SHA-256 of every step's (vertex, mass bytes, host, scale) on
    # tests/fixtures/chain.json, whose variables have 2 or 3 states.
    mn = load_network(fixtures_dir / "chain.json")
    _, trace = variable_elimination(triangulate_mn(mn))
    digest = hashlib.sha256()
    for s in trace.steps:
        digest.update(
            repr((s.vertex, s.lam.values.tobytes(), s.absorbed_into, s.log2_scale)).encode()
        )
    assert digest.hexdigest() == (
        "bb4b27e23689e4415f1493dfad8b57c9677c41035440addbc6d985429d54a3d9"
    )


def test_every_triangulation_is_valid_as_recorded(monkeypatch):
    # _triangulate records its result as valid without a check; the full
    # check agrees for each of its callers, triangulate_mn and
    # triangulate_bn.  pearl_update eliminates its tables without it.
    built = []
    real = chordalnet.transforms._triangulate

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(chordalnet.transforms, "_triangulate", recording)
    rng = np.random.default_rng(31)
    results = []
    for _ in range(40):
        mn, bn, cnw = random_mn(rng), random_bn(rng), random_cn(rng)
        results += [triangulate_mn(mn), triangulate_bn(bn)]
        for net in (mn, bn, cnw):
            weights = {v: rng.uniform(0.5, 2.0, net.vt.card(v)) for v in net.graph.vertices[:2]}
            try:
                pearl_update(net, {v: PearlVertexUpdate(weight=w) for v, w in weights.items()})
            except ValueError:  # a collider family under evidence
                pass
    # The 80 results, and nothing built by pearl_update.
    assert [id(net) for net in built] == [id(net) for net in results]
    for net in results:
        assert net._valid
        assert network_violations(net) == []


def test_the_underflow_flag_marks_only_an_inexact_tiny_result():
    # All three engines read the FPU's underflow flag to find a product
    # that lost bits: the sweep after each host multiply, the checked
    # product of triangulation, and sum-product after each bucket's
    # multiplies, sum and rescale.  IEEE 754 raises it for a tiny result
    # only when that result is inexact, also in a rescale by a power of two
    # and in a sum, and numpy reports it after the ufunc that raised it.
    flags = []
    with np.errstate(under="call", call=lambda kind, flag: flags.append(kind)):
        np.array([1e-200]) * np.array([1e-200])
        assert flags == ["underflow"]
        exact = np.array([2.0**-1000]) * np.array([2.0**-40])
        assert flags == ["underflow"]
        rounded = np.ldexp(np.array([3 * 2.0**-1000]), -75)
        assert flags == ["underflow"] * 2
        least = np.ldexp(np.array([2.0**-1000]), -74)
        total = np.array([2.0**-1074, 2.0**-1074]).sum()
        assert flags == ["underflow"] * 2
    assert exact[0] == 2.0**-1040
    assert rounded[0] == 2.0**-1073
    assert least[0] == 2.0**-1074
    assert total == 2.0**-1073
