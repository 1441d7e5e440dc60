"""Moralisation, triangulation, variable elimination and the fast path.

The misconception network is the worked regression: its sixteen published
conditional values, partition constant 7,201,840, triangulated edge set,
and exact roundtrip are all asserted here.  Corpus-level preservation
claims run at acceptance scale in test_acceptance.py; here they run on
smaller seeded samples.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    VariableTable,
    bn_joint,
    check_hom,
    cn_product,
    elimination_marginal,
    factor_entry,
    is_ordered_chordal,
    kernel_to_factor,
    mn_partition,
    mn_to_bn,
    mn_unnormalized,
    moralise_bn,
    moralise_cn,
    require_valid,
    triangulate_bn,
    triangulate_mn,
    variable_elimination,
    vstructure_counterexample,
)
from helpers import (
    bear_bn,
    chain_mn,
    oracle_chain_log_partition,
    oracle_mn_table,
    random_bn,
    random_cn,
    random_mn,
    reference_variable_elimination,
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
        vt = binary_vt("A", "B")
        cnw = ChordalNetwork(
            OrderedDag(("A", "B"), {("A", "B")}),
            vt,
            {
                "A": Kernel("A", (), [1.7e308, 1.7e308], stochastic=False),
                "B": Kernel("B", ("A",), [1.5, 0.4, 1.5, 0.4], stochastic=False),
            },
        )
        with pytest.raises(ValueError, match="table values must be finite"):
            variable_elimination(cnw)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            reference_variable_elimination(cnw)


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


class TestEliminationMarginal:
    def test_misconception_marginal(self, misconception):
        marg = elimination_marginal(triangulate_mn(misconception))
        assert marg.vars == ("A",)
        assert marg.values[0] == pytest.approx(0.1806, abs=1e-4)
        assert marg.values[1] == pytest.approx(0.8194, abs=1e-4)

    def test_single_vertex(self):
        vt = binary_vt("A")
        cnw = ChordalNetwork(
            OrderedDag(("A",)), vt, {"A": Kernel("A", (), [2.0, 6.0], stochastic=False)}
        )
        assert np.array_equal(elimination_marginal(cnw).values, [0.25, 0.75])

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
        assert np.array_equal(elimination_marginal(cnw).values, [1.0, 0.0])

    def test_equals_marginal_of_normalized_joint(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            cnw = random_cn(rng)
            product = cn_product(cnw)
            normalized = product.values / product.values.sum()
            grid = normalized.reshape(cnw.vt.shape(product.vars))
            first_axis_marginal = grid.reshape(grid.shape[0], -1).sum(axis=1)
            marg = elimination_marginal(cnw)
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
