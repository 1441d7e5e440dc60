"""Network types: validation, joints, partition function, degeneracy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chordalnet.factors
import chordalnet.networks
from chordalnet import (
    BayesianNetwork,
    Factor,
    Kernel,
    MarkovNetwork,
    NetworkValidationError,
    OrderedDag,
    OrderedUGraph,
    OutOfRangeError,
    TableTooLargeError,
    VariableTable,
    all_cliques,
    bn_joint,
    cn_product,
    factor_marginalize,
    marginal_distribution,
    mn_is_degenerate,
    mn_partition,
    mn_unnormalized,
    moralise_cn,
    network_violations,
    ones_factor,
    require_valid,
)
from helpers import (
    chain_bn,
    chain_mn,
    misconception_assignments,
    misconception_product,
    oracle_bn_joint,
    oracle_chain_log_partition,
    oracle_chain_marginal,
    oracle_cn_product,
    oracle_mn_table,
    random_bn,
    random_cn,
    random_mn,
)


def binary_vt(*names):
    return VariableTable(tuple((n, ("0", "1")) for n in names))


class TestValidation:
    def test_misconception_is_valid(self, misconception):
        assert network_violations(misconception) == []

    def test_subnormalized_kernel_is_flagged(self):
        vt = binary_vt("A")
        bn = BayesianNetwork(
            OrderedDag(("A",)), vt, {"A": Kernel("A", (), [0.4, 0.5])}
        )
        violations = network_violations(bn)
        assert len(violations) == 1 and "sum to 1" in violations[0]

    def test_non_clique_factor_key_is_flagged(self, misconception):
        # {A, C} is not among the cliques of the 4-cycle
        assert frozenset({"A", "C"}) not in {
            frozenset(c) for c in all_cliques(misconception.graph)
        }
        bad = dict(misconception.factors)
        bad[frozenset({"A", "C"})] = Factor(("A", "C"), [1, 1, 1, 1])
        mn = MarkovNetwork(misconception.graph, misconception.vt, bad)
        violations = network_violations(mn)
        assert len(violations) == 1 and "not a clique" in violations[0]

    def test_unknown_clique_vertex_is_flagged(self, misconception):
        # Z is declared neither in the graph nor in the variable table; the
        # collect-all check reports it instead of failing on the lookup.
        bad = dict(misconception.factors)
        bad[frozenset({"A", "Z"})] = Factor(("A", "Z"), [1, 1, 1, 1])
        mn = MarkovNetwork(misconception.graph, misconception.vt, bad)
        assert network_violations(mn) == [
            "factor clique ['A', 'Z'] mentions unknown vertices"
        ]
        with pytest.raises(NetworkValidationError, match="unknown vertices"):
            require_valid(mn)

    def test_missing_kernel_is_flagged(self):
        vt = binary_vt("A", "B")
        bn = BayesianNetwork(
            OrderedDag(("A", "B")), vt, {"A": Kernel("A", (), [0.5, 0.5])}
        )
        assert any("no kernel" in v for v in network_violations(bn))

    def test_wrong_parent_list_is_flagged(self):
        vt = binary_vt("A", "B")
        bn = BayesianNetwork(
            OrderedDag(("A", "B"), {("A", "B")}),
            vt,
            {
                "A": Kernel("A", (), [0.5, 0.5]),
                "B": Kernel("B", (), [0.5, 0.5]),
            },
        )
        assert any("parents" in v for v in network_violations(bn))

    def test_vt_graph_mismatch_is_flagged(self):
        vt = binary_vt("A", "B")
        bn = BayesianNetwork(OrderedDag(("A",)), vt, {"A": Kernel("A", (), [1, 0])})
        assert any("match the graph" in v for v in network_violations(bn))


class TestBnJoint:
    def test_single_vertex(self):
        vt = binary_vt("A")
        bn = BayesianNetwork(OrderedDag(("A",)), vt, {"A": Kernel("A", (), [0.3, 0.7])})
        assert np.array_equal(bn_joint(bn).values, [0.3, 0.7])

    def test_deterministic_chain(self):
        vt = binary_vt("A", "B")
        bn = BayesianNetwork(
            OrderedDag(("A", "B"), {("A", "B")}),
            vt,
            {
                "A": Kernel("A", (), [0.5, 0.5]),
                "B": Kernel("B", ("A",), [1.0, 0.0, 0.0, 1.0]),
            },
        )
        assert np.array_equal(bn_joint(bn).values, [0.5, 0.0, 0.0, 0.5])

    def test_invalid_network_raises(self):
        vt = binary_vt("A")
        bn = BayesianNetwork(OrderedDag(("A",)), vt, {"A": Kernel("A", (), [0.4, 0.5])})
        with pytest.raises(NetworkValidationError):
            bn_joint(bn)

    def test_sums_to_one_on_random_corpus(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            bn = random_bn(rng)
            assert abs(bn_joint(bn).values.sum() - 1.0) <= 1e-9

    def test_equals_assignment_oracle_exactly(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            bn = random_bn(rng, n_max=4, max_card=2)
            assert np.array_equal(bn_joint(bn).values, oracle_bn_joint(bn))


class TestMnTables:
    def test_no_factors_means_all_ones(self):
        vt = binary_vt("A", "B")
        mn = MarkovNetwork(OrderedUGraph(("A", "B")), vt, {})
        table = mn_unnormalized(mn)
        assert table.vars == ("A", "B")
        assert np.array_equal(table.values, np.ones(4))

    def test_misconception_entries(self, misconception):
        table = mn_unnormalized(misconception)
        # canonical layout: (A, B, C, D), last fastest
        assert table.values[0] == 100000.0  # (a, b, c, d)
        assert table.values[-1] == 300000.0  # (na, nb, nc, nd)
        assert np.array_equal(table.values, oracle_mn_table(misconception))

    def test_explicit_all_ones_changes_nothing(self, misconception):
        padded = dict(misconception.factors)
        for v in misconception.graph.vertices:
            padded[frozenset({v})] = ones_factor(misconception.vt, (v,))
        mn = MarkovNetwork(misconception.graph, misconception.vt, padded)
        assert np.array_equal(
            mn_unnormalized(mn).values, mn_unnormalized(misconception).values
        )

    def test_partition_all_ones(self):
        vt = binary_vt("A", "B")
        assert mn_partition(MarkovNetwork(OrderedUGraph(("A", "B")), vt, {})) == 4.0

    def test_partition_misconception(self, misconception):
        # independent 16-assignment enumeration
        expected = sum(misconception_product(a) for a in misconception_assignments())
        assert expected == 7201840.0
        assert mn_partition(misconception) == expected

    def test_partition_zero_factor(self):
        vt = binary_vt("A")
        mn = MarkovNetwork(
            OrderedUGraph(("A",)), vt, {frozenset({"A"}): Factor(("A",), [0.0, 0.0])}
        )
        assert mn_partition(mn) == 0.0
        assert mn_is_degenerate(mn)

    def test_misconception_not_degenerate(self, misconception):
        assert not mn_is_degenerate(misconception)

    def test_disjoint_supports_degenerate(self):
        vt = binary_vt("A", "B")
        mn = MarkovNetwork(
            OrderedUGraph(("A", "B"), {frozenset(("A", "B"))}),
            vt,
            {
                frozenset({"A"}): Factor(("A",), [1.0, 0.0]),
                frozenset({"A", "B"}): Factor(("A", "B"), [0.0, 0.0, 1.0, 1.0]),
            },
        )
        assert mn_is_degenerate(mn)


class TestChordalProducts:
    def test_kernel_product_matches_moralised_image(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            cnw = random_cn(rng)
            left = cn_product(cnw)
            right = mn_unnormalized(moralise_cn(cnw))
            assert left.vars == right.vars
            np.testing.assert_allclose(left.values, right.values, rtol=1e-12, atol=0)


class TestSumProduct:
    """Partition and marginals by elimination, against full-joint oracles."""

    ORACLES = {
        "bayesian": (random_bn, oracle_bn_joint),
        "markov": (random_mn, oracle_mn_table),
        "chordal": (random_cn, oracle_cn_product),
    }

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(sorted(ORACLES)),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_marginal_of_full_joint_oracle(self, kind, seed, data):
        make, oracle = self.ORACLES[kind]
        net = make(np.random.default_rng(seed))
        names = net.graph.vertices
        keep = data.draw(st.lists(st.sampled_from(names), unique=True))
        full = Factor(names, oracle(net))
        expected = factor_marginalize(full, set(names) - set(keep), net.vt)
        got = marginal_distribution(net, keep)
        assert got.vars == expected.vars
        np.testing.assert_allclose(got.values, expected.values, rtol=1e-12, atol=0)
        if kind == "markov":
            assert mn_partition(net) == pytest.approx(full.values.sum(), rel=1e-12)

    def test_products_stay_within_families(self, monkeypatch):
        # The full joint of a 20-variable binary chain has 2**20 entries;
        # elimination multiplies at most a pair factor, a message and the
        # kept variables, 8 entries here.  Every product is multiplied on
        # arrays in _scaled_product; factor_product is watched as well.
        original = chordalnet.factors.factor_product
        original_bucket = chordalnet.networks._scaled_product
        sizes = []

        def spy(a, b, vt):
            out = original(a, b, vt)
            sizes.append(out.values.size)
            return out

        def bucket_spy(factors, vt, vars):
            table, exponent = original_bucket(factors, vt, vars)
            sizes.append(table.size)
            return table, exponent

        monkeypatch.setattr(chordalnet.factors, "factor_product", spy)
        monkeypatch.setattr(chordalnet.networks, "_scaled_product", bucket_spy)
        rng = np.random.default_rng(20)
        mn, bn = chain_mn(rng, 20), chain_bn(rng, 20)
        mn_partition(mn)
        for net in (mn, bn):
            for keep in ([], ["x7"], ["x0", "x19"]):
                marginal_distribution(net, keep)
        assert sizes and max(sizes) <= 16

    def test_validation_comes_before_the_unknown_variable_check(self):
        vt = binary_vt("A", "B")
        kernels = {"A": Kernel("A", (), [0.5, 0.5])}
        bn = BayesianNetwork(OrderedDag(("A", "B")), vt, kernels)
        with pytest.raises(NetworkValidationError, match="no kernel"):
            marginal_distribution(bn, ["Q"])
        kernels["B"] = Kernel("B", (), [0.2, 0.8])
        bn = BayesianNetwork(OrderedDag(("A", "B")), vt, kernels)
        with pytest.raises(ValueError, match=r"unknown variables \['Q'\]"):
            marginal_distribution(bn, ["A", "Q"])

    def test_long_chain_without_the_joint(self):
        bn = chain_bn(np.random.default_rng(40), 40)
        with pytest.raises(TableTooLargeError, match="1,099,511,627,776 entries"):
            bn_joint(bn)
        assert marginal_distribution(bn, []).values[0] == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(
            marginal_distribution(bn, ["x39"]).values,
            oracle_chain_marginal(bn, "x39"),
            rtol=1e-12,
        )


class TestResultOutsideDoubleRange:
    """Every message fits in a double, but Z itself may not."""

    @pytest.mark.parametrize(
        "low, high",
        [(1.0, 3.0), (0.01, 0.1)],
        ids=["z-overflows", "z-underflows"],
    )
    def test_long_chain_raises_with_log_z(self, low, high):
        # log Z is 823 for the first range and -1344 for the second.
        mn = chain_mn(np.random.default_rng(600), 600, low, high)
        log_z = oracle_chain_log_partition(mn)
        for compute in (
            lambda: mn_partition(mn),
            lambda: marginal_distribution(mn, []),
            lambda: marginal_distribution(mn, ["x0"]),
        ):
            with pytest.raises(OutOfRangeError) as info:
                compute()
            assert info.value.log_mass == pytest.approx(log_z, rel=1e-12)
            assert float(str(info.value).split()[-1]) == pytest.approx(log_z, rel=1e-12)
        assert not mn_is_degenerate(mn)

    def test_many_messages_into_one_bucket(self):
        # Each of 1100 leaves sends the message (1, 1) to the centre, kept
        # as (0.5, 0.5) times 2; multiplied unscaled, 0.5**1100 underflows.
        names = ("c",) + tuple(f"l{i}" for i in range(1100))
        vt = binary_vt(*names)
        edges = {frozenset(("c", leaf)) for leaf in names[1:]}
        factors = {e: Factor(("c", (set(e) - {"c"}).pop()), [0.5] * 4) for e in edges}
        mn = MarkovNetwork(OrderedUGraph(names, edges), vt, factors)
        assert mn_partition(mn) == 2.0
        assert not mn_is_degenerate(mn)
        assert marginal_distribution(mn, ["c"]).values.tolist() == [1.0, 1.0]
