"""Network types: validation, joints, partition function, degeneracy."""

import copy
import math
import pickle
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chordalnet.factors
import chordalnet.networks
import chordalnet.serial
from chordalnet import (
    BayesianNetwork,
    DegenerateDistributionError,
    Factor,
    Kernel,
    MarkovNetwork,
    NetworkValidationError,
    OrderedDag,
    OrderedUGraph,
    OutOfRangeError,
    TableTooLargeError,
    VariableTable,
    bn_joint,
    cn_product,
    dumps_network,
    factor_marginalize,
    load_network,
    marginal_distribution,
    mn_partition,
    mn_to_bn,
    mn_unnormalized,
    moralise_cn,
    network_distribution,
    network_violations,
    require_valid,
    triangulate_mn,
    variable_elimination,
)
from helpers import (
    all_cliques,
    chain_bn,
    chain_mn,
    exact_mn_marginal,
    hub_last_star,
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
    random_order_grid,
    reference_sum_product,
    wide_random_mn,
    wide_range_mn,
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

    @pytest.mark.parametrize(
        "kernels, message",
        [
            (
                {"A": Kernel("A", (), [0.2, 0.3, 0.5])},
                "kernel for A has 3 values, expected 2",
            ),
            (
                {"A": Kernel("A", (), [0.5, 0.5]), "Z": Kernel("Z", (), [1.0])},
                "kernel given for unknown vertex Z",
            ),
            ({"A": Kernel("B", (), [0.5, 0.5])}, "kernel stored under A has child B"),
            (
                {"A": Kernel("A", (), [0.5, 0.5], stochastic=False)},
                "kernel for A is not flagged stochastic",
            ),
        ],
        ids=["size", "unknown", "child", "flag"],
    )
    def test_malformed_kernel_is_flagged(self, kernels, message):
        bn = BayesianNetwork(OrderedDag(("A",)), binary_vt("A"), kernels)
        assert network_violations(bn) == [message]

    def test_markov_factor_of_the_wrong_size_is_flagged(self):
        mn = MarkovNetwork(
            OrderedUGraph(("A",)),
            binary_vt("A"),
            {frozenset({"A"}): Factor(("A",), [1.0, 2.0, 3.0])},
        )
        assert network_violations(mn) == [
            "factor for clique ['A']: factor over ('A',) has 3 values, expected 2 "
            "for the declared cardinalities"
        ]

    def test_markov_factor_over_unsorted_variables_is_flagged(self):
        mn = MarkovNetwork(
            OrderedUGraph(("A", "B"), {frozenset({"A", "B"})}),
            binary_vt("A", "B"),
            {frozenset({"A", "B"}): Factor(("B", "A"), [1.0, 2.0, 3.0, 4.0])},
        )
        assert network_violations(mn) == [
            "factor for clique ['A', 'B'] is over ['B', 'A']"
        ]

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
            padded[frozenset({v})] = Factor((v,), np.ones(2))
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
        with pytest.raises(DegenerateDistributionError, match="identically zero"):
            network_distribution(mn)

    def test_misconception_not_degenerate(self, misconception):
        assert mn_partition(misconception) != 0.0

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
        assert mn_partition(mn) == 0.0


class TestChordalProducts:
    def test_kernel_product_matches_moralised_image(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            cnw = random_cn(rng)
            left = cn_product(cnw)
            right = mn_unnormalized(moralise_cn(cnw))
            assert left.vars == right.vars
            np.testing.assert_allclose(left.values, right.values, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "make, full_table",
    [(random_bn, bn_joint), (random_cn, cn_product), (random_mn, mn_unnormalized)],
    ids=["bn_joint", "cn_product", "mn_unnormalized"],
)
def test_full_tables_are_the_marginal_over_every_vertex(make, full_table):
    rng = np.random.default_rng(71)
    for _ in range(30):
        net = make(rng, max_card=4)
        got = full_table(net)
        want = marginal_distribution(net, list(net.graph.vertices))
        assert got.vars == want.vars == net.graph.vertices
        assert got.values.tobytes() == want.values.tobytes()


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
        # kept variables, 8 entries here.  Every bucket product is multiplied
        # on arrays by _compact_product, or by _wide_product when a partial
        # product may leave the normal range; factor_product is watched as well.
        original = chordalnet.factors.factor_product
        sizes = []

        def spy(a, b, vt):
            out = original(a, b, vt)
            sizes.append(out.values.size)
            return out

        def bucket_spy(build):
            def spied(tables, onto, vt):
                out = build(tables, onto, vt)
                sizes.append(np.size(out[0] if isinstance(out, tuple) else out))
                return out

            return spied

        monkeypatch.setattr(chordalnet.factors, "factor_product", spy)
        for name in ("_compact_product", "_wide_product"):
            build = getattr(chordalnet.networks, name)
            monkeypatch.setattr(chordalnet.networks, name, bucket_spy(build))
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

    def test_bucket_above_the_cap_names_its_vertex(self):
        # H, declared last, is summed out first, from a bucket over all 41
        # vertices; the kept table of the full product names no vertex.
        mn = hub_last_star(40)
        match = "^vertex H: a table over 41 variables"
        with pytest.raises(TableTooLargeError, match=match):
            mn_partition(mn)
        with pytest.raises(TableTooLargeError, match="^a table over 41 variables"):
            mn_unnormalized(mn)



class TestPlanBeforeProducts:
    """Sum-product sizes every bucket from the tables' scopes before it
    multiplies any, so a query over the cap is refused at once."""

    @pytest.fixture
    def products(self, monkeypatch):
        """The scope of every bucket product multiplied, call by call."""
        made = []
        for name in ("_compact_product", "_wide_product"):

            def spied(tables, onto, vt, build=getattr(chordalnet.networks, name)):
                made.append(onto)
                return build(tables, onto, vt)

            monkeypatch.setattr(chordalnet.networks, name, spied)
        return made

    def test_a_random_order_grid_is_refused_before_any_product(self, products):
        # Along this order the bucket of g0602, the 22nd vertex eliminated,
        # spans 17 variables; the 21 buckets before it are multiplied no more.
        net = random_order_grid(np.random.default_rng(1), 8, 3)
        message = (
            "vertex g0602: a table over 17 variables would have 129,140,163 "
            "entries, more than the cap of 16,777,216"
        )
        queries = [mn_partition, lambda n: marginal_distribution(n, n.graph.vertices[:1])]
        for query in queries:
            with pytest.raises(TableTooLargeError) as refused:
                query(net)
            assert str(refused.value) == message
        assert products == []

    def test_a_large_random_order_grid_is_refused_at_once(self, products):
        net = random_order_grid(np.random.default_rng(1), 12, 3)
        start = time.perf_counter()
        with pytest.raises(TableTooLargeError, match="^vertex g0904: "):
            mn_partition(net)
        assert time.perf_counter() - start < 0.1
        assert products == []

    def test_graph_edges_without_factors_do_not_refuse(self):
        # The chain's factors on the complete graph: the buckets follow the
        # tables' scopes, while the triangulation follows the graph.
        chain = chain_mn(np.random.default_rng(5), 30)
        names = chain.graph.vertices
        graph = OrderedUGraph(names, {frozenset(p) for p in combinations(names, 2)})
        mn = MarkovNetwork(graph, chain.vt, chain.factors)
        log_z = oracle_chain_log_partition(chain)
        assert math.log(mn_partition(mn)) == pytest.approx(log_z, rel=1e-12, abs=0)
        refusal = "^vertex x24: .* 33,554,432 entries"
        with pytest.raises(TableTooLargeError, match=refusal):
            triangulate_mn(mn)


def star_mn(leaves: int) -> MarkovNetwork:
    names = ("c",) + tuple(f"l{i}" for i in range(leaves))
    edges = {frozenset(("c", leaf)) for leaf in names[1:]}
    factors = {e: Factor(("c", (set(e) - {"c"}).pop()), [0.5] * 4) for e in edges}
    return MarkovNetwork(OrderedUGraph(names, edges), binary_vt(*names), factors)


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

    def test_many_messages_into_one_bucket(self):
        # Each of 1100 leaves sends the message (1, 1) to the centre, kept
        # as (0.5, 0.5) times 2; multiplied unscaled, 0.5**1100 underflows.
        mn = star_mn(1100)
        assert mn_partition(mn) == 2.0
        assert marginal_distribution(mn, ["c"]).values.tolist() == [1.0, 1.0]


def a_c_b_mn(c_values) -> MarkovNetwork:
    """A - C - B with {A, C} = {B, C} = (1e200, 1, 1e200, 1) and {C} as given:
    the product of the pair factors alone overflows where C = 0."""
    vt = binary_vt("A", "B", "C")
    graph = OrderedUGraph(("A", "B", "C"), {frozenset("AC"), frozenset("BC")})
    factors = {
        frozenset("C"): Factor(("C",), c_values),
        frozenset("AC"): Factor(("A", "C"), [1e200, 1.0, 1e200, 1.0]),
        frozenset("BC"): Factor(("B", "C"), [1e200, 1.0, 1e200, 1.0]),
    }
    return MarkovNetwork(graph, vt, factors)


class TestRangeExact:
    """Tables whose entries span more than one power of two can bring into
    the range of a double: sum-product (``mn_partition``,
    ``marginal_distribution``) loses no mass on them, and the sweep
    (``variable_elimination``, ``mn_to_bn``) answers R1-R3 and calls a
    network degenerate only when its Z is 0."""

    def test_wide_single_tables(self):
        # Every joint entry is 1e-100; each table alone spans 1e400.
        mn = wide_range_mn()
        assert mn_partition(mn) == pytest.approx(4e-100, rel=1e-12)
        np.testing.assert_allclose(
            marginal_distribution(mn, ["Y"]).values, [2e-100] * 2, rtol=1e-12
        )
        joint = network_distribution(mn).values
        np.testing.assert_allclose(joint, [0.25] * 4, rtol=1e-12)
        _, trace = variable_elimination(triangulate_mn(mn))
        assert trace.partition_mass() == pytest.approx(4e-100, rel=1e-12)
        kernel = mn_to_bn(mn).kernels["Y"].values
        np.testing.assert_allclose(kernel, [0.5, 0.5], rtol=1e-12)

    @pytest.mark.parametrize(
        "c_values, z", [([0.0, 1.0], 4.0), ([1e-300, 1e100], 8e100)], ids=["R2", "R3"]
    )
    def test_product_out_of_range_inside_one_bucket(self, c_values, z):
        mn = a_c_b_mn(c_values)
        assert mn_partition(mn) == pytest.approx(z, rel=1e-12)
        _, trace = variable_elimination(triangulate_mn(mn))
        assert trace.partition_mass() == pytest.approx(z, rel=1e-12)

    def test_wide_networks_against_the_exact_oracle(self):
        # Z is exact in rational arithmetic.  Sum-product answers it within
        # 1e-12, or, out of range, raises with log Z; the sweep may also
        # raise OutOfRangeError, but calls a network degenerate only when
        # its Z is 0.
        rng = np.random.default_rng(17)
        smallest, largest = Fraction(2) ** -1022, Fraction(sys.float_info.max)
        kinds = Counter()
        for _ in range(300):
            mn = wide_random_mn(rng)
            z = sum(exact_mn_marginal(mn))
            if z == 0 or smallest <= z <= largest:
                kinds["in range"] += 1
                assert mn_partition(mn) == pytest.approx(float(z), rel=1e-12)
            else:
                kinds["out of range"] += 1
                with pytest.raises(OutOfRangeError) as info:
                    mn_partition(mn)
                log_z = math.log(z.numerator) - math.log(z.denominator)
                assert info.value.log_mass == pytest.approx(log_z, rel=1e-12)
            try:
                variable_elimination(triangulate_mn(mn))
            except DegenerateDistributionError:
                assert z == 0
                kinds["degenerate"] += 1
            except OutOfRangeError:
                pass
        assert all(kinds[k] for k in ("in range", "out of range", "degenerate")), kinds

    def test_distribution_with_an_exponent_per_entry(self):
        # The joint spans 1e1200, so no one power of two keeps it in range,
        # and the normalisation scales each entry by its own exponent.
        vt = VariableTable((("Y", ("0", "1", "2")), ("X", ("0", "1"))))
        factors = {
            frozenset("Y"): Factor(("Y",), [1e-300, 1e300, 1e300]),
            frozenset("X"): Factor(("X",), [1e-300, 1e300]),
        }
        mn = MarkovNetwork(OrderedUGraph(("Y", "X")), vt, factors)
        exact = exact_mn_marginal(mn, {"Y", "X"})
        expected = [float(x / sum(exact)) for x in exact]
        assert expected == [0, 0, 0, 0.5, 0, 0.5]
        assert network_distribution(mn).values.tolist() == expected

    # A known wrong answer of the sweep on the oracle corpus above.  It is
    # a ``FOUND`` line of CHANGES.md; the mend removes the marker.
    SUBNORMAL_KEPT = (
        "FOUND: transforms._kept accepts a product entry that rounds to a nonzero "
        "subnormal, with the bits it lost"
    )

    @staticmethod
    def wide_network(seed, index):
        rng = np.random.default_rng(seed)
        for _ in range(index):
            wide_random_mn(rng)
        return wide_random_mn(rng)

    def test_first_kernel_where_a_host_product_underflows(self):
        mn = self.wide_network(17, 292)
        exact = exact_mn_marginal(mn, {"V0"})
        expected = [float(x / sum(exact)) for x in exact]
        kernel = mn_to_bn(mn).kernels["V0"].values
        np.testing.assert_allclose(kernel, expected, rtol=1e-12, atol=0)

    def test_partition_mass_where_a_host_product_underflows(self):
        mn = self.wide_network(17, 292)
        z = float(sum(exact_mn_marginal(mn)))
        _, trace = variable_elimination(triangulate_mn(mn))
        assert trace.partition_mass() == pytest.approx(z, rel=1e-12, abs=0)

    @pytest.mark.parametrize("seed, index", [(17, 28), (17, 177), (17, 292), (5, 292)])
    def test_kernels_where_a_host_product_underflows(self, seed, index):
        # A tiny kernel entry times a tiny absorbed mass underflows in the
        # host's table while the host's mass stays positive in another row.
        # Each kernel row is compared where its parents' marginal is nonzero,
        # the rows on which the conditional is defined.
        mn = self.wide_network(seed, index)
        bn = mn_to_bn(mn)
        for v in mn.graph.vertices:
            family = bn.graph.parents_of(v) + (v,)
            exact = exact_mn_marginal(mn, set(family))
            card = mn.vt.card(v)
            rows = bn.kernels[v].values.reshape(-1, card)
            for got, i in zip(rows, range(0, len(exact), card)):
                total = sum(exact[i : i + card])
                if total:
                    expected = [float(x / total) for x in exact[i : i + card]]
                    np.testing.assert_allclose(
                        got, expected, rtol=1e-12, atol=2 * 2.0**-1074
                    )

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=SUBNORMAL_KEPT)
    def test_partition_mass_where_a_kernel_entry_is_subnormal(self):
        mn = self.wide_network(5, 85)
        z = float(sum(exact_mn_marginal(mn)))
        _, trace = variable_elimination(triangulate_mn(mn))
        assert trace.partition_mass() == pytest.approx(z, rel=1e-12, abs=0)


class TestSumProductOnArrays:
    """The sweep on plain arrays against the sweep on ``Factor`` objects."""

    MAKERS = {"bayesian": random_bn, "markov": random_mn, "chordal": random_cn}

    @staticmethod
    def assert_bit_identical(net, keep):
        kept, table, exponent = chordalnet.networks._sum_product(net, keep)
        want_kept, want_table, want_exponent = reference_sum_product(net, keep)
        assert kept == want_kept
        assert table.shape == want_table.shape
        assert table.tobytes() == want_table.tobytes()
        assert exponent == want_exponent

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(sorted(MAKERS)),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_the_factor_sweep_bit_for_bit(self, kind, seed, data):
        # Cards 2 to 10 on at most 4 vertices: tables of up to 10,000 entries.
        net = self.MAKERS[kind](np.random.default_rng(seed), n_max=4, max_card=10)
        names = net.graph.vertices
        keep = data.draw(
            st.one_of(
                st.just(set()), st.just(set(names)), st.sets(st.sampled_from(names))
            )
        )
        self.assert_bit_identical(net, keep)

    def test_many_messages_into_one_bucket(self):
        net = star_mn(1100)
        for keep in (set(), {"c"}, {"l7"}):
            self.assert_bit_identical(net, keep)

    def test_subnormal_entries_match_the_exact_oracle(self):
        # A rescale by a power of two would round subnormal entries, and a
        # product of two of them underflows: neither may lose mass.  An
        # entry below the normal range is compared at the double's own
        # resolution there, 2**-1074.
        names = ("x0", "x1", "x2")
        vt = VariableTable(tuple((v, ("0", "1", "2")) for v in names))
        pairs = [("x0", "x1"), ("x1", "x2")]
        graph = OrderedUGraph(names, {frozenset(p) for p in pairs})
        rng = np.random.default_rng(11)
        for _ in range(20):
            tiny = rng.integers(1, 8, size=(2, 9)) * 5e-324
            values = np.where(rng.random((2, 9)) < 0.5, tiny, rng.uniform(1, 3, (2, 9)))
            factors = {frozenset(p): Factor(p, v) for p, v in zip(pairs, values)}
            mn = MarkovNetwork(graph, vt, factors)
            for keep in ([], ["x0"]):
                exact = [float(x) for x in exact_mn_marginal(mn, keep)]
                got = marginal_distribution(mn, keep).values
                np.testing.assert_allclose(got, exact, rtol=1e-12, atol=2**-1074)

    @pytest.mark.parametrize("low, high", [(1.0, 3.0), (0.01, 0.1)])
    def test_chains_whose_mass_leaves_double_range(self, low, high):
        mn = chain_mn(np.random.default_rng(600), 600, low, high)
        for keep in (set(), {"x0"}):
            self.assert_bit_identical(mn, keep)

    def test_a_tiny_entry_that_meets_a_one_is_multiplied_directly(self, monkeypatch):
        # Each table's least entry is 2**-600, so C's bucket might have held
        # 2**-1200; but every small entry meets a 1, no multiply loses a bit,
        # and the FPU's underflow flag stays down: no bucket is rebuilt.
        calls = []
        wide_product = chordalnet.networks._wide_product

        def counted(*args):
            calls.append(args)
            return wide_product(*args)

        monkeypatch.setattr(chordalnet.networks, "_wide_product", counted)
        tiny = 2.0**-600
        graph = OrderedUGraph(("A", "B", "C"), {frozenset("AC"), frozenset("BC")})
        factors = {
            frozenset("AC"): Factor(("A", "C"), [tiny, 1, tiny, 1]),
            frozenset("BC"): Factor(("B", "C"), [1, tiny, 1, tiny]),
        }
        mn = MarkovNetwork(graph, binary_vt("A", "B", "C"), factors)
        assert mn_partition(mn) == 2.0**-597
        assert marginal_distribution(mn, ["A"]).values.tolist() == [2.0**-598] * 2
        assert calls == []


class TestValidateOnce:
    """A network that passed validation is not checked again; it cannot
    change, and a failure is never remembered."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """The networks passed to ``network_violations``, call by call."""
        seen = []
        original = chordalnet.networks.network_violations

        def spy(net):
            seen.append(net)
            return original(net)

        for module in (chordalnet.networks, chordalnet.serial):
            monkeypatch.setattr(module, "network_violations", spy)
        return seen

    def test_a_loaded_network_is_checked_once(self, checked, fixtures_dir):
        mn = load_network(str(fixtures_dir / "misconception.json"))
        mn_to_bn(mn)
        assert checked == [mn]

    def test_triangulated_outputs_are_recorded_valid(self, checked, misconception):
        # A triangulation is valid by construction, so only its input and an
        # elimination output, on its first use, are checked.
        cn = triangulate_mn(misconception)
        bn, _ = variable_elimination(cn)
        variable_elimination(cn)
        triangulate_mn(misconception)
        marginal_distribution(bn, [])
        marginal_distribution(bn, [])
        assert checked == [misconception, bn]

    def test_repeated_queries_check_once(self, checked):
        rng = np.random.default_rng(5)
        mn, bn = chain_mn(rng, 8), chain_bn(rng, 8)
        for _ in range(3):
            mn_partition(mn)
            marginal_distribution(mn, ["x0"])
            marginal_distribution(bn, ["x3", "x5"])
        assert checked == [mn, bn]

    def test_an_invalid_network_fails_on_every_call(self, checked):
        vt = binary_vt("A", "B")
        bn = BayesianNetwork(OrderedDag(("A", "B")), vt, {"A": Kernel("A", (), [0.5, 0.5])})
        for call in (require_valid, require_valid, bn_joint, bn_joint):
            with pytest.raises(NetworkValidationError, match="vertex B has no kernel"):
                call(bn)
        assert checked == [bn] * 4

    def test_tables_cannot_be_replaced(self, misconception, bear):
        with pytest.raises(TypeError):
            bear.kernels["A"] = bear.kernels["B"]
        clique = next(iter(misconception.factors))
        with pytest.raises(TypeError):
            misconception.factors[clique] = misconception.factors[clique]
        with pytest.raises(TypeError):
            del triangulate_mn(misconception).kernels["A"]

    def test_every_kind_survives_a_pickle_round_trip(self, misconception, bear):
        for net in (bear, misconception, triangulate_mn(misconception)):
            require_valid(net)
            for clone in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
                assert type(clone) is type(net)
                assert dumps_network(clone) == dumps_network(net)
                tables = getattr(clone, "kernels", None) or clone.factors
                assert not any(t.values.flags.writeable for t in tables.values())
                with pytest.raises(TypeError):
                    tables[next(iter(tables))] = None


class TestPlanOnce:
    """The plan of a sum with nothing kept is built once per network, which
    cannot change; a plan that keeps variables, and a refusal, are not kept."""

    @pytest.fixture
    def planned(self, monkeypatch):
        """The networks whose tables a plan read, call by call."""
        seen = []
        original = chordalnet.networks._tables

        def spy(net):
            seen.append(net)
            return original(net)

        monkeypatch.setattr(chordalnet.networks, "_tables", spy)
        return seen

    def test_repeated_partitions_plan_once(self, planned):
        mn = chain_mn(np.random.default_rng(5), 8)
        assert len({mn_partition(mn).hex() for _ in range(3)}) == 1
        assert planned == [mn]

    def test_a_marginal_plans_on_every_call(self, planned):
        mn = chain_mn(np.random.default_rng(5), 8)
        mn_partition(mn)
        for _ in range(3):
            marginal_distribution(mn, ["x3"])
        assert planned == [mn] * 4

    def test_a_refused_network_is_refused_on_every_call(self, planned):
        mn = hub_last_star(40)
        for _ in range(3):
            with pytest.raises(TableTooLargeError, match="^vertex H: "):
                mn_partition(mn)
        assert planned == [mn] * 3

    def test_a_kept_plan_gives_the_same_bits(self):
        # B is in no table, so its bucket is empty; the chain's mass leaves
        # the range of a double, and the wide networks' sums can carry one
        # exponent per entry.
        vt = binary_vt("A", "B")
        factors = {frozenset("A"): Factor(("A",), [1.0, 3.0])}
        lone = MarkovNetwork(OrderedUGraph(("A", "B")), vt, factors)
        chain = chain_mn(np.random.default_rng(600), 600, 0.01, 0.1)
        rng = np.random.default_rng(17)
        for net in [lone, chain] + [wide_random_mn(rng) for _ in range(20)]:
            kept, table, exponent = chordalnet.networks._sum_product(net, set())
            for _ in range(2):
                again = chordalnet.networks._sum_product(net, set())
                assert again[0] == kept
                assert again[1].tobytes() == table.tobytes()
                assert np.asarray(again[2]).tobytes() == np.asarray(exponent).tobytes()

    def test_clones_plan_afresh_and_give_the_same_z(self, planned, misconception):
        z = mn_partition(misconception)
        clones = [pickle.loads(pickle.dumps(misconception)), copy.deepcopy(misconception)]
        for clone in clones:
            assert mn_partition(clone).hex() == z.hex()
        assert planned == [misconception] + clones
