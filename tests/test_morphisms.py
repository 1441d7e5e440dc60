"""Network morphisms: validation, composition, decomposition, updates.

Morphism direction is contravariant: alpha maps the target network's graph
into the source network's graph, while eta carries source domains to
products of target domains.  The tests build morphisms from the three
concrete families the library constructs (identities, marginalizations,
update witnesses) plus hand-made contractions.
"""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chordalnet.factors
import chordalnet.morphisms
from chordalnet import (
    BayesianNetwork,
    ChordalNetwork,
    DegenerateDistributionError,
    Factor,
    GraphHom,
    Kernel,
    MarkovNetwork,
    NetworkMorphism,
    OrderedDag,
    OrderedUGraph,
    OutOfRangeError,
    PearlVertexUpdate,
    TableTooLargeError,
    VariableTable,
    bn_joint,
    compose_morphisms,
    decompose_morphism,
    identity_morphism,
    load_network,
    marginal_distribution,
    marginalization_morphism,
    mn_to_bn,
    mn_unnormalized,
    moralise_bn,
    moralise_cn,
    morphism_violations,
    network_distribution,
    normalize_to_kernel,
    pearl_update,
    transfer_matrix,
    triangulate_mn,
    vstructure_counterexample,
)
from chordalnet.morphisms import PRESERVATION_TOL
from helpers import (
    bear_bn,
    chain_mn,
    oracle_bn_joint,
    oracle_chain_log_marginal,
    oracle_chain_marginal,
    oracle_chain_posterior,
    oracle_factors_over,
    oracle_mn_table,
    oracle_posterior,
    random_bn,
    random_cn,
    random_mn,
    reference_regrouped_factors,
    reference_regrouped_kernels,
)
from helpers import chain_bn as random_chain_bn


def binary_vt(*names):
    return VariableTable(tuple((n, ("0", "1")) for n in names))


def chain_bn():
    vt = binary_vt("A", "B")
    return BayesianNetwork(
        OrderedDag(("A", "B"), {("A", "B")}),
        vt,
        {
            "A": Kernel("A", (), [0.3, 0.7]),
            "B": Kernel("B", ("A",), [0.9, 0.1, 0.2, 0.8]),
        },
    )


class TestValidate:
    def test_identity_on_bn(self, misconception):
        bn = mn_to_bn(misconception)
        assert morphism_violations(identity_morphism(bn), bn, bn) == []

    def test_identity_on_mn(self, misconception):
        m = identity_morphism(misconception)
        assert morphism_violations(m, misconception, misconception) == []

    def test_marginalization_validates(self, misconception):
        bn = mn_to_bn(misconception)
        target, m = marginalization_morphism(bn, "A")
        assert morphism_violations(m, bn, target) == []

    def test_scaled_eta_is_stochasticity_violation(self):
        bn = chain_bn()
        m = identity_morphism(bn)
        m.eta["B"] = 2.0 * m.eta["B"]
        violations = morphism_violations(m, bn, bn)
        assert len(violations) == 1 and "column-stochastic" in violations[0]

    def test_wrong_graph_reference_is_flagged(self):
        bn = chain_bn()
        other = bear_bn()
        m = identity_morphism(bn)
        assert any(
            "target network's graph" in v for v in morphism_violations(m, bn, other)
        )

    def test_long_identity_validates_without_the_transfer_matrix(self, monkeypatch):
        # The Kronecker transfer matrix of a 16-variable binary chain has
        # 2**32 entries; the check must never build it.
        def refuse(*args):
            raise AssertionError("transfer_matrix was built")

        monkeypatch.setattr(chordalnet.morphisms, "transfer_matrix", refuse)
        bn = random_chain_bn(np.random.default_rng(16), 16)
        assert morphism_violations(identity_morphism(bn), bn, bn) == []

    @pytest.mark.parametrize(
        "eta, message",
        [
            (None, "eta is missing a component for vertex B"),
            (np.eye(3), r"eta\[B\] has shape \(3, 3\), expected \(2, 2\)"),
            (
                np.array([[1.5, 0.0], [-0.5, 1.0]]),
                r"eta\[B\] has negative or non-finite entries",
            ),
        ],
        ids=["missing", "shape", "sign"],
    )
    def test_malformed_eta_component_is_flagged(self, eta, message):
        bn = chain_bn()
        m = identity_morphism(bn)
        if eta is None:
            del m.eta["B"]
        else:
            m.eta["B"] = eta
        violations = morphism_violations(m, bn, bn)
        assert len(violations) == 1 and re.fullmatch(message, violations[0])

    def test_broken_preservation_is_reported_with_deviation(self):
        bn = chain_bn()
        m = identity_morphism(bn)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        m.eta["B"] = swap  # relabels B without changing the target
        violations = morphism_violations(m, bn, bn)
        assert len(violations) == 1 and "deviation" in violations[0]


class TestMarginalizationMorphism:
    def test_single_vertex_network_is_identity_like(self):
        vt = binary_vt("A")
        bn = BayesianNetwork(OrderedDag(("A",)), vt, {"A": Kernel("A", (), [0.3, 0.7])})
        target, m = marginalization_morphism(bn, "A")
        assert np.array_equal(m.eta["A"], np.eye(2))
        assert np.array_equal(target.kernels["A"].values, [0.3, 0.7])

    def test_misconception_target_distribution(self, misconception):
        bn = mn_to_bn(misconception)
        target, m = marginalization_morphism(bn, "A")
        assert target.kernels["A"].values[0] == pytest.approx(0.1806, abs=1e-4)
        assert morphism_violations(m, bn, target) == []

    def test_chain_last_vertex_matches_enumeration(self):
        bn = chain_bn()
        target, m = marginalization_morphism(bn, "B")
        joint = bn_joint(bn).values.reshape(2, 2)
        np.testing.assert_allclose(
            target.kernels["B"].values, joint.sum(axis=0), rtol=1e-12
        )
        assert morphism_violations(m, bn, target) == []

    def test_zero_factor_is_degenerate(self):
        mn = MarkovNetwork(
            OrderedUGraph(("A",)),
            binary_vt("A"),
            {frozenset({"A"}): Factor(("A",), [0.0, 0.0])},
        )
        with pytest.raises(DegenerateDistributionError, match="identically zero"):
            marginalization_morphism(mn, "A")

    def test_markov_network_target_keeps_kind(self, misconception):
        target, m = marginalization_morphism(misconception, "C")
        assert isinstance(target, MarkovNetwork)
        assert morphism_violations(m, misconception, target) == []

    def test_markov_target_is_one_factor_over_the_vertex(self, misconception):
        rng = np.random.default_rng(517)
        for mn in [misconception] + [random_mn(rng) for _ in range(8)]:
            for v in mn.graph.vertices:
                target, m = marginalization_morphism(mn, v)
                assert isinstance(target, MarkovNetwork)
                assert target.graph.vertices == (v,)
                assert list(target.factors) == [frozenset({v})]
                factor = target.factors[frozenset({v})]
                assert factor.vars == (v,)
                want = marginal_distribution(mn, [v]).values
                np.testing.assert_allclose(
                    factor.values, want / want.sum(), rtol=0, atol=1e-12
                )
                assert morphism_violations(m, mn, target) == []


class TestMarginalizationWithoutJoint:
    def test_thirty_chain_matches_forward_oracle(self):
        # The joint has 2**30 entries, above the table cap.
        bn = random_chain_bn(np.random.default_rng(3), 30)
        for v in ("x0", "x14", "x29"):
            target, m = marginalization_morphism(bn, v)
            np.testing.assert_allclose(
                target.kernels[v].values, oracle_chain_marginal(bn, v), rtol=0, atol=1e-12
            )
            assert m.alpha.vertex_map == {v: v}

    def test_markov_and_chordal_marginals_are_normalized(self):
        rng = np.random.default_rng(211)
        for _ in range(20):
            for net in (random_mn(rng), random_cn(rng)):
                v = net.graph.vertices[int(rng.integers(len(net.graph.vertices)))]
                target, _ = marginalization_morphism(net, v)
                got = (
                    target.factors[frozenset({v})]
                    if isinstance(net, MarkovNetwork)
                    else target.kernels[v]
                ).values
                dist = network_distribution(net)
                axes = tuple(i for i, u in enumerate(dist.vars) if u != v)
                want = dist.values.reshape(net.vt.shape(dist.vars)).sum(axis=axes)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_total_mass_out_of_range_still_gives_the_marginal(self):
        # log Z is about 823, beyond a double; the normalized marginal is not.
        mn = chain_mn(np.random.default_rng(600), 600, 1.0, 3.0)
        for net in (mn, triangulate_mn(mn)):
            for v in ("x0", "x299", "x599"):
                target, _ = marginalization_morphism(net, v)
                got = (
                    target.factors[frozenset({v})]
                    if isinstance(net, MarkovNetwork)
                    else target.kernels[v]
                ).values
                np.testing.assert_allclose(
                    got, oracle_chain_log_marginal(mn, v), rtol=0, atol=1e-12
                )


class TestTotalMassOutOfRange:
    """The factors on {A, B} and {B} hold 1e200 each: the product's total
    mass is 4e400, beyond a double, but the distribution is uniform."""

    def test_distribution_is_normalized_in_range(self, fixtures_dir):
        mn = load_network(fixtures_dir / "out_of_range.json")
        assert network_distribution(mn).values.tolist() == [0.25] * 4

    def test_identity_morphism_has_no_violation(self, fixtures_dir):
        mn = load_network(fixtures_dir / "out_of_range.json")
        assert morphism_violations(identity_morphism(mn), mn, mn) == []


class TestTableCaps:
    def test_transfer_matrix_is_refused_before_it_is_built(self):
        # 13 binary vertices: 4**13 = 2**26 entries, above the cap of 2**24.
        names = tuple(f"x{i}" for i in range(13))
        bn = BayesianNetwork(
            OrderedDag(names),
            binary_vt(*names),
            {v: Kernel(v, (), [0.5, 0.5]) for v in names},
        )
        with pytest.raises(TableTooLargeError, match="67,108,864 entries"):
            transfer_matrix(identity_morphism(bn), bn)

    def test_transfer_matrix_cap_is_the_network_cap(self, monkeypatch):
        bn = chain_bn()
        monkeypatch.setattr(chordalnet.factors, "MAX_TABLE_ENTRIES", 15)
        with pytest.raises(TableTooLargeError, match="16 entries"):
            transfer_matrix(identity_morphism(bn), bn)
        monkeypatch.setattr(chordalnet.factors, "MAX_TABLE_ENTRIES", 16)
        assert np.array_equal(transfer_matrix(identity_morphism(bn), bn), np.eye(4))

    def test_composed_blocks_are_capped(self, monkeypatch):
        # g's 4x4 component over X is f's whole output block for X.
        tgt = chain_bn()
        src = BayesianNetwork(
            OrderedDag(("X",)),
            VariableTable((("X", ("(0,0)", "(0,1)", "(1,0)", "(1,1)")),)),
            {"X": Kernel("X", (), bn_joint(tgt).values)},
        )
        g = NetworkMorphism(
            GraphHom(tgt.graph, src.graph, {"A": "X", "B": "X"}), {"X": np.eye(4)}
        )
        monkeypatch.setattr(chordalnet.factors, "MAX_TABLE_ENTRIES", 15)
        with pytest.raises(TableTooLargeError, match="16 entries"):
            compose_morphisms(identity_morphism(src), g)
        monkeypatch.setattr(chordalnet.factors, "MAX_TABLE_ENTRIES", 16)
        composed = compose_morphisms(identity_morphism(src), g)
        assert np.array_equal(composed.eta["X"], np.eye(4))

    def test_regrouped_tables_are_capped(self, monkeypatch):
        # A and B bundled onto X regroup into one table of 4 entries.  In
        # decompose_morphism the preservation check meets the cap first,
        # on the target's full table, which is never smaller.
        tgt = chain_bn()
        src = OrderedDag(("X",))
        mn = moralise_bn(tgt)
        usrc = OrderedUGraph(("X",))
        monkeypatch.setattr(chordalnet.factors, "MAX_TABLE_ENTRIES", 3)
        with pytest.raises(TableTooLargeError, match="4 entries"):
            chordalnet.morphisms._regrouped_kernels(
                src, tgt, GraphHom(tgt.graph, src, {"A": "X", "B": "X"})
            )
        with pytest.raises(TableTooLargeError, match="4 entries"):
            chordalnet.morphisms._regrouped_factors(
                usrc, mn, GraphHom(mn.graph, usrc, {"A": "X", "B": "X"})
            )

    def test_distribution_above_the_cap_is_raised_not_reported(self, monkeypatch):
        # A refusal to build the 32-entry distribution is not a violation.
        bn = random_chain_bn(np.random.default_rng(3), 5)
        monkeypatch.setattr(chordalnet.factors, "MAX_TABLE_ENTRIES", 16)
        with pytest.raises(TableTooLargeError, match="32 entries"):
            morphism_violations(identity_morphism(bn), bn, bn)
        with pytest.raises(TableTooLargeError, match="32 entries"):
            decompose_morphism(identity_morphism(bn), bn, bn)

    @pytest.mark.parametrize("make", [random_chain_bn, chain_mn], ids=["bn", "mn"])
    def test_pearl_update_family_above_the_cap(self, monkeypatch, make):
        # x0's family has 2 entries, x1's has 4.
        net = make(np.random.default_rng(3), 5)
        monkeypatch.setattr(chordalnet.factors, "MAX_TABLE_ENTRIES", 2)
        update = {"x4": PearlVertexUpdate(weight=np.array([1.0, 0.0]))}
        with pytest.raises(TableTooLargeError, match="^vertex x1: .* 4 entries"):
            pearl_update(net, update)


class TestCompose:
    def test_identity_is_neutral(self):
        bn = chain_bn()
        target, m = marginalization_morphism(bn, "A")
        composed = compose_morphisms(identity_morphism(bn), m)
        assert composed.alpha.vertex_map == m.alpha.vertex_map
        for v in bn.graph.vertices:
            np.testing.assert_allclose(composed.eta[v], m.eta[v])

    def test_two_marginalizations_compose_to_one(self):
        bn = chain_bn()
        t1, m1 = marginalization_morphism(bn, "B")
        t2, m2 = marginalization_morphism(t1, "B")
        composed = compose_morphisms(m1, m2)
        # the matrix product equals the single-step marginalizer
        np.testing.assert_allclose(
            transfer_matrix(composed, bn), transfer_matrix(m1, bn), rtol=1e-12
        )
        assert morphism_violations(composed, bn, t2) == []

    def test_type_mismatch_is_error(self):
        bn = chain_bn()
        _, m1 = marginalization_morphism(bn, "A")
        with pytest.raises(ValueError, match="type mismatch"):
            compose_morphisms(m1, m1)

    def test_seeded_compositions_validate(self):
        rng = np.random.default_rng(107)
        done = 0
        while done < 20:
            bn = random_bn(rng, n_max=4)
            v = bn.graph.vertices[int(rng.integers(len(bn.graph.vertices)))]
            card = bn.vt.card(v)
            perm = np.eye(card)[rng.permutation(card)]
            mid, m1 = pearl_update(bn, {v: PearlVertexUpdate(iso=perm)})
            w = mid.graph.vertices[int(rng.integers(len(mid.graph.vertices)))]
            tgt, m2 = marginalization_morphism(mid, w)
            composed = compose_morphisms(m1, m2)
            assert morphism_violations(composed, bn, tgt) == []
            done += 1


class TestDecompose:
    def test_identity_decomposes_into_identities(self):
        bn = chain_bn()
        m = identity_morphism(bn)
        semantic, syntactic, mid = decompose_morphism(m, bn, bn)
        for v in bn.graph.vertices:
            assert np.array_equal(semantic.eta[v], np.eye(bn.vt.card(v)))
            assert np.array_equal(syntactic.eta[v], np.eye(bn.vt.card(v)))
        assert morphism_violations(semantic, bn, mid) == []
        assert morphism_violations(syntactic, mid, bn) == []

    def test_pure_contraction_splits_into_identity_semantics(self):
        # source: one vertex carrying the chain joint; target: the chain
        tgt = chain_bn()
        joint = bn_joint(tgt)
        vt = VariableTable((("X", ("(0,0)", "(0,1)", "(1,0)", "(1,1)")),))
        src = BayesianNetwork(
            OrderedDag(("X",)), vt, {"X": Kernel("X", (), joint.values)}
        )
        alpha = GraphHom(tgt.graph, src.graph, {"A": "X", "B": "X"})
        m = NetworkMorphism(alpha, {"X": np.eye(4)})
        assert morphism_violations(m, src, tgt) == []

        semantic, syntactic, mid = decompose_morphism(m, src, tgt)
        assert np.array_equal(semantic.eta["X"], np.eye(4))
        assert semantic.alpha.vertex_map == {"X": "X"}
        assert syntactic.alpha.vertex_map == alpha.vertex_map
        np.testing.assert_allclose(
            network_distribution(mid).values, joint.values, rtol=1e-12
        )

    def test_marginalization_recomposes_exactly(self, misconception):
        bn = mn_to_bn(misconception)
        tgt, m = marginalization_morphism(bn, "A")
        semantic, syntactic, mid = decompose_morphism(m, bn, tgt)
        assert morphism_violations(semantic, bn, mid) == []
        assert morphism_violations(syntactic, mid, tgt) == []
        back = compose_morphisms(semantic, syntactic)
        assert back.alpha.vertex_map == m.alpha.vertex_map
        for v in bn.graph.vertices:
            assert np.array_equal(back.eta[v], m.eta[v])

    def test_markov_decomposition(self, misconception):
        tgt, m = marginalization_morphism(misconception, "B")
        semantic, syntactic, mid = decompose_morphism(m, misconception, tgt)
        assert isinstance(mid, MarkovNetwork)
        assert morphism_violations(semantic, misconception, mid) == []
        assert morphism_violations(syntactic, mid, tgt) == []
        back = compose_morphisms(semantic, syntactic)
        for v in misconception.graph.vertices:
            assert np.array_equal(back.eta[v], m.eta[v])

    def test_invalid_morphism_is_rejected(self):
        bn = chain_bn()
        m = identity_morphism(bn)
        m.eta["A"] = 3.0 * m.eta["A"]
        with pytest.raises(ValueError, match="invalid"):
            decompose_morphism(m, bn, bn)


def random_contraction(rng, tgt):
    """A source graph and an order-preserving map of ``tgt``'s vertices onto
    it: consecutive target vertices share a source vertex, some source
    vertices have an empty preimage, and extra source edges add inputs
    that the regrouped tables do not mention."""
    names, vertex_map = [], {}
    for i, w in enumerate(tgt.graph.vertices):
        if rng.random() < 0.3:
            names.append(f"S{len(names)}")
        if i == 0 or rng.random() < 0.5:
            names.append(f"S{len(names)}")
        vertex_map[w] = names[-1]
    pos = {v: i for i, v in enumerate(names)}
    pairs = {
        tuple(sorted((vertex_map[u], vertex_map[w]), key=pos.get))
        for u, w in (tuple(e) for e in tgt.graph.edges)
    }
    pairs |= {
        (a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < 0.2
    }
    pairs = {(a, b) for a, b in pairs if a != b}
    if isinstance(tgt, MarkovNetwork):
        src = OrderedUGraph(tuple(names), {frozenset(p) for p in pairs})
    else:
        src = OrderedDag(tuple(names), pairs)
    return src, GraphHom(tgt.graph, src, vertex_map)


def exact_log(x: Fraction) -> float:
    """The natural log of a positive rational, also outside double range."""
    return math.log(x.numerator) - math.log(x.denominator)


def binary_pair_mn(factors: dict[str, list[float]]) -> MarkovNetwork:
    """The binary Markov network A - B with factors keyed "A", "B", "AB"."""
    graph = OrderedUGraph(("A", "B"), {frozenset("AB")})
    tables = {frozenset(k): Factor(tuple(k), v) for k, v in factors.items()}
    return MarkovNetwork(graph, binary_vt("A", "B"), tables)


class TestCheckedProducts:
    """Every unnormalised table that pearl_update and decompose_morphism
    keep is the triangulation's checked product: an entry that overflows
    or a nonzero one that rounds to zero raises OutOfRangeError naming the
    table, with the exact natural log of its total mass."""

    @pytest.mark.parametrize(
        "a_values, weight",
        [([1e-200, 1.0], [1e-200, 1e-300]), ([1e-200, 1e-200], [1e-200, 1e-200])],
        ids=["one-entry-lost", "every-entry-lost"],
    )
    def test_weighted_singleton_factor(self, a_values, weight):
        # Multiplied directly, the first weighted {A} is [0, 1e-300], which
        # drops P(a0, b0) = 1.4e-101; the second is all zero, a false
        # "update annihilates the joint" where the posterior is
        # [0.1, 0.2, 0.3, 0.4].
        mn = binary_pair_mn({"A": a_values, "AB": [1, 2, 3, 4]})
        update = {"A": PearlVertexUpdate(weight=np.array(weight))}
        with pytest.raises(OutOfRangeError, match="the table at vertex A ") as info:
            pearl_update(mn, update)
        mass = sum(Fraction(a) * Fraction(w) for a, w in zip(a_values, weight))
        assert info.value.log_mass == pytest.approx(exact_log(mass), rel=1e-12)

    @pytest.mark.parametrize(
        "kind, where",
        [("markov", "clique ['S']"), ("chordal", "vertex S")],
        ids=["markov", "chordal"],
    )
    def test_regrouped_table(self, kind, where):
        # One 4-state vertex S onto the binary A and B.  Multiplied
        # directly, the intermediate table at S is all zero.
        ab, single = [1e-200, 2e-200, 3e-200, 4e-200], [1e-200, 1e-200]
        vt = VariableTable((("S", ("0", "1", "2", "3")),))
        if kind == "markov":
            tgt = binary_pair_mn({"AB": ab, "B": single})
            graph = OrderedUGraph(("S",))
            src = MarkovNetwork(graph, vt, {frozenset("S"): Factor(("S",), [1, 2, 3, 4])})
        else:
            kernels = {
                "A": Kernel("A", (), single, stochastic=False),
                "B": Kernel("B", ("A",), ab, stochastic=False),
            }
            dag = OrderedDag(("A", "B"), {("A", "B")})
            tgt = ChordalNetwork(dag, binary_vt("A", "B"), kernels)
            graph = OrderedDag(("S",))
            kernel = Kernel("S", (), [1, 2, 3, 4], stochastic=False)
            src = ChordalNetwork(graph, vt, {"S": kernel})
        alpha = GraphHom(tgt.graph, graph, {"A": "S", "B": "S"})
        m = NetworkMorphism(alpha, {"S": np.eye(4)})
        assert morphism_violations(m, src, tgt) == []
        match = f"the table at {re.escape(where)} "
        with pytest.raises(OutOfRangeError, match=match) as info:
            decompose_morphism(m, src, tgt)
        mass = sum(Fraction(x) * Fraction(single[0]) for x in ab)
        assert info.value.log_mass == pytest.approx(exact_log(mass), rel=1e-12)

class TestRegroupedAgainstReference:
    """The regrouped tables of a decomposition against ``factor_product``
    chains, bit for bit, on cards 2 to 10."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["bayesian", "chordal"]))
    def test_kernel_bytes(self, seed, kind):
        rng = np.random.default_rng(seed)
        make = random_bn if kind == "bayesian" else random_cn
        tgt = make(rng, n_max=5, max_card=10)
        src, alpha = random_contraction(rng, tgt)
        got = chordalnet.morphisms._regrouped_kernels(src, tgt, alpha)
        want = reference_regrouped_kernels(src, tgt, alpha)
        assert got.keys() == want.keys()
        for v, k in want.items():
            assert (got[v].parents, got[v].stochastic) == (k.parents, k.stochastic)
            assert got[v].values.tobytes() == k.values.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 0.5, 0.0]))
    def test_factor_bytes(self, seed, keep):
        rng = np.random.default_rng(seed)
        tgt = random_mn(rng, n_max=5, max_card=10)
        factors = {c: f for c, f in tgt.factors.items() if rng.random() < keep}
        tgt = MarkovNetwork(tgt.graph, tgt.vt, factors)
        src, alpha = random_contraction(rng, tgt)
        got = chordalnet.morphisms._regrouped_factors(src, tgt, alpha)
        want = reference_regrouped_factors(src, tgt, alpha)
        assert got.keys() == want.keys()
        for clique, f in want.items():
            assert got[clique].vars == f.vars
            assert got[clique].values.tobytes() == f.values.tobytes()


class TestPearlUpdate:
    def test_identity_update_is_identity(self):
        bn = chain_bn()
        updated, m = pearl_update(bn, {})
        for v in bn.graph.vertices:
            np.testing.assert_allclose(
                updated.kernels[v].values, bn.kernels[v].values, rtol=1e-12
            )
            assert np.array_equal(m.eta[v], np.eye(2))
        assert morphism_violations(m, bn, updated) == []

    def test_binary_swap_permutes(self):
        bn = chain_bn()
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        updated, m = pearl_update(bn, {"B": PearlVertexUpdate(iso=swap)})
        expected = bn_joint(bn).values.reshape(2, 2)[:, ::-1].ravel()
        np.testing.assert_allclose(bn_joint(updated).values, expected, rtol=1e-12)
        assert np.array_equal(m.eta["B"], swap)
        assert morphism_violations(m, bn, updated) == []

    def test_leaf_indicator_matches_conditioning_oracle(self):
        bn = chain_bn()
        updated, m = pearl_update(
            bn, {"B": PearlVertexUpdate(weight=np.array([1.0, 0.0]))}
        )
        # brute-force conditioning on B = state 0
        joint = bn_joint(bn).values.reshape(2, 2)
        conditioned = joint * np.array([1.0, 0.0])
        conditioned = conditioned / conditioned.sum()
        np.testing.assert_allclose(
            bn_joint(updated).values, conditioned.ravel(), atol=1e-12
        )
        assert updated.graph == bn.graph
        assert morphism_violations(m, bn, updated) == []

    def test_soft_evidence_posterior(self):
        bn = chain_bn()
        weight = np.array([0.5, 0.2])
        updated, _ = pearl_update(bn, {"B": PearlVertexUpdate(weight=weight)})
        joint = bn_joint(bn).values.reshape(2, 2) * weight
        joint /= joint.sum()
        np.testing.assert_allclose(bn_joint(updated).values, joint.ravel(), atol=1e-12)

    def test_update_composition_matches_combined_evidence(self):
        bn = chain_bn()
        w1 = np.array([0.7, 0.4])
        w2 = np.array([0.5, 0.9])
        mid, m1 = pearl_update(bn, {"B": PearlVertexUpdate(weight=w1)})
        out, m2 = pearl_update(mid, {"B": PearlVertexUpdate(weight=w2)})
        combined, mc = pearl_update(bn, {"B": PearlVertexUpdate(weight=w1 * w2)})
        for v in bn.graph.vertices:
            np.testing.assert_allclose(
                out.kernels[v].values, combined.kernels[v].values, atol=1e-9
            )
        composed = compose_morphisms(m1, m2)
        for v in bn.graph.vertices:
            np.testing.assert_allclose(composed.eta[v], mc.eta[v], atol=1e-9)

    def test_relabel_composition(self):
        bn = chain_bn()
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        mid, m1 = pearl_update(bn, {"A": PearlVertexUpdate(iso=swap)})
        out, m2 = pearl_update(mid, {"A": PearlVertexUpdate(iso=swap)})
        composed = compose_morphisms(m1, m2)
        for v in bn.graph.vertices:
            np.testing.assert_allclose(composed.eta[v], np.eye(2))
            np.testing.assert_allclose(
                out.kernels[v].values, bn.kernels[v].values, rtol=1e-12
            )

    def test_annihilating_update_fails(self):
        bn = chain_bn()
        with pytest.raises(DegenerateDistributionError, match="annihilates"):
            pearl_update(bn, {"B": PearlVertexUpdate(weight=np.array([0.0, 0.0]))})

    def test_contradictory_indicators_fail(self):
        vt = binary_vt("A", "B")
        bn = BayesianNetwork(
            OrderedDag(("A", "B"), {("A", "B")}),
            vt,
            {
                "A": Kernel("A", (), [1.0, 0.0]),
                "B": Kernel("B", ("A",), [1.0, 0.0, 0.0, 1.0]),
            },
        )
        with pytest.raises(DegenerateDistributionError, match="annihilates"):
            pearl_update(
                bn,
                {
                    "A": PearlVertexUpdate(weight=np.array([1.0, 0.0])),
                    "B": PearlVertexUpdate(weight=np.array([0.0, 1.0])),
                },
            )

    def test_collider_evidence_needs_chordal_graph(self):
        vt = binary_vt("A", "B", "C")
        bn = BayesianNetwork(
            OrderedDag(("A", "B", "C"), {("A", "C"), ("B", "C")}),
            vt,
            {
                "A": Kernel("A", (), [0.5, 0.5]),
                "B": Kernel("B", (), [0.5, 0.5]),
                "C": Kernel("C", ("A", "B"), [1, 0, 0, 1, 0, 1, 1, 0]),
            },
        )
        with pytest.raises(ValueError, match="chordal"):
            pearl_update(bn, {"C": PearlVertexUpdate(weight=np.array([1.0, 0.0]))})

    def test_non_chordal_posterior_is_checked_without_the_joint(self, monkeypatch):
        # The collider A -> C <- B followed by C -> D -> E -> F: the joint has
        # 64 entries, above the cap, and no table of the check has more than 8.
        names = ("A", "B", "C", "D", "E", "F")
        edges = {("A", "C"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "F")}
        kernels = {
            "A": Kernel("A", (), [0.5, 0.5]),
            "B": Kernel("B", (), [0.5, 0.5]),
            "C": Kernel("C", ("A", "B"), [1, 0, 0, 1, 0, 1, 1, 0]),
        }
        for parent, child in (("C", "D"), ("D", "E"), ("E", "F")):
            kernels[child] = Kernel(child, (parent,), [0.9, 0.1, 0.2, 0.8])
        bn = BayesianNetwork(OrderedDag(names, edges), binary_vt(*names), kernels)
        monkeypatch.setattr(chordalnet.factors, "MAX_TABLE_ENTRIES", 16)
        with pytest.raises(ValueError, match="does not factor"):
            pearl_update(bn, {"C": PearlVertexUpdate(weight=np.array([1.0, 0.0]))})

    @pytest.mark.parametrize("vertex", ["A", "B"])
    @pytest.mark.parametrize("moral", [False, True], ids=["chordal", "markov"])
    def test_weighted_table_overflow_names_the_vertex(self, vertex, moral):
        # A weight of 1e10 on a table entry of 1e300 leaves a double: at A
        # it merges into A's own singleton table, at B it meets B's table
        # in the triangulation.
        cnw = ChordalNetwork(
            OrderedDag(("A", "B"), {("A", "B")}),
            binary_vt("A", "B"),
            {
                "A": Kernel("A", (), [1e300, 1.0], stochastic=False),
                "B": Kernel("B", ("A",), [1e300, 1.0, 1.0, 1.0], stochastic=False),
            },
        )
        net = moralise_cn(cnw) if moral else cnw
        update = {vertex: PearlVertexUpdate(weight=np.array([1e10, 1.0]))}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                OutOfRangeError, match="^table values must be finite and nonnegative: "
            ) as info:
                pearl_update(net, update)
        assert f"vertex {vertex} " in str(info.value)
        assert info.value.log_mass == pytest.approx(310 * math.log(10), rel=1e-12)

    def test_chordal_network_update_keeps_kind(self):
        vt = binary_vt("A", "B")
        cnw = ChordalNetwork(
            OrderedDag(("A", "B"), {("A", "B")}),
            vt,
            {
                "A": Kernel("A", (), [3.0, 1.0], stochastic=False),
                "B": Kernel("B", ("A",), [2.0, 2.0, 1.0, 3.0], stochastic=False),
            },
        )
        updated, m = pearl_update(
            cnw, {"B": PearlVertexUpdate(weight=np.array([1.0, 0.0]))}
        )
        assert isinstance(updated, ChordalNetwork)
        dist = network_distribution(cnw).values.reshape(2, 2)
        conditioned = dist * np.array([1.0, 0.0])
        conditioned /= conditioned.sum()
        np.testing.assert_allclose(
            network_distribution(updated).values, conditioned.ravel(), atol=1e-12
        )
        assert morphism_violations(m, cnw, updated) == []

    def test_chordal_graph_is_its_own_triangulation(self, monkeypatch):
        cnw = triangulate_mn(chain_mn(np.random.default_rng(8), 6))
        update = {"x5": PearlVertexUpdate(weight=np.array([1.0, 0.25]))}
        want = pearl_update(moralise_cn(cnw), update)[0]

        def refuse(*args):
            raise AssertionError("a chordal graph was triangulated again")

        monkeypatch.setattr(chordalnet.morphisms, "moralise_graph", refuse)
        monkeypatch.setattr(chordalnet.morphisms, "triangulate_graph", refuse)
        updated, m = pearl_update(cnw, update)
        assert isinstance(updated, ChordalNetwork) and updated.graph == cnw.graph
        np.testing.assert_allclose(
            network_distribution(updated).values,
            network_distribution(want).values,
            rtol=1e-12,
        )

    def test_markov_network_update(self, misconception):
        weight = np.array([0.8, 0.3])
        updated, m = pearl_update(
            misconception, {"A": PearlVertexUpdate(weight=weight)}
        )
        assert isinstance(updated, MarkovNetwork)
        assert updated.graph == misconception.graph
        oracle = oracle_mn_table(misconception).reshape(2, 8) * weight[:, None]
        np.testing.assert_allclose(
            mn_unnormalized(updated).values, oracle.ravel(), rtol=1e-12
        )
        dist = network_distribution(updated)
        image = transfer_matrix(m, misconception) @ network_distribution(
            misconception
        ).values
        # the per-vertex witness only carries the marginals here
        for i, v in enumerate(misconception.graph.vertices):
            got = image.reshape([2, 2, 2, 2])
            want = dist.values.reshape([2, 2, 2, 2])
            axes = tuple(j for j in range(4) if j != i)
            np.testing.assert_allclose(got.sum(axis=axes), want.sum(axis=axes), atol=1e-9)


def check_update_against_oracle(bn, weights):
    """``pearl_update`` against the dense posterior: the same "does not
    factor" verdict, and when it factors, the joint and eta within 1e-12."""
    posterior = oracle_posterior(bn, weights)
    updates = {v: PearlVertexUpdate(weight=w) for v, w in weights.items()}
    if not oracle_factors_over(bn.graph, posterior, PRESERVATION_TOL):
        with pytest.raises(ValueError, match="does not factor"):
            pearl_update(bn, updates)
        return
    updated, m = pearl_update(bn, updates)
    np.testing.assert_allclose(oracle_bn_joint(updated), posterior.ravel(), rtol=0, atol=1e-12)
    for i, v in enumerate(bn.graph.vertices):
        marginal = posterior.sum(axis=tuple(j for j in range(posterior.ndim) if j != i))
        want = np.tile(marginal[:, None], (1, bn.vt.card(v)))
        np.testing.assert_allclose(m.eta[v], want, rtol=0, atol=1e-12)


class TestPearlUpdateWithoutJoint:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_collider_evidence_matches_dense_posterior(self, seed):
        rng = np.random.default_rng(seed)
        bn = random_bn(rng, n_max=5)
        # Evidence always on a vertex with the most parents, a collider when
        # there is one; soft or indicator evidence elsewhere at random.
        collider = max(bn.graph.vertices, key=lambda v: len(bn.graph.parents_of(v)))
        weights = {}
        for v in bn.graph.vertices:
            card = bn.vt.card(v)
            if v == collider or rng.random() < 0.4:
                weights[v] = rng.uniform(0.05, 1.0, size=card)
            elif rng.random() < 0.3:
                weights[v] = np.eye(card)[int(rng.integers(card))]
            else:
                weights[v] = np.ones(card)
        check_update_against_oracle(bn, weights)

    def test_vstructure_counterexample(self):
        witness = vstructure_counterexample()
        c_given_ab, _ = normalize_to_kernel(witness.joint, "C", witness.vt)
        bn = BayesianNetwork(
            witness.dag,
            witness.vt,
            {"A": Kernel("A", (), [0.5, 0.5]), "B": Kernel("B", (), [0.5, 0.5]), "C": c_given_ab},
        )
        ones = np.ones(2)
        # Evidence on the collider makes A and B dependent; on a root it does not.
        for weights in (
            {"A": ones, "B": ones, "C": np.array([1.0, 0.0])},
            {"A": np.array([0.2, 0.7]), "B": ones, "C": ones},
        ):
            check_update_against_oracle(bn, weights)
        with pytest.raises(ValueError, match="does not factor"):
            pearl_update(bn, {"C": PearlVertexUpdate(weight=np.array([1.0, 0.0]))})

    @pytest.mark.parametrize("n", [30, 2000])
    def test_long_chain_matches_forward_backward(self, n):
        # The joint of either chain is far above the table cap.
        rng = np.random.default_rng(3)
        bn = random_chain_bn(rng, n)
        names = bn.graph.vertices
        weights = {v: rng.uniform(0.1, 1.0, size=2) for v in names[::7]}
        weights[names[-1]] = np.array([0.3, 1.0])
        updated, m = pearl_update(
            bn, {v: PearlVertexUpdate(weight=w) for v, w in weights.items()}
        )
        kernels, marginals = oracle_chain_posterior(bn, weights)
        for v in names:
            np.testing.assert_allclose(
                updated.kernels[v].values.reshape(-1, 2), kernels[v], rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(m.eta[v][:, 0], marginals[v], rtol=0, atol=1e-12)

    def test_markov_update_that_annihilates_the_joint(self):
        vt = binary_vt("A", "B")
        mn = MarkovNetwork(
            OrderedUGraph(("A", "B"), {frozenset(("A", "B"))}),
            vt,
            {frozenset(("A", "B")): Factor(("A", "B"), [1.0, 0.0, 0.0, 1.0])},
        )
        updates = {
            "A": PearlVertexUpdate(weight=np.array([1.0, 0.0])),
            "B": PearlVertexUpdate(weight=np.array([0.0, 1.0])),
        }
        with pytest.raises(DegenerateDistributionError, match="annihilates"):
            pearl_update(mn, updates)


class TestMorphismsSurviveTransforms:
    def test_bn_morphism_survives_moralisation(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            bn = random_bn(rng, n_max=4)
            v = bn.graph.vertices[int(rng.integers(len(bn.graph.vertices)))]
            tgt, m = marginalization_morphism(bn, v)
            assert morphism_violations(m, bn, tgt) == []
            src_m = moralise_bn(bn)
            tgt_m = moralise_bn(tgt)
            lifted = NetworkMorphism(
                GraphHom(tgt_m.graph, src_m.graph, dict(m.alpha.vertex_map)),
                dict(m.eta),
            )
            assert morphism_violations(lifted, src_m, tgt_m) == []

    def test_mn_morphism_survives_triangulation(self):
        rng = np.random.default_rng(113)
        done = 0
        while done < 10:
            mn = random_mn(rng, n_max=4)
            if oracle_mn_table(mn).sum() == 0:
                continue
            v = mn.graph.vertices[int(rng.integers(len(mn.graph.vertices)))]
            tgt, m = marginalization_morphism(mn, v)
            assert morphism_violations(m, mn, tgt) == []
            src_t = triangulate_mn(mn)
            tgt_t = triangulate_mn(tgt)
            lifted = NetworkMorphism(
                GraphHom(tgt_t.graph, src_t.graph, dict(m.alpha.vertex_map)),
                dict(m.eta),
            )
            assert morphism_violations(lifted, src_t, tgt_t) == []
            done += 1
