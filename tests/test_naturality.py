"""Naturality: every conversion commutes with an isomorphism of networks.

The conversions are functors, so relabelling the input, by a permutation
of each variable's states or by an order-preserving renaming of the
vertices, must relabel the output the same way.  This would catch an axis
or layout slip in the products, the normaliser, the loader or the writer.
The triangulations and moralisations only copy and multiply entries in
place, so they commute bit for bit; elimination sums each row in another
order once its states are permuted, so it commutes within a few ulp.
"""

import numpy as np
import pytest

from chordalnet import (
    Factor,
    Kernel,
    MarkovNetwork,
    document_to_network,
    junction_tree,
    marginal_distribution,
    mn_partition,
    mn_to_bn,
    moralise_bn,
    moralise_cn,
    network_to_document,
    triangulate_bn,
    triangulate_mn,
    variable_elimination,
)
from helpers import random_bn, random_cn, random_mn

CASES = 300

# Each conversion with the generator of its input.
CONVERSIONS = {
    "moralise_bn": (moralise_bn, random_bn),
    "triangulate_bn": (triangulate_bn, random_bn),
    "moralise_cn": (moralise_cn, random_cn),
    "variable_elimination": (lambda cn: variable_elimination(cn)[0], random_cn),
    "triangulate_mn": (triangulate_mn, random_mn),
    "mn_to_bn": (mn_to_bn, random_mn),
}
EXACT = ["moralise_bn", "triangulate_bn", "moralise_cn", "triangulate_mn"]
ROUNDED = ["variable_elimination", "mn_to_bn"]


def permuted(net, orders):
    """``net`` with each variable's states reordered: entry ``i`` along the
    axis of ``v`` is the original's entry ``orders[v][i]``."""

    def take(vars, values):
        grid = values.reshape(net.vt.shape(vars))
        for axis, u in enumerate(vars):
            grid = grid.take(orders[u], axis=axis)
        return grid.ravel()

    if isinstance(net, MarkovNetwork):
        factors = {c: Factor(f.vars, take(f.vars, f.values)) for c, f in net.factors.items()}
        return MarkovNetwork(net.graph, net.vt, factors)
    kernels = {
        v: Kernel(v, k.parents, take(k.parents + (v,), k.values), k.stochastic)
        for v, k in net.kernels.items()
    }
    return type(net)(net.graph, net.vt, kernels)


def state_permutations(rng, make):
    """``CASES`` networks from ``make``, each with one random permutation
    of each variable's states."""
    for _ in range(CASES):
        net = make(rng)
        orders = {v: rng.permutation(net.vt.card(v)) for v in net.graph.vertices}
        yield net, orders


def renamed(doc):
    """A network document with every vertex ``v`` renamed ``"Zq" + v``,
    which keeps both the declared and the lexicographic order."""

    def name(v):
        return "Zq" + v

    def table(t):
        return {
            key: name(x) if key == "child"
            else [name(u) for u in x] if key in ("parents", "clique")
            else x
            for key, x in t.items()
        }

    return {
        **doc,
        "variables": [{**x, "name": name(x["name"])} for x in doc["variables"]],
        "edges": [[name(u), name(w)] for u, w in doc["edges"]],
        "tables": [table(t) for t in doc["tables"]],
    }


@pytest.mark.parametrize("name", EXACT)
def test_state_permutations_commute_bit_for_bit(name):
    convert, make = CONVERSIONS[name]
    for net, orders in state_permutations(np.random.default_rng(7), make):
        left = network_to_document(convert(permuted(net, orders)))
        assert left == network_to_document(permuted(convert(net), orders))


@pytest.mark.parametrize("name", ROUNDED)
def test_state_permutations_commute_within_rounding(name):
    convert, make = CONVERSIONS[name]
    for net, orders in state_permutations(np.random.default_rng(7), make):
        left = convert(permuted(net, orders))
        right = permuted(convert(net), orders)
        assert left.graph == right.graph
        for v, kernel in left.kernels.items():
            assert kernel.parents == right.kernels[v].parents
            deviation = np.abs(kernel.values - right.kernels[v].values).max()
            assert deviation <= 4.4e-16, (v, deviation)


def test_sum_product_commutes_within_rounding():
    for mn, orders in state_permutations(np.random.default_rng(7), random_mn):
        other = permuted(mn, orders)
        assert mn_partition(other) == pytest.approx(mn_partition(mn), rel=2e-15, abs=0)
        v = mn.graph.vertices[0]
        np.testing.assert_allclose(
            marginal_distribution(other, [v]).values,
            marginal_distribution(mn, [v]).values[orders[v]],
            rtol=2e-15,
            atol=0,
        )


@pytest.mark.parametrize("name", list(CONVERSIONS))
def test_renaming_commutes(name):
    convert, make = CONVERSIONS[name]
    rng = np.random.default_rng(11)
    for _ in range(CASES):
        doc = network_to_document(make(rng))
        out = network_to_document(convert(document_to_network(doc)))
        assert network_to_document(convert(document_to_network(renamed(doc)))) == renamed(out)


def test_renaming_carries_the_junction_tree_over():
    rng = np.random.default_rng(11)
    for _ in range(CASES):
        doc = network_to_document(random_cn(rng))
        tree = junction_tree(document_to_network(doc).graph)
        other = junction_tree(document_to_network(renamed(doc)).graph)
        assert other.clusters == tuple(
            tuple("Zq" + v for v in cluster) for cluster in tree.clusters
        )
        assert other.tree_edges == tree.tree_edges
        assert other.sepsets == {
            edge: tuple("Zq" + v for v in sep) for edge, sep in tree.sepsets.items()
        }
