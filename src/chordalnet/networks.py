"""The three network types and their joint distributions.

A Bayesian network pairs an ordered DAG with one stochastic kernel per
vertex; its joint is the product of the kernels.  A Markov network pairs an
ordered undirected graph with nonnegative factors on some of its cliques
(absent cliques mean the all-ones factor); its distribution is the
normalized factor product, with normalization constant Z.  A chordal
network is the intermediate form: an ordered chordal DAG with one
nonnegative, not necessarily stochastic, kernel per vertex.

Validation is collect-all rather than fail-fast so that a caller (for
example the command line ``check``) can report every problem in one pass.
Operations whose contract requires a valid network raise
:class:`NetworkValidationError` carrying the full list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Mapping

import numpy as np

from .factors import (
    Factor,
    Kernel,
    VariableTable,
    check_factor,
    factor_marginalize,
    factor_product,
    kernel_to_factor,
    kernel_violations,
    ones_factor,
)
from .graphs import OrderedDag, OrderedUGraph, is_ordered_chordal


class NetworkValidationError(ValueError):
    """A network failed validation; ``violations`` lists every failure."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DegenerateDistributionError(ValueError):
    """A factor product is identically zero where a distribution was needed."""

    def __init__(self, message: str, vertex: str | None = None):
        self.vertex = vertex
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class BayesianNetwork:
    """Ordered DAG, variable domains, and one stochastic kernel per vertex."""

    graph: OrderedDag
    vt: VariableTable
    kernels: Mapping[str, Kernel]

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernels", dict(self.kernels))


@dataclass(frozen=True, eq=False)
class MarkovNetwork:
    """Ordered undirected graph with factors on some of its cliques.

    ``factors`` maps cliques (frozensets of vertex names) to factors whose
    variables are exactly the clique, sorted.  Cliques without an entry
    carry the implicit all-ones factor.
    """

    graph: OrderedUGraph
    vt: VariableTable
    factors: Mapping[frozenset[str], Factor] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "factors", {frozenset(k): f for k, f in self.factors.items()}
        )


@dataclass(frozen=True, eq=False)
class ChordalNetwork:
    """Ordered chordal DAG with one nonnegative kernel per vertex.

    Kernels need not be stochastic; variable elimination turns a chordal
    network into a Bayesian network by normalizing them.
    """

    graph: OrderedDag
    vt: VariableTable
    kernels: Mapping[str, Kernel]

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernels", dict(self.kernels))


Network = BayesianNetwork | MarkovNetwork | ChordalNetwork


def _kernel_map_violations(
    net: BayesianNetwork | ChordalNetwork, require_stochastic: bool
) -> list[str]:
    out: list[str] = []
    vertices = set(net.graph.vertices)
    covered = set(net.kernels)
    for v in sorted(vertices - covered):
        out.append(f"vertex {v} has no kernel")
    for v in sorted(covered - vertices):
        out.append(f"kernel given for unknown vertex {v}")
    for v in net.graph.vertices:
        k = net.kernels.get(v)
        if k is None:
            continue
        if k.child != v:
            out.append(f"kernel stored under {v} has child {k.child}")
            continue
        expected = net.graph.parents_of(v)
        if k.parents != expected:
            out.append(
                f"kernel for {v} has parents {list(k.parents)}, the graph "
                f"requires {list(expected)}"
            )
            continue
        if require_stochastic and not k.stochastic:
            out.append(f"kernel for {v} is not flagged stochastic")
        out.extend(kernel_violations(k, net.vt))
    return out


def network_violations(net: Network) -> list[str]:
    """Every type-invariant violation of ``net``, empty when valid."""
    out: list[str] = []
    if net.vt.names != net.graph.vertices:
        out.append(
            "variable table names must match the graph vertices in order: "
            f"{list(net.vt.names)} vs {list(net.graph.vertices)}"
        )
        return out

    if isinstance(net, BayesianNetwork):
        out.extend(_kernel_map_violations(net, require_stochastic=True))
    elif isinstance(net, ChordalNetwork):
        if not is_ordered_chordal(net.graph):
            out.append("graph is not ordered chordal")
        out.extend(_kernel_map_violations(net, require_stochastic=False))
    elif isinstance(net, MarkovNetwork):
        known = set(net.graph.vertices)
        for clique, f in sorted(net.factors.items(), key=lambda kv: sorted(kv[0])):
            if not clique <= known:
                out.append(f"factor clique {sorted(clique)} mentions unknown vertices")
                continue
            members = sorted(clique, key=net.vt.index)
            complete = all(
                net.graph.has_edge(u, w)
                for i, u in enumerate(members)
                for w in members[i + 1 :]
            )
            if not complete:
                out.append(f"factor key {members} is not a clique of the graph")
                continue
            if f.vars != tuple(members):
                out.append(
                    f"factor for clique {members} is over {list(f.vars)}"
                )
                continue
            try:
                check_factor(f, net.vt)
            except ValueError as exc:
                out.append(f"factor for clique {members}: {exc}")
    else:
        out.append(f"unknown network type {type(net).__name__}")
    return out


def require_valid(net: Network) -> None:
    violations = network_violations(net)
    if violations:
        raise NetworkValidationError(violations)


class TableTooLargeError(ValueError):
    """A dense table would have more than :data:`MAX_TABLE_ENTRIES` entries."""


# The most entries a dense table may have before anything is multiplied:
# 2**24 doubles are 128 MiB, and a product briefly holds a few such arrays.
MAX_TABLE_ENTRIES = 1 << 24


def _product_over_all(
    factors: list[Factor], vt: VariableTable, vars: tuple[str, ...]
) -> Factor:
    entries = math.prod(vt.shape(vars))
    if entries > MAX_TABLE_ENTRIES:
        raise TableTooLargeError(
            f"a table over {len(vars)} variables would have {entries:,} "
            f"entries, more than the cap of {MAX_TABLE_ENTRIES:,}"
        )
    acc = reduce(lambda a, b: factor_product(a, b, vt), factors) if factors else None
    if acc is None:
        return ones_factor(vt, vars)
    if acc.vars != vars:
        acc = factor_product(acc, ones_factor(vt, vars), vt)
    return acc


def _tables(net: Network) -> list[Factor]:
    """The network's tables as factors: clique factors, or the kernels."""
    if isinstance(net, MarkovNetwork):
        return [
            f
            for _, f in sorted(
                net.factors.items(),
                key=lambda kv: tuple(sorted(map(net.graph.position, kv[0]))),
            )
        ]
    return [kernel_to_factor(net.kernels[v], net.vt) for v in net.graph.vertices]


def _sum_product(net: Network, keep: set[str]) -> Factor:
    """Sum every variable outside ``keep`` out of the table product.

    Bucket elimination along the declared order, last vertex first: the
    tables that mention a vertex are multiplied and the vertex is summed
    out, so each product spans one family of the triangulated graph plus
    the kept variables; a vertex no table mentions contributes its
    cardinality.  Each message is rescaled by a power of two, which is
    exact, and the exponents are applied once at the end, so long
    networks neither overflow nor underflow on the way.
    """
    vt = net.vt
    buckets: dict[str, list[Factor]] = {v: [] for v in net.graph.vertices}
    done: list[Factor] = []

    def place(table: Factor) -> None:
        # Factor variables follow the declared order, so the last free one
        # is the first to be eliminated.
        free = [u for u in table.vars if u not in keep]
        (buckets[free[-1]] if free else done).append(table)

    for table in _tables(net):
        place(table)
    exponent = 0
    for v in reversed(net.graph.vertices):
        if v in keep:
            continue
        bucket = buckets.pop(v)
        if bucket:
            family = tuple(sorted({u for t in bucket for u in t.vars}, key=vt.index))
            message = factor_marginalize(_product_over_all(bucket, vt, family), {v}, vt)
        else:
            message = Factor((), [float(vt.card(v))])
        shift = math.frexp(message.values.max())[1]
        exponent += shift
        place(Factor(message.vars, np.ldexp(message.values, -shift)))
    kept = tuple(v for v in net.graph.vertices if v in keep)
    table = _product_over_all(done, vt, kept)
    return Factor(kept, np.ldexp(table.values, exponent))


def bn_joint(bn: BayesianNetwork) -> Factor:
    """The joint distribution: the product of all kernels as factors.

    Repeated occurrences of a variable are identified by the product, so
    the result is a factor over all vertices; it sums to one (within
    rounding) because the kernels are stochastic and the order topological.

    Raises:
        TableTooLargeError: if the joint would exceed ``MAX_TABLE_ENTRIES``.
    """
    require_valid(bn)
    return _product_over_all(_tables(bn), bn.vt, bn.graph.vertices)


def cn_product(cn: ChordalNetwork) -> Factor:
    """The unnormalized kernel product of a chordal network.

    Raises:
        TableTooLargeError: if the product would exceed ``MAX_TABLE_ENTRIES``.
    """
    require_valid(cn)
    return _product_over_all(_tables(cn), cn.vt, cn.graph.vertices)


def mn_unnormalized(mn: MarkovNetwork) -> Factor:
    """The product of all clique factors, over all vertices.

    Absent cliques contribute the all-ones factor, so the result is
    unchanged (exactly, as a function) by making those explicit.

    Raises:
        TableTooLargeError: if the product would exceed ``MAX_TABLE_ENTRIES``.
    """
    require_valid(mn)
    return _product_over_all(_tables(mn), mn.vt, mn.graph.vertices)


def mn_partition(mn: MarkovNetwork) -> float:
    """The normalization constant Z: the total mass of the factor product.

    Computed by sum-product elimination along the declared order, without
    building the product: the cost is O(n * d^(w+1)) for n variables of at
    most d states and induced width w.
    """
    require_valid(mn)
    return float(_sum_product(mn, set()).values[0])


def mn_is_degenerate(mn: MarkovNetwork) -> bool:
    """Whether the factor product is identically zero (Z = 0)."""
    return mn_partition(mn) == 0.0


def network_distribution(net: Network) -> Factor:
    """The probability distribution of any network kind, as a factor.

    Bayesian networks return their joint; Markov and chordal networks
    return their normalized product.

    Raises:
        DegenerateDistributionError: if the product has zero total mass.
    """
    if isinstance(net, BayesianNetwork):
        return bn_joint(net)
    table = mn_unnormalized(net) if isinstance(net, MarkovNetwork) else cn_product(net)
    mass = float(table.values.sum())
    if mass == 0.0:
        raise DegenerateDistributionError(
            "network is degenerate: the factor product is identically zero"
        )
    return Factor(table.vars, table.values / mass)


def marginal_distribution(net: Network, vars: list[str]) -> Factor:
    """Marginal of the network's full table onto ``vars``, in declared order.

    For Bayesian networks this is a marginal of the joint; for Markov and
    chordal networks it is a marginal of the unnormalized product, kept
    unnormalized, so ``marginal_distribution(net, [])`` holds the total
    mass.  The other variables are summed out by elimination along the
    declared order, without building the full table: the cost is
    O(n * d^(w+1+k)) for n variables of at most d states, induced width w
    and k kept variables.
    """
    require_valid(net)
    unknown = set(vars) - set(net.graph.vertices)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}")
    return _sum_product(net, set(vars))
