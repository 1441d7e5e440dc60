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
from typing import Mapping

import numpy as np

from .factors import (
    Factor,
    Kernel,
    VariableTable,
    check_factor,
    kernel_to_factor,
    kernel_violations,
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


def _scaled_product(
    factors: list[Factor], vt: VariableTable, vars: tuple[str, ...]
) -> tuple[np.ndarray, int]:
    """The product of ``factors`` over ``vars`` as ``(table, exponent)``,
    worth ``table * 2**exponent`` with ``table`` shaped by ``vars``.

    The product grows one factor at a time over the union of the variables
    seen so far, and is rescaled by a power of two, which is exact, after
    every multiplication, so no number of factors underflows or overflows.
    """
    entries = math.prod(vt.shape(vars))
    if entries > MAX_TABLE_ENTRIES:
        raise TableTooLargeError(
            f"a table over {len(vars)} variables would have {entries:,} "
            f"entries, more than the cap of {MAX_TABLE_ENTRIES:,}"
        )

    def spread(values: np.ndarray, names: tuple[str, ...], onto: tuple[str, ...]):
        return values.reshape([vt.card(u) if u in names else 1 for u in onto])

    acc, seen, exponent = np.ones(()), (), 0
    for f in factors:
        union = tuple(u for u in vars if u in seen or u in f.vars)
        acc = spread(acc, seen, union) * spread(f.values, f.vars, union)
        seen = union
        shift = math.frexp(acc.max())[1]
        acc = np.ldexp(acc, -shift)
        exponent += shift
    return np.broadcast_to(spread(acc, seen, vars), vt.shape(vars)), exponent


def _full_table(net: Network) -> Factor:
    """The product of all the network's tables, over all its vertices."""
    vars = net.graph.vertices
    return _in_range(vars, *_scaled_product(_tables(net), net.vt, vars))


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


def _sum_product(
    net: Network, keep: set[str]
) -> tuple[tuple[str, ...], np.ndarray, int]:
    """Sum every variable outside ``keep`` out of the table product.

    Bucket elimination along the declared order, last vertex first: the
    tables that mention a vertex are multiplied and the vertex is summed
    out, so each product spans one family of the triangulated graph plus
    the kept variables; a vertex no table mentions contributes its
    cardinality.  Every product and message is rescaled by a power of
    two, which is exact, so long networks neither overflow nor underflow
    on the way.  Returns ``(kept, table, exponent)``: the sum over the
    kept variables, in declared order, is ``table * 2**exponent``, which
    need not fit in a double.
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
            product, shift = _scaled_product(bucket, vt, family)
            exponent += shift
            rest = tuple(u for u in family if u != v)
            message = product.sum(axis=family.index(v))
        else:
            rest, message = (), np.array(float(vt.card(v)))
        shift = math.frexp(message.max())[1]
        exponent += shift
        place(Factor(rest, np.ldexp(message, -shift)))
    kept = tuple(v for v in net.graph.vertices if v in keep)
    table, shift = _scaled_product(done, vt, kept)
    return kept, table, exponent + shift


class OutOfRangeError(ValueError):
    """A product or sum-product result is nonzero but outside the range of
    a double: its largest entry overflows, or every entry underflows.

    ``log_mass`` is the natural logarithm of its total mass, which is
    finite whatever the range.
    """

    def __init__(self, message: str, log_mass: float):
        self.log_mass = log_mass
        super().__init__(message)


def _in_range(vars: tuple[str, ...], table: np.ndarray, exponent: int) -> Factor:
    """``table * 2**exponent`` as a factor over ``vars``, or
    :class:`OutOfRangeError` if its maximum overflows or the whole nonzero
    table rounds to zero."""
    with np.errstate(over="ignore", under="ignore"):
        values = np.ldexp(table, exponent)
    peak = float(values.max())
    if peak == math.inf or (peak == 0.0 and table.max() > 0):
        log_mass = math.log(table.sum()) + exponent * math.log(2.0)
        raise OutOfRangeError(
            f"the total mass is outside the range of a double: its natural "
            f"log is {log_mass:.17g}",
            log_mass,
        )
    return Factor(vars, values)


def bn_joint(bn: BayesianNetwork) -> Factor:
    """The joint distribution: the product of all kernels as factors.

    Repeated occurrences of a variable are identified by the product, so
    the result is a factor over all vertices; it sums to one (within
    rounding) because the kernels are stochastic and the order topological.

    Raises:
        TableTooLargeError: if the joint would exceed ``MAX_TABLE_ENTRIES``.
    """
    require_valid(bn)
    return _full_table(bn)


def cn_product(cn: ChordalNetwork) -> Factor:
    """The unnormalized kernel product of a chordal network.

    Raises:
        TableTooLargeError: if the product would exceed ``MAX_TABLE_ENTRIES``.
        OutOfRangeError: if the largest entry overflows a double, or every
            entry of a nonzero product underflows to zero.
    """
    require_valid(cn)
    return _full_table(cn)


def mn_unnormalized(mn: MarkovNetwork) -> Factor:
    """The product of all clique factors, over all vertices.

    Absent cliques contribute the all-ones factor, so the result is
    unchanged (exactly, as a function) by making those explicit.

    Raises:
        TableTooLargeError: if the product would exceed ``MAX_TABLE_ENTRIES``.
        OutOfRangeError: if the largest entry overflows a double, or every
            entry of a nonzero product underflows to zero.
    """
    require_valid(mn)
    return _full_table(mn)


def mn_partition(mn: MarkovNetwork) -> float:
    """The normalization constant Z: the total mass of the factor product.

    Computed by sum-product elimination along the declared order, without
    building the product: the cost is O(n * d^(w+1)) for n variables of at
    most d states and induced width w.

    Raises:
        OutOfRangeError: if Z is nonzero but overflows or underflows a
            double; the error carries log Z.
    """
    require_valid(mn)
    return float(_in_range(*_sum_product(mn, set())).values[0])


def mn_is_degenerate(mn: MarkovNetwork) -> bool:
    """Whether the factor product is identically zero (Z = 0).

    Decided on the rescaled sum, so a Z too small or too large for a
    double is not mistaken for zero.
    """
    require_valid(mn)
    _, table, _ = _sum_product(mn, set())
    return float(table.max()) == 0.0


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

    Raises:
        OutOfRangeError: if the largest entry overflows a double, or every
            entry of a nonzero marginal underflows to zero.
    """
    require_valid(net)
    unknown = set(vars) - set(net.graph.vertices)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}")
    return _in_range(*_sum_product(net, set(vars)))
