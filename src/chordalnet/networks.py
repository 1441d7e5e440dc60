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
:class:`NetworkValidationError` carrying the full list.  Networks cannot
change, so each instance is validated at most once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .factors import (
    _NORMAL,
    Factor,
    Kernel,
    VariableTable,
    _check_entries,
    _compact_product,
    _flags,
    _in_range,
    _shift,
    _Table,
    _wide_product,
    _wide_sum,
)
from .graphs import OrderedDag, OrderedUGraph, is_ordered_chordal

# How far a stochastic column's sum may stray from 1.
STOCHASTIC_TOL = 1e-9


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


class _NetworkBase:
    """What every network kind shares: a read-only table mapping over a private
    copy, and, outside the dataclass fields and dropped by a copy or unpickling,
    ``_valid``, set once the instance is known valid, and ``_sum_plan``, kept by
    :func:`_plan`."""

    def __reduce__(self):
        graph, vt, tables = (getattr(self, f.name) for f in fields(self))
        return type(self), (graph, vt, dict(tables))


@dataclass(frozen=True, eq=False)
class _KernelNetwork(_NetworkBase):
    graph: OrderedDag
    vt: VariableTable
    kernels: Mapping[str, Kernel]

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernels", MappingProxyType(dict(self.kernels)))


class BayesianNetwork(_KernelNetwork):
    """Ordered DAG, variable domains, and one stochastic kernel per vertex."""


@dataclass(frozen=True, eq=False)
class MarkovNetwork(_NetworkBase):
    """Ordered undirected graph with factors on some of its cliques.

    ``factors`` maps cliques (frozensets of vertex names) to factors whose
    variables are exactly the clique, sorted.  Cliques without an entry
    carry the implicit all-ones factor.
    """

    graph: OrderedUGraph
    vt: VariableTable
    factors: Mapping[frozenset[str], Factor] = field(default_factory=dict)

    def __post_init__(self) -> None:
        factors = {frozenset(k): f for k, f in self.factors.items()}
        object.__setattr__(self, "factors", MappingProxyType(factors))


class ChordalNetwork(_KernelNetwork):
    """Ordered chordal DAG with one nonnegative kernel per vertex.

    Kernels need not be stochastic; variable elimination turns a chordal
    network into a Bayesian network by normalizing them.
    """


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
        size = math.prod(net.vt.shape(expected + (v,)))
        if k.values.size != size:
            out.append(f"kernel for {v} has {k.values.size} values, expected {size}")
        elif k.stochastic:
            dev = np.abs(k.values.reshape(-1, net.vt.card(v)).sum(axis=1) - 1.0)
            if dev.max() > STOCHASTIC_TOL:
                out.append(
                    f"kernel for {v} is flagged stochastic but "
                    f"{int((dev > STOCHASTIC_TOL).sum())} column(s) do not sum to 1 "
                    f"(worst deviation {float(dev.max()):.3g})"
                )
    return out


def network_violations(net: Network) -> list[str]:
    """Every type-invariant violation of ``net``, from a full check on
    every call; when there is none, ``net`` is recorded as valid."""
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
        pos = net.graph._pos
        for clique, f in sorted(net.factors.items(), key=lambda kv: sorted(kv[0])):
            if not clique <= pos.keys():
                out.append(f"factor clique {sorted(clique)} mentions unknown vertices")
                continue
            # The graph's order is the table's, checked above.
            members = sorted(clique, key=pos.get)
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
            # Over its sorted clique, the factor is right when its size is.
            size = math.prod(map(net.vt._card.get, members))
            if f.values.size != size:
                out.append(
                    f"factor for clique {members}: factor over {f.vars} has "
                    f"{f.values.size} values, expected {size} for the declared "
                    "cardinalities"
                )
    else:
        out.append(f"unknown network type {type(net).__name__}")
    if not out:
        object.__setattr__(net, "_valid", True)
    return out


def require_valid(net: Network) -> None:
    """Raise :class:`NetworkValidationError` unless ``net`` is valid.  A
    network recorded as valid is not checked again; a failure is never kept."""
    if getattr(net, "_valid", False):
        return
    violations = network_violations(net)
    if violations:
        raise NetworkValidationError(violations)


def _tables(net: Network) -> list[_Table]:
    """A valid network's tables as arrays; a kernel's layout is its family's.
    The one list of a network's tables, their order and their families, for
    :func:`_plan`, ``_triangulate``, ``_eliminate``, ``_moralise``,
    ``pearl_update``, ``_regrouped_factors`` and the writer ``dumps_network``."""
    if isinstance(net, MarkovNetwork):
        pos = net.vt._index
        ranked = sorted(net.factors.values(), key=lambda f: [pos[u] for u in f.vars])
        return [(f.vars, f.values) for f in ranked]
    kernels = [net.kernels[v] for v in net.graph.vertices]
    return [(k.parents + (k.child,), k.values) for k in kernels]


def _plan(net: Network, keep: set[str]) -> tuple:
    """The syntactic half of :func:`_sum_product`, decided by the tables'
    scopes alone, with no value read: ``(tables, steps, kept)``.  ``tables``
    are the slots ``(vars, values, 0)`` of :func:`_tables`, then an all-ones
    table over ``(v,)`` for each vertex ``v`` no table mentions.  ``steps``
    hold, for each vertex outside ``keep``, last first, ``(v, family, axis,
    rest, inputs, shapes)``: the bucket's scope, the axis of ``v`` in it,
    the scope left once ``v`` is summed out, its tables, each an index into
    ``tables`` or the vertex whose step made it, and each one's shape on
    ``family``; then the kept table's, ``(None, kept, None, kept, ...)``,
    if a table reaches it.  Every bucket, then the kept table, is checked
    against the cap, in the order the numbers meet them, before anything
    is multiplied.  The plan for nothing kept is kept on the network, which
    cannot change; a refusal is not.
    """
    if not keep and hasattr(net, "_sum_plan"):
        return net._sum_plan
    vt, pos, card = net.vt, net.vt._index, net.vt._card
    buckets: dict[str, list[tuple]] = {v: [] for v in net.graph.vertices}
    last: list[tuple] = []
    steps: list[tuple] = []

    def place(vars, slot) -> None:
        # Table variables follow the declared order, so the last free one
        # is the first to be eliminated.
        for u in reversed(vars):
            if u not in keep:
                buckets[u].append((vars, slot))
                return
        last.append((vars, slot))

    def step(v, family, axis, rest, bucket) -> None:
        shapes = [[card[u] if u in t else 1 for u in family] for t, _ in bucket]
        steps.append((v, family, axis, rest, [s for _, s in bucket], shapes))

    tables = [(*t, 0) for t in _tables(net)]
    for slot, table in enumerate(tables):
        place(table[0], slot)
    for v in reversed(net.graph.vertices):
        if v in keep:
            continue
        bucket = buckets.pop(v)
        if not bucket:  # a vertex no table mentions contributes its cardinality
            tables.append(((v,), np.ones(card[v]), 0))
            bucket = [((v,), len(tables) - 1)]
        family = tuple(sorted({u for t, _ in bucket for u in t}, key=pos.get))
        _check_entries([card[u] for u in family], f"vertex {v}")
        rest = tuple(u for u in family if u != v)
        step(v, family, family.index(v), rest, bucket)
        place(rest, v)
    kept = tuple(v for v in net.graph.vertices if v in keep)
    _check_entries(vt.shape(kept))
    if last:
        step(None, kept, None, kept, last)
    plan = tables, steps, kept
    if not keep:
        object.__setattr__(net, "_sum_plan", plan)
    return plan


def _sum_product(
    net: Network, keep: set[str]
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray | int]:
    """Sum every variable outside ``keep`` out of the table product by
    bucket elimination along the declared order, last vertex first
    (Dechter 1996).  :func:`_plan` gives each bucket's tables, their shapes
    and its scope; this pass does the numbers on plain arrays in one flag
    block (:func:`factors._flags`), which lists each overflow and each
    underflow with lost bits.  A bucket's direct product and sum are kept,
    unscaled, when that list did not grow during them, and a bucket that
    drifts out of range grows it and is rebuilt by :func:`_reduce_bucket`;
    only the last step, the kept table, is divided into [1/2, 1).  So every
    product and sum is rounded as with an unbounded exponent, bit for bit as
    rescaling after every multiply wherever that kept every entry normal.
    Returns ``(kept, table, exponent)``: the sum over the kept variables,
    in declared order, is ``table * 2**exponent``, which need not fit in a
    double; ``exponent`` is one integer, or one per entry where no power of
    two keeps all normal.
    """
    tables, steps, kept = _plan(net, keep)
    vt, slots, wide = net.vt, dict(enumerate(tables)), set()
    exponent, raised = 0, []
    with _flags(raised):
        for v, family, axis, rest, inputs, shapes in steps:
            bucket = [slots.pop(s) for s in inputs]
            flagged, exps, shift = len(raised), 0, 0
            if direct := wide.isdisjoint(inputs):  # every input has one scale
                values = _compact_product(bucket, family, vt, shapes)
                if axis is not None:
                    values = values.sum(axis)
                else:  # the last step, the kept table: into [1/2, 1)
                    shift = math.frexp(values.max())[1]
                    values = np.ldexp(values, -shift)
            if not direct or len(raised) > flagged:
                values, exps, shift = _reduce_bucket(bucket, family, vt, axis)
                if np.ndim(exps):
                    wide.add(v)
            exponent += shift
            slots[v] = (rest, values, exps)
    _, values, exps = slots.pop(None, (kept, 1.0, 0))
    return kept, np.broadcast_to(values, vt.shape(kept)), exponent + exps


def _reduce_bucket(
    tables: list, onto: tuple[str, ...], vt: VariableTable, axis: int | None = None
) -> tuple[np.ndarray, np.ndarray | int, int]:
    """The exact product of ``tables`` over ``onto``, with ``axis`` summed
    out unless it is ``None``, as ``(values, exps, shift)``, worth
    ``values * 2**(exps + shift)``; ``tables`` hold ``(vars, values, exps)``.
    The caller has checked ``onto`` against the table cap.

    It is built with an exponent per entry (:func:`factors._wide_product`,
    :func:`factors._wide_sum`) and divided by the power of
    :func:`factors._shift`, or, where none keeps every entry normal, keeps
    per-entry ``exps`` with ``shift`` 0.  It reads no flag and opens no
    ``np.errstate``: :func:`_sum_product` calls it for a bucket that its
    direct product failed, inside the pass's one flag block, and the sweep
    for a rebuilt vertex's row masses, inside its own.
    """
    mantissa, exponent = _wide_product(tables, onto, vt)
    if axis is not None:
        total, top = _wide_sum(mantissa, exponent, axis)
        mantissa, exponent = np.frexp(total)
        exponent += top
    exps = exponent[mantissa > 0]
    # A nonzero mantissa lies in [1/2, 1): its exponent is its binade's.  The
    # rule is the same at every scale, so it is applied at the largest's.
    peak, low = (int(exps.max()), int(exps.min()) - 1) if exps.size else (0, 0)
    shift = peak + _shift(0.5, low - peak, 0)
    if low - shift < _NORMAL:
        return mantissa, exponent, 0
    return np.ldexp(mantissa, exponent - shift), 0, shift


def bn_joint(bn: BayesianNetwork) -> Factor:
    """The joint distribution: the product of all kernels as factors.

    Repeated occurrences of a variable are identified by the product, so
    the result is a factor over all vertices; it sums to one (within
    rounding) because the kernels are stochastic and the order topological.

    Raises:
        TableTooLargeError: if the joint would exceed ``factors.MAX_TABLE_ENTRIES``.
    """
    return marginal_distribution(bn, list(bn.graph.vertices))


def cn_product(cn: ChordalNetwork) -> Factor:
    """The unnormalized kernel product of a chordal network.

    Raises:
        TableTooLargeError: if the product would exceed ``factors.MAX_TABLE_ENTRIES``.
        OutOfRangeError: if the largest entry of a nonzero product is not
            a normal double: it overflows, or falls below 2**-1022.
    """
    return marginal_distribution(cn, list(cn.graph.vertices))


def mn_unnormalized(mn: MarkovNetwork) -> Factor:
    """The product of all clique factors, over all vertices.

    Absent cliques contribute the all-ones factor, so the result is
    unchanged (exactly, as a function) by making those explicit.

    Raises:
        TableTooLargeError: if the product would exceed ``factors.MAX_TABLE_ENTRIES``.
        OutOfRangeError: if the largest entry of a nonzero product is not
            a normal double: it overflows, or falls below 2**-1022.
    """
    return marginal_distribution(mn, list(mn.graph.vertices))


def mn_partition(mn: MarkovNetwork) -> float:
    """The normalization constant Z: the total mass of the factor product.

    Computed by sum-product elimination along the declared order, without
    building the product: the cost is O(n * d^(w+1)) for n variables of at
    most d states and induced width w.  Every product and sum is rounded
    as with an unbounded exponent (see :func:`_sum_product`), so Z is
    exact up to that rounding whatever the range of the tables.  The plan
    is kept on the network: a second call only multiplies and sums.

    Raises:
        TableTooLargeError: if a bucket would exceed ``factors.MAX_TABLE_ENTRIES``,
            found before any is multiplied; the error names its vertex.
        OutOfRangeError: if Z is nonzero but not a normal double: it
            overflows, or falls below 2**-1022; the error carries log Z.
    """
    return float(marginal_distribution(mn, []).values[0])


def network_distribution(net: Network) -> Factor:
    """The probability distribution of any network kind, as a factor.

    Bayesian networks return their joint; Markov and chordal networks
    return their normalized product, also when its total mass is outside
    the range of a double.

    Raises:
        TableTooLargeError: if the table would exceed ``factors.MAX_TABLE_ENTRIES``.
        DegenerateDistributionError: if the product has zero total mass.
    """
    require_valid(net)
    return _normalized(net, set(net.graph.vertices))


def _normalized(net: Network, keep: set[str]) -> Factor:
    """The distribution of a network known valid, marginalized onto
    ``keep``.  Other kinds than Bayesian are divided by their total mass,
    where the power-of-two scale of the sum cancels, so a total mass
    outside the range of a double still gives the result."""
    kept, table, exponent = _sum_product(net, keep)
    if isinstance(net, BayesianNetwork):
        return _in_range(kept, table, exponent)
    if np.ndim(exponent):  # one exponent per entry: scale to the largest
        table = np.ldexp(table, exponent - _wide_sum(table, exponent)[1])
    mass = float(table.sum())
    if mass == 0.0:
        raise DegenerateDistributionError(
            "network is degenerate: the factor product is identically zero"
        )
    return Factor(kept, table / mass)


def marginal_distribution(net: Network, vars: list[str]) -> Factor:
    """Marginal of the network's full table onto ``vars``, in declared order.

    For Bayesian networks this is a marginal of the joint; for Markov and
    chordal networks it is a marginal of the unnormalized product, kept
    unnormalized, so ``marginal_distribution(net, [])`` holds the total
    mass.  The other variables are summed out by elimination along the
    declared order, without building the full table: the cost is
    O(n * d^(w+1+k)) for n variables of at most d states, k kept variables
    and w the induced width of the order on the tables' scopes.  Keeping
    every vertex gives the full table: every other full-table function
    calls this one.  A network found valid before is not checked again.

    Raises:
        TableTooLargeError: if a product would exceed ``factors.MAX_TABLE_ENTRIES``,
            found before any is multiplied; the error names the vertex
            summed out of the first such bucket, if any.
        OutOfRangeError: if the largest entry of a nonzero marginal is not
            a normal double: it overflows, or falls below 2**-1022.
    """
    require_valid(net)
    unknown = set(vars) - set(net.graph.vertices)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}")
    return _in_range(*_sum_product(net, set(vars)))
