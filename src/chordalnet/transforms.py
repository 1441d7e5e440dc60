"""Distribution-preserving transformations between the network kinds.

Four total conversions are provided, plus the Bayesian triangulation:

* :func:`moralise_bn` (Bayesian to Markov) re-keys each kernel onto its
  family clique in the moralised graph; the normalized factor product then
  equals the original joint.
* :func:`triangulate_mn` (Markov to chordal) directs the graph along the
  vertex order with fill-in edges and hands each clique factor to the
  clique's maximal vertex, broadcasting over any parents the factor does
  not mention.  The kernel product equals the original factor product
  exactly.
* :func:`variable_elimination` (chordal to Bayesian) sweeps the vertices
  from largest to smallest.  At each vertex the kernel is normalized and
  its mass is multiplied into the largest parent's kernel; ordered
  chordality guarantees the mass table fits there.  Parentless vertices
  leave scalar masses whose product, times the power-of-two scales that
  the steps record, is the partition constant, which is what the final
  normalization divides out.
* :func:`mn_to_bn` is the composition of the previous two.
* :func:`triangulate_bn` (Bayesian to Bayesian) is :func:`triangulate_mn`
  pre-composed with moralisation.  Each vertex consumes only its own
  kernel, so the numbers are untouched: each kernel is broadcast
  constantly over its newly acquired parents.

All functions validate their input and are pure; working state inside the
elimination sweep is private to the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .factors import (
    Factor,
    Kernel,
    VariableTable,
    _adopt,
    _check_entries,
    _kept,
    _out_of_range,
    _shift,
    _stochastic_rows,
    _Table,
    _wide_product,
    factor_marginalize,
)
from .graphs import (
    OrderedDag,
    is_ordered_chordal,
    moralise_graph,
    triangulate_graph,
)
from .networks import (
    BayesianNetwork,
    ChordalNetwork,
    DegenerateDistributionError,
    MarkovNetwork,
    Network,
    _reduce_bucket,
    _tables,
    require_valid,
)


@dataclass(frozen=True)
class EliminationStep:
    """One sweep step: the vertex, its mass table, and where the mass went.

    ``absorbed_into`` is the vertex's largest parent, or ``None`` for a
    parentless vertex whose scalar mass contributes to the partition
    constant directly.  ``lam`` is the mass as computed; the host's table
    was multiplied by ``lam`` divided by the power of two of the one rule of
    :func:`factors._shift`: the one that brings the mass's maximum into
    [1, 2), or a smaller one where that would push its smallest nonzero
    entry below 2**-1022.  ``log2_scale`` is that power plus, for a working
    table rebuilt exactly, the one its row masses were divided by.
    """

    vertex: str
    lam: Factor
    absorbed_into: str | None
    log2_scale: int = 0


@dataclass(frozen=True)
class EliminationTrace:
    """The elimination steps in processing order (largest vertex first).

    The partition constant is the product of the scalar masses left at
    parentless vertices times two to the sum of the steps' ``log2_scale``.
    """

    steps: tuple[EliminationStep, ...]

    def _scalars(self) -> list[float]:
        return [float(s.lam.values[0]) for s in self.steps if s.absorbed_into is None]

    def partition_mass(self) -> float:
        """The partition constant: the total mass of the input kernel product.

        The scalars are multiplied by :func:`factors._wide_product`, so the
        result is rounded as the product with an unbounded exponent; it
        overflows to ``inf`` or underflows to ``0.0`` only when Z itself is
        out of double range, where :meth:`log_partition` still holds.
        """
        scalars = [((), np.float64(s)) for s in self._scalars()]
        mantissa, exponent = _wide_product(scalars, (), VariableTable(()))
        exponent += sum(s.log2_scale for s in self.steps)
        with np.errstate(over="ignore", under="ignore"):
            return float(np.ldexp(mantissa, exponent))

    def log_partition(self) -> float:
        """The natural logarithm of the partition constant."""
        exponent = sum(s.log2_scale for s in self.steps)
        return float(np.log(self._scalars()).sum()) + exponent * math.log(2.0)


def _moralise(net: BayesianNetwork | ChordalNetwork) -> MarkovNetwork:
    """Each kernel as the factor of its family clique {v} | parents(v) on
    the moral graph.  In a topologically listed DAG the family of v has v
    as its maximum, so distinct vertices give distinct families."""
    require_valid(net)
    factors = {frozenset(vars): Factor(vars, values) for vars, values in _tables(net)}
    return MarkovNetwork(moralise_graph(net.graph), net.vt, factors)


def moralise_bn(bn: BayesianNetwork) -> MarkovNetwork:
    """View a Bayesian network as a Markov network on the moral graph.

    Each vertex's kernel becomes the factor of its family clique; every
    other clique is left absent (all-ones).  The variable table is shared
    unchanged, and the normalized factor product equals ``bn_joint(bn)``.
    """
    return _moralise(bn)


def moralise_cn(cn: ChordalNetwork) -> MarkovNetwork:
    """Moralise a chordal network.

    Same factor placement as :func:`moralise_bn`, applied to unnormalized
    kernels.  Chordality makes all co-parents adjacent already, so the
    moral graph adds no edge beyond undirecting.
    """
    return _moralise(cn)


def triangulate_mn(mn: MarkovNetwork) -> ChordalNetwork:
    """Reshape a Markov network into kernels on the triangulated graph.

    Each present clique factor is consumed by exactly one vertex, the
    clique's maximal element; the kernel of a vertex is the pointwise
    product of the factors it consumed, extended constantly over any
    parents they do not cover.  The kernel product therefore equals the
    factor product exactly.  Each kernel is copied into a fresh family array
    once: a product of factors is checked before the copy, one factor is not.

    Raises:
        TableTooLargeError: when a vertex's family table would exceed
            ``factors.MAX_TABLE_ENTRIES``; raised before any family table
            is built, and the error names the vertex.
        OutOfRangeError: when the product of a vertex's factors leaves
            the range of a double (an entry overflows, or a nonzero one
            rounds to zero); the error names the vertex.  A product in
            which a multiply overflowed, or underflowed with lost bits
            (the FPU's underflow flag), is rebuilt with an exponent per
            entry.
    """
    require_valid(mn)
    return _triangulate(_tables(mn), mn.vt, triangulate_graph(mn.graph), ChordalNetwork)


def _triangulate(
    tables: list[_Table], vt: VariableTable, graph: OrderedDag, kind: type
) -> Network:
    """The kernels of :func:`triangulate_mn` for ``tables``, each vertex's
    in :func:`networks._tables` order, over ``graph``, a triangulation of
    their (moral) graph, as a network of type ``kind``; stochastic when
    ``kind`` is Bayesian.  Every family is checked before any is built, by
    :func:`_families`, kept on the graph, and every kernel is copied once
    into a fresh family array.  The result is recorded as valid."""
    plan = _families(graph, vt)
    consumed: dict[str, list[_Table]] = {v: [] for v in graph.vertices}
    for table in tables:
        # Table variables follow the declared order: the last is the maximum.
        consumed[table[0][-1]].append(table)
    stochastic = kind is BayesianNetwork
    kernels: dict[str, Kernel] = {}
    for v, (parents, family, shape, _, _) in plan.items():
        values = np.empty(shape)
        values[...] = _kept(f"vertex {v}", consumed[v], family, vt)
        kernels[v] = _adopt(
            Kernel, values, child=v, parents=parents, stochastic=stochastic
        )
    net = kind(graph, vt, kernels)
    object.__setattr__(net, "_valid", True)
    return net


def _families(graph: OrderedDag, vt: VariableTable) -> dict[str, tuple]:
    """The syntactic half of :func:`_triangulate`, :func:`_eliminate` and
    :func:`_family_marginals`: for each vertex ``v``, ``(parents, family,
    shape, host, onto)``: its family ``parents + (v,)``, that table's shape,
    checked against the cap in vertex order, its latest parent (``None`` at
    a root), and the shape that lays its mass on the host's family (as
    :func:`factors._spread` does).  Kept on the graph with ``vt``, reused
    for an equal table only; a refusal is not kept."""
    slot = getattr(graph, "_families", (None,))  # one read: another thread may swap it
    if slot[0] == vt:
        return slot[1]
    plan: dict[str, tuple] = {}
    for v in graph.vertices:
        parents = graph.parents_of(v)
        shape = vt.shape(parents + (v,))
        _check_entries(shape, f"vertex {v}")
        host = parents[-1] if parents else None
        onto = parents and [vt._card[u] if u in parents else 1 for u in plan[host][1]]
        plan[v] = parents, parents + (v,), shape, host, onto
    object.__setattr__(graph, "_families", (vt, plan))
    return plan


def variable_elimination(
    cn: ChordalNetwork,
) -> tuple[BayesianNetwork, EliminationTrace]:
    """Normalize a chordal network into a Bayesian network, largest first.

    Processing vertices in descending order, each working table is split
    into a stochastic kernel and a mass table over the parents, with
    uniform fill on zero columns; the mass is multiplied into the largest
    parent's working table, which ordered chordality guarantees can host
    it.  The absorbed copy is divided by the power of two of
    :func:`factors._shift` (target [1, 2)); the kernels are unchanged
    because normalization cancels the scale exactly.  Scalar masses at
    parentless vertices, with the recorded scales, make up the partition
    constant, divided out implicitly by the normalizations.  A working
    table whose mass maximum is not in (0, inf), or which lost bits to an
    underflow in a host multiply, is rebuilt by the exact product: each
    row is split at its own largest entry's scale, and the row masses are
    divided by the power of two of sum-product (``networks._reduce_bucket``),
    added to the step's scale.

    The sweep works on plain arrays: parents precede the child, so each
    kernel's flat layout is already that of its family table, and a mass
    is multiplied into its host by broadcasting.  That is one pass per
    family table: the normaliser's rows and masses become the returned
    kernels and masses without a copy, and one check of each mass's
    maximum, with the FPU's underflow flag, shows the family table in range.

    Returns the Bayesian network on the same graph plus the trace of
    ``(vertex, mass, absorbed_into, log2_scale)`` steps.

    Raises:
        DegenerateDistributionError: when some vertex's exact working
            table is zero, which happens exactly when the kernel product
            has zero total mass; the error names the first such vertex in
            processing order.
        OutOfRangeError: when no one power of two brings the row masses
            of a rebuilt working table into the normal range of a double;
            a :class:`ValueError` whose message names the vertex and whose
            ``log_mass`` is the natural log of that table's total mass.
        TableTooLargeError: as :func:`triangulate_mn`, for a kernel that large.
    """
    require_valid(cn)
    bn, steps = _eliminate(cn)
    return bn, EliminationTrace(tuple(
        EliminationStep(v, _adopt(Factor, mass, vars=parents), host, shift)
        for v, parents, mass, host, shift in steps
    ))


def _eliminate(cn: ChordalNetwork) -> tuple[BayesianNetwork, list[tuple]]:
    """The sweep of :func:`variable_elimination` on a network known valid,
    with its steps as tuples ``(vertex, parents, mass, host, log2_scale)``,
    from which only a caller that wants the trace builds it."""
    graph, vt = cn.graph, cn.vt
    plan = _families(graph, vt)
    working = {v: cn.kernels[v].values for v in graph.vertices}
    kernels: dict[str, Kernel] = {}
    steps: list[tuple] = []
    # Each host's absorbed masses, with the power of two each was divided by.
    absorbed: dict[str, list[tuple]] = {v: [] for v in graph.vertices}
    # The hosts that lost bits in a multiply: numpy reads the FPU's underflow
    # flag after each ufunc, raised only by a tiny result that is inexact.
    underflows: list[str] = []
    lost: set[str] = set()
    # An overflow in a host's table, or inf * 0 after one, is caught by the
    # check of the host's mass below; 0/0 by the normaliser's zero test.
    with np.errstate(
        over="ignore", invalid="ignore", divide="ignore", under="call",
        call=lambda kind, flag: underflows.append(kind),
    ):
        for v in reversed(graph.vertices):
            parents, family, shape, host, onto = plan[v]
            rows, mass, least = _stochastic_rows(working.pop(v).reshape(-1, shape[-1]))
            # Working entries are >= 0, inf or NaN: a finite row sum proves
            # its row finite, and NaN, which max propagates, fails the test.
            peak, scale = mass.max(), 0
            if not 0 < peak < math.inf or v in lost:
                tables = [(family, cn.kernels[v].values), *absorbed[v]]
                m, e = _wide_product(tables, family, vt)
                if not m.any():
                    raise DegenerateDistributionError(
                        f"degenerate network: the mass table at vertex {v} is "
                        "identically zero", vertex=v
                    )
                m, e = m.reshape(rows.shape), e.reshape(rows.shape)
                top = np.max(e, 1, where=m > 0, initial=-(1 << 30))
                rows, mass, _ = _stochastic_rows(np.ldexp(m, e - top[:, None]))
                # The row masses, an exponent each, divided as sum-product's.
                mass, e, scale = _reduce_bucket([(parents, mass, top)], parents, vt)
                if np.ndim(e):  # no one power of two keeps every mass normal
                    raise _out_of_range(f"vertex {v}", mass, e)
                mass = mass.flatten()  # a fresh array, also at a root
                least, peak = mass.min(), mass.max()
            kernels[v] = _adopt(Kernel, rows, child=v, parents=parents, stochastic=True)
            shift = 0
            if host is not None:
                if not least > 0:  # the least nonzero mass
                    least = np.min(mass, where=mass > 0, initial=math.inf)
                shift = _shift(peak, math.frexp(least)[1] - 1, 1)
                flagged = len(underflows)
                spread = np.ldexp(mass, -shift).reshape(onto)
                table = working[host].reshape(plan[host][2]) * spread
                if len(underflows) > flagged:
                    lost.add(host)
                working[host] = table
                absorbed[host].append((parents, mass, -shift))
            steps.append((v, parents, mass, host, scale + shift))
    return BayesianNetwork(graph, vt, kernels), steps


def _family_marginals(bn: BayesianNetwork) -> dict[str, np.ndarray]:
    """Every family marginal p(parents(v), v) of a Bayesian network on an
    ordered chordal graph, shaped over ``parents + (v,)``, in one forward
    pass (Lauritzen & Spiegelhalter 1988): chordality puts the parents of
    ``v`` in the family of its largest parent, whose marginal gives
    p(parents(v)), and p(family(v)) = p(parents(v)) * k(v | parents(v)).
    """
    plan = _families(bn.graph, bn.vt)
    out: dict[str, np.ndarray] = {}
    for v, (parents, _, shape, host, _) in plan.items():
        kernel = bn.kernels[v].values.reshape(shape)
        if host is None:
            out[v] = kernel
            continue
        drop = tuple(i for i, u in enumerate(plan[host][1]) if u not in parents)
        out[v] = out[host].sum(axis=drop)[..., None] * kernel
    return out


def mn_to_bn(mn: MarkovNetwork) -> BayesianNetwork:
    """Turn a Markov network into a Bayesian one: triangulate then eliminate.

    The joint of the result equals the normalized factor product of the
    input.

    Raises:
        TableTooLargeError: as :func:`triangulate_mn`.
        DegenerateDistributionError: for degenerate input (Z = 0).
        OutOfRangeError: as :func:`triangulate_mn` and
            :func:`variable_elimination`; the error names the vertex.
    """
    bn, _ = _eliminate(triangulate_mn(mn))
    return bn


def triangulate_bn(bn: BayesianNetwork) -> BayesianNetwork:
    """Re-express a Bayesian network over its triangulated moral graph.

    This is :func:`triangulate_mn` of the moralisation: kernel values are
    kept and broadcast constantly over each vertex's new parents, so the
    outputs stay stochastic and the joint is unchanged.  Applying the
    operation twice equals applying it once.  A family table above the
    cap raises :class:`TableTooLargeError` as in :func:`triangulate_mn`.
    """
    require_valid(bn)
    graph = triangulate_graph(moralise_graph(bn.graph))
    return _triangulate(_tables(bn), bn.vt, graph, BayesianNetwork)


@dataclass(frozen=True)
class VStructureWitness:
    """Why the elimination guarantee is restricted to chordal graphs.

    Over the graph A -> C <- B with all variables binary, the table that is
    one exactly when two of the three values agree leaves A and B dependent
    after C is discarded, even though any Bayesian network over that graph
    would make them independent.  Counts are exact integers: the marginal
    over (A, B) is proportional to ((1, 2), (2, 1)) with total 6, and
    P(A=0, B=0) = 1/6 while P(A=0) P(B=0) = 1/4.
    """

    dag: OrderedDag
    vt: VariableTable
    joint: Factor
    ab_marginal: Factor
    ab_counts: tuple[tuple[int, int], tuple[int, int]]
    total: int
    joint_prob_00: Fraction
    product_prob_00: Fraction
    independent: bool
    chordal: bool


def vstructure_counterexample() -> VStructureWitness:
    """Build the collider counterexample and report the dependence."""
    dag = OrderedDag(("A", "B", "C"), {("A", "C"), ("B", "C")})
    vt = VariableTable((("A", ("0", "1")), ("B", ("0", "1")), ("C", ("0", "1"))))
    values = [
        1.0 if (a == b) + (a == c) + (b == c) == 1 else 0.0
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
    ]
    joint = Factor(("A", "B", "C"), values)
    ab = factor_marginalize(joint, {"C"}, vt)

    counts = tuple(
        tuple(int(ab.values[2 * a + b]) for b in (0, 1)) for a in (0, 1)
    )
    total = int(sum(sum(row) for row in counts))
    joint_00 = Fraction(counts[0][0], total)
    a0 = Fraction(counts[0][0] + counts[0][1], total)
    b0 = Fraction(counts[0][0] + counts[1][0], total)
    return VStructureWitness(
        dag=dag,
        vt=vt,
        joint=joint,
        ab_marginal=ab,
        ab_counts=counts,
        total=total,
        joint_prob_00=joint_00,
        product_prob_00=a0 * b0,
        independent=joint_00 == a0 * b0,
        chordal=is_ordered_chordal(dag),
    )
