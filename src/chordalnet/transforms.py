"""Distribution-preserving transformations between the network kinds.

Four total conversions are provided, plus a fast path:

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
  leave scalar masses whose product, times the power-of-two scales of the
  absorbed masses, is the partition constant, which is what the final
  normalization divides out.
* :func:`mn_to_bn` is the composition of the previous two.
* :func:`triangulate_bn` (Bayesian to Bayesian) rebuilds a network over
  its triangulated moral graph without touching the numbers: each kernel
  is broadcast constantly over its newly acquired parents.

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
    _product,
    _spread,
    _Table,
    _stochastic_rows,
    factor_marginalize,
    kernel_to_factor,
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
    _tables,
    require_valid,
)


@dataclass(frozen=True)
class EliminationStep:
    """One sweep step: the vertex, its mass table, and where the mass went.

    ``absorbed_into`` is the vertex's largest parent, or ``None`` for a
    parentless vertex whose scalar mass contributes to the partition
    constant directly.  ``lam`` is the mass as computed; the copy absorbed
    into the host was multiplied by ``2 ** -log2_scale``, which brings its
    maximum into [1, 2) and is exact.
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

        Exact up to the rounding of the scalar product; overflows to
        ``inf`` or underflows to ``0.0`` when Z is out of double range, where
        :meth:`log_partition` still holds.
        """
        exponent = sum(s.log2_scale for s in self.steps)
        with np.errstate(over="ignore", under="ignore"):
            return float(np.ldexp(np.prod(self._scalars()), exponent))

    def log_partition(self) -> float:
        """The natural logarithm of the partition constant."""
        exponent = sum(s.log2_scale for s in self.steps)
        return float(np.log(self._scalars()).sum()) + exponent * math.log(2.0)


def _family_factors(
    graph: OrderedDag, vt: VariableTable, kernels: dict[str, Kernel]
) -> dict[frozenset[str], Factor]:
    """Each kernel as a factor, keyed by its family clique {v} | parents(v).

    In a topologically listed DAG the family of v has v as its maximum, so
    distinct vertices give distinct families.
    """
    return {
        frozenset({v, *graph.parents_of(v)}): kernel_to_factor(kernels[v], vt)
        for v in graph.vertices
    }


def moralise_bn(bn: BayesianNetwork) -> MarkovNetwork:
    """View a Bayesian network as a Markov network on the moral graph.

    Each vertex's kernel becomes the factor of its family clique; every
    other clique is left absent (all-ones).  The variable table is shared
    unchanged, and the normalized factor product equals ``bn_joint(bn)``.
    """
    require_valid(bn)
    return MarkovNetwork(
        moralise_graph(bn.graph), bn.vt, _family_factors(bn.graph, bn.vt, bn.kernels)
    )


def moralise_cn(cn: ChordalNetwork) -> MarkovNetwork:
    """Moralise a chordal network.

    Same factor placement as :func:`moralise_bn`, applied to unnormalized
    kernels.  Chordality makes all co-parents adjacent already, so the
    moral graph adds no edge beyond undirecting.
    """
    require_valid(cn)
    return MarkovNetwork(
        moralise_graph(cn.graph), cn.vt, _family_factors(cn.graph, cn.vt, cn.kernels)
    )


def triangulate_mn(mn: MarkovNetwork) -> ChordalNetwork:
    """Reshape a Markov network into kernels on the triangulated graph.

    Each present clique factor is consumed by exactly one vertex, the
    clique's maximal element; the kernel of a vertex is the pointwise
    product of the factors it consumed, extended constantly over any
    parents they do not cover.  The kernel product therefore equals the
    factor product exactly.
    """
    require_valid(mn)
    graph = triangulate_graph(mn.graph)
    consumed: dict[str, list[_Table]] = {v: [] for v in graph.vertices}
    for table in _tables(mn):
        # Table variables follow the declared order: the last is the maximum.
        consumed[table[0][-1]].append(table)

    kernels: dict[str, Kernel] = {}
    for v in graph.vertices:
        family = graph.parents_of(v) + (v,)
        values = _product(consumed[v], family, mn.vt)
        kernels[v] = Kernel(v, family[:-1], values, stochastic=False)
    return ChordalNetwork(graph, mn.vt, kernels)


def variable_elimination(
    cn: ChordalNetwork,
) -> tuple[BayesianNetwork, EliminationTrace]:
    """Normalize a chordal network into a Bayesian network, largest first.

    Processing vertices in descending order, each working table is split
    into a stochastic kernel and a mass table over the parents, with
    uniform fill on zero columns; the mass is multiplied into the largest
    parent's working table, which ordered chordality guarantees can host
    it.  The absorbed copy is first rescaled by a power of two, so that
    long networks neither overflow nor underflow; the kernels are
    unchanged because normalization cancels the scale exactly.  Scalar
    masses at parentless vertices, with the recorded scales, make up the
    partition constant, divided out implicitly by the normalizations.

    The sweep works on plain arrays: parents precede the child, so each
    kernel's flat layout is already that of its family table, and a mass
    is multiplied into its host by broadcasting.  That is one pass per
    family table; only the returned kernels and masses are copied and
    validated.

    Returns the Bayesian network on the same graph plus the trace of
    ``(vertex, mass, absorbed_into, log2_scale)`` steps.

    Raises:
        DegenerateDistributionError: when some vertex's mass table is
            identically zero, which happens exactly when the kernel
            product has zero total mass; the error names the first such
            vertex in processing order.
        ValueError: when a working table leaves the range of a double.
    """
    require_valid(cn)
    return _eliminate(cn)


def _eliminate(cn: ChordalNetwork) -> tuple[BayesianNetwork, EliminationTrace]:
    """The sweep of :func:`variable_elimination` on a network known valid."""
    graph, vt = cn.graph, cn.vt
    working = {v: cn.kernels[v].values for v in graph.vertices}
    kernels: dict[str, Kernel] = {}
    steps: list[EliminationStep] = []
    # An overflow in a host's table, or inf * 0 after one, is caught when
    # the host's kernel and mass are built: they must be finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for v in reversed(graph.vertices):
            parents = graph.parents_of(v)
            rows, mass = _stochastic_rows(working.pop(v).reshape(-1, vt.card(v)))
            kernels[v] = Kernel(v, parents, rows, stochastic=True)
            lam = Factor(parents, mass)
            # The mass is finite and nonnegative, so it is identically zero
            # exactly when its maximum is not positive.
            peak = lam.values.max()
            if not peak > 0:
                raise DegenerateDistributionError(
                    f"degenerate network: the mass table at vertex {v} is "
                    "identically zero",
                    vertex=v,
                )
            host, shift = None, 0
            if parents:
                host = parents[-1]
                shift = math.frexp(peak)[1] - 1
                family = graph.parents_of(host) + (host,)
                spread = _spread(parents, np.ldexp(lam.values, -shift), family, vt)
                working[host] = working[host].reshape(vt.shape(family)) * spread
            steps.append(EliminationStep(v, lam, host, shift))
    bn = BayesianNetwork(graph, vt, kernels)
    return bn, EliminationTrace(tuple(steps))


def elimination_marginal(cn: ChordalNetwork) -> Factor:
    """The normalized marginal of the smallest vertex after elimination."""
    if not cn.graph.vertices:
        raise ValueError("network has no vertices")
    bn, _ = variable_elimination(cn)
    return kernel_to_factor(bn.kernels[cn.graph.vertices[0]], cn.vt)


def mn_to_bn(mn: MarkovNetwork) -> BayesianNetwork:
    """Turn a Markov network into a Bayesian one: triangulate then eliminate.

    The joint of the result equals the normalized factor product of the
    input.

    Raises:
        DegenerateDistributionError: for degenerate input (Z = 0).
    """
    bn, _ = _eliminate(triangulate_mn(mn))
    return bn


def triangulate_bn(bn: BayesianNetwork) -> BayesianNetwork:
    """Re-express a Bayesian network over its triangulated moral graph.

    Kernel values are kept and broadcast constantly over each vertex's new
    parents, so the outputs stay stochastic and the joint is unchanged.
    Applying the operation twice equals applying it once.
    """
    require_valid(bn)
    graph = triangulate_graph(moralise_graph(bn.graph))
    kernels: dict[str, Kernel] = {}
    for v in graph.vertices:
        old = bn.kernels[v]
        family = graph.parents_of(v) + (v,)
        spread = _spread(old.parents + (v,), old.values, family, bn.vt)
        values = np.broadcast_to(spread, bn.vt.shape(family))
        kernels[v] = Kernel(v, family[:-1], values, stochastic=True)
    return BayesianNetwork(graph, bn.vt, kernels)


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
