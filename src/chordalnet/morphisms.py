"""Morphisms between networks of the same kind.

A morphism from a source network to a target network consists of

* ``alpha``: a :class:`~chordalnet.graphs.GraphHom` from the TARGET
  network's graph to the SOURCE network's graph.  The direction is
  contravariant on purpose and inverts the first intuition: mapping a
  target vertex onto a source vertex says which source variable (or
  variables) the target variable refines or collapses.
* ``eta``: for every source vertex ``v``, a column-stochastic matrix from
  the source domain of ``v`` to the product of the target domains over the
  alpha-preimage of ``v``.  An empty preimage makes the matrix a single
  all-ones row, the deletion map into the one-point domain.

A morphism is valid when ``alpha`` is a homomorphism, every ``eta`` matrix
is column-stochastic, and the tensor product of the ``eta`` matrices
carries the source distribution to the target distribution.  Because
``alpha`` is order-preserving, the preimages of successive source vertices
tile the target vertex list in order, so the tensor product is simply the
Kronecker product taken in source order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Mapping, NamedTuple

import numpy as np

from .factors import (
    Factor,
    Kernel,
    TableTooLargeError,
    VariableTable,
    _adopt,
    _check_entries,
    _product,
    _stochastic_rows,
    _Table,
    enumerate_assignments,
)
from .graphs import (
    GraphHom,
    OrderedDag,
    OrderedUGraph,
    check_hom,
    identity_hom,
    moralise_graph,
    triangulate_graph,
)
from .networks import (
    STOCHASTIC_TOL,
    BayesianNetwork,
    ChordalNetwork,
    DegenerateDistributionError,
    MarkovNetwork,
    Network,
    _normalized,
    _tables,
    network_distribution,
    require_valid,
)
from .transforms import _eliminate, _family_marginals, _triangulate

PRESERVATION_TOL = 1e-9


@dataclass(eq=False)
class NetworkMorphism:
    """A contravariant vertex map plus per-vertex stochastic matrices.

    ``eta[v]`` has one column per state of the source variable ``v`` and
    one row per joint state of the target variables mapped onto ``v``
    (row-major in target order; a single row when the preimage is empty).
    """

    alpha: GraphHom
    eta: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        self.eta = {v: np.asarray(m, dtype=np.float64) for v, m in self.eta.items()}


def identity_morphism(net: Network) -> NetworkMorphism:
    return NetworkMorphism(
        identity_hom(net.graph),
        {v: np.eye(net.vt.card(v)) for v in net.graph.vertices},
    )


def _kronecker(mats: list[np.ndarray]) -> np.ndarray:
    """The Kronecker product of ``mats``, refused before it is built when
    its size, the product of theirs, exceeds ``factors.MAX_TABLE_ENTRIES``."""
    what = "a Kronecker product of {} eta components"
    _check_entries([mat.size for mat in mats], what=what)
    return reduce(np.kron, mats, np.ones((1, 1)))


def transfer_matrix(m: NetworkMorphism, src: Network) -> np.ndarray:
    """The tensor product of the eta components, in source vertex order.

    Applied to the flat source joint it yields a flat table in the target's
    canonical layout.

    Raises:
        TableTooLargeError: if its size, the product of the eta sizes,
            would exceed ``factors.MAX_TABLE_ENTRIES``.
    """
    return _kronecker([m.eta[v] for v in src.graph.vertices])


def morphism_violations(
    m: NetworkMorphism, src: Network, tgt: Network
) -> list[str]:
    """Every way ``m`` fails to be a morphism from ``src`` to ``tgt``.

    The distribution-preservation check reports the maximum pointwise
    deviation when it fails.

    Raises:
        TableTooLargeError: if a distribution to compare would exceed
            ``factors.MAX_TABLE_ENTRIES``; that is not a violation.
    """
    out: list[str] = []
    if m.alpha.source != tgt.graph:
        out.append("alpha must map from the target network's graph")
    if m.alpha.target != src.graph:
        out.append("alpha must map into the source network's graph")
    if out:
        return out
    try:
        if not check_hom(m.alpha):
            out.append("alpha is not an order- and edge-preserving homomorphism")
    except ValueError as exc:  # alpha's preimages give the eta shapes
        return [f"alpha is malformed: {exc}"]

    for v in src.graph.vertices:
        mat = m.eta.get(v)
        if mat is None:
            out.append(f"eta is missing a component for vertex {v}")
            continue
        rows = math.prod(tgt.vt.shape(m.alpha.preimage(v)))
        if mat.shape != (rows, src.vt.card(v)):
            out.append(
                f"eta[{v}] has shape {mat.shape}, expected ({rows}, {src.vt.card(v)})"
            )
            continue
        if not np.all(np.isfinite(mat)) or np.any(mat < 0):
            out.append(f"eta[{v}] has negative or non-finite entries")
            continue
        dev = float(np.abs(mat.sum(axis=0) - 1.0).max())
        if dev > STOCHASTIC_TOL:
            out.append(
                f"eta[{v}] is not column-stochastic (worst column deviation {dev:.3g})"
            )
    if out:
        return out

    try:
        src_dist = network_distribution(src)
        tgt_dist = network_distribution(tgt)
    except TableTooLargeError:
        raise
    except ValueError as exc:
        return [f"cannot check distribution preservation: {exc}"]
    # The transfer matrix, never built, applied one source axis at a time:
    # contracting the leading axis appends its target block at the end.
    image = src_dist.values.reshape(src.vt.shape(src.graph.vertices))
    for v in src.graph.vertices:
        image = np.tensordot(image, m.eta[v], axes=([0], [1]))
    dev = float(np.abs(image.ravel() - tgt_dist.values).max())
    if dev > PRESERVATION_TOL:
        out.append(
            "the eta transfer does not carry the source distribution to the "
            f"target distribution (max pointwise deviation {dev:.3g})"
        )
    return out


def compose_morphisms(f: NetworkMorphism, g: NetworkMorphism) -> NetworkMorphism:
    """Compose ``f`` (A to B) with ``g`` (B to C) into a morphism A to C.

    Vertex maps compose target-to-source; each eta component of ``f`` is
    followed by the Kronecker product of the ``g`` components sitting over
    its output block, refused like :func:`transfer_matrix` when too large.
    """
    if f.alpha.source != g.alpha.target:
        raise ValueError(
            "type mismatch: f's target network graph must be g's source network graph"
        )
    alpha = GraphHom(
        g.alpha.source,
        f.alpha.target,
        {w: f.alpha.vertex_map[g.alpha.vertex_map[w]] for w in g.alpha.source.vertices},
    )
    eta: dict[str, np.ndarray] = {}
    for v in f.alpha.target.vertices:
        mids = f.alpha.preimage(v)
        eta[v] = _kronecker([g.eta[u] for u in mids]) @ f.eta[v]
    return NetworkMorphism(alpha, eta)


class MorphismDecomposition(NamedTuple):
    semantic: NetworkMorphism
    syntactic: NetworkMorphism
    intermediate: Network


def _product_states(vt: VariableTable, vertices: tuple[str, ...]) -> tuple[str, ...]:
    """State labels of a product domain, row-major, last factor fastest."""
    if not vertices:
        return ("()",)
    if len(vertices) == 1:
        return vt.states(vertices[0])
    return tuple("(" + ",".join(c) + ")" for c in enumerate_assignments(vt, vertices))


def _regrouped_kernels(
    src_graph: OrderedDag,
    tgt: BayesianNetwork | ChordalNetwork,
    alpha: GraphHom,
) -> dict[str, Kernel]:
    """Target kernels bundled into one kernel per source vertex.

    The kernel of a source vertex ``v`` is the joint conditional of all
    target kernels whose child lies over ``v``: occurrences of in-group
    variables are identified, out-of-group parents are read off the
    preimages of the source parents, and unused inputs are broadcast.
    Because alpha preserves order, the flat layout over the concatenated
    preimages coincides with the target's canonical layout, so no
    transposition is needed.  Only unnormalised kernels take the checked
    product: one of entries at most 1 that flushes to 0 is below every double.
    """
    stochastic = all(k.stochastic for k in tgt.kernels.values())
    kernels: dict[str, Kernel] = {}
    for v in src_graph.vertices:
        group = alpha.preimage(v)
        pa_src = src_graph.parents_of(v)
        input_block = tuple(w for p in pa_src for w in alpha.preimage(p))
        tables = [(tgt.kernels[w].parents + (w,), tgt.kernels[w].values) for w in group]
        onto = input_block + group
        where = None if stochastic else f"vertex {v}"
        values = _product(tables, onto, tgt.vt, where)
        kernels[v] = Kernel(v, pa_src, values, stochastic=stochastic)
    return kernels


def _regrouped_factors(
    src_graph: OrderedUGraph,
    tgt: MarkovNetwork,
    alpha: GraphHom,
) -> dict[frozenset[str], Factor]:
    """Target clique factors bundled onto their image cliques by the checked product."""
    groups: dict[frozenset[str], list[_Table]] = {}
    for t in _tables(tgt):
        groups.setdefault(frozenset(alpha.vertex_map[w] for w in t[0]), []).append(t)

    out: dict[frozenset[str], Factor] = {}
    for image, tables in groups.items():
        members = tuple(sorted(image, key=src_graph.position))
        axes = tuple(w for v in members for w in alpha.preimage(v))
        values = _product(tables, axes, tgt.vt, f"clique {list(members)}")
        out[frozenset(members)] = Factor(members, values)
    return out


def decompose_morphism(
    m: NetworkMorphism, src: Network, tgt: Network
) -> MorphismDecomposition:
    """Split a morphism into a semantic part followed by a syntactic part.

    The semantic part keeps the source graph and carries all of ``eta``
    into an intermediate network that holds the target distribution over
    the source graph, with each source vertex's domain replaced by the
    product of the target domains over its preimage.  The syntactic part
    reuses the original vertex map with identity eta components.  Their
    composition reproduces ``m`` exactly.

    Raises:
        ValueError: if ``m`` is not a morphism from ``src`` to ``tgt``.
        TableTooLargeError: if a network distribution that the validation
            of ``m`` needs, or a regrouped table, exceeds the table cap.
        OutOfRangeError: if a regrouped Markov factor or chordal kernel
            leaves the range of a double (an entry overflows, or a nonzero
            one rounds to zero); the error names the clique or vertex.
    """
    violations = morphism_violations(m, src, tgt)
    if violations:
        raise ValueError("cannot decompose an invalid morphism: " + "; ".join(violations))

    mid_vt = VariableTable(
        tuple(
            (v, _product_states(tgt.vt, m.alpha.preimage(v)))
            for v in src.graph.vertices
        )
    )
    markov = isinstance(src, MarkovNetwork)
    regroup = _regrouped_factors if markov else _regrouped_kernels
    intermediate = type(src)(src.graph, mid_vt, regroup(src.graph, tgt, m.alpha))

    semantic = NetworkMorphism(identity_hom(src.graph), dict(m.eta))
    syntactic = NetworkMorphism(
        m.alpha, {v: np.eye(mid_vt.card(v)) for v in src.graph.vertices}
    )
    return MorphismDecomposition(semantic, syntactic, intermediate)


@dataclass(frozen=True)
class PearlVertexUpdate:
    """Per-vertex update data: a state permutation and evidence weights.

    ``iso`` is a permutation matrix over the vertex domain (``None`` means
    identity); ``weight`` is a nonnegative evidence vector over the vertex
    domain in its original state order (``None`` means all ones).
    """

    iso: np.ndarray | None = None
    weight: np.ndarray | None = None


def _permutation(iso: np.ndarray | None, card: int, vertex: str) -> np.ndarray:
    """The map sigma with iso[sigma[j], j] == 1, validated."""
    if iso is None:
        return np.arange(card)
    arr = np.asarray(iso, dtype=np.float64)
    if arr.shape != (card, card):
        raise ValueError(f"iso for {vertex} must be {card}x{card}")
    ok = (
        np.all((arr == 0.0) | (arr == 1.0))
        and np.all(arr.sum(axis=0) == 1.0)
        and np.all(arr.sum(axis=1) == 1.0)
    )
    if not ok:
        raise ValueError(f"iso for {vertex} is not a permutation matrix")
    return np.argmax(arr, axis=0)


def _weights(weight: np.ndarray | None, card: int, vertex: str) -> np.ndarray:
    if weight is None:
        return np.ones(card)
    arr = np.asarray(weight, dtype=np.float64).ravel()
    if arr.size != card:
        raise ValueError(f"weight vector for {vertex} must have length {card}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError(f"weight vector for {vertex} must be finite and nonnegative")
    return arr


def _own_kernel(
    v: str, own: tuple[str, ...], bn: BayesianNetwork, family: np.ndarray
) -> Kernel:
    """The kernel of ``v`` given ``own``, some of its parents in ``bn``, an
    elimination result on a triangulation, from ``v``'s family marginal.

    Earlier vertices are non-descendants, so the distribution factors over
    the graph before triangulation exactly when every vertex is independent
    of its fill parents given its own, which is checked on the marginal.
    """
    parents = bn.graph.parents_of(v)
    if own == parents:
        return bn.kernels[v]
    fill = tuple(i for i, u in enumerate(parents) if u not in own)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows, *_ = _stochastic_rows(family.sum(axis=fill))
    expected = family.sum(axis=-1, keepdims=True) * np.expand_dims(rows, fill)
    if float(np.abs(family - expected).max()) > PRESERVATION_TOL:
        raise ValueError(
            "the updated distribution does not factor over this graph; "
            "evidence on a collider family needs a chordal graph"
        )
    return _adopt(Kernel, rows, child=v, parents=own, stochastic=True)


def pearl_update(
    net: Network, updates: Mapping[str, PearlVertexUpdate]
) -> tuple[Network, NetworkMorphism]:
    """Apply per-vertex evidence weights and state permutations.

    The updated network keeps the graph and variable order; its
    distribution is the old one multiplied pointwise by every weight,
    relabelled through the permutations, and renormalized once at the
    network level (never per vertex, which would destroy the per-vertex
    factorization of the witnessing morphism).

    Every kind takes one path, linear in the total size of the family
    tables of the triangulated graph.  The network's tables are relabelled
    as the factors of a Markov network on its graph, moralised first if
    directed (each kernel on its family clique), and the weights join the
    singleton-clique factors; those tables are triangulated (a chordal
    network's graph is its own triangulation), eliminated, and every family
    marginal found by one forward pass.  A directed vertex keeps its
    elimination kernel, or, when triangulation gave it parents, gets the
    normalized marginal over its own family after a check that the
    posterior does not depend on the added parents.

    Returns the updated network and a morphism from the input to it.  When
    every weight vector is constant the morphism components are the
    permutations themselves and the morphism always validates; under
    genuine evidence the components are the posterior marginals, which
    preserve the distribution exactly when the posterior is a product (for
    example indicator evidence on the last vertex of a chain), and only
    the marginals otherwise.

    Raises:
        DegenerateDistributionError: if the update annihilates the joint.
        TableTooLargeError: if a family table of the triangulation would
            exceed ``factors.MAX_TABLE_ENTRIES``; the error names the vertex.
        OutOfRangeError: if a weighted singleton factor leaves the range
            of a double (an entry overflows, or a nonzero one rounds to
            zero); the error names the vertex.
        ValueError: if a directed graph's posterior does not factor over it
            (possible for colliders under evidence), or on malformed
            update data.
    """
    require_valid(net)
    unknown = updates.keys() - net.graph._pos.keys()
    if unknown:
        raise ValueError(f"updates name unknown vertices: {sorted(unknown)}")
    for v, update in updates.items():
        if not isinstance(update, PearlVertexUpdate):
            raise ValueError(f"update for {v} is not a PearlVertexUpdate")
    no_update = PearlVertexUpdate()
    sigmas = {
        v: _permutation(updates.get(v, no_update).iso, net.vt.card(v), v)
        for v in net.graph.vertices
    }
    weights = {
        v: _weights(updates.get(v, no_update).weight, net.vt.card(v), v)
        for v in net.graph.vertices
    }
    for v, w in weights.items():
        if not np.any(w > 0):
            raise DegenerateDistributionError(
                f"update annihilates the joint: all weights at {v} are zero",
                vertex=v,
            )

    # Relabelled copies of valid tables need no check.
    orders = {v: np.argsort(sigma) for v, sigma in sigmas.items()}
    factors: dict[frozenset[str], Factor] = {}
    for vars, values in _tables(net):
        grid = values.reshape(net.vt.shape(vars))
        for axis, u in enumerate(vars):
            grid = grid.take(orders[u], axis=axis)
        factors[frozenset(vars)] = _adopt(Factor, grid, vars=vars)
    for v in net.graph.vertices:
        w = weights[v][orders[v]]
        if (w == 1.0).all():
            continue
        key, tables = frozenset({v}), [((v,), w)]
        if key in factors:
            tables.insert(0, ((v,), factors[key].values))
        values = _product(tables, (v,), net.vt, f"vertex {v}")
        factors[key] = Factor((v,), values)
    graph = moralise_graph(net.graph) if isinstance(net, BayesianNetwork) else net.graph
    if not isinstance(net, ChordalNetwork):  # a chordal graph is its own triangulation
        graph = triangulate_graph(graph)
    # In ``_tables`` order per vertex: a new weight factor sorts last.
    tables = [(f.vars, f.values) for f in factors.values()]
    chordal = _triangulate(tables, net.vt, graph, ChordalNetwork)
    try:
        bn, _ = _eliminate(chordal)
    except DegenerateDistributionError as exc:
        raise DegenerateDistributionError(
            f"update annihilates the joint: {exc}", vertex=exc.vertex
        ) from exc
    marginals = _family_marginals(bn)
    if isinstance(net, MarkovNetwork):
        updated: Network = MarkovNetwork(net.graph, net.vt, factors)  # valid as built
    else:
        kernels = {
            v: _own_kernel(v, net.graph.parents_of(v), bn, marginals[v])
            for v in net.graph.vertices
        }
        updated = type(net)(net.graph, net.vt, kernels)

    relabel_only = all(
        float(w.max() - w.min()) == 0.0 and w[0] > 0.0 for w in weights.values()
    )
    eta: dict[str, np.ndarray] = {}
    for v in net.graph.vertices:
        card = net.vt.card(v)
        if relabel_only:
            eta[v] = np.zeros((card, card))
            eta[v][sigmas[v], np.arange(card)] = 1.0
        else:
            marg = marginals[v].reshape(-1, card).sum(axis=0)
            eta[v] = np.tile(marg[:, None], (1, card))
    return updated, NetworkMorphism(identity_hom(net.graph), eta)


def marginalization_morphism(net: Network, v: str) -> tuple[Network, NetworkMorphism]:
    """The morphism onto the one-vertex network carrying the v-marginal.

    The target keeps only ``v`` with its marginal distribution; the vertex
    map sends the single target vertex to ``v``, eta is the identity at
    ``v`` and the deletion map (a single all-ones row) everywhere else.
    The marginal is summed out by elimination, without the full joint, and
    normalized for Markov and chordal networks, where the power-of-two
    scale of the sum cancels: a total mass outside the range of a double
    still gives the marginal.

    Raises:
        DegenerateDistributionError: if the network's product has zero
            total mass.
    """
    if v not in net.graph.vertices:
        raise ValueError(f"unknown vertex {v}")
    require_valid(net)
    values = _normalized(net, {v}).values
    vt_v = VariableTable(((v, net.vt.states(v)),))
    graph: OrderedDag | OrderedUGraph
    if isinstance(net, MarkovNetwork):
        graph = OrderedUGraph((v,))
        tables: dict = {frozenset({v}): Factor((v,), values)}
    else:
        graph = OrderedDag((v,))
        tables = {v: Kernel(v, (), values, stochastic=True)}
    target = type(net)(graph, vt_v, tables)

    alpha = GraphHom(graph, net.graph, {v: v})
    eta = {
        u: np.eye(net.vt.card(u)) if u == v else np.ones((1, net.vt.card(u)))
        for u in net.graph.vertices
    }
    return target, NetworkMorphism(alpha, eta)
