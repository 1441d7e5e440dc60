"""Ordered graph structures for discrete graphical models.

Every graph here carries a total vertex order: the listing order of its
vertex tuple.  Directed graphs must be listed topologically, so an edge
``(u, v)`` is accepted only when ``u`` appears before ``v``.  The order is
load-bearing throughout the package (triangulation, elimination sweeps and
junction trees are all defined relative to it), which is why inputs that
are not listed topologically are rejected instead of silently re-sorted.

Graph values are immutable after construction and every operation in this
module is a pure function, so values may be shared freely across threads.
Each graph indexes its vertex positions and sorted adjacency at construction,
and keeps its triangulation or family plan, outside its dataclass fields:
``==``, ``hash``, a pickle and a copy (made by the constructor) ignore them.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping


def _adjacency(pairs: Iterable[tuple[str, str]], pos: dict) -> dict:
    """Map each ``u`` to its partners ``v`` over ``pairs``, sorted by ``pos``."""
    out: dict[str, list[str]] = {}
    for u, v in pairs:
        out.setdefault(u, []).append(v)
    return {u: tuple(sorted(vs, key=pos.get)) for u, vs in out.items()}


def _reduce(g: Graph) -> tuple:
    return type(g), (g.vertices, g.edges)


def _position(g: Graph, v: str) -> int:
    try:
        return g._pos[v]
    except KeyError:
        raise ValueError(f"{v!r} is not a vertex") from None


@dataclass(frozen=True)
class OrderedDag:
    """A directed acyclic graph whose vertex listing is a topological order.

    Attributes:
        vertices: distinct vertex names; position in the tuple is the total
            order used by every ordered operation.
        edges: directed pairs ``(u, v)``; ``u`` must precede ``v`` in the
            vertex listing, which rules out cycles and self-loops at
            construction time.
    """

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self, "edges", frozenset((u, v) for u, v in self.edges)
        )
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        pos = {v: i for i, v in enumerate(self.vertices)}
        for u, v in self.edges:
            if u not in pos or v not in pos:
                raise ValueError(f"edge ({u}, {v}) mentions an unknown vertex")
            if u == v:
                raise ValueError(f"self-loop on {u}")
            if pos[u] >= pos[v]:
                raise ValueError(
                    f"edge ({u}, {v}) violates the vertex order; directed "
                    "graphs must be listed topologically"
                )
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_parents", _adjacency((e[::-1] for e in self.edges), pos))
        object.__setattr__(self, "_children", _adjacency(self.edges, pos))

    position = _position
    __reduce__ = _reduce

    def parents_of(self, v: str) -> tuple[str, ...]:
        """Parents of ``v``, sorted by the vertex order."""
        return self._parents.get(v, ())

    def children_of(self, v: str) -> tuple[str, ...]:
        return self._children.get(v, ())

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self.edges


@dataclass(frozen=True)
class OrderedUGraph:
    """An undirected graph with a total vertex order.

    Edges are unordered pairs of distinct vertices, stored as 2-element
    frozensets.
    """

    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self, "edges", frozenset(frozenset(e) for e in self.edges)
        )
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        pos = {v: i for i, v in enumerate(self.vertices)}
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {set(e)} is not a pair of distinct vertices")
            if not e <= pos.keys():
                raise ValueError(f"edge {set(e)} mentions an unknown vertex")
        pairs = [tuple(e) for e in self.edges]
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_neighbours", _adjacency(pairs + [e[::-1] for e in pairs], pos))

    position = _position
    __reduce__ = _reduce

    def neighbours_of(self, v: str) -> tuple[str, ...]:
        """Neighbours of ``v``, sorted by the vertex order."""
        return self._neighbours.get(v, ())

    def has_edge(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self.edges


Graph = OrderedDag | OrderedUGraph


@dataclass(frozen=True)
class GraphHom:
    """A vertex map between two graphs of the same kind.

    A valid homomorphism preserves the vertex order and the edges, where an
    edge may also be collapsed (both endpoints mapped to the same vertex).
    Validity is checked by :func:`check_hom`, not at construction.  Each
    vertex's preimage is indexed once, at construction, outside the
    dataclass fields, so ``==`` ignores the index.
    """

    source: Graph
    target: Graph
    vertex_map: Mapping[str, str]

    def __post_init__(self) -> None:
        vm = dict(self.vertex_map)
        pairs = ((vm[u], u) for u in self.source.vertices if u in vm)
        object.__setattr__(self, "vertex_map", vm)
        object.__setattr__(self, "_preimages", _adjacency(pairs, self.source._pos))

    def preimage(self, v: str) -> tuple[str, ...]:
        """Source vertices mapped onto ``v``, in source order."""
        return self._preimages.get(v, ())


def identity_hom(g: Graph) -> GraphHom:
    return GraphHom(g, g, {v: v for v in g.vertices})


def check_hom(hom: GraphHom) -> bool:
    """Whether ``hom`` is an order- and edge-preserving homomorphism.

    Raises:
        ValueError: if the vertex map is not total on the source vertices,
            maps outside the target, or the two graphs are of different
            kinds.  Order or edge violations return ``False``.
    """
    src, tgt, vm = hom.source, hom.target, hom.vertex_map
    if type(src) is not type(tgt):
        raise ValueError("source and target graphs must be of the same kind")
    if set(vm) != set(src.vertices):
        raise ValueError("vertex map is not total on the source vertices")
    if not set(vm.values()) <= set(tgt.vertices):
        raise ValueError("vertex map has images outside the target")

    images = [tgt.position(vm[v]) for v in src.vertices]
    if any(a > b for a, b in zip(images, images[1:])):
        return False

    return all(
        vm[u] == vm[v] or tgt.has_edge(vm[u], vm[v]) for u, v in map(tuple, src.edges)
    )


def decontract_hom(hom: GraphHom) -> tuple[GraphHom, GraphHom]:
    """Factor a surjective directed homomorphism through an edge decontraction.

    Returns a pair ``(beta, gamma)`` with ``gamma . beta == hom``, where
    ``beta`` is the identity on vertices into an intermediate graph that has
    an edge ``v -> w`` exactly when ``v < w`` and the images of ``v`` and
    ``w`` are equal or joined by a target edge, and ``gamma`` contracts each
    preimage (which the intermediate graph makes a complete subgraph).
    """
    if not isinstance(hom.source, OrderedDag) or not isinstance(hom.target, OrderedDag):
        raise ValueError("decontract_hom is defined for directed graphs")
    if not check_hom(hom):
        raise ValueError("not a valid graph homomorphism")
    if set(hom.vertex_map.values()) != set(hom.target.vertices):
        raise ValueError("homomorphism is not surjective on vertices")

    src, tgt, vm = hom.source, hom.target, hom.vertex_map
    mid_edges = set()
    for i, v in enumerate(src.vertices):
        for w in src.vertices[i + 1 :]:
            if vm[v] == vm[w] or tgt.has_edge(vm[v], vm[w]):
                mid_edges.add((v, w))
    mid = OrderedDag(src.vertices, mid_edges)
    beta = GraphHom(src, mid, {v: v for v in src.vertices})
    gamma = GraphHom(mid, tgt, dict(vm))
    return beta, gamma


def moralise_graph(g: OrderedDag) -> OrderedUGraph:
    """Drop edge directions and marry all co-parents.

    The result has the same vertex list and order; ``{u, v}`` is an edge
    exactly when ``g`` has an edge between ``u`` and ``v`` in either
    direction, or ``u`` and ``v`` share a child in ``g``.
    """
    edges = {frozenset(e) for e in g.edges}
    for v in g.vertices:
        for u, w in combinations(g.parents_of(v), 2):
            edges.add(frozenset((u, w)))
    return OrderedUGraph(g.vertices, edges)


def triangulate_graph(h: OrderedUGraph) -> OrderedDag:
    """Direct ``h`` along its vertex order then add the fill-in edges.

    The output has an edge ``v -> w`` exactly when ``v`` precedes ``w`` and
    ``h`` contains a path from ``v`` to ``w`` whose intermediate vertices
    all come after ``w`` in the order (a direct edge is the
    zero-intermediate case).  The result always satisfies
    :func:`is_ordered_chordal`.

    Computed by the elimination game (Rose, Tarjan & Lueker 1976) in
    O(n + m + fill): walking ``w`` from last to first, its earlier
    neighbours become its parents, and all but the latest of them, the
    host, join the host's earlier neighbours.  The result is kept on ``h``,
    which cannot change, so a later call returns the same object.
    """
    if hasattr(h, "_triangulation"):
        return h._triangulation
    pos = h._pos
    lower = {w: {v for v in h.neighbours_of(w) if pos[v] < pos[w]} for w in h.vertices}
    edges = set()
    for w in reversed(h.vertices):
        below = lower[w]
        if below:
            edges.update((v, w) for v in below)
            host = max(below, key=pos.get)
            lower[host] |= below - {host}
    object.__setattr__(h, "_triangulation", OrderedDag(h.vertices, edges))
    return h._triangulation


def is_ordered_chordal(g: OrderedDag) -> bool:
    """Whether any two co-parents of a vertex are themselves joined.

    True exactly when for all edges ``u -> w`` and ``v -> w`` with ``u``
    listed before ``v``, the edge ``u -> v`` is present.

    Tested in O(n + m) (Tarjan & Yannakakis 1984): every parent of ``w``
    but its latest, ``h``, must be a parent of ``h``.  That is necessary,
    and by induction along the order it suffices: of two parents ``u``
    before ``v`` of ``w``, either ``v`` is ``h`` and the test joins them,
    or both are parents of ``h``, which precedes ``w`` and so has its
    co-parents joined.
    """
    edges = g.edges
    return all((u, ps[-1]) in edges for ps in g._parents.values() for u in ps[:-1])


def _ancestors(g: OrderedDag, seeds: set[str]) -> set[str]:
    """Seeds together with all their ancestors."""
    out = set(seeds)
    queue = deque(seeds)
    while queue:
        v = queue.popleft()
        for u in g.parents_of(v):
            if u not in out:
                out.add(u)
                queue.append(u)
    return out


def _check_query_sets(
    g: Graph, x: Iterable[str], y: Iterable[str], z: Iterable[str]
) -> tuple[set[str], set[str], set[str]]:
    x, y, z = set(x), set(y), set(z)
    known = g._pos.keys()
    for name, s in (("x", x), ("y", y), ("z", z)):
        if not s <= known:
            raise ValueError(f"{name} contains unknown vertices: {sorted(s - known)}")
    if x & y or x & z or y & z:
        raise ValueError("x, y and z must be pairwise disjoint")
    return x, y, z


def d_separated(
    g: OrderedDag, x: Iterable[str], y: Iterable[str], z: Iterable[str]
) -> bool:
    """Whether every path between ``x`` and ``y`` is blocked given ``z``.

    Standard directed separation: a collider on a path is active exactly
    when it or one of its descendants lies in ``z``; a non-collider is
    active exactly when it is outside ``z``.  Implemented as reachability
    over (vertex, arrival-direction) states with the ancestor set of ``z``
    precomputed, stopping at the first vertex of ``y`` reached; the
    cost is O(n + m).
    """
    x, y, z = _check_query_sets(g, x, y, z)
    anc_z = _ancestors(g, z)
    parents, children = g._parents, g._children

    # A trail arrives "up" from a child (or starts at a query vertex) or
    # "down" from a parent; each vertex is entered at most once each way.
    # It goes on to the children of a vertex outside ``z``, and to the
    # parents of one outside ``z`` that it entered from a child, or of an
    # active collider (in ``anc_z``) that it entered from a parent.
    up, down = set(x), set()
    todo = [(v, True) for v in x]
    while todo:
        v, from_child = todo.pop()
        if v not in z:
            for w in children.get(v, ()):
                if w not in down:
                    if w in y:
                        return False
                    down.add(w)
                    todo.append((w, False))
        if (v not in z) if from_child else (v in anc_z):
            for u in parents.get(v, ()):
                if u not in up:
                    if u in y:
                        return False
                    up.add(u)
                    todo.append((u, True))
    return True


def u_separated(
    h: OrderedUGraph, x: Iterable[str], y: Iterable[str], z: Iterable[str]
) -> bool:
    """Whether every path between ``x`` and ``y`` meets ``z``.

    Plain graph separation: delete ``z`` and test connectivity, in
    O(n + m), stopping at the first vertex of ``y`` reached.
    """
    x, y, z = _check_query_sets(h, x, y, z)
    neighbours = h._neighbours
    seen = set(x)
    queue = deque(x)
    while queue:
        v = queue.popleft()
        for n in neighbours.get(v, ()):
            if n in y:
                return False
            if n not in z and n not in seen:
                seen.add(n)
                queue.append(n)
    return True


@dataclass(frozen=True)
class ClusterTree:
    """A tree over vertex clusters, labelled with separator sets.

    Attributes:
        clusters: vertex sets, each sorted by the graph order.
        tree_edges: unordered pairs of cluster indices ``(i, j)`` with
            ``i < j``, forming a spanning tree.
        sepsets: for each tree edge, the intersection of its endpoint
            clusters.
    """

    clusters: tuple[tuple[str, ...], ...]
    tree_edges: frozenset[tuple[int, int]]
    sepsets: Mapping[tuple[int, int], tuple[str, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sepsets", dict(self.sepsets))


def junction_tree(g: OrderedDag) -> ClusterTree:
    """Build the maximal-cluster tree of an ordered chordal graph.

    Clusters are the maximal families ``parents(v) + (v,)``, numbered by
    sorting their position lists; the family of ``v`` is not maximal
    exactly when some ``w`` whose latest parent is ``v`` has one parent
    more than ``v`` (Blair & Peyton 1993).  The tree is canonical: the
    minimum spanning tree of all cluster pairs under ``(-|sep|, i, j)``,
    spanning disconnected graphs by empty-separator edges ``(0, j)``.  It
    has the running intersection property: for every vertex, the clusters
    containing it induce a connected subtree.

    Each cluster ``j >= 1``, with vertices ``c``, joins the first cluster
    holding ``t = c[k-1]``, where ``c[:k]`` is the longest prefix of ``c``
    that earlier clusters hold (cluster 0 when ``k == 0``), with separator
    ``c[:k]``.  This is the canonical tree, as the vertices of a cluster
    are each a parent of every later one:

    1. If an earlier cluster ``i`` shares ``a`` with ``j``, some earlier
       cluster holds ``j`` up to ``a``.  Let ``x`` be ``i``'s vertex where
       ``i`` and ``j`` first differ (the earlier of the two).  If ``x``
       follows ``a``, ``i`` itself does.  Else ``x`` is a parent of ``a``,
       and a maximal cluster over ``a``'s family holds the prefix and
       ``x``, which ``j`` lacks, so it sorts before ``j``.
    2. The first cluster holding ``u`` holds ``u``'s family: else, with
       ``x`` the earliest parent of ``u`` it lacks, a maximal cluster over
       the family agrees with it before ``x``, holds ``x`` and sorts first.
    3. So cluster ``first[t] < j`` holds ``c[:k]`` (in ``t``'s family);
       every cluster holding ``c[:k]`` holds ``t``, and by 1 no earlier
       cluster shares more with ``j``.  So ``first[t]`` is ``j``'s heaviest
       earlier partner, the first on ties, and ``j`` meets the earlier
       clusters only inside it: the running intersection property.
    4. Removing ``(p, j)`` cuts off ``j``'s subtree, of indices ``>= j``.  A
       pair across the cut shares at most ``c[:k]`` (running intersection),
       and if exactly that, its outer end holds ``c[:k]``, so has index
       ``>= p``.  Each tree edge is the strict key minimum across its cut,
       so the tree is the unique minimum spanning tree, Kruskal's.

    The cost is O(n + m) plus sorting the clusters, with no pair term.
    """
    if not is_ordered_chordal(g):
        raise ValueError("junction_tree requires an ordered chordal graph")

    pos, parents = g._pos, g._parents
    covered = set()
    for w, ps in parents.items():
        host = ps[-1]
        if len(ps) == len(parents.get(host, ())) + 1:
            covered.add(host)
    clusters = sorted(
        (parents.get(v, ()) + (v,) for v in g.vertices if v not in covered),
        key=lambda c: [pos[u] for u in c],
    )

    first: dict[str, int] = {}  # each vertex's first cluster
    for i, c in enumerate(clusters):
        for u in c:
            first.setdefault(u, i)
    sepsets = {}
    for j, c in enumerate(clusters[1:], 1):
        k = len(c)
        while k and first[c[k - 1]] == j:  # held by no earlier cluster
            k -= 1
        sepsets[(first[c[k - 1]] if k else 0, j)] = c[:k]
    return ClusterTree(tuple(clusters), frozenset(sepsets), sepsets)


def running_intersection_holds(tree: ClusterTree) -> bool:
    """Whether each vertex's clusters induce a connected subtree.

    The k clusters that hold a vertex induce a forest in the tree, which
    is connected exactly when k - 1 tree edges join two of them.  So each
    vertex is counted once per cluster that holds it and uncounted once
    per tree edge whose two clusters both hold it, and the property holds
    when every count ends at 1.  The count relies on ``tree_edges``
    forming a tree: :func:`junction_tree`'s output is one by construction,
    but :class:`ClusterTree` does not check it.  The cost is the total
    cluster size plus, for each tree edge, its smaller cluster's size.
    """
    held = [set(c) for c in tree.clusters]
    count = Counter(u for c in held for u in c)
    count.subtract(u for i, j in tree.tree_edges for u in held[i] & held[j])
    return all(k == 1 for k in count.values())
