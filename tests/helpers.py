"""Shared fixtures, independent oracles, and seeded random corpora.

The oracles here deliberately avoid the library's factor machinery and
graph algorithms: joints are enumerated assignment by assignment with
plain dict lookups and stride arithmetic, separation is decided by
enumerating simple paths, and the qualifying-path test for triangulation
enumerates paths outright (with a per-pair BFS of the same definition for
graphs too large to enumerate).  They exist to check the fast implementations
against the definitions.
"""

from __future__ import annotations

import json
import math
from collections import deque
from fractions import Fraction
from functools import reduce
from itertools import combinations
from itertools import product as iter_product

import numpy as np

from chordalnet import (
    BayesianNetwork,
    ChordalNetwork,
    ClusterTree,
    DegenerateDistributionError,
    EliminationStep,
    EliminationTrace,
    Factor,
    Kernel,
    MarkovNetwork,
    OrderedDag,
    OrderedUGraph,
    VariableTable,
    factor_marginalize,
    factor_product,
    is_ordered_chordal,
    kernel_to_factor,
    triangulate_graph,
)

# The four-student misconception network: pairwise agreement factors over
# a 4-cycle A - B - C - D - A.
MISCONCEPTION_STATES = {
    "A": ("a", "na"),
    "B": ("b", "nb"),
    "C": ("c", "nc"),
    "D": ("d", "nd"),
}
MISCONCEPTION_TABLES = {
    ("A", "B"): {("a", "b"): 10.0, ("a", "nb"): 1.0, ("na", "b"): 5.0, ("na", "nb"): 30.0},
    ("B", "C"): {("b", "c"): 100.0, ("b", "nc"): 1.0, ("nb", "c"): 1.0, ("nb", "nc"): 100.0},
    ("C", "D"): {("c", "d"): 1.0, ("c", "nd"): 100.0, ("nc", "d"): 100.0, ("nc", "nd"): 1.0},
    ("A", "D"): {("a", "d"): 100.0, ("a", "nd"): 1.0, ("na", "d"): 1.0, ("na", "nd"): 100.0},
}


def misconception_vt() -> VariableTable:
    return VariableTable(tuple((v, MISCONCEPTION_STATES[v]) for v in "ABCD"))


def misconception_mn() -> MarkovNetwork:
    vt = misconception_vt()
    graph = OrderedUGraph(
        vt.names, {frozenset(pair) for pair in MISCONCEPTION_TABLES}
    )
    factors = {}
    for pair, table in MISCONCEPTION_TABLES.items():
        values = [table[(s1, s2)] for s1 in MISCONCEPTION_STATES[pair[0]]
                  for s2 in MISCONCEPTION_STATES[pair[1]]]
        factors[frozenset(pair)] = Factor(pair, values)
    return MarkovNetwork(graph, vt, factors)


def misconception_product(assignment: dict[str, str]) -> float:
    """Oracle: the unnormalized value at one assignment, by dict lookups."""
    out = 1.0
    for (u, v), table in MISCONCEPTION_TABLES.items():
        out *= table[(assignment[u], assignment[v])]
    return out


def misconception_assignments():
    for combo in iter_product(*(MISCONCEPTION_STATES[v] for v in "ABCD")):
        yield dict(zip("ABCD", combo))


def bear_bn() -> BayesianNetwork:
    vt = VariableTable(
        (("B", ("b", "nb")), ("E", ("e", "ne")), ("A", ("a", "na")), ("R", ("r", "nr")))
    )
    graph = OrderedDag(vt.names, {("B", "A"), ("E", "A"), ("E", "R")})
    kernels = {
        "B": Kernel("B", (), [0.01, 0.99]),
        "E": Kernel("E", (), [0.02, 0.98]),
        "A": Kernel("A", ("B", "E"), [0.95, 0.05, 0.94, 0.06, 0.29, 0.71, 0.001, 0.999]),
        "R": Kernel("R", ("E",), [0.9, 0.1, 0.01, 0.99]),
    }
    return BayesianNetwork(graph, vt, kernels)


# ---------------------------------------------------------------------------
# assignment-by-assignment joint oracles


def kernel_value(k: Kernel, vt: VariableTable, state_idx: dict[str, int]) -> float:
    """Read one kernel entry by explicit stride arithmetic."""
    flat = 0
    for p in k.parents:
        flat = flat * vt.card(p) + state_idx[p]
    flat = flat * vt.card(k.child) + state_idx[k.child]
    return float(k.values[flat])


def index_assignments(vt: VariableTable, names: tuple[str, ...]):
    """All assignments as name -> state-index dicts, canonical order."""
    for combo in iter_product(*(range(vt.card(v)) for v in names)):
        yield dict(zip(names, combo))


def oracle_bn_joint(bn: BayesianNetwork) -> np.ndarray:
    """Flat joint by multiplying kernel entries per assignment."""
    names = bn.graph.vertices
    return np.array(
        [
            np.prod([kernel_value(bn.kernels[v], bn.vt, a) for v in names])
            for a in index_assignments(bn.vt, names)
        ]
    )


def oracle_cn_product(cn: ChordalNetwork) -> np.ndarray:
    names = cn.graph.vertices
    return np.array(
        [
            np.prod([kernel_value(cn.kernels[v], cn.vt, a) for v in names])
            for a in index_assignments(cn.vt, names)
        ]
    )


def oracle_mn_table(mn: MarkovNetwork) -> np.ndarray:
    """Flat unnormalized table by multiplying factor entries per assignment."""
    names = mn.graph.vertices
    pos = {v: i for i, v in enumerate(names)}
    rows = []
    for a in index_assignments(mn.vt, names):
        value = 1.0
        for clique, f in mn.factors.items():
            members = tuple(sorted(clique, key=pos.get))
            flat = 0
            for v in members:
                flat = flat * mn.vt.card(v) + a[v]
            value *= float(f.values[flat])
        rows.append(value)
    return np.array(rows)


# ---------------------------------------------------------------------------
# path-enumeration oracles for separation and triangulation


def _undirected_adjacency(graph) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in graph.vertices}
    if isinstance(graph, OrderedDag):
        for u, v in graph.edges:
            adj[u].add(v)
            adj[v].add(u)
    else:
        for e in graph.edges:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
    return adj


def simple_paths(adj: dict[str, set[str]], start: str, goal: str):
    """All simple paths from start to goal, as vertex lists."""
    stack = [(start, [start])]
    while stack:
        node, path = stack.pop()
        if node == goal:
            yield path
            continue
        for n in sorted(adj[node]):
            if n not in path:
                stack.append((n, path + [n]))


def descendants_of(g: OrderedDag, v: str) -> set[str]:
    out = {v}
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for w in g.children_of(u):
            if w not in out:
                out.add(w)
                frontier.append(w)
    return out


def oracle_d_separated(g: OrderedDag, xs, ys, zs) -> bool:
    """Enumerate every undirected path and test its activation states."""
    xs, ys, zs = set(xs), set(ys), set(zs)
    adj = _undirected_adjacency(g)
    for x in xs:
        for y in ys:
            for path in simple_paths(adj, x, y):
                active = True
                for i in range(1, len(path) - 1):
                    prev, node, nxt = path[i - 1], path[i], path[i + 1]
                    collider = g.has_edge(prev, node) and g.has_edge(nxt, node)
                    if collider:
                        if not (descendants_of(g, node) & zs):
                            active = False
                            break
                    elif node in zs:
                        active = False
                        break
                if active:
                    return False
    return True


def oracle_u_separated(h: OrderedUGraph, xs, ys, zs) -> bool:
    xs, ys, zs = set(xs), set(ys), set(zs)
    adj = _undirected_adjacency(h)
    for x in xs:
        for y in ys:
            for path in simple_paths(adj, x, y):
                if not (set(path[1:-1]) & zs):
                    return False
    return True


def oracle_triangulation_edge(h: OrderedUGraph, v: str, w: str) -> bool:
    """The qualifying-path test, by brute-force path enumeration."""
    pos = {u: i for i, u in enumerate(h.vertices)}
    if pos[v] >= pos[w]:
        return False
    adj = _undirected_adjacency(h)
    for path in simple_paths(adj, v, w):
        if all(pos[u] >= pos[w] for u in path[1:-1]):
            return True
    return False


def reference_triangulation_edges(h: OrderedUGraph) -> set[tuple[str, str]]:
    """The triangulation edge set by its definition, one BFS per vertex pair.

    ``v -> w`` is an edge when ``v`` precedes ``w`` and ``h`` has a path
    from ``v`` to ``w`` whose intermediate vertices all come after ``w``.
    Polynomial, unlike :func:`oracle_triangulation_edge`, so it scales to
    property tests and grids.
    """
    pos = {u: i for i, u in enumerate(h.vertices)}
    adj = _undirected_adjacency(h)

    def reachable_through_later(v: str, w: str) -> bool:
        seen = {v}
        queue = deque([v])
        while queue:
            for n in adj[queue.popleft()]:
                if n == w:
                    return True
                if pos[n] > pos[w] and n not in seen:
                    seen.add(n)
                    queue.append(n)
        return False

    return {
        (v, w)
        for w in h.vertices
        for v in h.vertices[: pos[w]]
        if reachable_through_later(v, w)
    }


def reference_variable_elimination(
    cn: ChordalNetwork,
) -> tuple[BayesianNetwork, EliminationTrace]:
    """The elimination sweep on validated ``Factor`` objects, step by step.

    Each working table is a factor; its mass is ``factor_marginalize`` over
    the child, its kernel ``np.where(mass > 0, table / mass, 1 / card)``,
    and the mass, rescaled by the same power of two, is absorbed with
    ``factor_product``.  The fast sweep must match it bit for bit.
    """
    vt = cn.vt
    working = {v: kernel_to_factor(cn.kernels[v], vt) for v in cn.graph.vertices}
    kernels: dict[str, Kernel] = {}
    steps: list[EliminationStep] = []
    for v in reversed(cn.graph.vertices):
        f = working[v]
        lam = factor_marginalize(f, {v}, vt)
        parents = tuple(u for u in f.vars if u != v)
        grid = np.moveaxis(f.values.reshape(vt.shape(f.vars)), f.vars.index(v), -1)
        mass = lam.values.reshape(vt.shape(parents) + (1,))
        with np.errstate(invalid="ignore", divide="ignore"):
            table = np.where(mass > 0, grid / mass, 1.0 / vt.card(v))
        if not np.any(lam.values > 0):
            raise DegenerateDistributionError(f"vertex {v}", vertex=v)
        host, shift = None, 0
        if parents:
            host = parents[-1]
            shift = math.frexp(lam.values.max())[1] - 1
            scaled = Factor(lam.vars, np.ldexp(lam.values, -shift))
            working[host] = factor_product(working[host], scaled, vt)
        kernels[v] = Kernel(v, parents, table.ravel(), stochastic=True)
        steps.append(EliminationStep(v, lam, host, shift))
    return BayesianNetwork(cn.graph, vt, kernels), EliminationTrace(tuple(steps))


def _reference_product(tables: list[Factor], vt: VariableTable, axes) -> np.ndarray:
    """A chain of ``factor_product`` calls spread by hand onto ``axes``,
    all ones when there are no tables."""
    shape = vt.shape(axes)
    if not tables:
        return np.ones(shape)
    prod = reduce(lambda a, b: factor_product(a, b, vt), tables)
    spread = prod.values.reshape([vt.card(u) if u in prod.vars else 1 for u in axes])
    return np.broadcast_to(spread, shape)


def _reference_scaled_product(
    factors: list[Factor], vt: VariableTable, vars: tuple[str, ...]
) -> tuple[np.ndarray, int]:
    """The bucket product on ``Factor`` objects: multiplied left to right
    and rescaled by a power of two after every multiplication."""
    acc, exponent = 1.0, 0
    for f in factors:
        acc = acc * f.values.reshape([vt.card(u) if u in f.vars else 1 for u in vars])
        shift = math.frexp(acc.max())[1]
        acc = np.ldexp(acc, -shift)
        exponent += shift
    return np.broadcast_to(acc, vt.shape(vars)), exponent


def reference_sum_product(net, keep: set[str]) -> tuple[tuple[str, ...], np.ndarray, int]:
    """Bucket elimination with every table and message a validated
    ``Factor``: kernels go through ``kernel_to_factor`` and each message is
    built as a factor.  The arithmetic and its order are those of the
    sweep on plain arrays, which must match it bit for bit."""
    vt = net.vt
    if isinstance(net, MarkovNetwork):
        cliques = sorted(net.factors, key=lambda c: tuple(sorted(map(net.graph.position, c))))
        tables = [net.factors[c] for c in cliques]
    else:
        tables = [kernel_to_factor(net.kernels[v], vt) for v in net.graph.vertices]
    buckets: dict[str, list[Factor]] = {v: [] for v in net.graph.vertices}
    done: list[Factor] = []

    def place(table: Factor) -> None:
        free = [u for u in table.vars if u not in keep]
        (buckets[free[-1]] if free else done).append(table)

    for table in tables:
        place(table)
    exponent = 0
    for v in reversed(net.graph.vertices):
        if v in keep:
            continue
        bucket = buckets.pop(v)
        if bucket:
            family = tuple(sorted({u for t in bucket for u in t.vars}, key=vt.index))
            product, shift = _reference_scaled_product(bucket, vt, family)
            exponent += shift
            rest = tuple(u for u in family if u != v)
            message = product.sum(axis=family.index(v))
        else:
            rest, message = (), np.array(float(vt.card(v)))
        shift = math.frexp(message.max())[1]
        exponent += shift
        place(Factor(rest, np.ldexp(message, -shift)))
    kept = tuple(v for v in net.graph.vertices if v in keep)
    table, shift = _reference_scaled_product(done, vt, kept)
    return kept, table, exponent + shift


def reference_triangulate_mn(mn: MarkovNetwork) -> ChordalNetwork:
    """``triangulate_mn`` with each vertex's factors found by ``max`` over
    the clique positions and multiplied by ``factor_product``; the
    shared-product version must match it bit for bit."""
    graph = triangulate_graph(mn.graph)
    consumed: dict[str, list[Factor]] = {v: [] for v in graph.vertices}
    for clique, f in sorted(
        mn.factors.items(), key=lambda kv: sorted(map(graph.position, kv[0]))
    ):
        consumed[max(clique, key=graph.position)].append(f)
    kernels = {}
    for v in graph.vertices:
        family = graph.parents_of(v) + (v,)
        values = _reference_product(consumed[v], mn.vt, family)
        kernels[v] = Kernel(v, family[:-1], values, stochastic=False)
    return ChordalNetwork(graph, mn.vt, kernels)


def reference_regrouped_kernels(src_graph: OrderedDag, tgt, alpha) -> dict[str, Kernel]:
    """``morphisms._regrouped_kernels`` on ``factor_product`` chains."""
    stochastic = all(k.stochastic for k in tgt.kernels.values())
    kernels = {}
    for v in src_graph.vertices:
        group = alpha.preimage(v)
        pa_src = src_graph.parents_of(v)
        axes = tuple(w for p in pa_src for w in alpha.preimage(p)) + group
        tables = [kernel_to_factor(tgt.kernels[w], tgt.vt) for w in group]
        values = _reference_product(tables, tgt.vt, axes)
        kernels[v] = Kernel(v, pa_src, values.ravel(), stochastic=stochastic)
    return kernels


def reference_regrouped_factors(
    src_graph: OrderedUGraph, tgt: MarkovNetwork, alpha
) -> dict[frozenset[str], Factor]:
    """``morphisms._regrouped_factors`` on ``factor_product`` chains."""
    groups: dict[frozenset[str], list[Factor]] = {}
    for clique, f in sorted(
        tgt.factors.items(), key=lambda kv: tuple(sorted(map(tgt.graph.position, kv[0])))
    ):
        groups.setdefault(frozenset(alpha.vertex_map[w] for w in clique), []).append(f)
    out = {}
    for image, tables in groups.items():
        members = tuple(sorted(image, key=src_graph.position))
        axes = tuple(w for v in members for w in alpha.preimage(v))
        out[frozenset(members)] = Factor(members, _reference_product(tables, tgt.vt, axes))
    return out


def oracle_running_intersection(tree) -> bool:
    """RIP by the path definition: every cluster on the unique tree path
    between two clusters sharing x also contains x."""
    n = len(tree.clusters)
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, j in tree.tree_edges:
        adj[i].add(j)
        adj[j].add(i)

    def tree_path(a: int, b: int) -> list[int]:
        stack = [(a, [a])]
        while stack:
            node, path = stack.pop()
            if node == b:
                return path
            for m in adj[node]:
                if m not in path:
                    stack.append((m, path + [m]))
        return []

    for a in range(n):
        for b in range(a + 1, n):
            shared = set(tree.clusters[a]) & set(tree.clusters[b])
            for x in shared:
                if not all(x in tree.clusters[i] for i in tree_path(a, b)):
                    return False
    return True


def reference_is_ordered_chordal(g: OrderedDag) -> bool:
    """The former ``graphs.is_ordered_chordal``, kept verbatim: every pair
    of co-parents is tested for an edge."""
    for w in g.vertices:
        ps = g.parents_of(w)
        for u, v in combinations(ps, 2):
            if not g.has_edge(u, v):
                return False
    return True


def reference_junction_tree(g: OrderedDag) -> ClusterTree:
    """The former ``graphs.junction_tree``, kept verbatim: every family is
    tested against every other, and Kruskal's algorithm sorts all pairs of
    clusters, so it is quadratic in the number of clusters."""
    if not is_ordered_chordal(g):
        raise ValueError("junction_tree requires an ordered chordal graph")

    families = [g.parents_of(v) + (v,) for v in g.vertices]
    family_sets = [set(f) for f in families]
    clusters = sorted(
        {
            f
            for f, fs in zip(families, family_sets)
            if not any(fs < other for other in family_sets)
        },
        key=lambda c: tuple(map(g.position, c)),
    )

    n = len(clusters)
    candidates = sorted(
        ((i, j) for i in range(n) for j in range(i + 1, n)),
        key=lambda e: (-len(set(clusters[e[0]]) & set(clusters[e[1]])), e),
    )
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    tree_edges = set()
    sepsets = {}
    for i, j in candidates:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            tree_edges.add((i, j))
            sep = set(clusters[i]) & set(clusters[j])
            sepsets[(i, j)] = tuple(sorted(sep, key=g.position))
    return ClusterTree(tuple(clusters), frozenset(tree_edges), sepsets)


def _reference_query_sets(g, x, y, z) -> tuple[set[str], set[str], set[str]]:
    x, y, z = set(x), set(y), set(z)
    known = set(g.vertices)
    for name, s in (("x", x), ("y", y), ("z", z)):
        if not s <= known:
            raise ValueError(f"{name} contains unknown vertices: {sorted(s - known)}")
    if x & y or x & z or y & z:
        raise ValueError("x, y and z must be pairwise disjoint")
    return x, y, z


def reference_d_separated(g: OrderedDag, x, y, z) -> bool:
    """The former ``graphs.d_separated``: a full search over
    ``(vertex, "up"/"down")`` states, then a test of the reached set."""
    x, y, z = _reference_query_sets(g, x, y, z)
    anc_z = set(z)
    frontier = deque(z)
    while frontier:
        for u in g.parents_of(frontier.popleft()):
            if u not in anc_z:
                anc_z.add(u)
                frontier.append(u)

    visited: set[tuple[str, str]] = set()
    reachable: set[str] = set()
    queue = deque((s, "up") for s in x)
    while queue:
        v, d = queue.popleft()
        if (v, d) in visited:
            continue
        visited.add((v, d))
        if v not in z:
            reachable.add(v)
        if d == "up" and v not in z:
            for u in g.parents_of(v):
                queue.append((u, "up"))
            for w in g.children_of(v):
                queue.append((w, "down"))
        elif d == "down":
            if v not in z:
                for w in g.children_of(v):
                    queue.append((w, "down"))
            if v in anc_z:
                for u in g.parents_of(v):
                    queue.append((u, "up"))
    return not (reachable & y)


def reference_u_separated(h: OrderedUGraph, x, y, z) -> bool:
    """The former ``graphs.u_separated``: a search that avoids ``z``."""
    x, y, z = _reference_query_sets(h, x, y, z)
    seen = set(x)
    queue = deque(x)
    while queue:
        v = queue.popleft()
        for n in h.neighbours_of(v):
            if n in y:
                return False
            if n not in z and n not in seen:
                seen.add(n)
                queue.append(n)
    return True


# ---------------------------------------------------------------------------
# seeded random corpora


def all_cliques(h: OrderedUGraph) -> list[tuple[str, ...]]:
    """All nonempty complete vertex subsets of ``h``.

    Each clique is a tuple sorted by the vertex order; the list is sorted by
    size and then lexicographically by vertex positions.  Singletons are
    always included.  Enumeration is by ordered backtracking, fine for the
    desk-scale graphs this package targets.
    """
    verts = h.vertices
    out: list[tuple[str, ...]] = []

    def extend(clique: tuple[str, ...], start: int) -> None:
        for i in range(start, len(verts)):
            v = verts[i]
            if all(h.has_edge(u, v) for u in clique):
                bigger = clique + (v,)
                out.append(bigger)
                extend(bigger, i + 1)

    extend((), 0)
    out.sort(key=lambda c: (len(c), tuple(map(h.position, c))))
    return out


def random_dag(rng: np.random.Generator, n_max: int = 6, p: float = 0.4) -> OrderedDag:
    n = int(rng.integers(1, n_max + 1))
    names = tuple(f"V{i}" for i in range(n))
    edges = {
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    }
    return OrderedDag(names, edges)


def random_ugraph(
    rng: np.random.Generator, n_max: int = 6, p: float = 0.4
) -> OrderedUGraph:
    n = int(rng.integers(1, n_max + 1))
    names = tuple(f"V{i}" for i in range(n))
    edges = {
        frozenset((names[i], names[j]))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    }
    return OrderedUGraph(names, edges)


def random_vt(
    rng: np.random.Generator, names: tuple[str, ...], max_card: int = 3
) -> VariableTable:
    return VariableTable(
        tuple(
            (v, tuple(f"s{k}" for k in range(int(rng.integers(2, max_card + 1)))))
            for v in names
        )
    )


def random_bn(rng: np.random.Generator, n_max: int = 6, max_card: int = 3) -> BayesianNetwork:
    graph = random_dag(rng, n_max)
    vt = random_vt(rng, graph.vertices, max_card)
    kernels = {}
    for v in graph.vertices:
        parents = graph.parents_of(v)
        rows = int(np.prod(vt.shape(parents), dtype=np.int64))
        table = rng.uniform(0.05, 1.0, size=(rows, vt.card(v)))
        table /= table.sum(axis=1, keepdims=True)
        kernels[v] = Kernel(v, parents, table.ravel())
    return BayesianNetwork(graph, vt, kernels)


def random_mn(rng: np.random.Generator, n_max: int = 5, max_card: int = 3) -> MarkovNetwork:
    graph = random_ugraph(rng, n_max)
    vt = random_vt(rng, graph.vertices, max_card)
    factors = {}
    for clique in all_cliques(graph):
        if rng.random() < 0.6:
            continue
        size = int(np.prod(vt.shape(clique), dtype=np.int64))
        factors[frozenset(clique)] = Factor(clique, rng.uniform(0.1, 2.0, size=size))
    return MarkovNetwork(graph, vt, factors)


def random_cn(rng: np.random.Generator, n_max: int = 5, max_card: int = 3) -> ChordalNetwork:
    graph = triangulate_graph(random_ugraph(rng, n_max))
    vt = random_vt(rng, graph.vertices, max_card)
    kernels = {}
    for v in graph.vertices:
        parents = graph.parents_of(v)
        size = int(np.prod(vt.shape(parents + (v,)), dtype=np.int64))
        kernels[v] = Kernel(
            v, parents, rng.uniform(0.1, 2.0, size=size), stochastic=False
        )
    return ChordalNetwork(graph, vt, kernels)


def chain_mn(
    rng: np.random.Generator, n: int, low: float = 0.1, high: float = 2.0
) -> MarkovNetwork:
    """The binary chain x0 - x1 - ... with one pairwise factor per edge,
    entries uniform in [low, high]."""
    names = tuple(f"x{i}" for i in range(n))
    vt = VariableTable(tuple((v, ("0", "1")) for v in names))
    pairs = list(zip(names, names[1:]))
    factors = {frozenset(p): Factor(p, rng.uniform(low, high, size=4)) for p in pairs}
    return MarkovNetwork(OrderedUGraph(names, {frozenset(p) for p in pairs}), vt, factors)


def mixed_chain_mn(rng: np.random.Generator, n: int) -> MarkovNetwork:
    """The chain x00 - x01 - ... whose variables have 2 or 3 states, with one
    pairwise factor per edge, entries uniform in [0.1, 2.0].
    ``tests/fixtures/chain.json`` is ``dumps_network(mixed_chain_mn(default_rng(40), 40))``."""
    names = tuple(f"x{i:02d}" for i in range(n))
    cards = rng.integers(2, 4, size=n)
    vt = VariableTable(
        tuple((v, tuple(f"s{j}" for j in range(c))) for v, c in zip(names, cards))
    )
    pairs = list(zip(names, names[1:]))
    factors = {
        frozenset(p): Factor(p, rng.uniform(0.1, 2.0, size=int(np.prod(vt.shape(p)))))
        for p in pairs
    }
    return MarkovNetwork(OrderedUGraph(names, {frozenset(p) for p in pairs}), vt, factors)


def random_order_grid(rng: np.random.Generator, k: int, card: int) -> MarkovNetwork:
    """The k-by-k grid ``g{row}{col}`` with ``card`` states per variable and
    one pairwise factor per edge, entries uniform in [0.5, 2.0], its
    vertices declared in an order drawn from ``rng``.  Each factor is laid
    out over its pair in declared order.  Along such an order the buckets
    of elimination far exceed the table cap from k = 8 on, where the
    row-major order keeps every family within k + 1 variables."""
    cells = [f"g{r:02d}{c:02d}" for r in range(k) for c in range(k)]
    names = tuple(cells[i] for i in rng.permutation(k * k))
    pos = {v: i for i, v in enumerate(names)}
    edges = [(cells[i], cells[i + 1]) for i in range(k * k) if (i + 1) % k]
    edges += [(cells[i], cells[i + k]) for i in range(k * k - k)]
    pairs = [tuple(sorted(e, key=pos.get)) for e in edges]
    vt = VariableTable(tuple((v, tuple(f"s{j}" for j in range(card))) for v in names))
    factors = {frozenset(p): Factor(p, rng.uniform(0.5, 2.0, card * card)) for p in pairs}
    return MarkovNetwork(OrderedUGraph(names, {frozenset(p) for p in pairs}), vt, factors)


def wide_range_mn() -> MarkovNetwork:
    """Binary Y - X, declared in that order, whose tables each span more than
    a double's range from one power of two: {Y} = (1e-300, 1e100) and
    {Y, X} = (1e200, 1e200, 1e-200, 1e-200).  Every joint entry is 1e-100,
    so Z = 4e-100 and Y is uniform.
    ``tests/fixtures/wide_range.json`` is ``dumps_network(wide_range_mn())``."""
    vt = VariableTable((("Y", ("0", "1")), ("X", ("0", "1"))))
    factors = {
        frozenset("Y"): Factor(("Y",), [1e-300, 1e100]),
        frozenset("YX"): Factor(("Y", "X"), [1e200, 1e200, 1e-200, 1e-200]),
    }
    return MarkovNetwork(OrderedUGraph(("Y", "X"), {frozenset("YX")}), vt, factors)


def wide_random_mn(rng: np.random.Generator) -> MarkovNetwork:
    """2 to 4 variables of 2 or 3 states, each pair joined with probability
    1/2, drawn in sorted pair order; one factor on every vertex and edge,
    entries 10**U(-300, 300), about 15% of them zero."""
    n = int(rng.integers(2, 5))
    names = tuple(f"V{i}" for i in range(n))
    vt = random_vt(rng, names, 3)
    pairs = [(u, w) for i, u in enumerate(names) for w in names[i + 1 :]]
    graph = OrderedUGraph(names, {frozenset(p) for p in pairs if rng.random() < 0.5})
    factors = {}
    for clique in all_cliques(graph):
        if len(clique) > 2:
            continue
        size = math.prod(vt.shape(clique))
        values = 10.0 ** rng.uniform(-300, 300, size)
        values[rng.random(size) < 0.15] = 0.0
        factors[frozenset(clique)] = Factor(clique, values)
    return MarkovNetwork(graph, vt, factors)


def exact_mn_marginal(mn: MarkovNetwork, keep=()) -> list[Fraction]:
    """The marginal of a Markov network's factor product onto ``keep``, in
    declared order with the last variable fastest, in rational arithmetic:
    every double converts to a ``Fraction`` exactly and nothing rounds."""
    names = mn.graph.vertices
    pos = {v: i for i, v in enumerate(names)}
    kept = [v for v in names if v in keep]
    tables = [
        (sorted(clique, key=pos.get), [Fraction(x) for x in f.values.tolist()])
        for clique, f in mn.factors.items()
    ]
    out = [Fraction(0)] * math.prod(mn.vt.card(v) for v in kept)
    for a in index_assignments(mn.vt, names):
        term = Fraction(1)
        for members, values in tables:
            flat = 0
            for v in members:
                flat = flat * mn.vt.card(v) + a[v]
            term *= values[flat]
        at = 0
        for v in kept:
            at = at * mn.vt.card(v) + a[v]
        out[at] += term
    return out


def chain_bn(rng: np.random.Generator, n: int) -> BayesianNetwork:
    """The binary chain x0 -> x1 -> ... with random stochastic kernels."""
    names = tuple(f"x{i}" for i in range(n))
    vt = VariableTable(tuple((v, ("0", "1")) for v in names))
    kernels = {}
    for i, v in enumerate(names):
        parents = names[max(i - 1, 0) : i]
        table = rng.uniform(0.05, 1.0, size=(2 ** len(parents), 2))
        table /= table.sum(axis=1, keepdims=True)
        kernels[v] = Kernel(v, parents, table.ravel())
    return BayesianNetwork(OrderedDag(names, set(zip(names, names[1:]))), vt, kernels)


def hub_last_star(n_leaves: int) -> MarkovNetwork:
    """The binary star with leaves ``L0 ... L{n-1}`` declared first and the
    hub ``H`` last, one agreement factor per edge.  Triangulating along
    this order makes the leaves a clique, so the family of ``Lk`` has
    ``k + 1`` variables and the hub's has every vertex.
    ``tests/fixtures/hub_last.json`` is ``dumps_network(hub_last_star(40))``."""
    names = tuple(f"L{i}" for i in range(n_leaves)) + ("H",)
    vt = VariableTable(tuple((v, ("0", "1")) for v in names))
    pairs = [(v, "H") for v in names[:-1]]
    factors = {frozenset(p): Factor(p, [2.0, 1.0, 1.0, 2.0]) for p in pairs}
    return MarkovNetwork(OrderedUGraph(names, {frozenset(p) for p in pairs}), vt, factors)


def hub_first_star(n_leaves: int) -> MarkovNetwork:
    """The binary star of :func:`hub_last_star` in the reverse order: the
    hub ``H`` first, then ``L0 ... L{n-1}``.  Triangulation adds no fill,
    and elimination absorbs every leaf's mass, (3, 3), into the hub, so
    the hub's kernel is (1/2, 1/2), every leaf's is (2/3, 1/3 | 1/3, 2/3)
    and log Z = ln 2 + n ln 3."""
    names = ("H",) + tuple(f"L{i}" for i in range(n_leaves))
    vt = VariableTable(tuple((v, ("0", "1")) for v in names))
    pairs = [("H", v) for v in names[1:]]
    factors = {frozenset(p): Factor(p, [2.0, 1.0, 1.0, 2.0]) for p in pairs}
    return MarkovNetwork(OrderedUGraph(names, {frozenset(p) for p in pairs}), vt, factors)


def zero_behind_overflow_cn() -> ChordalNetwork:
    """A binary chordal network with A the parent of B, C and D whose total
    mass is exactly 0, though the sweep's float arithmetic does not show
    it: D's mass (1.9, 1.9) overflows A's table, (1.7e308, 1.7e308), to
    inf, and the masses of C, (0, 1), and B, (1, 0), then make both of its
    entries inf * 0 = NaN."""
    names = ("A", "B", "C", "D")
    vt = VariableTable(tuple((v, ("0", "1")) for v in names))
    graph = OrderedDag(names, {("A", v) for v in names[1:]})
    rows = {"A": [1.7e308, 1.7e308], "B": [0.5, 0.5, 0.0, 0.0]}
    rows.update(C=[0.0, 0.0, 0.5, 0.5], D=[1.5, 0.4, 1.5, 0.4])
    kernels = {
        v: Kernel(v, graph.parents_of(v), rows[v], stochastic=False) for v in names
    }
    return ChordalNetwork(graph, vt, kernels)


def oracle_chain_log_partition(mn: MarkovNetwork) -> float:
    """log Z of a :func:`chain_mn` chain: a transfer-matrix product in log space."""
    names = mn.graph.vertices
    alpha = np.zeros(2)
    for u, w in zip(names, names[1:]):
        log_f = np.log(mn.factors[frozenset((u, w))].values.reshape(2, 2))
        alpha = np.logaddexp.reduce(alpha[:, None] + log_f, axis=0)
    return float(np.logaddexp.reduce(alpha))


def oracle_chain_log_marginal(mn: MarkovNetwork, v: str) -> np.ndarray:
    """The normalized marginal of one :func:`chain_mn` vertex: transfer-matrix
    products from both ends in log space, so any log Z is in range."""
    names = mn.graph.vertices
    logs = [np.log(mn.factors[frozenset(p)].values.reshape(2, 2)) for p in zip(names, names[1:])]
    i = names.index(v)
    forward, backward = np.zeros(2), np.zeros(2)
    for log_f in logs[:i]:
        forward = np.logaddexp.reduce(forward[:, None] + log_f, axis=0)
    for log_f in reversed(logs[i:]):
        backward = np.logaddexp.reduce(log_f + backward[None, :], axis=1)
    total = forward + backward
    return np.exp(total - np.logaddexp.reduce(total))


def oracle_chain_posterior(
    bn: BayesianNetwork, weights: dict[str, np.ndarray]
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """The posterior kernels and one-vertex marginals of a :func:`chain_bn`
    chain under per-vertex evidence weights, by forward-backward.

    The backward message into x_t is the weighted mass of everything after
    it, normalized at each step; the posterior kernel row of x_t is its
    weighted kernel row times that message, normalized, and the marginals
    are propagated forward through the posterior kernels."""
    names = bn.graph.vertices
    weighted = {v: bn.kernels[v].values.reshape(-1, 2) * weights.get(v, 1.0) for v in names}
    kernels, message = {}, np.ones(2)
    for v in reversed(names):
        rows = weighted[v] * message
        kernels[v] = rows / rows.sum(axis=1, keepdims=True)
        message = rows.sum(axis=1) / rows.sum()
    marginals, p = {}, np.ones(1)
    for v in names:
        p = p @ kernels[v]
        marginals[v] = p
    return kernels, marginals


def oracle_posterior(bn: BayesianNetwork, weights: dict[str, np.ndarray]) -> np.ndarray:
    """The normalized posterior under per-vertex evidence weights, as a grid
    over the vertices, by multiplying kernel entries and weights per
    assignment."""
    names = bn.graph.vertices
    grid = np.array(
        [
            np.prod(
                [kernel_value(bn.kernels[v], bn.vt, a) * weights[v][a[v]] for v in names]
            )
            for a in index_assignments(bn.vt, names)
        ]
    ).reshape(bn.vt.shape(names))
    return grid / grid.sum()


def oracle_factors_over(graph: OrderedDag, grid: np.ndarray, tol: float) -> bool:
    """Whether a distribution grid over ``graph``'s vertices equals, within
    ``tol`` pointwise, the product of its own conditionals along the graph."""
    names = graph.vertices
    product = np.ones_like(grid)
    for i, v in enumerate(names):
        family = {names.index(u) for u in graph.parents_of(v)} | {i}
        fam = grid.sum(axis=tuple(j for j in range(len(names)) if j not in family), keepdims=True)
        par = fam.sum(axis=i, keepdims=True)
        product = product * np.divide(fam, par, out=np.zeros_like(fam), where=par > 0)
    return float(np.abs(product - grid).max()) <= tol


def oracle_chain_marginal(bn: BayesianNetwork, v: str) -> np.ndarray:
    """The marginal of one :func:`chain_bn` vertex by forward propagation."""
    p = np.ones(1)
    for u in bn.graph.vertices[: bn.graph.position(v) + 1]:
        p = p @ bn.kernels[u].values.reshape(-1, 2)
    return p


def wide_document(kind: str, n_parents: int) -> dict:
    """A binary document whose last table conditions on ``n_parents``
    variables but lists one row: 2 ** (n_parents + 1) declared entries in
    a few kilobytes.  ``kind`` is ``"bayesian"`` (x0..x{n-1} -> child) or
    ``"markov"`` (one clique over all variables)."""
    names = [f"x{i}" for i in range(n_parents)] + ["child"]
    doc = {
        "kind": kind,
        "variables": [{"name": v, "states": ["0", "1"]} for v in names],
    }
    row = [{"given": ["0"] * n_parents, "values": [0.5, 0.5]}]
    if kind == "markov":
        doc["edges"] = [[u, w] for i, u in enumerate(names) for w in names[i + 1 :]]
        doc["tables"] = [{"clique": names, "rows": row}]
    else:
        doc["edges"] = [[v, "child"] for v in names[:-1]]
        roots = [
            {"child": v, "parents": [], "rows": [{"given": [], "values": [0.5, 0.5]}]}
            for v in names[:-1]
        ]
        doc["tables"] = roots + [{"child": "child", "parents": names[:-1], "rows": row}]
    return doc


# ---------------------------------------------------------------------------
# reference renderer: one json.dumps call per scalar and per key


def _reference_render(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(k)}: {_reference_render(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if all(not isinstance(x, (dict, list)) for x in obj):
            return "[" + ", ".join(json.dumps(x) for x in obj) + "]"
        parts = [f"{inner}{_reference_render(x, indent + 1)}" for x in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return json.dumps(obj)


def _reference_rows(values, given_vars, card: int, vt: VariableTable) -> list[dict]:
    return [
        {
            "given": list(given),
            "values": [float(x) for x in values[i * card : (i + 1) * card]],
        }
        for i, given in enumerate(iter_product(*(vt.states(p) for p in given_vars)))
    ]


def reference_dumps(net) -> str:
    """``dumps_network`` as first written: rows built with ``float(x)`` per
    entry and every scalar and key rendered by its own ``json.dumps``."""
    vt = net.vt
    pos = {name: i for i, name in enumerate(vt.names)}
    variables = [{"name": name, "states": list(states)} for name, states in vt.entries]
    tables = []
    if isinstance(net, MarkovNetwork):
        kind = "markov"
        edges = [
            [u, w] for u in vt.names for w in net.graph.neighbours_of(u) if pos[u] < pos[w]
        ]
        for clique in sorted(net.factors, key=lambda c: tuple(sorted(pos[v] for v in c))):
            members = tuple(sorted(clique, key=pos.get))
            rows = _reference_rows(
                net.factors[clique].values, members[:-1], vt.card(members[-1]), vt
            )
            tables.append({"clique": list(members), "rows": rows})
    else:
        kind = "bayesian" if isinstance(net, BayesianNetwork) else "chordal"
        edges = [[u, w] for u in vt.names for w in net.graph.children_of(u)]
        for v in net.graph.vertices:
            k = net.kernels[v]
            rows = _reference_rows(k.values, k.parents, vt.card(v), vt)
            tables.append({"child": v, "parents": list(k.parents), "rows": rows})
    doc = {"kind": kind, "variables": variables, "edges": edges, "tables": tables}
    return _reference_render(doc, 0) + "\n"
