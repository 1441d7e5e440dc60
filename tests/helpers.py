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

import math
from collections import deque
from itertools import product as iter_product

import numpy as np

from chordalnet import (
    BayesianNetwork,
    ChordalNetwork,
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


# ---------------------------------------------------------------------------
# seeded random corpora


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
    from chordalnet import all_cliques

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


def oracle_chain_log_partition(mn: MarkovNetwork) -> float:
    """log Z of a :func:`chain_mn` chain: a transfer-matrix product in log space."""
    names = mn.graph.vertices
    alpha = np.zeros(2)
    for u, w in zip(names, names[1:]):
        log_f = np.log(mn.factors[frozenset((u, w))].values.reshape(2, 2))
        alpha = np.logaddexp.reduce(alpha[:, None] + log_f, axis=0)
    return float(np.logaddexp.reduce(alpha))


def oracle_chain_marginal(bn: BayesianNetwork, v: str) -> np.ndarray:
    """The marginal of one :func:`chain_bn` vertex by forward propagation."""
    p = np.ones(1)
    for u in bn.graph.vertices[: bn.graph.position(v) + 1]:
        p = p @ bn.kernels[u].values.reshape(-1, 2)
    return p
