"""Reference answers computed with numpy and plain Python only.

Nothing here imports ``chordalnet``: these are the oracles the benchmark
checks the program's outputs against.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

import numpy as np


class Mismatch(Exception):
    """An output disagrees with its reference."""


def close(got: float, want: float, rel: float = 1e-8, what: str = "value") -> None:
    if not abs(got - want) <= rel * max(1.0, abs(want)):
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


# Chains and grids: log-space partition functions and unnormalized log masses.


def chain_log_z(tables: list[np.ndarray]) -> float:
    """log Z of a chain whose i-th factor is ``tables[i]`` over (x_i, x_i+1).

    A forward pass that rescales the message at every step, so it neither
    overflows nor underflows at any length.
    """
    msg = np.ones(tables[0].shape[0])
    log_scale = 0.0
    for t in tables:
        msg = msg @ t
        top = msg.max()
        msg = msg / top
        log_scale += np.log(top)
    return float(log_scale + np.log(msg.sum()))


def grid_log_z(k: int, card: int, horizontal: dict, vertical: dict) -> float:
    """log Z of a k-by-k grid by a row-by-row transfer sweep.

    ``horizontal[(r, c)]`` is the factor between (r, c) and (r, c+1);
    ``vertical[(r, c)]`` the one between (r, c) and (r+1, c); each is a
    ``card``-by-``card`` array indexed (earlier vertex, later vertex).
    """
    msg = np.ones((card,) * k)
    log_scale = 0.0
    for r in range(k):
        for c in range(k - 1):
            shape = [1] * k
            shape[c], shape[c + 1] = card, card
            msg = msg * horizontal[(r, c)].reshape(shape)
        if r < k - 1:
            for c in range(k):
                msg = np.moveaxis(np.tensordot(msg, vertical[(r, c)], axes=([c], [0])), -1, c)
        top = msg.max()
        msg = msg / top
        log_scale += np.log(top)
    return float(log_scale + np.log(msg.sum()))


def pairwise_log_mass(factors: dict, x: dict) -> float:
    """Sum of log factor values at assignment ``x`` (state indices).

    ``factors`` maps an ordered vertex pair to its 2-D table.
    """
    return float(sum(np.log(t[x[u], x[v]]) for (u, v), t in factors.items()))


def check_pairs(log_phi, log_p, pairs, log_z: float) -> None:
    """Check a converted network against its source at assignment pairs.

    For each pair (x, y): log p(x) - log p(y) equals the difference of the
    unnormalized log masses, and log phi(x) - log p(x) equals ``log_z``.
    """
    for x, y in pairs:
        lpx, lpy = log_p(x), log_p(y)
        lfx, lfy = log_phi(x), log_phi(y)
        close(lpx - lpy, lfx - lfy, what="log-probability ratio")
        close(lfx - lpx, log_z, what="log Z at an assignment")


def check_stochastic(rows: np.ndarray, what: str) -> None:
    """Every row of a 2-D array is a probability vector."""
    if rows.size and (rows.min() < 0 or np.abs(rows.sum(axis=1) - 1.0).max() > 1e-9):
        raise Mismatch(f"{what} is not stochastic")


# Bayesian networks: marginals, separation and triangulation.


def bn_marginal(parents: list[tuple[int, ...]], cpts: list[np.ndarray], keep: list[int]) -> np.ndarray:
    """Marginal onto ``keep`` (ascending indices) by one einsum over the kernels.

    ``cpts[v]`` has one axis per parent, in order, then one for ``v``.
    """
    operands = []
    for v, (ps, t) in enumerate(zip(parents, cpts)):
        operands += [t, [*ps, v]]
    return np.einsum(*operands, keep, optimize="greedy")


def moral_adjacency(parents: list[tuple[int, ...]]) -> list[set[int]]:
    adj = [set() for _ in parents]
    for v, ps in enumerate(parents):
        for p in ps:
            adj[v].add(p)
            adj[p].add(v)
        for a, b in combinations(ps, 2):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def u_separated(adj: list[set[int]], x: set[int], y: set[int], z: set[int]) -> bool:
    """Whether removing ``z`` disconnects ``x`` from ``y``."""
    seen = set(x)
    queue = deque(x)
    while queue:
        v = queue.popleft()
        if v in y:
            return False
        for n in adj[v]:
            if n not in z and n not in seen:
                seen.add(n)
                queue.append(n)
    return True


def d_separated(parents: list[tuple[int, ...]], x: set[int], y: set[int], z: set[int]) -> bool:
    """Directed separation by the moral ancestral graph criterion."""
    keep = set(x | y | z)
    queue = deque(keep)
    while queue:
        for p in parents[queue.popleft()]:
            if p not in keep:
                keep.add(p)
                queue.append(p)
    ancestral = [ps if v in keep else () for v, ps in enumerate(parents)]
    return u_separated(moral_adjacency(ancestral), x, y, z)


def elimination_families(adj: list[set[int]]) -> list[frozenset[int]]:
    """Families {v} | earlier neighbours after the elimination game.

    Vertices are eliminated from last to first; each one's earlier
    neighbours are made pairwise adjacent.
    """
    adj = [set(a) for a in adj]
    families = [frozenset()] * len(adj)
    for v in reversed(range(len(adj))):
        earlier = {u for u in adj[v] if u < v}
        families[v] = frozenset(earlier | {v})
        for a, b in combinations(earlier, 2):
            adj[a].add(b)
            adj[b].add(a)
    return families


def maximal_sets(sets: list[frozenset]) -> set[frozenset]:
    return {s for s in sets if not any(s < t for t in sets)}


def running_intersection(clusters: list[frozenset], tree_edges) -> bool:
    """Whether each vertex's clusters induce a connected subtree."""
    adj = {i: set() for i in range(len(clusters))}
    for i, j in tree_edges:
        adj[i].add(j)
        adj[j].add(i)
    for v in set().union(*clusters):
        holding = {i for i, c in enumerate(clusters) if v in c}
        start = min(holding)
        seen = {start}
        queue = deque([start])
        while queue:
            for j in adj[queue.popleft()]:
                if j in holding and j not in seen:
                    seen.add(j)
                    queue.append(j)
        if seen != holding:
            return False
    return True
