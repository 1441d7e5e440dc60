"""The three seeded workloads: inputs, one operation, and its check.

Inputs are generated here with numpy and ``json`` from the run's seed; the
program only ever sees those inputs.  Every operation's output is checked
against :mod:`reference`, which does not use ``chordalnet``.

Each workload has four steps.  ``setup(mods)`` builds the inputs the
program holds for the whole run and is what ``setup_s`` times, together
with the import.  ``prepare(i)`` makes operation ``i``'s input and its
reference, untimed.  ``op(i)`` is the timed call into the program, made
through module attributes so that the tracer's wrappers are seen.
``check(i, out)`` raises :class:`reference.Mismatch` on a wrong output.
"""

from __future__ import annotations

import importlib
import json
import sys
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULE_NAMES = ("factors", "graphs", "networks", "transforms", "serial", "cli", "morphisms")
WORKLOAD_TAGS = {"chain": 1, "grid": 2, "query": 3}

# Pairs of assignments at which each converted network is compared with
# its source.
CHECK_PAIRS = 3


def import_chordalnet() -> SimpleNamespace:
    """Import ``chordalnet`` from this checkout's ``src``, afresh.

    Earlier imports are dropped first, so the time of this call is the
    program's import cost (numpy is already loaded by the benchmark).
    """
    for name in [m for m in sys.modules if m.split(".")[0] == "chordalnet"]:
        del sys.modules[name]
    package = importlib.import_module("chordalnet")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"chordalnet was imported from {package.__file__}, not {SRC}")
    mods = {m: importlib.import_module(f"chordalnet.{m}") for m in MODULE_NAMES}
    return SimpleNamespace(package=package, **mods)


def rng_for(seed: int, workload: str, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_TAGS[workload], *path])


def log_uniform(rng: np.random.Generator, shape, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=shape))


def labels(card: int) -> list[str]:
    return [f"s{j}" for j in range(card)]


def random_pairs(rng: np.random.Generator, cards: dict[str, int]) -> list[tuple[dict, dict]]:
    def draw():
        return {v: int(rng.integers(c)) for v, c in cards.items()}

    return [(draw(), draw()) for _ in range(CHECK_PAIRS)]


# Generators.


def pairwise_markov(names: list[str], cards: list[int], factors: dict) -> dict:
    """A Markov document with one table per ordered vertex pair in ``factors``."""
    card = dict(zip(names, cards))
    return {
        "kind": "markov",
        "variables": [{"name": v, "states": labels(c)} for v, c in zip(names, cards)],
        "edges": [[u, v] for u, v in factors],
        "tables": [
            {
                "clique": [u, v],
                "rows": [
                    {"given": [labels(card[u])[a]], "values": t[a].tolist()}
                    for a in range(card[u])
                ],
            }
            for (u, v), t in factors.items()
        ],
    }


def chain_inputs(rng: np.random.Generator, n: int) -> SimpleNamespace:
    """A Markov chain of ``n`` variables with 2 or 3 states each."""
    names = [f"x{i:03d}" for i in range(n)]
    cards = [int(c) for c in rng.integers(2, 4, size=n)]
    factors = {
        (names[i], names[i + 1]): log_uniform(rng, (cards[i], cards[i + 1]))
        for i in range(n - 1)
    }
    return SimpleNamespace(
        names=names,
        cards=dict(zip(names, cards)),
        factors=factors,
        document=pairwise_markov(names, cards, factors),
        log_z=ref.chain_log_z(list(factors.values())),
    )


def grid_inputs(rng: np.random.Generator, k: int, card: int) -> SimpleNamespace:
    """A k-by-k grid Markov network, variables in row-major order."""
    names = {(r, c): f"g{r:02d}{c:02d}" for r in range(k) for c in range(k)}
    horizontal = {(r, c): log_uniform(rng, (card, card)) for r in range(k) for c in range(k - 1)}
    vertical = {(r, c): log_uniform(rng, (card, card)) for r in range(k - 1) for c in range(k)}
    factors = {(names[r, c], names[r, c + 1]): t for (r, c), t in horizontal.items()}
    factors.update({(names[r, c], names[r + 1, c]): t for (r, c), t in vertical.items()})
    return SimpleNamespace(
        names=list(names.values()),
        cards={v: card for v in names.values()},
        factors=factors,
        log_z=ref.grid_log_z(k, card, horizontal, vertical),
    )


def bayesian_inputs(rng: np.random.Generator, n: int, max_parents: int, window: int) -> SimpleNamespace:
    """A random binary Bayesian network and its document.

    Vertex ``v`` takes up to ``max_parents`` parents among its ``window``
    predecessors; each kernel row is drawn from Dirichlet(1).
    """
    names = [f"v{i:02d}" for i in range(n)]
    parents: list[tuple[int, ...]] = []
    for v in range(n):
        pool = np.arange(max(0, v - window), v)
        count = int(rng.integers(0, min(max_parents, len(pool)) + 1))
        parents.append(tuple(sorted(int(p) for p in rng.choice(pool, size=count, replace=False))))
    cpts = [rng.dirichlet(np.ones(2), size=2 ** len(ps)).reshape((2,) * len(ps) + (2,)) for ps in parents]
    document = {
        "kind": "bayesian",
        "variables": [{"name": v, "states": labels(2)} for v in names],
        "edges": [[names[p], names[v]] for v, ps in enumerate(parents) for p in ps],
        "tables": [
            {
                "child": names[v],
                "parents": [names[p] for p in ps],
                "rows": [
                    {"given": [labels(2)[a] for a in given], "values": cpt[given].tolist()}
                    for given in product(range(2), repeat=len(ps))
                ],
            }
            for v, (ps, cpt) in enumerate(zip(parents, cpts))
        ],
    }
    return SimpleNamespace(names=names, parents=parents, cpts=cpts, document=document)


# Checks shared by the conversion workloads.


def check_conversion(source: SimpleNamespace, kernels: dict, pairs, log_z: float) -> None:
    """Check a Bayesian network given as ``{child: (parents, rows, row_of)}``.

    ``rows`` is a 2-D array with one probability vector per parent
    assignment and ``row_of`` maps a parent assignment (state indices) to
    its row.
    """
    if set(kernels) != set(source.names):
        raise ref.Mismatch("the output does not have one kernel per variable")
    for child, (_, rows, _) in kernels.items():
        ref.check_stochastic(rows, f"kernel for {child}")

    def log_p(x):
        return float(
            sum(
                np.log(rows[row_of(tuple(x[p] for p in parents)), x[child]])
                for child, (parents, rows, row_of) in kernels.items()
            )
        )

    ref.check_pairs(lambda x: ref.pairwise_log_mass(source.factors, x), log_p, pairs, log_z)


# Workloads.


class Chain:
    """``chordalnet tr`` in process on a fresh chain document per operation."""

    name = "chain"

    def __init__(self, seed: int, workdir: Path, n: int = 100):
        self.seed, self.n = seed, n
        self.source = workdir / "chain_in.json"
        self.target = workdir / "chain_out.json"
        workdir.mkdir(parents=True, exist_ok=True)

    def setup(self, mods) -> None:
        self.mods = mods

    def prepare(self, i: int) -> None:
        self.inputs = chain_inputs(rng_for(self.seed, self.name, i), self.n)
        self.pairs = random_pairs(rng_for(self.seed, self.name, i, 1), self.inputs.cards)
        self.source.write_text(json.dumps(self.inputs.document), encoding="utf-8")
        self.target.unlink(missing_ok=True)

    def op(self, i: int) -> int:
        return self.mods.cli.main(["tr", str(self.source), "-o", str(self.target)])

    def check(self, i: int, out: int) -> None:
        if out != 0:
            raise ref.Mismatch(f"chordalnet tr exited with {out}")
        doc = json.loads(self.target.read_text(encoding="utf-8"))
        if doc["kind"] != "bayesian":
            raise ref.Mismatch(f"output kind is {doc['kind']!r}")
        states = {v["name"]: v["states"] for v in doc["variables"]}
        if states != {v: labels(c) for v, c in self.inputs.cards.items()}:
            raise ref.Mismatch("output variables differ from the input's")
        kernels = {}
        for table in doc["tables"]:
            parents = table["parents"]
            row_index = {
                tuple(states[p].index(s) for p, s in zip(parents, row["given"])): r
                for r, row in enumerate(table["rows"])
            }
            rows = np.array([row["values"] for row in table["rows"]], dtype=float)
            kernels[table["child"]] = (parents, rows, row_index.__getitem__)
        check_conversion(self.inputs, kernels, self.pairs, self.inputs.log_z)


class Grid:
    """``variable_elimination(triangulate_mn(mn))`` on in-memory grids."""

    name = "grid"

    def __init__(self, seed: int, workdir: Path, k: int = 8, card: int = 3, pool: int = 8):
        self.seed, self.card = seed, card
        self.inputs = [grid_inputs(rng_for(seed, self.name, p), k, card) for p in range(pool)]

    def setup(self, mods) -> None:
        self.mods = mods
        self.networks = [self._build(g) for g in self.inputs]

    def _build(self, g: SimpleNamespace):
        factors, graphs, networks = self.mods.factors, self.mods.graphs, self.mods.networks
        vt = factors.VariableTable(tuple((v, tuple(labels(self.card))) for v in g.names))
        graph = graphs.OrderedUGraph(tuple(g.names), {frozenset(pair) for pair in g.factors})
        tables = {frozenset(pair): factors.Factor(pair, t.ravel()) for pair, t in g.factors.items()}
        return networks.MarkovNetwork(graph, vt, tables)

    def prepare(self, i: int) -> None:
        self.current = self.inputs[i % len(self.inputs)]
        self.pairs = random_pairs(rng_for(self.seed, self.name, i, 1), self.current.cards)

    def op(self, i: int):
        transforms = self.mods.transforms
        return transforms.variable_elimination(
            transforms.triangulate_mn(self.networks[i % len(self.networks)])
        )

    def check(self, i: int, out) -> None:
        bn, trace = out
        card = self.card
        kernels = {}
        for v, k in bn.kernels.items():
            shape = (card,) * len(k.parents)
            row_of = lambda given, shape=shape: int(np.ravel_multi_index(given, shape)) if shape else 0
            kernels[v] = (k.parents, k.values.reshape(-1, card), row_of)
        check_conversion(self.current, kernels, self.pairs, self.current.log_z)
        ref.close(float(np.log(trace.partition_mass())), self.current.log_z, what="log partition_mass()")


class Query:
    """Read-only inference rounds over Bayesian networks and their conversions.

    The cost of a round depends on the network's structure (single networks
    differ by up to 30% between seeds), so a run cycles through a pool of
    networks, as ``Grid`` does.
    """

    name = "query"
    SEPARATION_QUERIES = 20

    def __init__(self, seed: int, workdir: Path, n: int = 20, max_parents: int = 3,
                 window: int = 5, pool: int = 8):
        self.seed, self.n = seed, n
        self.inputs = []
        for p in range(pool):
            bn = bayesian_inputs(rng_for(seed, self.name, 0, p), n, max_parents, window)
            bn.text = json.dumps(bn.document)
            bn.moral_adj = ref.moral_adjacency(bn.parents)
            families = ref.maximal_sets(ref.elimination_families(bn.moral_adj))
            bn.clusters = {frozenset(bn.names[v] for v in c) for c in families}
            self.inputs.append(bn)

    def setup(self, mods) -> None:
        self.mods = mods
        self.networks = []
        for source in self.inputs:
            bn = mods.serial.loads_network(source.text)
            self.networks.append(
                (bn, mods.transforms.moralise_bn(bn), mods.transforms.triangulate_bn(bn))
            )

    def _query(self, rng):
        order = [int(v) for v in rng.permutation(self.n)]
        given = int(rng.integers(0, 4))
        return {order[0]}, {order[1]}, set(order[2 : 2 + given])

    def prepare(self, i: int) -> None:
        rng = rng_for(self.seed, self.name, i + 1)
        source = self.current = self.inputs[i % len(self.inputs)]
        keep = sorted(int(v) for v in rng.choice(self.n, size=2, replace=False))
        self.marginal = ref.bn_marginal(source.parents, source.cpts, keep)
        dq = [self._query(rng) for _ in range(self.SEPARATION_QUERIES)]
        uq = [self._query(rng) for _ in range(self.SEPARATION_QUERIES)]
        self.d_expected = [ref.d_separated(source.parents, *q) for q in dq]
        self.u_expected = [ref.u_separated(source.moral_adj, *q) for q in uq]
        as_names = lambda q: tuple({source.names[v] for v in s} for s in q)
        self.d_queries = [as_names(q) for q in dq]
        self.u_queries = [as_names(q) for q in uq]
        self.keep_names = [source.names[v] for v in keep]

    def op(self, i: int):
        graphs, networks = self.mods.graphs, self.mods.networks
        bn, moral, chordal = self.networks[i % len(self.networks)]
        z = networks.mn_partition(moral)
        marginal = networks.marginal_distribution(moral, self.keep_names)
        d = [graphs.d_separated(bn.graph, *q) for q in self.d_queries]
        u = [graphs.u_separated(moral.graph, *q) for q in self.u_queries]
        tree = graphs.junction_tree(chordal.graph)
        return z, marginal, d, u, tree, graphs.running_intersection_holds(tree)

    def check(self, i: int, out) -> None:
        z, marginal, d, u, tree, rip = out
        ref.close(z, 1.0, rel=1e-9, what="partition of the moral network")
        if tuple(marginal.vars) != tuple(self.keep_names):
            raise ref.Mismatch(f"marginal is over {marginal.vars}, not {self.keep_names}")
        if not np.allclose(marginal.values, self.marginal.ravel(), rtol=0, atol=1e-9):
            raise ref.Mismatch("marginal differs from the einsum over the kernels")
        if d != self.d_expected:
            raise ref.Mismatch("a d-separation verdict differs from the reference")
        if u != self.u_expected:
            raise ref.Mismatch("a u-separation verdict differs from the reference")
        clusters = [frozenset(c) for c in tree.clusters]
        if set(clusters) != self.current.clusters or len(clusters) != len(self.current.clusters):
            raise ref.Mismatch("junction tree clusters differ from the reference")
        if len(tree.tree_edges) != len(clusters) - 1:
            raise ref.Mismatch("junction tree does not span its clusters")
        if rip is not True or not ref.running_intersection(clusters, tree.tree_edges):
            raise ref.Mismatch("running intersection does not hold")


WORKLOADS = {w.name: w for w in (Chain, Grid, Query)}
