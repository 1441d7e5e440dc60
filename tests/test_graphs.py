"""Graph structures, moralisation, triangulation, separation, junction trees.

Derived expectations are checked against the brute-force oracles in
``helpers`` (path enumeration, powerset clique checks, per-path blocking).
"""

import copy
import pickle
import time
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordalnet import (
    ClusterTree,
    GraphHom,
    OrderedDag,
    OrderedUGraph,
    check_hom,
    d_separated,
    decontract_hom,
    identity_hom,
    is_ordered_chordal,
    junction_tree,
    moralise_graph,
    running_intersection_holds,
    triangulate_graph,
    u_separated,
)
from helpers import (
    all_cliques,
    hub_first_star,
    hub_last_star,
    oracle_d_separated,
    oracle_running_intersection,
    oracle_triangulation_edge,
    oracle_u_separated,
    random_dag,
    random_ugraph,
    reference_d_separated,
    reference_is_ordered_chordal,
    reference_junction_tree,
    reference_triangulation_edges,
    reference_u_separated,
)


def udag(*pairs):
    return {frozenset(p) for p in pairs}


@st.composite
def shuffled_ugraphs(draw, max_n=30):
    """Graphs of random size and density whose listing order is shuffled
    relative to the vertex names."""
    n = draw(st.integers(1, max_n))
    names = tuple(f"V{i}" for i in draw(st.permutations(range(n))))
    # The density comes from the seeded generator: hypothesis would mostly
    # draw the boundary densities 0 and 1.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = rng.random()
    edges = {
        frozenset((names[i], names[j]))
        for i, j in combinations(range(n), 2)
        if rng.random() < density
    }
    return OrderedUGraph(names, edges)


def grid_ugraph(k):
    """The k x k grid, listed row-major."""
    names = tuple(f"r{i}c{j}" for i in range(k) for j in range(k))
    edges = set()
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                edges.add(frozenset((f"r{i}c{j}", f"r{i}c{j + 1}")))
            if i + 1 < k:
                edges.add(frozenset((f"r{i}c{j}", f"r{i + 1}c{j}")))
    return OrderedUGraph(names, edges)


class TestConstruction:
    def test_rejects_duplicate_vertices(self):
        with pytest.raises(ValueError, match="duplicate"):
            OrderedDag(("A", "A"))

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown"):
            OrderedDag(("A", "B"), {("A", "C")})

    def test_rejects_non_topological_listing(self):
        with pytest.raises(ValueError, match="topological"):
            OrderedDag(("A", "B"), {("B", "A")})

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            OrderedUGraph(("A",), {frozenset(("A", "A"))})

    def test_parents_sorted_by_order(self):
        g = OrderedDag(("B", "E", "A"), {("E", "A"), ("B", "A")})
        assert g.parents_of("A") == ("B", "E")


class TestLookups:
    """Indexed lookups keep the answers of the scans they replace."""

    def test_position_of_unknown_vertex_raises_value_error(self):
        for g in (OrderedDag(("A", "B"), {("A", "B")}), OrderedUGraph(("A", "B"))):
            assert g.position("B") == 1
            with pytest.raises(ValueError):
                g.position("Z")

    def test_adjacency_of_unknown_vertex_is_empty(self):
        g = OrderedDag(("A", "B"), {("A", "B")})
        h = OrderedUGraph(("A", "B"), udag(("A", "B")))
        assert g.parents_of("Z") == () and g.children_of("Z") == ()
        assert h.neighbours_of("Z") == ()
        assert g.parents_of("A") == () and h.neighbours_of("A") == ("B",)

    def test_neighbours_sorted_by_order(self):
        h = OrderedUGraph(("C", "A", "B"), udag(("B", "C"), ("A", "B")))
        assert h.neighbours_of("B") == ("C", "A")

    def test_equal_values_compare_and_hash_equal(self):
        g1 = OrderedDag(["A", "B", "C"], [("B", "C"), ("A", "C")])
        g2 = OrderedDag(("A", "B", "C"), {("A", "C"), ("B", "C")})
        h1 = OrderedUGraph(["A", "B", "C"], [("A", "B"), ("C", "B")])
        h2 = OrderedUGraph(("A", "B", "C"), udag(("B", "C"), ("A", "B")))
        for a, b in ((g1, g2), (h1, h2)):
            assert a == b and hash(a) == hash(b)
            name = type(a).__name__
            assert repr(a) == f"{name}(vertices={a.vertices!r}, edges={a.edges!r})"
        assert g1 != OrderedDag(("A", "B", "C"), {("A", "C")})


class TestMoralise:
    def test_bear_marries_coparents(self):
        # B and E share the child A, so moralisation joins them.
        g = OrderedDag(("B", "E", "A", "R"), {("B", "A"), ("E", "A"), ("E", "R")})
        m = moralise_graph(g)
        assert m.edges == udag(("B", "A"), ("E", "A"), ("E", "R"), ("B", "E"))

    def test_single_vertex(self):
        m = moralise_graph(OrderedDag(("A",)))
        assert m.vertices == ("A",) and not m.edges

    def test_chain_adds_nothing(self):
        g = OrderedDag(("A", "B", "C"), {("A", "B"), ("B", "C")})
        m = moralise_graph(g)
        assert m.edges == udag(("A", "B"), ("B", "C"))
        # brute force: no two vertices share a child anywhere
        for u, v in combinations(g.vertices, 2):
            shared = set(g.children_of(u)) & set(g.children_of(v))
            assert not shared

    def test_preserves_order_and_contains_edges(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_dag(rng, 7)
            m = moralise_graph(g)
            assert m.vertices == g.vertices
            assert {frozenset(e) for e in g.edges} <= m.edges


class TestTriangulate:
    def test_misconception_four_cycle(self):
        h = OrderedUGraph(
            ("A", "B", "C", "D"),
            udag(("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")),
        )
        t = triangulate_graph(h)
        assert t.edges == {("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"), ("A", "C")}

    def test_complete_graph(self):
        h = OrderedUGraph(("A", "B", "C"), udag(("A", "B"), ("A", "C"), ("B", "C")))
        t = triangulate_graph(h)
        assert t.edges == {("A", "B"), ("A", "C"), ("B", "C")}

    def test_five_cycle_against_path_oracle(self):
        names = ("A", "B", "C", "D", "E")
        h = OrderedUGraph(
            names, udag(("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("A", "E"))
        )
        t = triangulate_graph(h)
        expected = {
            (v, w)
            for v in names
            for w in names
            if oracle_triangulation_edge(h, v, w)
        }
        assert t.edges == expected
        assert t.edges == {
            ("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("A", "E"),
            ("A", "C"), ("A", "D"),
        }

    def test_random_graphs_chordal_and_match_oracle(self):
        # the chordality guarantee, on a 200+ graph corpus
        rng = np.random.default_rng(11)
        for i in range(210):
            h = random_ugraph(rng, 8)
            t = triangulate_graph(h)
            assert t.vertices == h.vertices
            assert {(min(e, key=t.position), max(e, key=t.position)) for e in map(tuple, h.edges)} <= t.edges
            assert is_ordered_chordal(t)
            if i < 40:  # the oracle enumerates all simple paths, keep it small
                for v in h.vertices:
                    for w in h.vertices:
                        assert ((v, w) in t.edges) == oracle_triangulation_edge(h, v, w)

    @settings(max_examples=300, deadline=None)
    @given(shuffled_ugraphs())
    def test_matches_bfs_reference(self, h):
        assert triangulate_graph(h).edges == reference_triangulation_edges(h)

    def test_long_chain_has_no_fill(self):
        names = tuple(f"x{i}" for i in range(2000))
        h = OrderedUGraph(names, {frozenset(p) for p in zip(names, names[1:])})
        t = triangulate_graph(h)
        assert t.edges == set(zip(names, names[1:]))
        assert is_ordered_chordal(t)

    def test_grid_matches_bfs_reference(self):
        h = grid_ugraph(12)
        t = triangulate_graph(h)
        assert t.edges == reference_triangulation_edges(h)
        assert is_ordered_chordal(t)

    def test_roundtrip_identity_on_chordal_graphs(self):
        # triangulating the moral graph of an ordered chordal graph returns it
        rng = np.random.default_rng(13)
        for _ in range(100):
            g = triangulate_graph(random_ugraph(rng, 7))
            assert triangulate_graph(moralise_graph(g)) == g

    def test_trmor_idempotent_on_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            g = random_dag(rng, 7)
            once = triangulate_graph(moralise_graph(g))
            twice = triangulate_graph(moralise_graph(once))
            assert once == twice

    def test_identity_is_hom_into_trmor(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            g = random_dag(rng, 7)
            t = triangulate_graph(moralise_graph(g))
            assert check_hom(GraphHom(g, t, {v: v for v in g.vertices}))


class TestOrderedChordal:
    def test_collider_without_marriage_is_not_chordal(self):
        g = OrderedDag(("A", "B", "C"), {("A", "C"), ("B", "C")})
        assert not is_ordered_chordal(g)

    def test_complete_dag_is_chordal(self):
        g = OrderedDag(("A", "B", "C"), {("A", "B"), ("A", "C"), ("B", "C")})
        assert is_ordered_chordal(g)

    def test_triangulated_misconception_is_chordal(self):
        h = OrderedUGraph(
            ("A", "B", "C", "D"),
            udag(("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")),
        )
        t = triangulate_graph(h)
        # direct restatement of the co-parent condition
        for w in t.vertices:
            for u, v in combinations(t.parents_of(w), 2):
                assert t.has_edge(u, v)
        assert is_ordered_chordal(t)

    def test_every_small_ordered_dag_against_the_pairwise_check(self):
        # All 2^(n choose 2) edge sets on n = 1..6 listed vertices.
        count, verdicts = 0, set()
        for n in range(1, 7):
            names = tuple(f"V{i}" for i in range(n))
            pairs = list(combinations(names, 2))
            for mask in range(1 << len(pairs)):
                g = OrderedDag(names, {p for b, p in enumerate(pairs) if mask >> b & 1})
                verdict = is_ordered_chordal(g)
                assert verdict == reference_is_ordered_chordal(g), sorted(g.edges)
                verdicts.add(verdict)
                count += 1
        assert count == 33867 and verdicts == {True, False}


class TestHoms:
    def test_identity_is_valid(self):
        g = OrderedDag(("A", "B"), {("A", "B")})
        assert check_hom(identity_hom(g))

    def test_contraction_to_point_is_valid(self):
        g = OrderedDag(("A", "B"), {("A", "B")})
        point = OrderedDag(("P",))
        assert check_hom(GraphHom(g, point, {"A": "P", "B": "P"}))

    def test_edge_to_non_adjacent_pair_is_invalid(self):
        g = OrderedDag(("A", "B"), {("A", "B")})
        t = OrderedDag(("X", "Y"))
        assert not check_hom(GraphHom(g, t, {"A": "X", "B": "Y"}))

    def test_order_violation_is_invalid(self):
        g = OrderedDag(("A", "B"))
        t = OrderedDag(("X", "Y"))
        assert not check_hom(GraphHom(g, t, {"A": "Y", "B": "X"}))

    def test_partial_map_is_malformed(self):
        g = OrderedDag(("A", "B"))
        with pytest.raises(ValueError, match="total"):
            check_hom(GraphHom(g, g, {"A": "A"}))

    def test_mixed_kinds_are_malformed(self):
        g = OrderedDag(("A",))
        h = OrderedUGraph(("A",))
        with pytest.raises(ValueError, match="kind"):
            check_hom(GraphHom(g, h, {"A": "A"}))

    def test_preimage_matches_a_scan_of_the_source(self):
        # Order-preserving maps into complete graphs are homomorphisms when
        # total; some maps leave source vertices out.
        rng = np.random.default_rng(67)
        kinds = {"total": 0, "partial": 0}
        for _ in range(300):
            directed = rng.random() < 0.5
            src = random_dag(rng) if directed else random_ugraph(rng)
            tgt = (random_dag if directed else random_ugraph)(rng, 5, 1.0)
            images = np.sort(rng.integers(0, len(tgt.vertices), len(src.vertices)))
            vm = {u: tgt.vertices[i] for u, i in zip(src.vertices, images)}
            if rng.random() < 0.3:
                vm = {u: v for u, v in vm.items() if rng.random() < 0.6}
            hom = GraphHom(src, tgt, vm)
            if len(vm) == len(src.vertices):
                kinds["total"] += 1
                assert check_hom(hom)
            else:
                kinds["partial"] += 1
            for v in tgt.vertices:
                assert hom.preimage(v) == tuple(u for u in src.vertices if vm.get(u) == v)
        assert min(kinds.values()) >= 30

    def test_copies_keep_the_map_and_the_preimages(self):
        g = OrderedDag(("A", "B", "C"), {("A", "B"), ("B", "C")})
        hom = GraphHom(g, OrderedDag(("P", "Q")), {"A": "P", "B": "P", "C": "Q"})
        for other in (pickle.loads(pickle.dumps(hom)), copy.deepcopy(hom), copy.copy(hom)):
            assert other == hom and type(other.vertex_map) is dict
            assert (other.preimage("P"), other.preimage("Q")) == (("A", "B"), ("C",))


class TestDecontract:
    def test_identity_hom_reproduces_graph(self):
        g = OrderedDag(("A", "B", "C"), {("A", "B"), ("B", "C")})
        beta, gamma = decontract_hom(identity_hom(g))
        assert beta.source == g and beta.target == g and gamma.target == g
        assert check_hom(beta) and check_hom(gamma)

    def test_chain_collapse(self):
        g = OrderedDag(("A", "B", "C"), {("A", "B"), ("B", "C")})
        t = OrderedDag(("X", "C2"), {("X", "C2")})
        alpha = GraphHom(g, t, {"A": "X", "B": "X", "C": "C2"})
        beta, gamma = decontract_hom(alpha)
        # apply the defining rule exhaustively
        expected = set()
        for i, v in enumerate(g.vertices):
            for w in g.vertices[i + 1 :]:
                mv, mw = alpha.vertex_map[v], alpha.vertex_map[w]
                if mv == mw or t.has_edge(mv, mw):
                    expected.add((v, w))
        assert beta.target.edges == expected == {("A", "B"), ("A", "C"), ("B", "C")}
        # composition equals alpha, preimages are complete
        for v in g.vertices:
            assert gamma.vertex_map[beta.vertex_map[v]] == alpha.vertex_map[v]
        mid = beta.target
        for tv in t.vertices:
            pre = [v for v in g.vertices if alpha.vertex_map[v] == tv]
            for u, w in combinations(pre, 2):
                assert mid.has_edge(u, w) or mid.has_edge(w, u)

    def test_antichain_contraction_gains_edge(self):
        g = OrderedDag(("A", "B"))
        point = OrderedDag(("P",))
        beta, _ = decontract_hom(GraphHom(g, point, {"A": "P", "B": "P"}))
        assert beta.target.edges == {("A", "B")}

    def test_rejects_non_surjective(self):
        g = OrderedDag(("A",))
        t = OrderedDag(("X", "Y"))
        with pytest.raises(ValueError, match="surjective"):
            decontract_hom(GraphHom(g, t, {"A": "X"}))


class TestDSeparation:
    def test_collider(self):
        g = OrderedDag(("A", "B", "C"), {("A", "C"), ("B", "C")})
        assert d_separated(g, {"A"}, {"B"}, set())
        assert not d_separated(g, {"A"}, {"B"}, {"C"})

    def test_chain_blocked_at_middle(self):
        g = OrderedDag(("A", "B", "C"), {("A", "B"), ("B", "C")})
        assert d_separated(g, {"A"}, {"C"}, {"B"})
        assert not d_separated(g, {"A"}, {"C"}, set())

    def test_descendant_of_collider_activates(self):
        g = OrderedDag(("A", "B", "C", "D"), {("A", "C"), ("B", "C"), ("C", "D")})
        assert not d_separated(g, {"A"}, {"B"}, {"D"})

    def test_overlap_is_error(self):
        g = OrderedDag(("A", "B"))
        with pytest.raises(ValueError, match="disjoint"):
            d_separated(g, {"A"}, {"A"}, set())

    def test_matches_path_oracle_exhaustively(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            g = random_dag(rng, 5, p=0.5)
            if len(g.vertices) < 3:
                continue
            for x, y, z in permutations(g.vertices, 3):
                assert d_separated(g, {x}, {y}, {z}) == oracle_d_separated(
                    g, {x}, {y}, {z}
                )
                assert d_separated(g, {x}, {y}, set()) == oracle_d_separated(
                    g, {x}, {y}, set()
                )


class TestUSeparation:
    def test_misconception_cycle(self):
        h = OrderedUGraph(
            ("A", "B", "C", "D"),
            udag(("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")),
        )
        assert u_separated(h, {"A"}, {"C"}, {"B", "D"})
        assert not u_separated(h, {"A"}, {"C"}, set())

    def test_disconnected_components(self):
        h = OrderedUGraph(("A", "B", "C", "D"), udag(("A", "B"), ("C", "D")))
        assert u_separated(h, {"A"}, {"C"}, set())

    def test_overlap_is_error(self):
        h = OrderedUGraph(("A", "B"))
        with pytest.raises(ValueError, match="disjoint"):
            u_separated(h, {"A"}, {"B"}, {"A"})

    def test_matches_path_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            h = random_ugraph(rng, 5, p=0.5)
            if len(h.vertices) < 3:
                continue
            for x, y, z in permutations(h.vertices, 3):
                assert u_separated(h, {x}, {y}, {z}) == oracle_u_separated(
                    h, {x}, {y}, {z}
                )


class TestSeparationAgainstReference:
    """The separation queries against the former full searches, kept in
    ``helpers``, on multi-vertex query sets over random graphs."""

    @staticmethod
    def _queries(rng, vertices, count):
        for _ in range(count):
            order = [vertices[i] for i in rng.permutation(len(vertices))]
            a = int(rng.integers(1, len(order) - 1))
            b = int(rng.integers(a + 1, len(order)))
            c = int(rng.integers(b, len(order) + 1))
            yield set(order[:a]), set(order[a:b]), set(order[b:c])

    def test_matches_reference_on_random_graphs(self):
        rng = np.random.default_rng(53)
        counts = {True: 0, False: 0}
        queries = 0
        for _ in range(200):
            n = int(rng.integers(3, 16))
            names = tuple(f"V{i}" for i in rng.permutation(n))
            p = float(rng.uniform(0.05, 0.6))
            g = OrderedDag(
                names,
                {(u, v) for i, u in enumerate(names) for v in names[i + 1 :] if rng.random() < p},
            )
            h = moralise_graph(g)
            for x, y, z in self._queries(rng, names, 6):
                d = d_separated(g, x, y, z)
                assert d == reference_d_separated(g, x, y, z)
                u = u_separated(h, x, y, z)
                assert u == reference_u_separated(h, x, y, z)
                counts[d] += 1
                counts[u] += 1
                queries += 2
        assert queries >= 2000
        assert min(counts.values()) > 200

    def test_errors_match_reference(self):
        g = OrderedDag(("A", "B", "C"), {("A", "B"), ("B", "C")})
        h = moralise_graph(g)
        for args in (({"A"}, {"Q"}, set()), ({"A"}, {"B"}, {"A"})):
            for new, old, graph in (
                (d_separated, reference_d_separated, g),
                (u_separated, reference_u_separated, h),
            ):
                with pytest.raises(ValueError) as got:
                    new(graph, *args)
                with pytest.raises(ValueError) as expected:
                    old(graph, *args)
                assert str(got.value) == str(expected.value)


class TestImapDirection:
    """Removing edges only adds separations (identity hom means I-map)."""

    def test_directed_on_five_vertices(self):
        rng = np.random.default_rng(31)
        names = tuple("VWXYZ")
        for _ in range(25):
            all_pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
            big = {p for p in all_pairs if rng.random() < 0.5}
            small = {p for p in big if rng.random() < 0.6}
            g_big = OrderedDag(names, big)
            g_small = OrderedDag(names, small)
            for x, y, z in permutations(names, 3):
                if d_separated(g_big, {x}, {y}, {z}):
                    assert d_separated(g_small, {x}, {y}, {z})

    def test_undirected_on_five_vertices(self):
        rng = np.random.default_rng(37)
        names = tuple("VWXYZ")
        for _ in range(25):
            all_pairs = [
                frozenset((u, v)) for i, u in enumerate(names) for v in names[i + 1 :]
            ]
            big = {p for p in all_pairs if rng.random() < 0.5}
            small = {p for p in big if rng.random() < 0.6}
            h_big = OrderedUGraph(names, big)
            h_small = OrderedUGraph(names, small)
            for x, y, z in permutations(names, 3):
                if u_separated(h_big, {x}, {y}, {z}):
                    assert u_separated(h_small, {x}, {y}, {z})


class TestCliques:
    # ``helpers.all_cliques`` chooses the factor cliques of ``random_mn``.
    def test_single_edge(self):
        h = OrderedUGraph(("A", "B"), udag(("A", "B")))
        assert all_cliques(h) == [("A",), ("B",), ("A", "B")]

    def test_misconception_has_no_triangles(self):
        h = OrderedUGraph(
            ("A", "B", "C", "D"),
            udag(("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")),
        )
        cliques = all_cliques(h)
        assert len([c for c in cliques if len(c) == 1]) == 4
        assert len([c for c in cliques if len(c) == 2]) == 4
        assert not [c for c in cliques if len(c) >= 3]

    def test_triangle(self):
        h = OrderedUGraph(("A", "B", "C"), udag(("A", "B"), ("A", "C"), ("B", "C")))
        cliques = all_cliques(h)
        assert ("A", "B", "C") in cliques and len(cliques) == 7

    def test_against_powerset_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            h = random_ugraph(rng, 6)
            got = {frozenset(c) for c in all_cliques(h)}
            expected = set()
            for r in range(1, len(h.vertices) + 1):
                for sub in combinations(h.vertices, r):
                    if all(h.has_edge(u, v) for u, v in combinations(sub, 2)):
                        expected.add(frozenset(sub))
            assert got == expected


class TestJunctionTree:
    def test_bear_clusters_and_sepset(self):
        g = OrderedDag(("B", "E", "A", "R"), {("B", "A"), ("E", "A"), ("E", "R")})
        t = triangulate_graph(moralise_graph(g))
        tree = junction_tree(t)
        assert tree.clusters == (("B", "E", "A"), ("E", "R"))
        assert tree.tree_edges == {(0, 1)}
        assert tree.sepsets[(0, 1)] == ("E",)

    def test_single_vertex(self):
        tree = junction_tree(OrderedDag(("A",)))
        assert tree.clusters == (("A",),) and not tree.tree_edges

    def test_misconception_triangulation_clusters(self):
        h = OrderedUGraph(
            ("A", "B", "C", "D"),
            udag(("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")),
        )
        t = triangulate_graph(h)
        # oracle: maximal sets among the families {v} | parents(v)
        families = [frozenset({v, *t.parents_of(v)}) for v in t.vertices]
        expected = {f for f in families if not any(f < g for g in families)}
        tree = junction_tree(t)
        assert {frozenset(c) for c in tree.clusters} == expected
        assert tree.clusters == (("A", "B", "C"), ("A", "C", "D"))
        assert tree.sepsets[(0, 1)] == ("A", "C")

    def test_rejects_non_chordal(self):
        g = OrderedDag(("A", "B", "C"), {("A", "C"), ("B", "C")})
        with pytest.raises(ValueError, match="chordal"):
            junction_tree(g)

    def test_disconnected_graph_still_spans(self):
        g = OrderedDag(("A", "B", "C", "D"), {("A", "B"), ("C", "D")})
        tree = junction_tree(g)
        assert len(tree.tree_edges) == len(tree.clusters) - 1
        assert running_intersection_holds(tree)

    def test_running_intersection_can_fail(self):
        # A is in the two end clusters of a path but not in the middle one.
        tree = ClusterTree(
            (("A", "B"), ("B", "C"), ("A", "C")),
            frozenset({(0, 1), (1, 2)}),
            {(0, 1): ("B",), (1, 2): ("C",)},
        )
        assert not running_intersection_holds(tree)
        assert not oracle_running_intersection(tree)

    def test_running_intersection_on_random_chordal_graphs(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            g = triangulate_graph(random_ugraph(rng, 7))
            tree = junction_tree(g)
            assert len(tree.tree_edges) == len(tree.clusters) - 1
            assert running_intersection_holds(tree)
            assert oracle_running_intersection(tree)
            for (i, j), sep in tree.sepsets.items():
                assert set(sep) == set(tree.clusters[i]) & set(tree.clusters[j])


def _same_tree(g):
    tree, expected = junction_tree(g), reference_junction_tree(g)
    assert tree.clusters == expected.clusters
    assert tree.tree_edges == expected.tree_edges
    assert tree.sepsets == expected.sepsets
    return tree


class TestJunctionTreeAgainstReference:
    """The junction tree against the former quadratic construction, kept
    verbatim in ``helpers``: clusters, tree edges and separators equal."""

    def test_random_ordered_chordal_graphs(self):
        rng = np.random.default_rng(59)
        disconnected = single = 0
        for _ in range(600):
            n = int(rng.integers(1, 14))
            names = tuple(f"V{i}" for i in rng.permutation(n))
            p = float(rng.uniform(0.0, 0.7))
            h = OrderedUGraph(
                names,
                {frozenset((u, v)) for u, v in combinations(names, 2) if rng.random() < p},
            )
            tree = _same_tree(triangulate_graph(h))
            assert running_intersection_holds(tree)
            single += n == 1
            disconnected += any(not sep for sep in tree.sepsets.values())
        assert single >= 20 and disconnected >= 100

    @pytest.mark.parametrize("n", [2, 5, 60])
    def test_stars(self, n):
        for mn in (hub_first_star(n), hub_last_star(n)):
            assert running_intersection_holds(_same_tree(triangulate_graph(mn.graph)))

    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    def test_chains(self, n):
        names = tuple(f"x{i}" for i in range(n))
        tree = _same_tree(OrderedDag(names, set(zip(names, names[1:]))))
        assert running_intersection_holds(tree)

    def test_grid(self):
        names = [f"g{r}{c}" for r in range(6) for c in range(6)]
        edges = {frozenset((f"g{r}{c}", f"g{r}{c + 1}")) for r in range(6) for c in range(5)}
        edges |= {frozenset((f"g{r}{c}", f"g{r + 1}{c}")) for r in range(5) for c in range(6)}
        tree = _same_tree(triangulate_graph(OrderedUGraph(tuple(names), edges)))
        assert running_intersection_holds(tree)

    def test_long_chain_is_near_linear(self):
        # The quadratic construction takes minutes here.
        names = tuple(f"x{i}" for i in range(10000))
        g = OrderedDag(names, set(zip(names, names[1:])))
        start = time.perf_counter()
        tree = junction_tree(g)
        assert running_intersection_holds(tree)
        assert time.perf_counter() - start < 10.0
        assert len(tree.clusters) == 9999
        assert tree.tree_edges == {(i, i + 1) for i in range(9998)}

    def test_running_intersection_on_random_trees(self):
        # Arbitrary clusters on arbitrary spanning trees: the verdict
        # matches the path definition whether or not it holds.
        rng = np.random.default_rng(61)
        verdicts = set()
        for _ in range(300):
            k = int(rng.integers(1, 7))
            clusters = tuple(
                tuple(v for v in "ABCDE" if rng.random() < 0.4) or ("A",)
                for _ in range(k)
            )
            edges = frozenset(
                (int(rng.integers(0, j)), j) for j in range(1, k)
            )
            tree = ClusterTree(clusters, edges, {})
            verdict = running_intersection_holds(tree)
            assert verdict == oracle_running_intersection(tree)
            verdicts.add(verdict)
        assert verdicts == {True, False}
