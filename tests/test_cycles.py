"""SCC, elementary-cycle enumeration, the cycle basis, and support trees."""

from __future__ import annotations

import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings

from nashcycles.cycles import (
    Cycle,
    CycleClassLimit,
    cycle_basis,
    elementary_cycles,
    enumerate_support_trees,
    johnson_cycles,
    strongly_connected_components,
    tarjan_scc,
)
from nashcycles.domgraph import BipartiteDigraph, build_gi, build_gr
from nashcycles.games import generate_random_game, iterated_elimination

from conftest import brute_force_cycles, tied_games


def _mutual_pairs_graph() -> BipartiteDigraph:
    # Two disjoint mutual pairs: x1 <-> y1, x2 <-> y2 (unified ids 0 <-> 2,
    # 1 <-> 3).
    return BipartiteDigraph(
        (0b01, 0b10),
        (0b01, 0b10),
        (1 << 2, 1 << 3, 1 << 0, 1 << 1),
    )


def _one_way_graph() -> BipartiteDigraph:
    return BipartiteDigraph(
        (0b01, 0b10),
        (0b01, 0b10),
        (0b1100, 0b1100, 0, 0),
    )


def _random_bipartite(
    rng: random.Random, m: int, n: int, density: float, artificial: float = 0.0
) -> BipartiteDigraph:
    # Each arc is present with probability `density`, and each present arc
    # is flagged artificial with probability `artificial`.
    succ = tuple(
        sum(1 << w for w in (range(m, m + n) if v < m else range(m)) if rng.random() < density)
        for v in range(m + n)
    )
    flags = ()
    if artificial:
        flags = tuple(
            sum(1 << w for w in range(m + n) if outs >> w & 1 and rng.random() < artificial)
            for outs in succ
        )
    return BipartiteDigraph(
        tuple(1 << x for x in range(m)),
        tuple(1 << y for y in range(n)),
        succ,
        flags,
    )


def _brute_force_basis(graph: BipartiteDigraph) -> list[tuple]:
    """The cycle basis from plain-DFS cycles grouped by vertex set: the
    chain closure of the 2-vertex sets, each class with its least cycle
    (plain cycles first) and flagged artificial when no plain cycle runs
    through exactly its vertices."""
    L = len(graph.left)
    adj_all = graph.adjacency()
    adj_plain = [
        [w for w in adj_all[v] if not graph.arc_artificial(v, w)] for v in range(graph.order)
    ]
    least_plain: dict[frozenset[int], tuple[int, ...]] = {}
    least_any: dict[frozenset[int], tuple[int, ...]] = {}
    for least, adj in ((least_plain, adj_plain), (least_any, adj_all)):
        for cycle in brute_force_cycles(graph.order, adj):
            least.setdefault(frozenset(cycle), cycle)
    admitted: set[frozenset[int]] = set()
    for vertices in sorted(least_any, key=len):
        if len(vertices) == 2 or any(
            vertices - {u, w} in admitted
            for u in vertices
            if u < L
            for w in vertices
            if w >= L
        ):
            admitted.add(vertices)
    out = []
    for vertices in admitted:
        cycle = least_plain.get(vertices, least_any[vertices])
        left = tuple(sorted(v for v in vertices if v < L))
        right = tuple(sorted(v for v in vertices if v >= L))
        out.append((left, right, cycle + cycle[:1], vertices not in least_plain))
    return sorted(out, key=lambda e: (len(e[0]) + len(e[1]), e[0], e[1]))


def _basis_rows(graph: BipartiteDigraph) -> list[tuple]:
    return [
        (e.left, e.right, e.representative.vertices, e.artificial) for e in cycle_basis(graph)
    ]


def _check_gi_trim(graph: BipartiteDigraph, basis, caps) -> bool:
    """Assert that `gi` mode emits what the star trim's reference
    formulation gives, members and order; True when some star dropped a
    class to meet the caps."""

    # Each class of a star is kept when the whole trimmed family plus it
    # stays within the caps, the union taken afresh every time.
    strategy_sets = [e.strategy_sets(graph) for e in basis]

    def within_caps(members) -> bool:
        rows = cols = 0
        for i in members:
            rows |= strategy_sets[i][0]
            cols |= strategy_sets[i][1]
        return rows.bit_count() <= caps[0] and cols.bit_count() <= caps[1]

    expected = [(e,) for e in basis]
    emitted: set[tuple[int, ...]] = set()
    dropped = False
    for v in range(graph.order):
        star = [i for i, e in enumerate(basis) if v in e.left + e.right]
        if len(star) < 2:
            continue
        trimmed: list[int] = []
        for i in star:
            if within_caps(trimmed + [i]):
                trimmed.append(i)
        dropped |= len(trimmed) < len(star)
        if len(trimmed) >= 2 and tuple(trimmed) not in emitted:
            emitted.add(tuple(trimmed))
            expected.append(tuple(basis[i] for i in trimmed))
    trees = enumerate_support_trees(graph, basis, "gi", caps)
    assert [t.members for t in trees] == expected, caps
    return dropped


def _validate_cycle(graph: BipartiteDigraph, cycle: Cycle):
    body = cycle.vertices[:-1]
    assert cycle.vertices[0] == cycle.vertices[-1]
    assert len(set(body)) == len(body)
    assert cycle.vertices[0] == min(body)  # canonical rotation
    for u, w in zip(cycle.vertices, cycle.vertices[1:]):
        assert graph.has_arc(u, w)
        assert graph.side(u) != graph.side(w)  # alternation
    left, right = cycle.sides(graph)
    assert len(left) == len(right)  # bipartite cycles are balanced


class TestTarjan:
    def test_complete_single_component(self):
        graph = BipartiteDigraph.complete(2, 2)
        assert tarjan_scc(graph) == [(0, 1, 2, 3)]

    def test_one_way_arcs_all_singletons(self):
        assert tarjan_scc(_one_way_graph()) == [(0,), (1,), (2,), (3,)]

    def test_two_mutual_pairs(self):
        assert tarjan_scc(_mutual_pairs_graph()) == [(0, 2), (1, 3)]

    def test_generic_chain_plus_cycle(self):
        adj = [[1], [2], [0], [0]]
        comps = strongly_connected_components(4, adj)
        assert comps == [[0, 1, 2], [3]]


class TestJohnson:
    def test_complete_2x2_has_six_cycles(self):
        cycles = list(johnson_cycles(BipartiteDigraph.complete(2, 2)))
        assert len(cycles) == 6
        lengths = sorted(c.length for c in cycles)
        assert lengths == [3, 3, 3, 3, 5, 5]

    def test_single_mutual_pair(self):
        graph = _mutual_pairs_graph()
        cycles = list(johnson_cycles(graph))
        assert [c.vertices for c in cycles] == [(0, 2, 0), (1, 3, 1)]

    def test_acyclic_graph_empty(self):
        assert list(johnson_cycles(_one_way_graph())) == []

    def test_cycles_are_valid_and_canonical(self):
        rng = random.Random(3)
        for _ in range(10):
            graph = _random_bipartite(rng, 3, 3, 0.5)
            for cycle in johnson_cycles(graph):
                _validate_cycle(graph, cycle)

    def test_matches_brute_force_on_random_digraphs(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 8)
            adj = [
                sorted({rng.randrange(n) for _ in range(rng.randint(0, n))} - {v})
                for v in range(n)
            ]
            found = sorted(tuple(c) for c in elementary_cycles(n, adj))
            assert found == brute_force_cycles(n, adj)

    def test_self_loops_reported(self):
        assert list(elementary_cycles(1, [[0]])) == [[0]]

    def test_matches_networkx_simple_cycles(self):
        def canonical(cycle):
            start = cycle.index(min(cycle))
            return tuple(cycle[start:] + cycle[:start])

        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 9)
            density = rng.choice((0.15, 0.3, 0.5))
            adj = [sorted(w for w in range(n) if rng.random() < density) for _ in range(n)]
            digraph = nx.DiGraph()
            digraph.add_nodes_from(range(n))
            digraph.add_edges_from((v, w) for v in range(n) for w in adj[v])
            expected = sorted(canonical(c) for c in nx.simple_cycles(digraph))
            found = [tuple(c) for c in elementary_cycles(n, adj)]
            assert len(found) == len(set(found))
            assert sorted(found) == expected


class TestCycleBasis:
    def test_complete_2x2(self):
        basis = cycle_basis(BipartiteDigraph.complete(2, 2))
        assert len(basis) == 5
        assert [e.distinct_count for e in basis] == [2, 2, 2, 2, 4]

    def test_complete_counts_match_formula_and_johnson(self):
        for m, n in [(1, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]:
            graph = BipartiteDigraph.complete(m, n)
            basis = cycle_basis(graph)
            expected = sum(
                math.comb(m, k) * math.comb(n, k) for k in range(1, min(m, n) + 1)
            )
            assert len(basis) == expected
            dedup = {
                tuple(sorted(set(c.vertices[:-1]))) for c in johnson_cycles(graph)
            }
            assert {tuple(sorted(e.left + e.right)) for e in basis} == dedup

    def test_acyclic_graph_empty(self):
        assert cycle_basis(_one_way_graph()) == []

    def test_matches_johnson_on_game_graphs(self):
        for seed in range(4):
            g = iterated_elimination(generate_random_game(4, 4, 9100 + seed)).game
            graph = build_gr(g)
            basis = cycle_basis(graph)
            dedup = {
                tuple(sorted(set(c.vertices[:-1]))) for c in johnson_cycles(graph)
            }
            assert {tuple(sorted(e.left + e.right)) for e in basis} == dedup

    def test_sound_on_random_sparse_graphs(self):
        rng = random.Random(31)
        for _ in range(20):
            graph = _random_bipartite(rng, 4, 4, 0.4)
            basis = cycle_basis(graph)
            dedup = {
                tuple(sorted(set(c.vertices[:-1]))) for c in johnson_cycles(graph)
            }
            assert {tuple(sorted(e.left + e.right)) for e in basis} <= dedup
            for entry in basis:
                _validate_cycle(graph, entry.representative)
                assert set(entry.representative.vertices[:-1]) == set(
                    entry.left + entry.right
                )

    def test_cycle_without_mutual_arc_has_no_class(self):
        # x0 -> y0 -> x1 -> y1 -> x0 (unified ids 0 -> 2 -> 1 -> 3 -> 0): one
        # elementary cycle but no 3-cycle to grow a class from.
        graph = BipartiteDigraph(
            (0b01, 0b10),
            (0b01, 0b10),
            (1 << 2, 1 << 3, 1 << 1, 1 << 0),
        )
        assert [c.vertices for c in johnson_cycles(graph)] == [(0, 2, 1, 3, 0)]
        assert cycle_basis(graph) == []

    def test_entries_sorted_and_distinct(self):
        basis = cycle_basis(BipartiteDigraph.complete(3, 3))
        keys = [e.sort_key() for e in basis]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_class_budget(self):
        with pytest.raises(CycleClassLimit):
            cycle_basis(BipartiteDigraph.complete(4, 4), max_classes=10)

    def test_matches_brute_force_with_artificial_arcs(self):
        rng = random.Random(57)
        flagged = 0
        for _ in range(300):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            graph = _random_bipartite(rng, m, n, rng.choice((0.3, 0.6, 0.9)), artificial=0.3)
            rows = _basis_rows(graph)
            assert rows == _brute_force_basis(graph)
            flagged += sum(row[3] for row in rows)
        assert flagged

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(tied_games())
    def test_matches_brute_force_on_gi_graphs(self, game):
        for k in range(1, game.m + 1):
            for l in range(1, game.n + 1):
                graph = build_gi(game, k, l)
                # Larger graphs have too many elementary cycles to list.
                if graph.order <= 10:
                    assert _basis_rows(graph) == _brute_force_basis(graph), (k, l)


class TestSupportTrees:
    def test_gr_mode_covers_all_support_pairs_on_complete_graph(self):
        graph = BipartiteDigraph.complete(2, 2)
        basis = cycle_basis(graph)
        trees = list(enumerate_support_trees(graph, basis, "gr", (2, 2)))
        supports = {t.support_pair(graph) for t in trees}
        assert len(supports) == 9
        trivial = [t for t in trees if not t.leaves]
        assert len(trivial) == len(basis)

    def test_gr_leaf_structure(self):
        graph = BipartiteDigraph.complete(3, 3)
        basis = cycle_basis(graph)
        for tree in enumerate_support_trees(graph, basis, "gr", (3, 3)):
            if not tree.leaves:
                continue
            main_left = set(tree.main.left)
            main_right = set(tree.main.right)
            extras_left = {v for leaf in tree.leaves for v in leaf.left} - main_left
            extras_right = {v for leaf in tree.leaves for v in leaf.right} - main_right
            # Leaves grow exactly one side.
            assert not (extras_left and extras_right)
            for leaf in tree.leaves:
                assert leaf.distinct_count == 2
                (lu,) = leaf.left
                (rw,) = leaf.right
                if extras_right:
                    assert lu in main_left and rw not in main_right
                else:
                    assert rw in main_right and lu not in main_left
            rows, cols = tree.support_pair(graph)
            assert min(rows.bit_count(), cols.bit_count()) == len(tree.main.left)

    def test_single_cycle_basis_gives_single_tree(self, one_by_one):
        graph = build_gr(one_by_one)
        basis = cycle_basis(graph)
        trees = list(enumerate_support_trees(graph, basis, "gr", (1, 1)))
        assert len(trees) == 1 and not trees[0].leaves

    def test_empty_basis_no_trees(self):
        graph = _one_way_graph()
        assert list(enumerate_support_trees(graph, [], "gr", (2, 2))) == []
        assert list(enumerate_support_trees(graph, [], "gi", (2, 2))) == []

    def test_gi_mode_star_families(self):
        graph = BipartiteDigraph.complete(2, 2)
        basis = cycle_basis(graph)
        trees = list(enumerate_support_trees(graph, basis, "gi", (2, 2)))
        singles = [t for t in trees if not t.leaves]
        stars = [t for t in trees if t.leaves]
        assert len(singles) == len(basis)
        for tree in stars:
            common = set.intersection(
                *(set(e.left + e.right) for e in tree.members)
            )
            assert common  # pairwise intersection via a shared vertex

    def test_gi_star_trim_drops_classes_to_fit_caps(self):
        for m, n in [(2, 2), (2, 3), (3, 3)]:
            graph = BipartiteDigraph.complete(m, n)
            basis = cycle_basis(graph)
            dropped = [
                caps
                for caps in itertools.product(range(1, m + 1), range(1, n + 1))
                if _check_gi_trim(graph, basis, caps)
            ]
            assert (m, n) not in dropped and (1, 1) in dropped

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(tied_games())
    def test_gi_star_trim_matches_reference(self, game):
        # Every graph cap pair, and every tree cap pair on each graph.
        for k in range(1, game.m + 1):
            for l in range(1, game.n + 1):
                graph = build_gi(game, k, l)
                try:
                    basis = cycle_basis(graph, max_classes=150)
                except CycleClassLimit:
                    continue
                for caps in itertools.product(range(1, game.m + 1), range(1, game.n + 1)):
                    _check_gi_trim(graph, basis, caps)

    def test_caps_respected(self):
        graph = BipartiteDigraph.complete(2, 3)
        basis = cycle_basis(graph)
        for mode in ("gr", "gi"):
            for tree in enumerate_support_trees(graph, basis, mode, (2, 2)):
                rows, cols = tree.support_pair(graph)
                assert rows.bit_count() <= 2 and cols.bit_count() <= 2

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            list(enumerate_support_trees(_one_way_graph(), [], "zz", (1, 1)))
