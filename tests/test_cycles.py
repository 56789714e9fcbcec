"""SCC, elementary-cycle enumeration, the cycle basis, and support trees."""

from __future__ import annotations

import math
import random
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings

import nashcycles.cycles as cycles_module
from nashcycles.cycles import (
    BudgetExceededError,
    Cycle,
    cycle_basis,
    elementary_cycles,
    enumerate_support_trees,
    gr_support_trees,
    johnson_cycles,
    strongly_connected_components,
    tarjan_scc,
)
from nashcycles.domgraph import BipartiteDigraph, build_gd, build_gi, build_gr
from nashcycles.equilibria import enumerate_by_gi
from nashcycles.games import Game, generate_random_game, iterated_elimination

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


def _gi_reference(graph: BipartiteDigraph, basis) -> list[tuple[int, int]]:
    """The capped `gi` candidates with repeats: every class alone, then,
    in vertex order, the union of every star of two or more classes
    through one vertex."""
    pairs = [e.strategy_sets(graph) for e in basis]
    stars = []
    for v in range(graph.order):
        star = [pair for e, pair in zip(basis, pairs) if v in e.left + e.right]
        if len(star) >= 2:
            rows = cols = 0
            for r, c in star:
                rows |= r
                cols |= c
            stars.append((rows, cols))
    return pairs + stars


def _check_gi_candidates(graph: BipartiteDigraph, basis) -> list[tuple[int, int]]:
    """Assert that the capped `gi` candidates are the reference's distinct
    pairs, sorted by mask pair with none repeated; return them."""
    got = enumerate_support_trees(graph, basis)
    assert got == sorted(set(_gi_reference(graph, basis)))
    assert all(a < b for a, b in zip(got, got[1:]))
    return got


def _gi_result(game, k, l, budget):
    try:
        return enumerate_by_gi(game, k, l, budget)
    except BudgetExceededError as exc:
        return exc.candidates


def _check_gi_candidates_without_trees(game, k: int, l: int, budget: int = 400) -> None:
    """On G_I at caps (k, l), the capped `gi` candidates are int pairs that
    match the reference (`_check_gi_candidates`), and the route returns
    the same result when building a `SupportTree` raises."""
    graph = build_gi(game, k, l)
    try:
        basis = cycle_basis(graph, budget)
    except BudgetExceededError:
        pass
    else:
        pairs = _check_gi_candidates(graph, basis)
        assert all(type(rows) is int and type(cols) is int for rows, cols in pairs)
    expected = _gi_result(game, k, l, budget)
    with mock.patch.object(cycles_module, "SupportTree", side_effect=AssertionError("tree built")):
        assert _gi_result(game, k, l, budget) == expected, (k, l)


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

    def test_one_witness_search_without_artificial_arcs(self, monkeypatch):
        # G_D has no artificial arcs, so a search over all arcs would repeat
        # the plain search that just failed on the same mask: every mask is
        # searched once.  G_I's artificial arcs keep the second search.
        g = Game.from_rows(
            [[0, 1, 2, 1], [2, 0, 0, 1], [0, 2, 2, 0], [0, 1, 2, 1]],
            [[1, 0, 0, 2], [1, 2, 0, 0], [1, 1, 1, 2], [1, 0, 0, 2]],
        )
        searched = []
        witness_cycle = cycles_module._witness_cycle

        def counting(mask, succ):
            searched.append(mask)
            return witness_cycle(mask, succ)

        monkeypatch.setattr(cycles_module, "_witness_cycle", counting)
        counts = []
        for k in (1, 2):
            graph = build_gd(g, k, k)
            assert not any(graph.artificial)
            searched.clear()
            cycle_basis(graph)
            assert len(searched) == len(set(searched))
            counts.append(len(searched))
        assert counts == [17, 1723]
        graph = build_gi(g, 1, 1)
        assert any(graph.artificial)
        searched.clear()
        assert any(entry.artificial for entry in cycle_basis(graph))
        assert len(searched) > len(set(searched))

    def test_class_budget(self):
        # A complete graph's classes are all its vertex sets with equal
        # sides, 4 * 4 + 6 * 6 + 4 * 4 + 1 = 69 on K_{4,4}, counted before any
        # is admitted; another graph refuses at its first class past the
        # budget.
        with pytest.raises(BudgetExceededError) as err:
            cycle_basis(BipartiteDigraph.complete(4, 4), budget=10)
        assert (err.value.candidates, err.value.budget) == (69, 10)
        assert len(cycle_basis(BipartiteDigraph.complete(4, 4), budget=69)) == 69
        graph = BipartiteDigraph.complete(4, 4)
        without_0_to_4 = (graph.succ[0] & ~(1 << 4),) + graph.succ[1:]
        sparse = BipartiteDigraph(graph.left, graph.right, without_0_to_4)
        with pytest.raises(BudgetExceededError) as err:
            cycle_basis(sparse, budget=10)
        assert (err.value.candidates, err.value.budget) == (11, 10)

    def test_refusal_message_never_converts_a_huge_count(self):
        # Up to 4000 bits the count is in decimal; past that it is named by
        # a power of two it exceeds, with no int-to-string conversion, and
        # the exception keeps the exact count either way.
        assert str(BudgetExceededError(2001, 2000)) == "2001 candidates exceed the budget of 2000"
        assert str(BudgetExceededError(2**4000 - 1, 7)) == f"{2**4000 - 1} candidates exceed the budget of 7"
        for count, k in ((2**4000, 3999), (2**4000 + 1, 4000), ((2**20000 - 1) * 3, 20001)):
            err = BudgetExceededError(count, 7)
            assert str(err) == f"more than 2^{k} candidates exceed the budget of 7"
            assert 2**k < err.candidates == count <= 2 ** (k + 1)

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
        trees = list(gr_support_trees(graph, basis, (2, 2)))
        supports = {t.support_pair(graph) for t in trees}
        assert len(supports) == 9
        trivial = [t for t in trees if not t.leaves]
        assert len(trivial) == len(basis)

    def test_gr_leaf_structure(self):
        graph = BipartiteDigraph.complete(3, 3)
        basis = cycle_basis(graph)
        for tree in gr_support_trees(graph, basis, (3, 3)):
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
        trees = list(gr_support_trees(graph, basis, (1, 1)))
        assert len(trees) == 1 and not trees[0].leaves

    def test_empty_basis_no_trees(self):
        graph = _one_way_graph()
        assert list(gr_support_trees(graph, [], (2, 2))) == []
        assert list(enumerate_support_trees(graph, [])) == []

    def test_gi_mode_star_families(self):
        # Each class alone and the stars that add a pair: on K_{1,2} the
        # two 3-cycles through x1 give the unbalanced support ({x1}, {y1, y2});
        # on K_{2,2} every star's union is the 4-vertex class's pair.
        for (m, n), expected in [
            ((1, 2), [(0b1, 0b01), (0b1, 0b10), (0b1, 0b11)]),
            ((2, 1), [(0b01, 0b1), (0b10, 0b1), (0b11, 0b1)]),
            ((2, 2), [(0b01, 0b01), (0b01, 0b10), (0b10, 0b01), (0b10, 0b10), (0b11, 0b11)]),
        ]:
            graph = BipartiteDigraph.complete(m, n)
            assert _check_gi_candidates(graph, cycle_basis(graph)) == expected, (m, n)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(tied_games())
    def test_gi_star_trim_matches_reference(self, game):
        for k in range(1, game.m + 1):
            for l in range(1, game.n + 1):
                _check_gi_candidates_without_trees(game, k, l)

    def test_gi_candidates_on_zero_game(self):
        # 923 classes, 43 distinct candidates, every one an equilibrium.
        zero = [[0] * 3] * 3
        _check_gi_candidates_without_trees(Game.from_rows(zero, zero), 2, 2, budget=1000)

    def test_caps_respected(self):
        graph = BipartiteDigraph.complete(2, 3)
        basis = cycle_basis(graph)
        for tree in gr_support_trees(graph, basis, (2, 2)):
            rows, cols = tree.support_pair(graph)
            assert rows.bit_count() <= 2 and cols.bit_count() <= 2
