"""Domains, relevancy sets, and the three graph constructions."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings

from nashcycles.domgraph import (
    BipartiteDigraph,
    build_gd,
    build_gi,
    build_gr,
    compute_domain,
    compute_domain_table,
    compute_relevancy,
    format_graph,
)
from nashcycles.games import Game, generate_random_game, is_best_response, iterated_elimination
from nashcycles.lp import lp1_dominance, lp2_domain_check
from nashcycles.equilibria import enumerate_by_supports

from conftest import tied_games

F = Fraction


def _vertex(graph: BipartiteDigraph, side: int, members) -> int:
    wanted = frozenset(members)
    pool = graph.left if side == 1 else graph.right
    offset = 0 if side == 1 else len(graph.left)
    for i, vs in enumerate(pool):
        if vs == wanted:
            return offset + i
    raise AssertionError(f"vertex {wanted} not found on side {side}")


class TestComputeDomain:
    def test_mp_row0(self, mp):
        row = compute_domain(mp, 1, 0, 2)
        assert [e.support for e in row] == [(0,), (0, 1)]

    def test_pd_dominated_row_empty(self, pd):
        assert compute_domain(pd, 1, 0, 2) == ()

    def test_bos_row0_cap_one(self, bos):
        row = compute_domain(bos, 1, 0, 1)
        assert [e.support for e in row] == [(0,)]

    def test_witness_replay(self):
        for seed in range(3):
            g = generate_random_game(3, 3, 8100 + seed)
            for x in range(g.m):
                for entry in compute_domain(g, 1, x, 3):
                    complement = tuple(
                        y for y in range(g.n) if y not in entry.support
                    )
                    member, _ = lp2_domain_check(g, 1, x, entry.support, complement)
                    assert member
                    assert entry.witness.support == entry.support
                    assert is_best_response(g, 1, x, entry.witness)


class TestComputeRelevancy:
    def test_mp_certified_full(self, mp):
        row = compute_relevancy(mp, 1, 0)
        assert row.members == (0, 1)
        # One witness certifies the whole row: its support is all of R(x).
        (witness,) = row.witnesses
        assert witness.support == (0, 1)
        assert is_best_response(mp, 1, 0, witness)

    def test_single_strategy_game(self, one_by_one):
        row = compute_relevancy(one_by_one, 1, 0)
        assert row.members == (0,)

    def test_dominated_strategy_empty(self, pd):
        row = compute_relevancy(pd, 1, 0)
        assert row.members == ()

    def test_union_of_domain_members(self):
        # R(x) equals the union of the domain's members at full caps.
        games = [generate_random_game(3, 4, 8200 + k) for k in range(3)]
        games.append(generate_random_game(4, 4, 8299))
        for g in games:
            for x in range(g.m):
                union: set[int] = set()
                for entry in compute_domain(g, 1, x, g.n):
                    union.update(entry.support)
                row = compute_relevancy(g, 1, x)
                assert set(row.members) == union

    def test_backing_witnesses(self):
        for seed in range(3):
            g = generate_random_game(4, 4, 8300 + seed)
            red = iterated_elimination(g).game
            for x in range(red.m):
                row = compute_relevancy(red, 1, x)
                (witness,) = row.witnesses
                assert is_best_response(red, 1, x, witness)
                assert witness.support == row.members

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(tied_games())
    def test_matches_per_strategy_probes(self, game):
        # Both the game as drawn and its reduction: R(x) is every y that a
        # single probe puts in some best-response support, one witness has
        # exactly that support, and R(x) is empty exactly when x is dominated.
        for g in (game, iterated_elimination(game).game):
            for player in (1, 2):
                opp_count = g.strategy_count(2 if player == 1 else 1)
                for x in range(g.strategy_count(player)):
                    row = compute_relevancy(g, player, x)
                    probed = tuple(
                        y for y in range(opp_count) if lp2_domain_check(g, player, x, (y,), ())[0]
                    )
                    assert row.members == probed
                    assert len(row.witnesses) == (1 if row.members else 0)
                    for witness in row.witnesses:
                        assert is_best_response(g, player, x, witness)
                        assert witness.support == row.members
                    assert (row.members == ()) == lp1_dominance(g, player, x)[0]


class TestBuildGr:
    def test_mp_completely_connected(self, mp):
        graph = build_gr(mp)
        assert graph.arc_count() == 8
        assert all(len(s) == 1 for s in graph.left + graph.right)

    def test_bos_completely_connected(self, bos):
        assert build_gr(bos).arc_count() == 8

    def test_one_by_one(self, one_by_one):
        graph = build_gr(one_by_one)
        assert graph.arc_count() == 2

    def test_out_degree_positive_after_elimination(self):
        for seed in range(3):
            g = iterated_elimination(generate_random_game(4, 4, 8400 + seed)).game
            graph = build_gr(g)
            for v in range(graph.order):
                assert len(graph.successors(v)) >= 1

    def test_corollary_2(self):
        # Every oracle equilibrium's supports sit inside each other's
        # relevancy sets.
        for seed in range(3):
            g = iterated_elimination(generate_random_game(3, 3, 8500 + seed)).game
            omega = enumerate_by_supports(g)
            rows_relevancy = {x: set(compute_relevancy(g, 1, x).members) for x in range(g.m)}
            cols_relevancy = {y: set(compute_relevancy(g, 2, y).members) for y in range(g.n)}
            for eq in omega.entries:
                for x in eq.support.rows:
                    assert set(eq.support.cols) <= rows_relevancy[x]
                for y in eq.support.cols:
                    assert set(eq.support.rows) <= cols_relevancy[y]


class TestBuildGd:
    def test_mp_full_support_mutual_arc(self, mp):
        graph = build_gd(mp, 2, 2)
        u = _vertex(graph, 1, {0, 1})
        w = _vertex(graph, 2, {0, 1})
        assert graph.has_arc(u, w) and graph.has_arc(w, u)
        assert not graph.has_arc(_vertex(graph, 1, {0}), _vertex(graph, 2, {1}))

    def test_pd_dominated_row_isolated(self, pd):
        graph = build_gd(pd, 2, 2)
        assert graph.successors(_vertex(graph, 1, {0})) == ()

    def test_one_by_one_single_cycle(self, one_by_one):
        graph = build_gd(one_by_one, 1, 1)
        assert graph.arc_count() == 2

    def test_full_domains_give_complete_digraph(self):
        # With all payoffs equal every subset pair carries a common witness.
        g = Game.from_rows([[0, 0], [0, 0]], [[0, 0], [0, 0]])
        graph = build_gd(g, 2, 2)
        assert len(graph.left) == 3 and len(graph.right) == 3
        assert graph.arc_count() == 18

    def test_no_artificial_arcs(self, mp):
        assert build_gd(mp, 2, 2).artificial_arc_count() == 0


class TestBuildGi:
    def test_mp_matches_gd(self, mp):
        gd = build_gd(mp, 2, 2)
        gi = build_gi(mp, 2, 2)
        assert gi.adj_lr == gd.adj_lr and gi.adj_rl == gd.adj_rl
        assert gi.artificial_arc_count() == 0

    def test_case_4_dominated_row(self, flat_top):
        graph = build_gi(flat_top, 1, 1)
        live = _vertex(graph, 1, {0})
        dead = _vertex(graph, 1, {1})
        assert graph.successors(live) == (2, 3)
        assert not any(graph.arc_artificial(live, w) for w in graph.successors(live))
        assert graph.successors(dead) == (2, 3)
        assert all(graph.arc_artificial(dead, w) for w in graph.successors(dead))

    def test_case_2_largest_common_pool(self):
        # No common witness for the three rows, but both columns stay
        # relevant to each, so the pair vertex gets one artificial arc to
        # the largest pooled subset.
        g = Game.from_rows(
            [[1, 0], [0, 1], [F(3, 5), F(3, 5)]],
            [[0, 0], [0, 0], [0, 0]],
        )
        graph = build_gi(g, 3, 2)
        s = _vertex(graph, 1, {0, 1, 2})
        succ = graph.successors(s)
        assert succ == (_vertex(graph, 2, {0, 1}),)
        assert graph.arc_artificial(s, succ[0])

    def test_case_3_union_fallback(self):
        # Rows 0 and 1 are best responses only at opposite pure columns:
        # no common target, empty intersection, arcs fall back to the union.
        g = Game.from_rows([[1, 0], [0, 1]], [[0, 0], [0, 0]])
        graph = build_gi(g, 2, 1)
        s = _vertex(graph, 1, {0, 1})
        succ = graph.successors(s)
        assert succ == (_vertex(graph, 2, {0}), _vertex(graph, 2, {1}))
        assert all(graph.arc_artificial(s, w) for w in succ)

    def test_one_by_one(self, one_by_one):
        graph = build_gi(one_by_one, 1, 1)
        assert graph.arc_count() == 2
        assert graph.artificial_arc_count() == 0

    def test_dominated_never_case_1_source(self, pd):
        graph = build_gi(pd, 2, 2)
        dead_vertices = [
            v for v in range(len(graph.left)) if 0 in graph.left[v]
        ]
        for v in dead_vertices:
            for w in graph.successors(v):
                assert graph.arc_artificial(v, w)


class TestGraphExport:
    def test_format_lines(self, one_by_one):
        graph = build_gr(one_by_one)
        assert format_graph(graph) == "1:{1} -> 2:{1}\n2:{1} -> 1:{1}"

    def test_artificial_flag_present(self, flat_top):
        dump = format_graph(build_gi(flat_top, 1, 1))
        assert "1:{2} -> 2:{1} artificial" in dump

    def test_reused_domain_tables(self, mp):
        rows = compute_domain_table(mp, 1, 2)
        cols = compute_domain_table(mp, 2, 2)
        direct = build_gd(mp, 2, 2)
        reused = build_gd(mp, 2, 2, rows, cols)
        assert direct == reused
