"""Domains, relevancy sets, and the three graph constructions."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

from nashcycles.domgraph import (
    BipartiteDigraph,
    DomainEntry,
    build_gd,
    build_gi,
    build_gr,
    compute_domain,
    compute_domain_table,
    compute_relevancy,
    format_graph,
    size_lex_subsets,
)
from nashcycles.games import (
    Game,
    SupportPair,
    generate_random_game,
    is_best_response,
    iterated_elimination,
)
from nashcycles import equilibria, lp
from nashcycles.lp import InfeasibleSides, fp1_check, lp1_dominance, lp2_domain_check
from nashcycles.equilibria import BudgetExceededError, enumerate_by_gi, enumerate_by_supports

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

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(tied_games())
    def test_matches_per_subset_checks(self, g):
        # Skipping the supports a pure rival dominates on drops no member and
        # changes no witness: the row equals one domain check per subset.
        for player in (1, 2):
            opp_count = g.strategy_count(2 if player == 1 else 1)
            for x in range(g.strategy_count(player)):
                full = []
                for support in size_lex_subsets(opp_count, opp_count):
                    complement = tuple(y for y in range(opp_count) if y not in support)
                    member, witness = lp2_domain_check(g, player, x, support, complement)
                    if member:
                        full.append(DomainEntry(support, witness))
                for l in range(1, opp_count + 1):
                    expected = tuple(e for e in full if len(e.support) <= l)
                    assert compute_domain(g, player, x, l) == expected, (player, x, l)


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

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(tied_games())
    def test_within_cap_equilibria_are_mutual_arcs(self, g):
        # Every row of an equilibrium's R is a best response to its q, whose
        # support is exactly C, and likewise for the columns: so at every
        # cap pair holding (R, C) the arcs R -> C and C -> R are in G_D.
        # On games up to 3x3 the capped gi route also finds (R, C); on 4x4
        # tied games a capped run can take too long to exhaust its cycle
        # basis, so gi is not run there.
        oracle = enumerate_by_supports(g).support_pairs()
        for k in range(1, g.m + 1):
            for l in range(1, g.n + 1):
                within = [sp for sp in oracle if len(sp.rows) <= k and len(sp.cols) <= l]
                graph = build_gd(g, k, l)
                for sp in within:
                    u = _vertex(graph, 1, sp.rows)
                    w = _vertex(graph, 2, sp.cols)
                    assert graph.has_arc(u, w) and graph.has_arc(w, u), (k, l, sp)
                if g.m <= 3 and g.n <= 3:
                    found = set(enumerate_by_gi(g, k, l).support_pairs())
                    assert set(within) <= found, (k, l)


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

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(tied_games())
    def test_gd_plus_fallback_arcs(self, g):
        # At every cap pair, G_I without its artificial arcs is G_D, and a
        # source with a common-witness arc gets no artificial arc.
        record = InfeasibleSides(g)
        for k in range(1, g.m + 1):
            for l in range(1, g.n + 1):
                gd = build_gd(g, k, l, record)
                gi = build_gi(g, k, l, record)
                assert (gi.left, gi.right) == (gd.left, gd.right)
                for adj_i, art, adj_d in (
                    (gi.adj_lr, gi.artificial_lr, gd.adj_lr),
                    (gi.adj_rl, gi.artificial_rl, gd.adj_rl),
                ):
                    for row_i, flags, row_d in zip(adj_i, art, adj_d):
                        assert tuple(a and not f for a, f in zip(row_i, flags)) == row_d
                        assert all(a or not f for a, f in zip(row_i, flags))
                        if any(row_d):
                            assert not any(flags)

    def test_dominated_never_case_1_source(self, pd):
        graph = build_gi(pd, 2, 2)
        dead_vertices = [
            v for v in range(len(graph.left)) if 0 in graph.left[v]
        ]
        for v in dead_vertices:
            for w in graph.successors(v):
                assert graph.arc_artificial(v, w)


def _reference_fallback_arcs(adj, sources, targets, domains):
    # Cases 2-4 over each member's domain entries, as computed by
    # `compute_domain_table`.
    out_adj = []
    out_art = []
    for s, row in zip(sources, adj):
        if any(row):
            out_adj.append(row)
            out_art.append((False,) * len(targets))
            continue
        pool = frozenset.intersection(
            *(frozenset(y for entry in domains[x] for y in entry.support) for x in s)
        )
        fits = [len(t) for t in targets if t <= pool]
        if fits:
            best = max(fits)
            flags = tuple(t <= pool and len(t) == best for t in targets)
        else:
            members = {frozenset(entry.support) for x in s for entry in domains[x]}
            if members:
                flags = tuple(t in members for t in targets)
            else:
                flags = (len(s) == 1,) * len(targets)
        out_adj.append(flags)
        out_art.append(flags)
    return tuple(out_adj), tuple(out_art)


def _reference_gi(g, k, l, record=None):
    """G_I with the domains taken from the domain tables, not from G_D's
    singleton rows: the tables first, then G_D, then the fallback arcs."""
    record = record or InfeasibleSides(g)
    row_domains = compute_domain_table(g, 1, l, record)
    col_domains = compute_domain_table(g, 2, k, record)
    gd = build_gd(g, k, l, record)
    adj_lr, art_lr = _reference_fallback_arcs(gd.adj_lr, gd.left, gd.right, row_domains)
    adj_rl, art_rl = _reference_fallback_arcs(gd.adj_rl, gd.right, gd.left, col_domains)
    return BipartiteDigraph(gd.left, gd.right, adj_lr, adj_rl, art_lr, art_rl)


def _zero_game(size: int) -> Game:
    zeros = [[0] * size for _ in range(size)]
    return Game.from_rows(zeros, zeros)


# The all-zero games (every strategy's domain is every subset) and the
# generic 4x4 game of the CLI smoke test, run at k = l = 2.
_FIXED_GI_GAMES = (_zero_game(3), _zero_game(4), generate_random_game(4, 4, 7))


def _side_lps(run):
    """Per player, the (responders, support) of every side LP `run` solves."""
    solved = {1: [], 2: []}
    region = lp._exact_region

    def recording(game, player, responders, support):
        solved[player].append((responders, support))
        return region(game, player, responders, support)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_exact_region", recording)
        try:
            result = run()
        except BudgetExceededError as exc:
            result = exc.candidates
    return solved, result


def _check_lp_order(g, k, l):
    # The pipeline against the one whose domain tables solve their sides
    # before G_D is built: each player's side LPs come in the same order.
    def run():
        return enumerate_by_gi(g, k, l, budget=200)

    solved, result = _side_lps(run)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equilibria, "build_gi", _reference_gi)
        expected, expected_result = _side_lps(run)
    assert solved == expected, (k, l)
    assert result == expected_result, (k, l)


class TestGiAgainstDomainTables:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(tied_games())
    def test_same_graph_at_every_cap(self, g):
        for game in (g, iterated_elimination(g).game):
            for k in range(1, game.m + 1):
                for l in range(1, game.n + 1):
                    assert build_gi(game, k, l) == _reference_gi(game, k, l), (k, l)

    def test_same_graph_on_fixed_games(self):
        for g in _FIXED_GI_GAMES:
            assert build_gi(g, 2, 2) == _reference_gi(g, 2, 2)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(tied_games())
    def test_same_side_lps_per_player(self, g):
        for k in range(1, g.m + 1):
            for l in range(1, g.n + 1):
                _check_lp_order(g, k, l)

    def test_same_side_lps_on_fixed_games(self):
        for g in _FIXED_GI_GAMES:
            _check_lp_order(g, 2, 2)


class TestGraphExport:
    def test_format_lines(self, one_by_one):
        graph = build_gr(one_by_one)
        assert format_graph(graph) == "1:{1} -> 2:{1}\n2:{1} -> 1:{1}"

    def test_artificial_flag_present(self, flat_top):
        dump = format_graph(build_gi(flat_top, 1, 1))
        assert "1:{2} -> 2:{1} artificial" in dump


class TestSharedRecord:
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(tied_games())
    def test_sharing_changes_nothing(self, g):
        # One record asked by the domain tables, both graph builds at every
        # cap pair and then the checks of every support pair: each answer,
        # witness included, is the one a fresh record or no record gives.
        record = InfeasibleSides(g)
        for k in range(1, g.m + 1):
            for l in range(1, g.n + 1):
                assert compute_domain_table(g, 1, l, record) == compute_domain_table(g, 1, l)
                assert compute_domain_table(g, 2, k, record) == compute_domain_table(g, 2, k)
                assert build_gd(g, k, l, record) == build_gd(g, k, l)
                assert build_gi(g, k, l, record) == build_gi(g, k, l)
        every = itertools.product(size_lex_subsets(g.m, g.m), size_lex_subsets(g.n, g.n))
        for sp in itertools.starmap(SupportPair, every):
            assert fp1_check(g, sp, record) == fp1_check(g, sp), sp

    def test_record_of_another_game_refused(self, mp, bos):
        record = InfeasibleSides(bos)
        with pytest.raises(ValueError):
            compute_domain(mp, 1, 0, 2, record)
        with pytest.raises(ValueError):
            compute_domain_table(mp, 1, 2, record)
        with pytest.raises(ValueError):
            build_gd(mp, 2, 2, record)
        with pytest.raises(ValueError):
            build_gi(mp, 2, 2, record)
        with pytest.raises(ValueError):
            fp1_check(mp, SupportPair((0,), (0,)), record)
