"""Domains, relevancy sets, and the three graph constructions."""

from __future__ import annotations

import hashlib
import itertools
import random
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
    _bits,
    format_graph,
    iterated_elimination,
    size_lex_subsets,
)
from nashcycles.games import (
    Game,
    generate_random_game,
    is_best_response,
)
import nashcycles.lp as lp_module
from nashcycles import domgraph, equilibria
from nashcycles.lp import InfeasibleSides, fp1_check, lp1_dominance, lp2_domain_check, lp3_relevancy
from nashcycles.equilibria import BudgetExceededError, enumerate_by_gi, enumerate_by_supports

from conftest import bench_workloads, degenerate_game, duplicated_game, side_lps, tied_games

F = Fraction


def _vertex(graph: BipartiteDigraph, side: int, members) -> int:
    wanted = sum(1 << i for i in members)
    pool = graph.left if side == 1 else graph.right
    offset = 0 if side == 1 else len(graph.left)
    for i, vs in enumerate(pool):
        if vs == wanted:
            return offset + i
    raise AssertionError(f"vertex {wanted} not found on side {side}")


def _zero_game(size: int) -> Game:
    zeros = [[0] * size for _ in range(size)]
    return Game.from_rows(zeros, zeros)


class TestComputeDomain:
    def test_mp_row0(self, mp):
        row = compute_domain(mp, 1, 0, 2)
        assert [e.support for e in row] == [(0,), (0, 1)]

    def test_pd_dominated_row_empty(self, pd):
        assert compute_domain(pd, 1, 0, 2) == ()

    def test_bos_row0_cap_one(self, bos):
        row = compute_domain(bos, 1, 0, 1)
        assert [e.support for e in row] == [(0,)]
        for x in (-1, 2):
            with pytest.raises(ValueError, match=f"^strategy index {x} out of range$"):
                compute_domain(bos, 1, x, 1)
        for l in (0, 3):
            with pytest.raises(ValueError, match=rf"^support cap must be in \[1, 2\], got {l}$"):
                compute_domain(bos, 1, 0, l)

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
                for mask in size_lex_subsets(opp_count, opp_count):
                    support = tuple(_bits(mask))
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


_PAIR = (0b01, 0b10)


class TestBipartiteDigraph:
    def test_complete_masks(self):
        graph = BipartiteDigraph.complete(2, 3)
        assert graph.succ == (0b11100, 0b11100, 0b00011, 0b00011, 0b00011)
        assert graph.arc_count() == 12 and graph.artificial_arc_count() == 0
        assert graph.successors(0) == (2, 3, 4) and graph.successors(4) == (0, 1)
        assert graph.has_arc(1, 3) and graph.has_arc(3, 1) and not graph.has_arc(0, 1)

    def test_flags_read_per_arc(self):
        graph = BipartiteDigraph(_PAIR, _PAIR, (0b1100, 0b1000, 0b01, 0b11), (0b0100, 0, 0, 0b10))
        assert graph.adjacency() == [[2, 3], [3], [0], [0, 1]]
        assert graph.arc_count() == 6 and graph.artificial_arc_count() == 2
        assert [(u, w) for u in range(4) for w in range(4) if graph.arc_artificial(u, w)] == [
            (0, 2),
            (3, 1),
        ]

    def test_mask_count_must_match_vertices(self):
        with pytest.raises(ValueError):
            BipartiteDigraph(_PAIR, _PAIR, (0b1100, 0b1100, 0b11))

    def test_arc_within_a_side_refused(self):
        with pytest.raises(ValueError):
            BipartiteDigraph(_PAIR, _PAIR, (0b0010, 0, 0, 0))
        with pytest.raises(ValueError):
            BipartiteDigraph(_PAIR, _PAIR, (0, 0, 0b1000, 0))

    def test_arc_past_last_vertex_refused(self):
        with pytest.raises(ValueError):
            BipartiteDigraph(_PAIR, _PAIR, (0b10000, 0, 0, 0))

    def test_label_below_one_refused(self):
        # A label is a non-empty strategy set: bitmask 0 or a negative int is
        # none.  Nor may one side repeat a label.
        for label in (0, -1):
            with pytest.raises(ValueError):
                BipartiteDigraph((label, 0b10), _PAIR, (0, 0, 0, 0))
            with pytest.raises(ValueError):
                BipartiteDigraph(_PAIR, (0b01, label), (0, 0, 0, 0))
        with pytest.raises(ValueError, match="distinct"):
            BipartiteDigraph(_PAIR, (0b01, 0b01), (0, 0, 0, 0))

    def test_flag_on_non_arc_refused(self):
        # A flag without its arc would count an artificial arc of no arc.
        with pytest.raises(ValueError):
            BipartiteDigraph(_PAIR, _PAIR, (0, 0, 0, 0), (0b0100, 0, 0, 0))

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(tied_games())
    def test_built_graphs_pass_the_checks(self, g):
        # The builders construct unchecked; the constructor's checks must
        # accept what they build, artificial flags included.
        graphs = [BipartiteDigraph.complete(g.m, g.n), build_gr(g)]
        for k, l in itertools.product(range(1, g.m + 1), range(1, g.n + 1)):
            graphs += [build_gd(g, k, l), build_gi(g, k, l)]
        for graph in graphs:
            assert BipartiteDigraph(graph.left, graph.right, graph.succ, graph.artificial) == graph


class TestBuildGr:
    def test_mp_completely_connected(self, mp):
        graph = build_gr(mp)
        assert graph.arc_count() == 8
        assert all(s.bit_count() == 1 for s in graph.left + graph.right)

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

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(tied_games())
    def test_same_graph_as_max_support_rows(self, g):
        for game in (g, iterated_elimination(g).game):
            _check_gr_rows(game)

    def test_same_graph_on_fixed_games(self, pd):
        for g in (*_FIXED_GR_GAMES, pd):
            _check_gr_rows(g)

    def test_full_rows_need_no_max_support_lp(self, pd, mp, bos, monkeypatch):
        # Every row of mp, bos and the generic games is full; in pd the
        # dominated row and column have an empty pure bound, so they are
        # empty with no program either.
        calls = []

        def counting(game, player, x):
            calls.append((player, x))
            return lp3_relevancy(game, player, x)

        monkeypatch.setattr(domgraph, "lp3_relevancy", counting)
        games = [mp, bos]
        games += [iterated_elimination(generate_random_game(4, 4, 4400 + t)).game for t in range(15)]
        for g in games:
            build_gr(g)
        graph = build_gr(pd)
        assert calls == []
        partial = [
            (graph.side(v), graph.strategy_set(v).bit_length() - 1)
            for v in range(graph.order)
            if graph.succ[v].bit_count() < 2
        ]
        assert partial == [(1, 0), (2, 0)]
        assert graph.succ[0] == graph.succ[2] == 0

    def test_build_solves_few_lps_on_generic_games(self, monkeypatch):
        # The pure bound, the certificate and the two-column test settle
        # every row of the reduced generic games of the test above; 72 side
        # LPs before the first two, 12 before the third.
        solves = []
        solve_rows = lp_module._solve_rows

        def counting(*args):
            solves.append(None)
            return solve_rows(*args)

        monkeypatch.setattr(lp_module, "_solve_rows", counting)
        per_game = []
        for t in range(15):
            g = iterated_elimination(generate_random_game(4, 4, 4400 + t)).game
            solves.clear()
            build_gr(g)
            per_game.append(len(solves))
        assert per_game == [0] * 15

    def test_unique_best_response_rows_equal_max_support_rows(self, monkeypatch):
        # A row the two-column test settles is every column, and equals the
        # max-support program's row.
        settled = []
        reply = domgraph._two_column_reply

        def recording(vectors, x, cols, top, strict=False):
            pair = reply(vectors, x, cols, top, strict)
            if pair:
                settled.append((vectors, x))
            return pair

        monkeypatch.setattr(domgraph, "_two_column_reply", recording)
        checked = 0
        for seed in range(30):
            size = 4 + seed % 3
            g = iterated_elimination(generate_random_game(size, size, 2900 + seed)).game
            settled.clear()
            graph = build_gr(g)
            for vectors, x in settled:
                player = 1 if vectors is g.int_payoffs[0][1] else 2
                row = graph.succ[x if player == 1 else g.m + x]
                members = compute_relevancy(g, player, x).members
                assert row == sum(1 << y for y in members) << (g.m if player == 1 else 0)
                assert len(members) == (g.n if player == 1 else g.m)
                checked += 1
        assert checked > 20

    def test_same_graph_as_max_support_rows_up_to_8x8(self):
        # Tied games with a duplicated row, column or both reach every path
        # of a row: an empty bound, the certificate, the side ({x}, U(x))
        # holding, and the max-support program after it fails.
        rng = random.Random(26)
        for seed in range(100):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            g = duplicated_game(m, n, 2600 + seed, seed % 3 != 1, seed % 3 != 0)
            for game in (g, iterated_elimination(g).game):
                assert build_gr(game) == _reference_gr(game), (seed, game.m, game.n)

    def test_same_graph_as_max_support_rows_on_degenerate_games(self):
        # The benchmark's degenerate family up to 6x6, payoffs in {0, 1, 2}:
        # plain, with a duplicated row and with a constant column, so many
        # columns tie two or more rows at their top.
        panel = bench_workloads()
        for m, n in itertools.product(range(1, 7), repeat=2):
            for variant in panel.DEGENERATE_VARIANTS:
                g = Game.from_rows(*panel.degenerate_payoffs(m, n, 1000 * m + 100 * n, variant))
                for game in (g, iterated_elimination(g).game):
                    assert build_gr(game) == _reference_gr(game), (m, n, variant)

    def test_certificate_leaves_the_same_rows_to_max_support(self, monkeypatch):
        # The tie-mask certificate equals the one that rescans every column
        # per bound, so the max-support program runs on exactly the rows it
        # ran on with that one.
        programs = []
        max_support, certificate = domgraph._max_support, domgraph._lex_best_responses

        def counting(view, x):
            programs.append((view, x))
            return max_support(view, x)

        def checked(vectors, cols, tied):
            rows = certificate(vectors, cols, tied)
            assert rows == _rescanning_certificate(vectors, cols)
            return rows

        def max_support_rows(game, certify):
            monkeypatch.setattr(domgraph, "_lex_best_responses", certify)
            programs.clear()
            graph = build_gr(game)
            return graph, [(view is game.int_payoffs[1], x) for view, x in programs]

        monkeypatch.setattr(domgraph, "_max_support", counting)
        panel = bench_workloads()
        rows = 0
        for seed in range(300):
            m, n = 2 + seed % 5, 2 + seed // 5 % 5
            variant = panel.DEGENERATE_VARIANTS[seed % 3]
            games = (
                Game.from_rows(*panel.degenerate_payoffs(m, n, 5000 + seed, variant)),
                duplicated_game(m, n, 5000 + seed, True, seed % 2 == 0),
                duplicated_game(m, n, 5000 + seed, False),
            )
            for game in games:
                rescanned = max_support_rows(game, lambda v, c, t: _rescanning_certificate(v, c))
                assert max_support_rows(game, checked) == rescanned
                rows += len(rescanned[1])
        assert rows > 20

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


def _rescanning_certificate(vectors, cols: int) -> int:
    """`build_gr`'s pure certificate as first written: per bound, every
    column's top payoff and tied rows found again, and the payoff sums over
    the bound taken whether or not any column ties."""
    flags = [cols >> y & 1 for y in range(len(vectors[0]))]
    sums = [sum(itertools.compress(row, flags)) for row in vectors]
    best = 0
    for y in _bits(cols):
        top = max(row[y] for row in vectors)
        tied = [x for x, row in enumerate(vectors) if row[y] == top]
        most = max(sums[x] for x in tied)
        best |= sum(1 << x for x in tied if sums[x] == most)
    return best


def _reference_gr(g: Game) -> BipartiteDigraph:
    """G_R with every row from `compute_relevancy`'s max-support program."""
    succ = []
    for player, count, offset in ((1, g.m, g.m), (2, g.n, 0)):
        for x in range(count):
            succ.append(sum(1 << offset + y for y in compute_relevancy(g, player, x).members))
    return BipartiteDigraph(
        tuple(1 << x for x in range(g.m)),
        tuple(1 << y for y in range(g.n)),
        tuple(succ),
    )


def _check_gr_rows(g: Game) -> None:
    # Both builds equal the reference, and a row is full exactly when the
    # full-support side is feasible.
    expected = _reference_gr(g)
    assert build_gr(g) == expected
    assert build_gr(g, InfeasibleSides(g)) == expected
    for player, count, opp_count, offset in ((1, g.m, g.n, 0), (2, g.n, g.m, g.m)):
        everyone = (1 << opp_count) - 1
        for x in range(count):
            full = expected.succ[offset + x].bit_count() == opp_count
            weights = InfeasibleSides(g).check_side(player, 1 << x, everyone)
            assert (weights is not None) == full, (player, x)


# The all-zero 3x3 (every row full), a 1x4 and a 4x1 game, a 4x4 game with
# a constant column and a duplicated row whose rows are full, partial and
# empty, and a 3x3 game whose row 1 earns column 1's top payoff and no pure
# rival bounds it, yet R(row 1) = {1}: rows 2 and 3 tie with it there and
# have larger payoff sums, so no pure certificate may call it full.
_FIXED_GR_GAMES = (
    _zero_game(3),
    Game.from_rows([[1, 2, 0, 2]], [[0, 1, 1, 2]]),
    Game.from_rows([[0], [2], [1], [2]], [[1], [0], [2], [2]]),
    degenerate_game(4, 4, 4),
    Game.from_rows([[2, 1, 1], [2, 3, 0], [2, 0, 3]], [[1, 0, 2], [0, 1, 1], [2, 2, 0]]),
)


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
        for k, l in ((0, 1), (1, 0), (2, 1), (1, 2)):
            with pytest.raises(ValueError, match="size caps must satisfy"):
                build_gd(one_by_one, k, l)

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
        assert gi.succ == gd.succ
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
                for v in range(gi.order):
                    assert gi.succ[v] & ~gi.artificial[v] == gd.succ[v]
                    assert gi.artificial[v] & ~gi.succ[v] == 0
                    if gd.succ[v]:
                        assert gi.artificial[v] == 0

    def test_dominated_never_case_1_source(self, pd):
        graph = build_gi(pd, 2, 2)
        dead_vertices = [
            v for v in range(len(graph.left)) if graph.left[v] & 1
        ]
        for v in dead_vertices:
            for w in graph.successors(v):
                assert graph.arc_artificial(v, w)


def _reference_fallback_arcs(gd, side, domains):
    # Cases 2-4 over each member's domain entries, as computed by
    # `compute_domain_table`: the successor and flag masks of every vertex
    # on `side` of G_D.
    L = len(gd.left)
    sources, targets = (range(L), range(L, gd.order)) if side == 1 else (range(L, gd.order), range(L))
    out_succ = []
    out_art = []
    for v in sources:
        s = frozenset(_bits(gd.strategy_set(v)))
        if gd.succ[v]:
            out_succ.append(gd.succ[v])
            out_art.append(0)
            continue
        pool = frozenset.intersection(
            *(frozenset(y for entry in domains[x] for y in entry.support) for x in s)
        )
        sets = [frozenset(_bits(gd.strategy_set(w))) for w in targets]
        fits = [len(t) for t in sets if t <= pool]
        if fits:
            best = max(fits)
            flags = [t <= pool and len(t) == best for t in sets]
        else:
            members = {frozenset(entry.support) for x in s for entry in domains[x]}
            if members:
                flags = [t in members for t in sets]
            else:
                flags = [len(s) == 1] * len(sets)
        mask = sum(1 << w for w, on in zip(targets, flags) if on)
        out_succ.append(mask)
        out_art.append(mask)
    return out_succ, out_art


def _reference_gi(g, k, l, record=None):
    """G_I with the domains taken from the domain tables, not from G_D's
    singleton rows: the tables first, then G_D, then the fallback arcs."""
    record = record or InfeasibleSides(g)
    row_domains = compute_domain_table(g, 1, l, record)
    col_domains = compute_domain_table(g, 2, k, record)
    gd = build_gd(g, k, l, record)
    succ_l, art_l = _reference_fallback_arcs(gd, 1, row_domains)
    succ_r, art_r = _reference_fallback_arcs(gd, 2, col_domains)
    return BipartiteDigraph(gd.left, gd.right, tuple(succ_l + succ_r), tuple(art_l + art_r))


# The all-zero games (every strategy's domain is every subset) and the
# generic 4x4 game of the CLI smoke test, run at k = l = 2.
_FIXED_GI_GAMES = (_zero_game(3), _zero_game(4), generate_random_game(4, 4, 7))


def _side_lps(run):
    """Per player, the (responders, support) of every side LP `run` solves."""
    with side_lps() as sides:
        try:
            result = run()
        except BudgetExceededError as exc:
            result = exc.candidates
    solved = {1: [], 2: []}
    for player, responders, support in sides:
        solved[player].append((responders, support))
    return solved, result


def _check_lp_order(g, k, l):
    # The pipeline against the one whose domain tables solve their sides
    # before G_D is built: each player's side LPs come in the same order.
    # At full caps of the eliminated game the route builds no G_I, so there
    # is nothing to compare.
    rg = iterated_elimination(g).game
    if k >= rg.m and l >= rg.n:
        return
    built = []

    def reference_gi(*args):
        built.append(args)
        return _reference_gi(*args)

    def run():
        return enumerate_by_gi(g, k, l, budget=200)

    solved, result = _side_lps(run)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equilibria, "build_gi", reference_gi)
        expected, expected_result = _side_lps(run)
    assert built, (k, l)
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

    def test_gi_of_smoke_game_pinned(self):
        # The 4x4 game of the CLI smoke test (`gen -m 4 -n 4 --seed 7`) at
        # k = l = 2: 20 vertices, 90 arcs, 42 of them artificial.
        dump = format_graph(build_gi(generate_random_game(4, 4, 7), 2, 2))
        lines = dump.split("\n")
        assert len(lines) == 90
        assert sum(line.endswith(" artificial") for line in lines) == 42
        assert hashlib.sha256(dump.encode()).hexdigest()[:16] == "180639df4a168ab6"


class TestSharedRecord:
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(tied_games())
    def test_sharing_changes_nothing(self, g):
        # One record asked by G_R's build, the domain tables, both subset
        # graph builds at every cap pair and then the checks of every
        # support pair: each answer, witness included, is the one a fresh
        # record or no record gives.
        record = InfeasibleSides(g)
        assert build_gr(g, record) == build_gr(g)
        for k in range(1, g.m + 1):
            for l in range(1, g.n + 1):
                assert compute_domain_table(g, 1, l, record) == compute_domain_table(g, 1, l)
                assert compute_domain_table(g, 2, k, record) == compute_domain_table(g, 2, k)
                assert build_gd(g, k, l, record) == build_gd(g, k, l)
                assert build_gi(g, k, l, record) == build_gi(g, k, l)
        every = itertools.product(size_lex_subsets(g.m, g.m), size_lex_subsets(g.n, g.n))
        for rows, cols in every:
            assert fp1_check(g, rows, cols, record) == fp1_check(g, rows, cols), (rows, cols)

    def test_record_of_another_game_refused(self, mp, bos):
        record = InfeasibleSides(bos)
        with pytest.raises(ValueError):
            compute_domain(mp, 1, 0, 2, record)
        with pytest.raises(ValueError):
            compute_domain_table(mp, 1, 2, record)
        with pytest.raises(ValueError):
            build_gr(mp, record)
        with pytest.raises(ValueError):
            build_gd(mp, 2, 2, record)
        with pytest.raises(ValueError):
            build_gi(mp, 2, 2, record)
        with pytest.raises(ValueError):
            fp1_check(mp, 0b1, 0b1, record)
