"""The three pipelines, verification, and eliminable strategies."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashcycles.cycles import cycle_basis, enumerate_support_trees
from nashcycles.domgraph import BipartiteDigraph
from nashcycles.equilibria import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    _all_support_pairs,
    _collect_tree_candidates,
    eliminable_strategies,
    enumerate_by_gi,
    enumerate_by_gr,
    enumerate_by_supports,
    verify_equilibrium,
)
from nashcycles.games import (
    Game,
    MixedStrategy,
    SupportPair,
    expected_payoffs,
    generate_random_game,
    iterated_elimination,
)
from nashcycles.lp import InfeasibleSides, fp1_check

from conftest import degenerate_game, tied_games

F = Fraction


def _supports(result):
    return [(e.support.rows, e.support.cols) for e in result.entries]


class TestOracle:
    def test_pd(self, pd):
        result = enumerate_by_supports(pd)
        assert _supports(result) == [((1,), (1,))]
        (entry,) = result.entries
        assert (entry.u1, entry.u2) == (1, 1)
        assert entry.p.probs == (F(0), F(1))

    def test_mp(self, mp):
        result = enumerate_by_supports(mp)
        assert _supports(result) == [((0, 1), (0, 1))]
        (entry,) = result.entries
        assert entry.p.probs == entry.q.probs == (F(1, 2), F(1, 2))

    def test_bos(self, bos):
        result = enumerate_by_supports(bos)
        assert _supports(result) == [
            ((0,), (0,)),
            ((0, 1), (0, 1)),
            ((1,), (1,)),
        ]
        mixed = result.entries[1]
        assert mixed.p.probs == (F(2, 3), F(1, 3))
        assert mixed.q.probs == (F(1, 3), F(2, 3))
        assert mixed.u1 == mixed.u2 == F(2, 3)

    def test_stats_fields(self, bos):
        result = enumerate_by_supports(bos)
        assert result.method == "supports"
        assert result.stats.candidates == 9
        assert result.stats.pruned == 2
        assert result.stats.feasible == 3
        assert len(result.game_hash) == 16

    def test_budget_refusal(self):
        g = generate_random_game(4, 4, 1)
        with pytest.raises(BudgetExceededError) as err:
            enumerate_by_supports(g, budget=10)
        assert err.value.candidates > 10

    def test_determinism(self, bos):
        assert enumerate_by_supports(bos) == enumerate_by_supports(bos)


class TestGrPipeline:
    def test_named_games_match_oracle(self, pd, mp, bos, one_by_one, flat_top):
        for g in (pd, mp, bos, one_by_one, flat_top):
            oracle = enumerate_by_supports(g)
            via_gr = enumerate_by_gr(g)
            assert via_gr.support_pairs() == oracle.support_pairs()

    def test_one_by_one_single_cycle(self, one_by_one):
        result = enumerate_by_gr(one_by_one)
        assert _supports(result) == [((0,), (0,))]

    def test_witnesses_valid_on_original_game(self):
        # Lifted witnesses must be equilibria of the game as given.
        for seed in range(4):
            g = generate_random_game(4, 4, 11000 + seed)
            for entry in enumerate_by_gr(g).entries:
                valid, report = verify_equilibrium(g, entry.p, entry.q)
                assert valid, report
                assert expected_payoffs(g, entry.p, entry.q) == (entry.u1, entry.u2)
                assert entry.p.support == entry.support.rows
                assert entry.q.support == entry.support.cols

    def test_budget_refusal(self, mp):
        with pytest.raises(BudgetExceededError):
            enumerate_by_gr(mp, budget=3)

    def test_complete_graph_trees_are_the_support_space(self):
        # A complete G_R skips the cycle machinery; that is exact because on
        # K_{m,n} the basis and trees yield every support pair, in this order.
        for m in range(1, 7):
            for n in range(1, 7):
                graph = BipartiteDigraph.complete(m, n)
                trees = enumerate_support_trees(graph, cycle_basis(graph), "gr", (m, n))
                expected = sorted(_all_support_pairs(m, n), key=SupportPair.sort_key)
                assert _collect_tree_candidates(graph, trees, DEFAULT_BUDGET) == expected, (m, n)


class TestGiPipeline:
    def test_full_caps_match_oracle(self, pd, mp, bos, flat_top):
        for g in (pd, mp, bos, flat_top):
            oracle = enumerate_by_supports(g)
            via_gi = enumerate_by_gi(g, g.m, g.n)
            assert via_gi.support_pairs() == oracle.support_pairs()

    def test_bos_sub_cap_finds_pure_only(self, bos):
        result = enumerate_by_gi(bos, 1, 1)
        assert _supports(result) == [((0,), (0,)), ((1,), (1,))]
        full = enumerate_by_gi(bos, 2, 2)
        assert full.support_pairs() == enumerate_by_supports(bos).support_pairs()

    def test_pd_sub_cap(self, pd):
        result = enumerate_by_gi(pd, 1, 1)
        assert _supports(result) == [((1,), (1,))]

    def test_caps_clamped_after_elimination(self, pd):
        # The 2x2 input reduces to 1x1; passing the original dims must work.
        result = enumerate_by_gi(pd, 2, 2)
        assert _supports(result) == [((1,), (1,))]
        assert result.method == "gi(k=1,l=1)"

    def test_bad_caps(self, mp):
        with pytest.raises(ValueError):
            enumerate_by_gi(mp, 0, 1)

    def test_budget_refusal(self, mp):
        with pytest.raises(BudgetExceededError):
            enumerate_by_gi(mp, 2, 2, budget=0)


class TestEliminable:
    def test_pd_cooperate_eliminable(self, pd):
        omega = enumerate_by_supports(pd)
        assert eliminable_strategies(pd, omega) == ((0,), (0,))

    def test_bos_nothing_eliminable(self, bos):
        omega = enumerate_by_supports(bos)
        assert eliminable_strategies(bos, omega) == ((), ())

    def test_mp_nothing_eliminable(self, mp):
        omega = enumerate_by_supports(mp)
        assert eliminable_strategies(mp, omega) == ((), ())

    def test_consistency_with_oracle(self):
        for seed in range(3):
            g = generate_random_game(3, 4, 12000 + seed)
            omega = enumerate_by_supports(g)
            rows, cols = eliminable_strategies(g, omega)
            for entry in omega.entries:
                assert not set(entry.support.rows) & set(rows)
                assert not set(entry.support.cols) & set(cols)


class TestVerifyEquilibrium:
    def test_mp_uniform_valid(self, mp):
        valid, report = verify_equilibrium(
            mp, MixedStrategy.uniform(1, 2), MixedStrategy.uniform(2, 2)
        )
        assert valid and report == ()

    def test_bos_mixed_valid(self, bos):
        valid, _ = verify_equilibrium(
            bos,
            MixedStrategy(1, (F(2, 3), F(1, 3))),
            MixedStrategy(2, (F(1, 3), F(2, 3))),
        )
        assert valid

    def test_pd_cooperate_invalid_with_report(self, pd):
        valid, report = verify_equilibrium(
            pd, MixedStrategy.pure(1, 0, 2), MixedStrategy.pure(2, 0, 2)
        )
        assert not valid
        assert any("row 1" in line and "5" in line for line in report)

    def test_dimension_mismatch(self, pd):
        with pytest.raises(ValueError):
            verify_equilibrium(
                pd, MixedStrategy.uniform(1, 3), MixedStrategy.uniform(2, 2)
            )


class TestDegenerateUnbalanced:
    def test_flat_top_supports(self, flat_top):
        expected = [((0,), (0,)), ((0,), (0, 1)), ((0,), (1,))]
        oracle = enumerate_by_supports(flat_top)
        assert _supports(oracle) == expected
        via_gr = enumerate_by_gr(flat_top)
        assert _supports(via_gr) == expected

    def test_unbalanced_witness_positive_everywhere(self, flat_top):
        oracle = enumerate_by_supports(flat_top)
        wide = [e for e in oracle.entries if e.support.cols == (0, 1)]
        assert len(wide) == 1
        assert all(p > 0 for p in wide[0].q.probs)


class TestDegenerateRoutes:
    SIZES = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4))

    def test_routes_match_oracle_with_exact_witnesses(self):
        for index, (m, n) in enumerate(self.SIZES * 2):
            g = degenerate_game(m, n, 9100 + index)
            oracle = enumerate_by_supports(g)
            routes = (oracle, enumerate_by_gr(g), enumerate_by_gi(g, m, n))
            for result in routes:
                assert result.support_pairs() == oracle.support_pairs(), (m, n, index)
                for e in result.entries:
                    valid, report = verify_equilibrium(g, e.p, e.q)
                    assert valid, report
                    assert e.p.support == e.support.rows
                    assert e.q.support == e.support.cols
                    assert expected_payoffs(g, e.p, e.q) == (e.u1, e.u2)


def _all_pairs(m: int, n: int) -> list[SupportPair]:
    return [
        SupportPair(rows, cols)
        for r in range(1, m + 1)
        for rows in itertools.combinations(range(m), r)
        for c in range(1, n + 1)
        for cols in itertools.combinations(range(n), c)
    ]


class TestPruningSoundness:
    """The per-game infeasible-side record never changes a verdict: every
    route equals the unpruned check run on every pair, and a shared record
    gives the unpruned verdicts in any checking order."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(tied_games(), st.randoms(use_true_random=False))
    def test_routes_equal_unpruned_brute_force(self, g, rng):
        red = iterated_elimination(g)
        rg = red.game
        pairs = _all_pairs(rg.m, rg.n)
        plain = {sp: fp1_check(rg, sp) for sp in pairs}
        brute = sorted(
            (red.original_rows(sp.rows), red.original_cols(sp.cols))
            for sp, (ok, _) in plain.items()
            if ok
        )
        for result in (enumerate_by_supports(g), enumerate_by_gr(g), enumerate_by_gi(g, g.m, g.n)):
            assert _supports(result) == brute, result.method

        rng.shuffle(pairs)
        record = InfeasibleSides()
        for sp in pairs:
            assert fp1_check(rg, sp, record) == plain[sp], sp


class TestIndexMapping:
    def test_lifted_indices_and_witnesses(self):
        # Plant a strictly dominated first row and first column around MP, so
        # the reduced indices differ from the original ones.
        g = Game.from_rows(
            [[-5, -9, -9], [0, 1, -1], [0, -1, 1]],
            [[0, 0, 0], [-9, -1, 1], [-9, 1, -1]],
        )
        oracle = enumerate_by_supports(g)
        assert _supports(oracle) == [((1, 2), (1, 2))]
        (entry,) = oracle.entries
        assert entry.p.probs == (F(0), F(1, 2), F(1, 2))
        assert entry.q.probs == (F(0), F(1, 2), F(1, 2))
        valid, report = verify_equilibrium(g, entry.p, entry.q)
        assert valid, report
