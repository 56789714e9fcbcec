"""The three pipelines, verification, and eliminable strategies."""

from __future__ import annotations

import contextlib
import importlib.util
import itertools
import json
import operator
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypothesis import example

import nashcycles
from nashcycles.cycles import cycle_basis, enumerate_support_trees, gr_support_trees
from nashcycles.domgraph import BipartiteDigraph, _bits, build_gi, build_gr
import nashcycles.equilibria as equilibria_module
from nashcycles.equilibria import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    PipelineStats,
    _Publisher,
    _mutual,
    _walk,
    eliminable_strategies,
    enumerate_by_gi,
    enumerate_by_gr,
    enumerate_by_supports,
    verify_equilibrium,
)
from nashcycles.games import (
    Game,
    MixedStrategy,
    ReducedGame,
    expected_payoffs,
    generate_random_game,
    iterated_elimination,
    pure_payoff_against,
)
import nashcycles.lp as lp_module
from nashcycles.lp import InfeasibleSides, _mask, fp1_check

from conftest import (
    bench_workloads,
    degenerate_game,
    duplicated_game,
    scaled_games,
    side_lps,
    tied_games,
)
from counting import strategies_made
import reference_walk
from vertex_oracle import equilibrium_supports

F = Fraction


def _supports(result):
    return [(e.support.rows, e.support.cols) for e in result.entries]


@contextlib.contextmanager
def _pairs_decided():
    """Yield a list that gets (rows, cols) of every pair a record is asked
    to `_decide` inside the block, which then decides each one infeasible
    and records no side: what reaches the decision past pure dominance."""
    decided = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(InfeasibleSides, "_decide", lambda record, *pair: decided.append(pair))
        yield decided


def _columns_decided(record, rows, cols):
    """The column sets of `cols` the walk decides for the row set `rows`,
    in its order, past `record`'s pure dominance."""
    with _pairs_decided() as decided:
        assert record.feasible_columns(rows, cols) == []
    return [c for _, c in decided]


def _walked_pairs(mutual, n, record):
    """The pairs the one-pass walk over the `_mutual` masks `mutual` of the
    game of `record` decides, in its order, past `record`'s pure dominance."""
    g = record.game
    assert (g.m, g.n) == (len(mutual), n)
    red = ReducedGame(g, tuple(range(g.m)), tuple(range(g.n)))
    with _pairs_decided() as decided:
        assert _walk(g, red, mutual, record, "walk", DEFAULT_BUDGET).entries == ()
    return decided


def _every_biclique(graph):
    """The walk with the record of an all-zero game, where no pure rival
    dominates anything, so nothing is dropped."""
    zero = [[0] * len(graph.right) for _ in graph.left]
    record = InfeasibleSides(Game.from_rows(zero, zero))
    return _walked_pairs(_mutual(graph), len(graph.right), record)


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
        assert result.stats.pruned == 6
        assert result.stats.feasible == 3
        assert len(result.game_hash) == 16

    def test_budget_refusal(self):
        g = generate_random_game(4, 4, 1)
        with pytest.raises(BudgetExceededError) as err:
            enumerate_by_supports(g, budget=10)
        assert err.value.candidates > 10

    def test_determinism(self, bos):
        assert enumerate_by_supports(bos) == enumerate_by_supports(bos)


# Solves on every route through the API, `solve` in text mode and `solve
# --output structured` on every route, then reads each result's hash;
# argv[1] is the file of `nashcycles gen -m 4 -n 4 --seed 7`.
_LAZY_HASH_RUN = """
import contextlib, io, json, sys
import nashcycles as nc
from nashcycles import cli
g = nc.parse_game(open(sys.argv[1]).read())
runs = [nc.enumerate_by_supports(g), nc.enumerate_by_gr(g), nc.enumerate_by_gi(g, 2, 2)]
runs.append(nc.enumerate_by_gi(g, 4, 4))
codes = [cli.main(["solve", sys.argv[1]])]
trailers = []
for method in ("supports", "gr", "gi"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(cli.main(["solve", sys.argv[1], "--method", method, "--output", "structured"]))
    trailers += [line for line in out.getvalue().splitlines() if line.startswith("stats ")]
hashes = [r.game_hash for r in runs]
loaded = sorted({"hashlib", "_hashlib"} & set(sys.modules))
print(json.dumps([codes, loaded, hashes, trailers]))
"""


class TestResultGame:
    def test_solving_loads_no_hashlib(self, tmp_path):
        # A fresh process, so no other test's import of hashlib counts.
        if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
            pytest.skip("neither _sha2 nor _sha256 imports, so game_hash falls back to hashlib")
        path = tmp_path / "g.game"
        path.write_text(nashcycles.write_game(generate_random_game(4, 4, 7)))
        src = os.path.dirname(os.path.dirname(os.path.abspath(nashcycles.__file__)))
        pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        run = subprocess.run(
            [sys.executable, "-c", _LAZY_HASH_RUN, str(path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath), check=True,
        )
        codes, loaded, hashes, trailers = json.loads(run.stdout.splitlines()[-1])
        assert (codes, loaded) == ([0] * 4, [])
        # The digest tests/test_games.py pins for this game, read through
        # the API and printed in every structured trailer.
        assert hashes == ["df26b250a560c87b"] * 4
        assert len(trailers) == 3
        assert all(" game=df26b250a560c87b " in line for line in trailers)

    def test_result_holds_the_game_as_given(self):
        # Matching pennies with a strictly dominated first row and first
        # column planted, which elimination removes.
        g = Game.from_rows(
            [[-5, -9, -9], [0, 1, -1], [0, -1, 1]],
            [[0, 0, 0], [-9, -1, 1], [-9, 1, -1]],
        )
        reduced = iterated_elimination(g).game
        assert (reduced.m, reduced.n) == (2, 2)
        for result in (*_routes(g), enumerate_by_gi(g, 1, 1)):
            assert result.game is g
            assert result.game_hash == equilibria_module.game_hash(g)
            assert result.game_hash != equilibria_module.game_hash(reduced)


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
        # On K_{m,n} the basis and trees yield every support pair, and so do
        # the bicliques the route checks, in the same order.
        for m in range(1, 7):
            for n in range(1, 7):
                graph = BipartiteDigraph.complete(m, n)
                trees = gr_support_trees(graph, cycle_basis(graph), (m, n))
                expected = sorted(_all_pairs(m, n))
                tree_pairs = {tree.support_pair(graph) for tree in trees}
                assert sorted(tree_pairs) == expected, (m, n)
                assert sorted(_every_biclique(graph)) == expected, (m, n)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(tied_games())
    def test_candidates_are_bicliques(self, g):
        # Oracle pairs <= bicliques <= the paper's support-tree candidates.
        rg = iterated_elimination(g).game
        graph = build_gr(rg)
        brute = [
            (rows, cols)
            for rows, cols in sorted(_all_pairs(rg.m, rg.n))
            if all(
                graph.succ[x] >> rg.m + y & 1 and graph.succ[rg.m + y] >> x & 1
                for x in _bits(rows)
                for y in _bits(cols)
            )
        ]
        bicliques = sorted(_every_biclique(graph))
        assert bicliques == brute
        trees = gr_support_trees(graph, cycle_basis(graph), (rg.m, rg.n))
        assert set(bicliques) <= {tree.support_pair(graph) for tree in trees}
        assert _oracle_masks(rg) <= set(bicliques)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(tied_games())
    def test_walk_drops_exactly_the_pure_rejections(self, g):
        # A fresh record rules out by pure conditional dominance alone; the
        # walk yields the bicliques it lets through and counts the rest.
        rg = iterated_elimination(g).game
        graph = build_gr(rg)
        every = sorted(_every_biclique(graph))
        pure = InfeasibleSides(rg)
        dominated = pure._responders_dominated
        expected = [(r, c) for r, c in every if not (r & dominated(0, c) or c & dominated(1, r))]
        record = InfeasibleSides(rg)
        walked = sorted(_walked_pairs(_mutual(graph), rg.n, record))
        assert walked == expected
        assert len(walked) + record.pruned == len(every)
        assert _oracle_masks(rg) <= set(walked)

    def test_biclique_walk_is_pruned(self):
        # Only the mutual arcs i <-> i: a scan of all 2^40 row sets would
        # never finish.
        size = 40
        vertices = tuple(1 << i for i in range(size))
        succ = tuple(1 << size + i for i in range(size)) + tuple(1 << i for i in range(size))
        graph = BipartiteDigraph(vertices, vertices, succ)
        assert _every_biclique(graph) == [(1 << i, 1 << i) for i in range(size)]

    def test_budget_counts_bicliques(self, mp):
        # G_R of matching pennies is fully joined: its 3 x 3 bicliques are
        # counted in closed form before the walk.
        with pytest.raises(BudgetExceededError) as err:
            enumerate_by_gr(mp, budget=3)
        assert err.value.candidates == 9

    def test_fully_joined_graph_refuses_before_the_walk(self):
        # The count is decided before the first pair is decided, and the
        # record is never asked for a row set's column sets.
        def zero_walk(size, record, budget):
            zero = [[0] * size for _ in range(size)]
            g = Game.from_rows(zero, zero)
            red = iterated_elimination(g)
            mutual = _mutual(BipartiteDigraph.complete(size, size))
            return _walk(g, red, mutual, record or InfeasibleSides(red.game), "supports", budget)

        with pytest.raises(BudgetExceededError) as err:
            zero_walk(20, None, DEFAULT_BUDGET)
        assert (err.value.candidates, err.value.budget) == ((2**20 - 1) ** 2, DEFAULT_BUDGET)

        class NoColumnSets:
            def feasible_columns(self, rows, cols):
                raise AssertionError("the walk built a candidate it refuses")

        with pytest.raises(BudgetExceededError):
            zero_walk(3, NoColumnSets(), 48)

    def test_exact_routes_refuse_alike(self, mp):
        # supports, gr and full-caps gi refuse a fully joined game with one
        # count, decided by the one walk they share.
        zero20 = [[0] * 20 for _ in range(20)]
        tall = [[0]] * 1100
        games = (
            (mp, 3),
            (Game.from_rows(zero20, zero20), DEFAULT_BUDGET),
            (Game.from_rows(tall, tall), DEFAULT_BUDGET),
        )
        for g, budget in games:
            refusals = set()
            for route in (
                lambda: enumerate_by_supports(g, budget),
                lambda: enumerate_by_gr(g, budget),
                lambda: enumerate_by_gi(g, g.m, g.n, budget),
            ):
                with pytest.raises(BudgetExceededError) as err:
                    route()
                refusals.add((err.value.candidates, err.value.budget))
            assert refusals == {(((1 << g.m) - 1) * ((1 << g.n) - 1), budget)}

    def test_oracle_walk_refuses_a_tall_game_in_little_memory(self):
        # The oracle's walk takes the complete graph's masks, one shared int
        # per row, not K_{m,n}'s 1 << x labels (about m^2 / 2 bits, 29 MB
        # here).
        tall = [[0]] * 20000
        g = Game.from_rows(tall, tall)
        for route in (lambda: enumerate_by_supports(g), lambda: enumerate_by_gi(g, g.m, g.n)):
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceededError):
                    route()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8_000_000

    def test_budget_counts_dropped_bicliques(self):
        # G_R of this game is complete on 4 x 5 after elimination: 465
        # bicliques, of which pure dominance lets the walk build only 52.
        # The budget counts all 465, so one between the two still refuses,
        # on the closed-form count of the fully joined graph.
        g = generate_random_game(5, 5, 0)
        rg = iterated_elimination(g).game
        record = InfeasibleSides(rg)
        assert len(_walked_pairs(_mutual(build_gr(rg)), rg.n, record)) == 52
        assert record.pruned == 465 - 52
        with pytest.raises(BudgetExceededError) as err:
            enumerate_by_gr(g, budget=100)
        assert (err.value.candidates, err.value.budget) == (465, 100)
        result = enumerate_by_gr(g, budget=465)
        assert result.stats.candidates == 465
        assert result.stats == enumerate_by_supports(g).stats

    def test_budget_stops_the_walk(self):
        # G_R is complete on 20 x 20, so the walk could yield (2^20 - 1)^2
        # bicliques; it must refuse on that count before it yields one.
        zero = [[0] * 20 for _ in range(20)]
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as err:
            enumerate_by_gr(Game.from_rows(zero, zero), budget=10)
        assert err.value.candidates == (2**20 - 1) ** 2
        assert time.perf_counter() - start < 10

    def test_tall_game_refuses_on_its_count(self):
        # 1100 zero rows, then (1, -1) and (1, 0), with B zero: nothing is
        # eliminated, and G_R joins the zero rows to column 2 alone, so it
        # is not fully joined and the walk runs.  It goes 1100 row sets deep
        # before its count passes 2000; it must refuse on the count, not on
        # Python's recursion limit.
        a = [[0, 0]] * 1100 + [[1, -1], [1, 0]]
        g = Game.from_rows(a, [[0, 0]] * 1102)
        assert iterated_elimination(g).game.m == 1102
        with pytest.raises(BudgetExceededError) as err:
            enumerate_by_gr(g, budget=2000)
        assert (err.value.candidates, err.value.budget) == (2001, 2000)


class TestGiPipeline:
    def test_full_caps_match_oracle(self, pd, mp, bos, flat_top):
        for g in (pd, mp, bos, flat_top):
            oracle = enumerate_by_supports(g)
            via_gi = enumerate_by_gi(g, g.m, g.n)
            assert via_gi.support_pairs() == oracle.support_pairs()

    def test_complete_capped_graph_refuses_on_its_count(self):
        # G_I of the all-zero 5 x 5 game at k = l = 2 joins each of its 15
        # row subsets to each of its 15 column subsets, so its basis would be
        # every vertex set with equal sides: C(30, 15) - 1 classes, refused
        # before any is admitted.
        zero = [[0] * 5 for _ in range(5)]
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as err:
            enumerate_by_gi(Game.from_rows(zero, zero), 2, 2)
        assert (err.value.candidates, err.value.budget) == (155117519, DEFAULT_BUDGET)
        assert time.perf_counter() - start < 5

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

    def test_checks_refuse_candidates_past_the_budget(self):
        # 3 x 4 after elimination.  At k = l = 1 the cycle basis has 7
        # classes, within a budget of 7, but its classes and stars give 8
        # distinct candidates, so the checks refuse before any is checked.
        g = Game.from_rows(
            [[2, 1, 1, 2], [0, 0, 2, 0], [2, 1, 2, 0]], [[2, 0, 0, 2], [0, 1, 0, 1], [1, 2, 2, 1]]
        )
        rg = iterated_elimination(g).game
        assert (rg.m, rg.n) == (3, 4)
        assert len(cycle_basis(build_gi(rg, 1, 1), budget=7)) == 7

        def forbidden(*args):
            raise AssertionError("a candidate was checked before the refusal")

        with pytest.MonkeyPatch.context() as patch, pytest.raises(BudgetExceededError) as err:
            patch.setattr(equilibria_module, "fp1_check", forbidden)
            enumerate_by_gi(g, 1, 1, budget=7)
        assert (err.value.candidates, err.value.budget) == (8, 7)
        assert enumerate_by_gi(g, 1, 1, budget=8).stats == PipelineStats(8, 3, 5)


@contextlib.contextmanager
def _side_lps_without_gi_graph():
    """The (player, responders, support) of every side LP solved inside the
    block, in order, while `build_gi` and `cycle_basis` raise if
    `equilibria` calls them."""

    def forbidden(*args, **kwargs):
        raise AssertionError("full-caps gi built a subset graph or a cycle basis")

    with side_lps() as solved, pytest.MonkeyPatch.context() as patch:
        patch.setattr(equilibria_module, "build_gi", forbidden)
        patch.setattr(equilibria_module, "cycle_basis", forbidden)
        yield solved


def _check_full_caps_gi(g: Game, budget: int = DEFAULT_BUDGET) -> None:
    # Full-caps gi is the oracle's walk under its own label: the same
    # entries, stats and refusals, and the same side LPs in the same order.
    runs = []
    for route in (enumerate_by_supports, lambda g, budget: enumerate_by_gi(g, g.m, g.n, budget)):
        with _side_lps_without_gi_graph() as solved:
            try:
                result = route(g, budget)
            except BudgetExceededError as exc:
                result = (exc.candidates, exc.budget)
        runs.append((result, solved))
    (oracle, oracle_sides), (gi, gi_sides) = runs
    assert gi_sides == oracle_sides
    if isinstance(oracle, tuple):
        assert gi == oracle
        return
    rg = iterated_elimination(g).game
    assert gi.method == f"gi(k={rg.m},l={rg.n})"
    assert (gi.game_hash, gi.entries, gi.stats) == (oracle.game_hash, oracle.entries, oracle.stats)


class TestGiFullCapsWalk:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(tied_games(), st.integers(1, 300))
    def test_tied_games(self, g, budget):
        _check_full_caps_gi(g)
        _check_full_caps_gi(g, budget)

    def test_degenerate_and_smoke_games(self):
        for index, (m, n) in enumerate(TestDegenerateRoutes.SIZES):
            _check_full_caps_gi(degenerate_game(m, n, 9100 + index))
        _check_full_caps_gi(generate_random_game(4, 4, 7))

    def test_budget_refusal_costs_only_elimination(self):
        # A 6 x 6 game keeps 6 x 6 after elimination: 63^2 support pairs.  A
        # refused run solves elimination's LPs and no other.
        g = generate_random_game(6, 6, 6600)
        solves = 0
        solve_rows = lp_module._solve_rows

        def counting(*args):
            nonlocal solves
            solves += 1
            return solve_rows(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lp_module, "_solve_rows", counting)
            rg = iterated_elimination(g).game
            elimination = solves
            with pytest.raises(BudgetExceededError) as refused:
                enumerate_by_gi(g, 6, 6, budget=100)
        assert (rg.m, rg.n) == (6, 6)
        assert solves == 2 * elimination
        assert (refused.value.candidates, refused.value.budget) == (63 * 63, 100)
        with pytest.raises(BudgetExceededError) as oracle:
            enumerate_by_supports(g, budget=100)
        assert oracle.value.candidates == refused.value.candidates


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

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(tied_games(), st.data())
    def test_each_payoff_once_and_the_same_report(self, g, data):
        def strategy(owner, size):
            weights = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
            weights[data.draw(st.integers(0, size - 1))] += 1
            return MixedStrategy.from_weights(owner, weights)

        p, q = strategy(1, g.m), strategy(2, g.n)
        calls = []

        def counting(game, player, strategy, opponent):
            calls.append((player, strategy))
            return pure_payoff_against(game, player, strategy, opponent)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(equilibria_module, "pure_payoff_against", counting)
            valid, report = verify_equilibrium(g, p, q)
        assert sorted(calls) == [(1, x) for x in range(g.m)] + [(2, y) for y in range(g.n)]
        assert report == _reference_violations(g, p, q)
        assert valid == (not report)


def _reference_violations(game: Game, p: MixedStrategy, q: MixedStrategy) -> tuple[str, ...]:
    """The best-response check with every rival's payoff computed again for
    each support strategy, its messages in support, then rival, order."""
    out = []
    for x in p.support:
        own = pure_payoff_against(game, 1, x, q)
        for other in range(game.m):
            rival = pure_payoff_against(game, 1, other, q)
            if rival > own:
                out.append(f"player 1 row {x + 1} is in the support but earns {own} < {rival} of row {other + 1}")
    for y in q.support:
        own = pure_payoff_against(game, 2, y, p)
        for other in range(game.n):
            rival = pure_payoff_against(game, 2, other, p)
            if rival > own:
                out.append(
                    f"player 2 column {y + 1} is in the support but earns {own} < {rival} of column {other + 1}"
                )
    return tuple(out)


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


def _routes(g: Game):
    return (enumerate_by_supports(g), enumerate_by_gr(g), enumerate_by_gi(g, g.m, g.n))


class TestLiftedEntries:
    """Each entry is made at the lift from the checks' integer weights: its
    payoffs, read there at each matrix's scale, are those of its own
    strategies, its strategies' supports are the reported ones, and it
    passes the exact best-response check."""

    @staticmethod
    def _check_entries(g: Game) -> None:
        for result in _routes(g):
            for e in result.entries:
                assert (e.u1, e.u2) == expected_payoffs(g, e.p, e.q), result.method
                assert e.p.support == e.support.rows, result.method
                assert e.q.support == e.support.cols, result.method
                valid, report = verify_equilibrium(g, e.p, e.q)
                assert valid, report

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.one_of(tied_games(), scaled_games()))
    def test_tied_games(self, g):
        self._check_entries(g)

    def test_named_games(self, bos, mp, pd):
        for g in (bos, mp, pd):
            self._check_entries(g)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(tied_games())
    def test_checks_make_two_strategies_per_equilibrium(self, g):
        # None while solving, and at most two at first read: one strategy
        # per distinct p-side and one per distinct q-side of the run, which
        # the entries of a continuum share, and none at a second read.
        with strategies_made() as made:
            results = _routes(g)
            assert made == []
            for result in results:
                before = len(made)
                for e in result.entries:
                    e.p, e.q
                distinct = len({e.sides[0] for e in result.entries})
                distinct += len({e.sides[1] for e in result.entries})
                assert len(made) - before == distinct <= 2 * len(result.entries), result.method
                for e in result.entries:
                    e.p, e.q
                assert len(made) - before == distinct, result.method

    def test_whole_solve_makes_two_strategies_per_equilibrium(self, bos, mp, pd):
        # A whole solve makes no strategy, on the checks' route (bos, mp) and
        # the closed form's (pd, 1x1 after elimination) alike; reading p and
        # q makes one each per entry, since no two entries share a side.
        for g in (bos, mp, pd):
            with strategies_made() as made:
                results = _routes(g)
                assert made == []
                found = 0
                for result in results:
                    for e in result.entries:
                        e.p, e.q
                    found += len(result.entries)
            assert found and made == [1, 2] * found


    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(tied_games())
    def test_views_are_made_once_per_side(self, g):
        # p, q, u1 and u2 are views of the entries' sides: each distinct
        # side makes its strategy and its payoff once, at first read, and
        # the entries sharing a side share them.
        values = []
        fraction = equilibria_module.Fraction

        def counting(*args):
            values.append(args)
            return fraction(*args)

        with strategies_made() as made, pytest.MonkeyPatch.context() as patch:
            patch.setattr(equilibria_module, "Fraction", counting)
            for result in _routes(g):
                made.clear()
                values.clear()
                sides = {s for e in result.entries for s in e.sides}
                first = [(e.p, e.q, e.u1, e.u2) for e in result.entries]
                again = [(e.p, e.q, e.u1, e.u2) for e in result.entries]
                assert len(made) == len(values) == len(sides), result.method
                assert all(map(lambda a, b: all(map(operator.is_, a, b)), first, again))
                for e, f in itertools.combinations(result.entries, 2):
                    if e.sides[0] == f.sides[0]:
                        assert e.p is f.p and e.u2 is f.u2
                    if e.sides[1] == f.sides[1]:
                        assert e.q is f.q and e.u1 is f.u1


class TestPublisher:
    """A run publishes each side witness once and every entry from those:
    each entry equals the entry a fresh publisher makes of its own pair and
    witness, and its payoffs are those of its own strategies."""

    @staticmethod
    def _check_runs(g: Game) -> int:
        """Check every route's run on `g`; returns the entries checked.  A
        one-sided game's walk has no record and decides no pair: each
        route's result must be what the oracle's walk with a record
        publishes on the same reduced game."""
        runs = []
        walk = equilibria_module._walk

        def walking(original, red, *args):
            with _witnesses_found() as found:
                result = walk(original, red, *args)
            runs.append((red, found, result))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(equilibria_module, "_walk", walking)
            results = _routes(g)
        assert [result for _, _, result in runs] == list(results)
        red = iterated_elimination(g)
        if red.game.m == 1 or red.game.n == 1:
            assert all(found == [] for _, found, _ in runs)
            for index, result in enumerate(results):
                with _witnesses_found() as found:
                    walked = _walked(g, red, result.method)
                assert (result.entries, result.stats) == (walked.entries, walked.stats)
                runs[index] = (red, found, result)
        checked = 0
        for red, found, result in runs:
            alone = sorted(
                (_Publisher(red, g).entry(rows, cols, witness) for rows, cols, witness in found),
                key=lambda e: (e.support.rows, e.support.cols),
            )
            assert list(result.entries) == alone, result.method
            for e in result.entries:
                assert (e.u1, e.u2) == expected_payoffs(g, e.p, e.q), result.method
            checked += len(alone)
        return checked

    def test_seeded_tied_games(self):
        checked = 0
        for seed in range(200):
            rng = random.Random(seed)
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            checked += self._check_runs(duplicated_game(m, n, 9300 + seed, dup_row=seed % 2 == 0))
        assert checked == 4608

    def test_degenerate_panel(self):
        workloads = bench_workloads()
        specs = workloads.panel("degenerate", 60)
        assert len(specs) == 30
        checked = sum(self._check_runs(workloads.build_game(nashcycles, s)) for s in specs)
        assert checked == 1134

    def test_a_continuum_shares_its_witness(self, flat_top):
        # All three equilibria play row 1 with the unit weight, so reading
        # them makes one p and three qs, and the solve makes none.
        with strategies_made() as made:
            result = enumerate_by_supports(flat_top)
            assert made == []
            for e in result.entries:
                e.p, e.q
        assert made == [1, 2, 2, 2]
        first, *rest = result.entries
        assert all(e.p is first.p and e.u2 == first.u2 for e in rest)


def _walked(g: Game, red, method: str, budget: int = DEFAULT_BUDGET):
    """The oracle's walk on the reduced game `red` with a record, one-sided
    or not: the complete graph's pairs through `_walk` and the checks."""
    every = [(1 << red.game.n) - 1] * red.game.m
    return _walk(g, red, every, InfeasibleSides(red.game), method, budget)


@contextlib.contextmanager
def _witnesses_found():
    """Yield a list that gets (rows, cols, witness) of every feasible pair
    a record decides inside the block, in the walk or in `fp1_check`."""
    found = []
    decide = InfeasibleSides._decide

    def deciding(record, rows, cols):
        witness = decide(record, rows, cols)
        if witness is not None:
            found.append((rows, cols, witness))
        return witness

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(InfeasibleSides, "_decide", deciding)
        yield found


def _all_pairs(m: int, n: int) -> list[tuple[int, int]]:
    """Every support pair of an m x n game as bitmasks (rows, cols)."""
    return [(rows, cols) for rows in range(1, 1 << m) for cols in range(1, 1 << n)]


def _oracle_masks(game: Game) -> set[tuple[int, int]]:
    """The oracle's support pairs of an already reduced game, as bitmasks."""
    return {(_mask(sp.rows), _mask(sp.cols)) for sp in enumerate_by_supports(game).support_pairs()}


class TestPruningSoundness:
    """The per-game infeasible-side record never changes a verdict: every
    route and the check of every pair agree with the extreme-equilibrium
    oracle, which shares no code with `nashcycles.lp`, and a shared record
    gives a fresh record's answers in any checking order."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(tied_games(), st.randoms(use_true_random=False))
    def test_routes_equal_vertex_oracle(self, g, rng):
        red = iterated_elimination(g)
        rg = red.game
        expected = equilibrium_supports(rg.a, rg.b)
        lifted = sorted(
            (tuple(red.row_map[i] for i in _bits(rows)), tuple(red.col_map[j] for j in _bits(cols)))
            for rows, cols in expected
        )
        for result in (enumerate_by_supports(g), enumerate_by_gr(g), enumerate_by_gi(g, g.m, g.n)):
            assert _supports(result) == lifted, result.method

        pairs = _all_pairs(rg.m, rg.n)
        fresh = {pair: fp1_check(rg, *pair) for pair in pairs}
        assert {pair for pair, (ok, _) in fresh.items() if ok} == expected
        rng.shuffle(pairs)
        record = InfeasibleSides(rg)
        for pair in pairs:
            assert fp1_check(rg, *pair, record) == fresh[pair], pair

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(tied_games(), st.randoms(use_true_random=False))
    @example(generate_random_game(4, 4, 7), random.Random(7))
    def test_order_within_a_size_changes_nothing(self, g, rng):
        # The two-pass reference sorts by total support size only.  The same
        # candidates fed in generated, reversed and shuffled order give one
        # result, and it is the one-pass route's and that of checking in
        # (size, rows, cols) order.
        red = iterated_elimination(g)
        routes = (
            ("supports", enumerate_by_supports(g)),
            ("gr", enumerate_by_gr(g)),
            ("gi", enumerate_by_gi(g, g.m, g.n)),
        )
        for route, public in routes:
            results = []
            for arrange in (list, lambda c: c[::-1], lambda c: rng.sample(c, len(c))):
                record, candidates = reference_walk.candidates(red.game, route)
                arranged = arrange(candidates)
                results.append(reference_walk.checked(g, red, arranged, public.method, record))
            assert results[0] == results[1] == results[2] == public, route
            record, candidates = reference_walk.candidates(red.game, route)
            drawn = len(candidates) + record.pruned
            ordered = sorted(candidates, key=lambda c: (c[0].bit_count() + c[1].bit_count(), c))
            feasible = sum(fp1_check(red.game, *pair, record)[0] for pair in ordered)
            assert public.stats == PipelineStats(drawn, record.pruned, feasible), route

    def test_twins_never_rule_each_other_out(self):
        # Rows 0 and 1 are twins, and so are the columns of the mirror game:
        # a twin earns no more anywhere, so the pairs holding both survive.
        g = Game.from_rows([[1, 0], [1, 0]], [[1, 2], [2, 1]])
        mirror = Game.from_rows(list(zip(*g.b)), list(zip(*g.a)))
        expected = [((0,), (1,)), ((0, 1), (0,)), ((0, 1), (0, 1)), ((0, 1), (1,)), ((1,), (0,))]
        for result in (enumerate_by_supports(g), enumerate_by_gr(g), enumerate_by_gi(g, 2, 2)):
            assert _supports(result) == expected, result.method
        mirrored = sorted((cols, rows) for rows, cols in expected)
        for result in (enumerate_by_supports(mirror), enumerate_by_gr(mirror), enumerate_by_gi(mirror, 2, 2)):
            assert _supports(result) == mirrored, result.method
        # Twin rows keep every column set.  Twin columns both stay; a pure
        # rival row drops each singleton column set of the mirror.
        record = InfeasibleSides(g)
        assert _columns_decided(record, 0b11, 0b11) == [0b01, 0b10, 0b11]
        assert record.pruned == 0
        record = InfeasibleSides(mirror)
        assert _columns_decided(record, 0b11, 0b11) == [0b11]
        assert record.pruned == 2

    def test_walked_pairs_lie_inside_the_pure_bounds(self):
        # Every pair (R, C) the walk decides for R and all columns has C
        # inside U(x) for each row x of R, and R inside U(y) for each column y
        # of C, U being `relevancy_bound`.  A column peeled off U(x) is one
        # where a rival earns more than x while earning at least as much on
        # everything left, C included, so pure dominance drops the pair.  So
        # the walk over the graph whose rows are the bounds yields exactly
        # the oracle's pairs, in the oracle's order.
        rng = random.Random(27)
        walked = 0
        for seed in range(400):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            g = duplicated_game(m, n, 2700 + seed, seed % 2 == 0)
            record = InfeasibleSides(g)
            row_bounds = [record.relevancy_bound(1, x) for x in range(m)]
            col_bounds = [record.relevancy_bound(2, y) for y in range(n)]
            for rows in range(1, 1 << m):
                for cols in _columns_decided(record, rows, (1 << n) - 1):
                    walked += 1
                    assert all(cols & ~row_bounds[x] == 0 for x in _bits(rows)), seed
                    assert all(rows & ~col_bounds[y] == 0 for y in _bits(cols)), seed
            bound_graph = BipartiteDigraph(
                tuple(1 << x for x in range(m)),
                tuple(1 << y for y in range(n)),
                tuple(u << m for u in row_bounds) + tuple(col_bounds),
            )
            over_bounds = _walked_pairs(_mutual(bound_graph), n, InfeasibleSides(g))
            complete = _walked_pairs(_mutual(BipartiteDigraph.complete(m, n)), n, InfeasibleSides(g))
            assert over_bounds == complete, seed
        assert walked == 2848


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


def _one_sided_games() -> list[Game]:
    """Games that elimination leaves one strategy on one side: all-zero 1xn
    and mx1 games up to 8, seeded tied, duplicated-row and grid games that
    reduce to 1xk or kx1, and the classic ones that do."""
    games = []
    for k in range(1, 9):
        games.append(Game.from_rows([[0] * k], [[0] * k]))
        games.append(Game.from_rows([[0]] * k, [[0]] * k))
    for seed in range(300):
        rng = random.Random(seed)
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        games.append(duplicated_game(m, n, 9500 + seed, dup_row=seed % 2 == 0, dup_col=seed % 3 == 0))
        games.append(degenerate_game(max(m, 2), n, 9800 + seed))
        games.append(generate_random_game(m, n, 9900 + seed))
    return [g for g in games if 1 in _reduced_shape(g)]


def _reduced_shape(g: Game) -> tuple[int, int]:
    red = iterated_elimination(g).game
    return red.m, red.n


def _refusal(run) -> tuple[int, int] | None:
    """(candidates, budget) of the BudgetExceededError `run()` raises, or
    None when it returns."""
    try:
        run()
    except BudgetExceededError as exc:
        return exc.candidates, exc.budget
    return None


class TestOneSided:
    """A game that elimination leaves one strategy on one side is walked with
    no record by every exact route, and answered exactly as the oracle's
    walk and checks answer it on the same reduced game with a record:
    entries, stats and refusals."""

    GAMES = _one_sided_games()

    def test_panel_covers_both_shapes(self):
        shapes = set(map(_reduced_shape, self.GAMES))
        assert {(1, 1), (1, 8), (8, 1)} <= shapes
        assert len(self.GAMES) > 200

    def test_routes_match_the_walk(self):
        for g in self.GAMES:
            red = iterated_elimination(g)
            rg = red.game
            k = max(rg.m, rg.n)
            assert _mutual(build_gr(rg)) == [(1 << rg.n) - 1] * rg.m  # G_R is complete
            for budget in (DEFAULT_BUDGET, (1 << k) - 1, (1 << k) - 2):
                routes = (
                    ("supports", lambda: enumerate_by_supports(g, budget)),
                    ("gr", lambda: enumerate_by_gr(g, budget)),
                    (f"gi(k={rg.m},l={rg.n})", lambda: enumerate_by_gi(g, g.m, g.n, budget)),
                )
                for method, route in routes:
                    walk = lambda: _walked(g, red, method, budget)
                    expected = _refusal(walk)
                    assert _refusal(route) == expected, (method, budget)
                    if expected is None:
                        result, walked = route(), walk()
                        assert result.method == method
                        assert result.entries == walked.entries, method
                        assert result.stats == walked.stats == PipelineStats(
                            (1 << k) - 1, 0, (1 << k) - 1
                        )
                        values = [(e.p, e.q, e.u1, e.u2) for e in result.entries]
                        assert values == [(e.p, e.q, e.u1, e.u2) for e in walked.entries]
                    else:
                        assert expected == ((1 << k) - 1, budget)

    def test_no_record_graph_or_check(self):
        def forbidden(*args, **kwargs):
            raise AssertionError("a one-sided game built a record, a graph or a check")

        walk, records = equilibria_module._walk, []

        def walking(original, red, mutual, record, *args):
            records.append(record)
            return walk(original, red, mutual, record, *args)

        with pytest.MonkeyPatch.context() as patch:
            for name in (
                "InfeasibleSides", "build_gr", "fp1_check", "cycle_basis", "enumerate_support_trees"
            ):
                patch.setattr(equilibria_module, name, forbidden)
            patch.setattr(equilibria_module, "_walk", walking)
            for g in self.GAMES:
                _routes(g)
        assert records == [None] * (3 * len(self.GAMES))

    def test_capped_gi_is_not_answered_in_closed_form(self):
        g = Game.from_rows([[0] * 3], [[0] * 3])
        with _witnesses_found() as found:
            result = enumerate_by_gi(g, 1, 2)
        assert result.method == "gi(k=1,l=2)" and found

    def test_vertex_oracle_agrees(self):
        for g in self.GAMES:
            if g.m <= 5 and g.n <= 5:
                expected = equilibrium_supports(g.a, g.b)
                for result in _routes(g):
                    got = {(_mask(e.support.rows), _mask(e.support.cols)) for e in result.entries}
                    assert got == expected, result.method


@contextlib.contextmanager
def _layer_solves():
    """Yield a dict that counts the `_solve_rows` calls inside the block per
    layer: "elimination", "gr" (G_R's build) and "pairs" (the rest)."""
    counts = {"elimination": 0, "gr": 0, "pairs": 0}
    layer = ["pairs"]
    solve_rows = lp_module._solve_rows

    def counting(*args):
        counts[layer[-1]] += 1
        return solve_rows(*args)

    def in_layer(name, func):
        def run(*args):
            layer.append(name)
            try:
                return func(*args)
            finally:
                layer.pop()

        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "_solve_rows", counting)
        patch.setattr(
            equilibria_module,
            "iterated_elimination",
            in_layer("elimination", equilibria_module.iterated_elimination),
        )
        patch.setattr(equilibria_module, "build_gr", in_layer("gr", equilibria_module.build_gr))
        yield counts


def _shared_sides(result) -> list[list[int]]:
    """Per player, each entry's side as the index of the first entry that
    holds the same `EquilibriumSide` object."""
    return [
        [next(i for i, f in enumerate(result.entries) if f.sides[k] is e.sides[k]) for e in result.entries]
        for k in (0, 1)
    ]


class TestOnePassWalk:
    """The exact routes' one pass gives what the two-pass reference (every
    candidate drawn, sorted by total size, then `fp1_check`ed with one
    record) gives: entries, shared sides, stats, LPs per layer and
    refusals."""

    ROUTES = {
        "supports": lambda g, budget: enumerate_by_supports(g, budget),
        "gr": lambda g, budget: enumerate_by_gr(g, budget),
        "gi": lambda g, budget: enumerate_by_gi(g, g.m, g.n, budget),
    }

    @classmethod
    def _check(cls, g: Game, route: str, budget: int = DEFAULT_BUDGET) -> bool:
        """Check one route on `g`; returns whether it answered."""
        runs = []
        for run in (cls.ROUTES[route], lambda g, budget: reference_walk.reference_route(g, route, budget)):
            with _layer_solves() as solves:
                try:
                    result = run(g, budget)
                except BudgetExceededError as exc:
                    result = (exc.candidates, exc.budget)
            runs.append((result, solves))
        (walked, walked_solves), (reference, reference_solves) = runs
        assert walked_solves == reference_solves, route
        if isinstance(reference, tuple):
            assert walked == reference, route
            return False
        assert walked == reference, route
        assert walked.stats == reference.stats, route
        assert _shared_sides(walked) == _shared_sides(reference), route
        return True

    def test_seeded_tied_and_duplicated_games(self):
        answered = refused = 0
        for seed in range(400):
            rng = random.Random(seed)
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            g = duplicated_game(m, n, 4100 + seed, dup_row=seed % 2 == 0, dup_col=seed % 3 == 0)
            for route in self.ROUTES:
                for budget in (50, 300, DEFAULT_BUDGET):
                    if self._check(g, route, budget):
                        answered += 1
                    else:
                        refused += 1
        assert (answered, refused) == (3219, 381)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(tied_games(), st.integers(1, 300))
    def test_tied_games(self, g, budget):
        for route in self.ROUTES:
            self._check(g, route)
            self._check(g, route, budget)

    def test_bench_panels(self):
        workloads = bench_workloads()
        for workload in ("corpus", "generic", "degenerate"):
            for spec in workloads.panel(workload, 20):
                assert self._check(workloads.build_game(nashcycles, spec), spec.route), (workload, spec)

    def test_gr_refuses_the_twins_game_in_little_memory(self):
        # 3996 rows of (0, 0), then (1, -1) and (1, 0), with B zero: nothing
        # is eliminated and G_R is not fully joined, so a first pass counts
        # the pairs and refuses before the walk decides any.
        a = [[0, 0]] * 3996 + [[1, -1], [1, 0]]
        g = Game.from_rows(a, [[0, 0]] * 3998)

        def forbidden(*args):
            raise AssertionError("a pair reached a side decision before the refusal")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(InfeasibleSides, "_decide", forbidden)
            patch.setattr(InfeasibleSides, "feasible_columns", forbidden)
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceededError) as err:
                    enumerate_by_gr(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (err.value.candidates, err.value.budget) == (DEFAULT_BUDGET + 1, DEFAULT_BUDGET)
        assert peak < 32_000_000


class TestTallGames:
    """Tall games cost every exact route memory linear in the rows: each
    peak stays below the m^2 / 8 bytes of an m x m bit matrix."""

    M = 8000

    @staticmethod
    def _peak(route):
        """`route()`'s result, or its refusal, and its tracemalloc peak."""
        tracemalloc.start()
        try:
            try:
                result = _supports(route())
            except BudgetExceededError as exc:
                result = (exc.candidates, exc.budget)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Per game: its payoffs A and B, budget, and answer or refusal.
    GAMES = {
        # All-zero m x 1, refused at budget 2000.
        "zero": lambda m: ([[0]] * m, [[0]] * m, 2000, ((1 << m) - 1, 2000)),
        # m - 1 zero rows, then a row earning 1, with B zero.
        "dom": lambda m: ([[0]] * (m - 1) + [[1]], [[0]] * m, DEFAULT_BUDGET, [((m - 1,), (0,))]),
        # Row (5, 0), then m - 2 zero rows, then (1, 1), with every B row (1, 0).
        "pareto": lambda m: (
            [[5, 0]] + [[0, 0]] * (m - 2) + [[1, 1]], [[1, 0]] * m, DEFAULT_BUDGET, [((0,), (0,))]
        ),
    }

    @pytest.mark.parametrize("name", list(GAMES))
    def test_tall_game_in_linear_memory(self, name):
        m = self.M
        a, b, budget, expected = self.GAMES[name](m)
        g = Game.from_rows(a, b)
        for route in (
            lambda: enumerate_by_supports(g, budget),
            lambda: enumerate_by_gr(g, budget),
            lambda: enumerate_by_gi(g, g.m, g.n, budget),
        ):
            result, peak = self._peak(route)
            assert result == expected
            assert peak < m * m // 8


def _size_sorted_candidates(graph, basis):
    """The capped `gi` candidates smallest total support first (a stable
    sort) rather than in the walk's order by mask pair."""
    pairs = enumerate_support_trees(graph, basis)
    return sorted(pairs, key=lambda pair: pair[0].bit_count() + pair[1].bit_count())


class TestCappedOrder:
    """Capped `gi` checks its candidates by mask pair, the walk's order: each
    (R', C) with R' inside R and (R, C') with C' inside C still comes before
    (R, C), so it answers as checking by total support size does: entries,
    shared sides, stats, LPs per layer and refusals."""

    @staticmethod
    def _check(g: Game, k: int, l: int, budget: int = 2**14) -> bool:
        """Check capped `gi` on `g`; returns whether it answered."""
        runs = []
        for candidates in (equilibria_module.enumerate_support_trees, _size_sorted_candidates):
            with pytest.MonkeyPatch.context() as patch, _layer_solves() as solves:
                patch.setattr(equilibria_module, "enumerate_support_trees", candidates)
                try:
                    result = enumerate_by_gi(g, k, l, budget)
                except BudgetExceededError as exc:
                    result = (exc.candidates, exc.budget)
            runs.append((result, solves))
        (by_mask, by_mask_solves), (by_size, by_size_solves) = runs
        assert by_mask_solves == by_size_solves
        assert by_mask == by_size
        if isinstance(by_size, tuple):
            return False
        assert by_mask.stats == by_size.stats
        assert _shared_sides(by_mask) == _shared_sides(by_size)
        return True

    def test_gi_capped_panel(self):
        for seed in range(3):
            assert self._check(generate_random_game(5, 5, seed), 2, 2), seed

    def test_seeded_tied_games(self):
        # Each capped run at budget 2^14, and at 16, where the cycle basis
        # refuses 18 of the 29.
        answered = refused = 0
        for seed in range(36):
            rng = random.Random(seed)
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            g = duplicated_game(m, n, 4200 + seed, dup_row=seed % 2 == 0, dup_col=seed % 3 == 0)
            rg = iterated_elimination(g).game
            for k, l in ((2, 2), (2, 3)):
                if k < rg.m or l < rg.n:
                    for budget in (2**14, 16):
                        if self._check(g, k, l, budget):
                            answered += 1
                        else:
                            refused += 1
        assert (answered, refused) == (40, 18)
