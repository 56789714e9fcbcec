"""The routes, the checker and the benchmark's stored reference against the
extreme-equilibrium oracle of `vertex_oracle`, which shares no code with
`nashcycles.lp`: a wrong "no" that the routes and `fp1_check` share shows
here."""

from __future__ import annotations

import json
from pathlib import Path

from hypothesis import given, settings

import nashcycles
from nashcycles.equilibria import enumerate_by_gi, enumerate_by_gr, enumerate_by_supports, game_hash
from nashcycles.games import Game
from nashcycles.lp import fp1_check

from conftest import bench_workloads, degenerate_game, scaled_games
from vertex_oracle import equilibrium_supports

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: The sizes of `TestDegenerateRoutes` in test_equilibria, seeded 9100 + index.
DEGENERATE_SIZES = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4))


def _masks(pairs) -> set[tuple[int, int]]:
    return {(sum(1 << i for i in rows), sum(1 << j for j in cols)) for rows, cols in pairs}


def _check(g: Game) -> set[tuple[int, int]]:
    """Assert that every route at full caps returns the oracle's set and that
    `fp1_check` without a record accepts exactly its pairs; return the set."""
    expected = equilibrium_supports(g.a, g.b)
    for result in (enumerate_by_supports(g), enumerate_by_gr(g), enumerate_by_gi(g, g.m, g.n)):
        assert _masks((e.support.rows, e.support.cols) for e in result.entries) == expected, result.method
    every = [(rows, cols) for rows in range(1, 1 << g.m) for cols in range(1, 1 << g.n)]
    assert {pair for pair in every if fp1_check(g, *pair)[0]} == expected
    return expected


class TestOracle:
    def test_named_games(self, pd, mp, bos, flat_top, one_by_one):
        assert equilibrium_supports(pd.a, pd.b) == {(0b10, 0b10)}
        assert equilibrium_supports(mp.a, mp.b) == {(0b11, 0b11)}
        assert equilibrium_supports(bos.a, bos.b) == {(0b01, 0b01), (0b10, 0b10), (0b11, 0b11)}
        assert equilibrium_supports(flat_top.a, flat_top.b) == {(0b1, 0b01), (0b1, 0b10), (0b1, 0b11)}
        assert equilibrium_supports(one_by_one.a, one_by_one.b) == {(0b1, 0b1)}

    def test_one_row_and_one_column(self):
        # Player 1 alone chooses in a 3 x 1 game, player 2 alone in a 1 x 3.
        assert equilibrium_supports([[1], [2], [2]], [[0], [0], [0]]) == {(0b010, 1), (0b100, 1), (0b110, 1)}
        assert equilibrium_supports([[0, 0, 0]], [[2, 1, 2]]) == {(1, 0b001), (1, 0b100), (1, 0b101)}


class TestRoutesAndChecker:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(scaled_games())
    def test_scaled_games(self, g):
        _check(g)

    def test_degenerate_games(self):
        for index, (m, n) in enumerate(DEGENERATE_SIZES):
            _check(degenerate_game(m, n, 9100 + index))

    def test_all_zero_game(self):
        # Every strategy pair is an equilibrium, so every support pair is one.
        zero = [[0] * 4 for _ in range(4)]
        assert len(_check(Game.from_rows(zero, zero))) == 15 * 15


class TestBenchReference:
    def test_stored_pairs_equal_the_oracle(self):
        # The `recall` gate compares runs with pairs that `enumerate_by_supports`
        # stored; check them against the independent oracle, on every stored
        # `degenerate` game and every tenth `corpus` game.
        workloads = bench_workloads()
        store = json.loads((BENCH / "reference.json").read_text())
        checked = 0
        for workload, step in (("degenerate", 1), ("corpus", 10)):
            entry = store["workloads"][workload]
            specs = workloads.panel(workload, store["seconds"])[: entry["games"]]
            for spec in specs[::step]:
                game = workloads.build_game(nashcycles, spec)
                expected = equilibrium_supports(game.a, game.b)
                stored = entry["pairs"][game_hash(game)]
                assert _masks(stored) == expected, (workload, spec)
                assert len(stored) == len(expected), (workload, spec)
                checked += 1
        assert checked == 30 + 20
