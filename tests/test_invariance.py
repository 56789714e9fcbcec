"""Relabelling, swapping the players and rescaling the payoffs change the
equilibrium support pairs only as the relabelling says.

The vertex oracle runs up to 5x5; these properties check the routes at full
caps on 5x5 to 8x8 games, where nothing else checks their answers.  A
relabelling changes Bland's order, the walk's order and the order in which
the run's record fills, so a wrong "no" that depends on order shows here.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nashcycles.equilibria import enumerate_by_gi, enumerate_by_gr, enumerate_by_supports
from nashcycles.games import Game, generate_random_game

from conftest import duplicated_game

ROUTES = {
    "supports": enumerate_by_supports,
    "gr": enumerate_by_gr,
    "gi": lambda g: enumerate_by_gi(g, g.m, g.n),
}

# Six grid games and six tied games with a duplicated row, 5x5 to 8x8.
_SIZES = ((5, 5), (6, 5), (5, 7), (6, 6), (7, 6), (8, 8))
GAMES = [generate_random_game(m, n, 2700 + i) for i, (m, n) in enumerate(_SIZES)]
GAMES += [duplicated_game(m, n, 2800 + i) for i, (m, n) in enumerate(_SIZES)]


def _pairs(route: str, game: Game) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    return {(e.support.rows, e.support.cols) for e in ROUTES[route](game).entries}


def _relabel(pairs, row_of, col_of):
    return {
        (tuple(sorted(row_of[x] for x in rows)), tuple(sorted(col_of[y] for y in cols)))
        for rows, cols in pairs
    }


@pytest.fixture(scope="module")
def expected():
    """Each game's support pairs, which all three routes must agree on."""
    out = []
    for game in GAMES:
        found = {route: _pairs(route, game) for route in ROUTES}
        assert found["gr"] == found["gi"] == found["supports"]
        out.append(found["supports"])
    return out


@pytest.mark.parametrize("route", ROUTES)
def test_permuting_strategies_permutes_the_pairs(route, expected):
    rng = random.Random(27)
    for game, pairs in zip(GAMES, expected):
        rows, cols = rng.sample(range(game.m), game.m), rng.sample(range(game.n), game.n)
        # Strategy i of the permuted game is strategy rows[i] of the game.
        permuted = Game.from_rows(
            [[game.a[x][y] for y in cols] for x in rows],
            [[game.b[x][y] for y in cols] for x in rows],
        )
        row_of = {x: i for i, x in enumerate(rows)}
        col_of = {y: j for j, y in enumerate(cols)}
        assert _pairs(route, permuted) == _relabel(pairs, row_of, col_of)


@pytest.mark.parametrize("route", ROUTES)
def test_swapping_the_players_swaps_each_pair(route, expected):
    for game, pairs in zip(GAMES, expected):
        swapped = Game.from_rows(
            [[game.b[x][y] for x in range(game.m)] for y in range(game.n)],
            [[game.a[x][y] for x in range(game.m)] for y in range(game.n)],
        )
        assert _pairs(route, swapped) == {(cols, rows) for rows, cols in pairs}


@pytest.mark.parametrize("route", ROUTES)
def test_positive_affine_payoffs_change_nothing(route, expected):
    scale_a, shift_a = Fraction(3, 7), Fraction(-5, 2)
    scale_b, shift_b = Fraction(11, 4), Fraction(4, 9)
    for game, pairs in zip(GAMES, expected):
        rescaled = Game.from_rows(
            [[scale_a * v + shift_a for v in row] for row in game.a],
            [[scale_b * v + shift_b for v in row] for row in game.b],
        )
        assert _pairs(route, rescaled) == pairs
