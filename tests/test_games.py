"""Game model: parsing, serialization, payoffs, random generation, elimination."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nashcycles.games import (
    Game,
    GameFormatError,
    MixedStrategy,
    expected_payoffs,
    generate_random_game,
    is_best_response,
    iterated_elimination,
    parse_game,
    write_game,
)
from nashcycles.lp import lp1_dominance

from conftest import degenerate_game

F = Fraction


class TestParsing:
    def test_pd_from_plain_text(self, pd):
        parsed = parse_game("2 2\n3 0\n5 1\n3 5\n0 1\n")
        assert parsed == pd

    def test_one_by_one(self):
        g = parse_game("1 1\n7\n7\n")
        assert g.m == 1 and g.n == 1
        assert g.a == ((F(7),),) and g.b == ((F(7),),)

    def test_matching_pennies_zero_sum(self, mp):
        parsed = parse_game("2 2\n1 -1\n-1 1\n-1 1\n1 -1\n")
        assert parsed == mp
        for x in range(2):
            for y in range(2):
                assert parsed.b[x][y] == -parsed.a[x][y]

    def test_comments_and_blank_lines_ignored(self, pd):
        text = "# a game\n\n2 2\n# A\n3 0\n5 1\n\n# B\n3 5\n0 1\n"
        assert parse_game(text) == pd

    def test_fraction_and_decimal_tokens_exact(self):
        g = parse_game("1 2\n1/3 0.25\n-0.5 7/2\n")
        assert g.a[0] == (F(1, 3), F(1, 4))
        assert g.b[0] == (F(-1, 2), F(7, 2))

    def test_bytes_input(self, pd):
        assert parse_game(write_game(pd).encode()) == pd

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("", 1),
            ("junk\n", 1),
            ("2 2\n1 2 3\n1 2\n1 2\n1 2\n", 2),
            ("2 2\n1 2\n1 2\n1 2\n", 4),
            ("1 1\nfoo\n1\n", 2),
            ("1 1\n1/0\n1\n", 2),
            ("0 2\n", 1),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line_no):
        with pytest.raises(GameFormatError) as err:
            parse_game(text)
        assert err.value.line == line_no
        assert f"line {line_no}" in str(err.value)


class TestWriting:
    def test_round_trip_named_games(self, pd, mp, one_by_one):
        for g in (pd, mp, one_by_one):
            assert parse_game(write_game(g)) == g

    def test_one_by_one_format(self, one_by_one):
        assert write_game(one_by_one) == "1 1\n7\n7\n"

    def test_round_trip_random_games(self):
        for seed in range(5):
            g = generate_random_game(3, 4, seed)
            assert parse_game(write_game(g)) == g


class TestRandomGames:
    def test_deterministic(self):
        assert generate_random_game(2, 2, 1) == generate_random_game(2, 2, 1)

    def test_distinct_across_seeds(self):
        games = [generate_random_game(7, 7, k) for k in range(1, 11)]
        for i in range(len(games)):
            for j in range(i + 1, len(games)):
                assert games[i] != games[j]

    def test_entries_on_grid(self):
        g = generate_random_game(1, 1, 99)
        for matrix in (g.a, g.b):
            value = matrix[0][0]
            assert 0 <= value <= 1
            assert (value * 1000).denominator == 1


class TestPayoffs:
    def test_matching_pennies_uniform(self, mp):
        half = MixedStrategy.uniform(1, 2), MixedStrategy.uniform(2, 2)
        assert expected_payoffs(mp, *half) == (0, 0)

    def test_bos_mixed(self, bos):
        p = MixedStrategy(1, (F(2, 3), F(1, 3)))
        q = MixedStrategy(2, (F(1, 3), F(2, 3)))
        assert expected_payoffs(bos, p, q) == (F(2, 3), F(2, 3))

    def test_pd_pure(self, pd):
        p = MixedStrategy.pure(1, 1, 2)
        q = MixedStrategy.pure(2, 1, 2)
        assert expected_payoffs(pd, p, q) == (1, 1)

    def test_dimension_mismatch(self, pd):
        with pytest.raises(ValueError):
            expected_payoffs(pd, MixedStrategy.uniform(1, 3), MixedStrategy.uniform(2, 2))

    def test_bilinearity(self):
        rng = random.Random(5)
        for _ in range(20):
            g = generate_random_game(3, 3, rng.randrange(10**6))
            lam = F(rng.randint(0, 8), 8)
            p1 = MixedStrategy(1, (F(1, 2), F(1, 4), F(1, 4)))
            p2 = MixedStrategy(1, (F(0), F(1, 3), F(2, 3)))
            q = MixedStrategy(2, (F(1, 6), F(1, 2), F(1, 3)))
            if lam in (0, 1):
                continue
            mix = MixedStrategy(
                1, tuple(lam * a + (1 - lam) * b for a, b in zip(p1.probs, p2.probs))
            )
            u_mix = expected_payoffs(g, mix, q)
            u1 = expected_payoffs(g, p1, q)
            u2 = expected_payoffs(g, p2, q)
            assert u_mix[0] == lam * u1[0] + (1 - lam) * u2[0]
            assert u_mix[1] == lam * u1[1] + (1 - lam) * u2[1]


class TestMixedStrategy:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MixedStrategy(1, (F(3, 2), F(-1, 2)))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            MixedStrategy(1, (F(1, 2), F(1, 3)))

    def test_support(self):
        s = MixedStrategy(1, (F(1, 2), F(0), F(1, 2)))
        assert s.support == (0, 2)


class TestBestResponse:
    def test_mp_row1_vs_pure(self, mp):
        assert is_best_response(mp, 1, 0, MixedStrategy.pure(2, 0, 2))
        assert not is_best_response(mp, 1, 0, MixedStrategy.pure(2, 1, 2))

    def test_bos_indifference(self, bos):
        q = MixedStrategy(2, (F(1, 3), F(2, 3)))
        assert is_best_response(bos, 1, 0, q)
        assert is_best_response(bos, 1, 1, q)


class TestIteratedElimination:
    def test_pd_reduces_to_defect(self, pd):
        red = iterated_elimination(pd)
        assert (red.game.m, red.game.n) == (1, 1)
        assert red.row_map == (1,) and red.col_map == (1,)
        assert red.game.a == ((F(1),),) and red.game.b == ((F(1),),)

    def test_mp_unchanged(self, mp):
        red = iterated_elimination(mp)
        assert red.game == mp
        assert red.row_map == (0, 1) and red.col_map == (0, 1)

    def test_pointwise_dominated_rows_removed(self):
        g = Game.from_rows(
            [[3, 3], [1, 1], [2, 0]],
            [[0, 0], [0, 0], [0, 0]],
        )
        red = iterated_elimination(g)
        assert red.row_map == (0,)
        assert red.col_map == (0, 1)

    def test_idempotent(self, pd):
        once = iterated_elimination(pd)
        twice = iterated_elimination(once.game)
        assert twice.game == once.game
        for seed in range(4):
            g = generate_random_game(4, 4, 2000 + seed)
            red = iterated_elimination(g)
            again = iterated_elimination(red.game)
            assert again.game == red.game

    def test_maps_reproduce_submatrices(self):
        for seed in range(4):
            g = generate_random_game(4, 5, 3000 + seed)
            red = iterated_elimination(g)
            for i, x in enumerate(red.row_map):
                for j, y in enumerate(red.col_map):
                    assert red.game.a[i][j] == g.a[x][y]
                    assert red.game.b[i][j] == g.b[x][y]

    def test_no_survivor_dominated(self):
        for seed in range(4):
            g = generate_random_game(4, 4, 4000 + seed)
            red = iterated_elimination(g).game
            for x in range(red.m):
                assert not lp1_dominance(red, 1, x)[0]
            for y in range(red.n):
                assert not lp1_dominance(red, 2, y)[0]

    def test_order_independence(self):
        # Randomized removal schedules must land on the same index sets.
        def eliminate_shuffled(game, rng):
            rows = list(range(game.m))
            cols = list(range(game.n))
            current = game
            while True:
                candidates = []
                for x in range(current.m):
                    if current.m > 1 and lp1_dominance(current, 1, x)[0]:
                        candidates.append((1, x))
                for y in range(current.n):
                    if current.n > 1 and lp1_dominance(current, 2, y)[0]:
                        candidates.append((2, y))
                if not candidates:
                    return tuple(rows), tuple(cols)
                player, idx = rng.choice(candidates)
                if player == 1:
                    del rows[idx]
                else:
                    del cols[idx]
                current = Game.from_rows(
                    [[game.a[x][y] for y in cols] for x in rows],
                    [[game.b[x][y] for y in cols] for x in rows],
                )

        rng = random.Random(17)
        games = [Game.from_rows([[3, 0], [5, 1]], [[3, 5], [0, 1]])]
        games += [generate_random_game(4, 4, 5000 + k) for k in range(4)]
        sizes = ((3, 3), (4, 3), (4, 4), (5, 5))
        games += [degenerate_game(*sizes[k % 4], 5100 + k) for k in range(40)]
        for g in games:
            red = iterated_elimination(g)
            expected = (red.row_map, red.col_map)
            for _ in range(3):
                assert eliminate_shuffled(g, rng) == expected
