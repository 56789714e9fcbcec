"""Game model: parsing, serialization, payoffs, random generation, elimination."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashcycles.games import (
    Game,
    GameFormatError,
    MixedStrategy,
    ReducedGame,
    SupportPair,
    expected_payoffs,
    generate_random_game,
    is_best_response,
    parse_game,
    pure_payoff_against,
    write_game,
)
import nashcycles
from nashcycles import domgraph, lp
from nashcycles.domgraph import iterated_elimination
from nashcycles.equilibria import game_hash
from nashcycles.lp import lp1_dominance

from conftest import degenerate_game, duplicated_game, scaled_games, tied_games

F = Fraction


def _lp_counts(run):
    """run()'s result and the [LPs, pivots] the simplex made during it."""
    counts = [0, 0]
    solve_rows, pivot = lp._solve_rows, lp._pivot

    def counted_solve(*args):
        counts[0] += 1
        return solve_rows(*args)

    def counted_pivot(*args):
        counts[1] += 1
        return pivot(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_solve_rows", counted_solve)
        patch.setattr(lp, "_pivot", counted_pivot)
        return run(), counts


def _two_column_reference(vectors, x: int) -> tuple[int, int] | None:
    """The first pair (near, y) of columns with a mixture to which row x of
    `vectors` responds best, or None: near is x's least-deficit column and y
    runs over the others in order.  A mixture t * e_near + (1 - t) * e_y is
    tried, in `Fraction`s, at every point where a row ties x and halfway
    between neighbouring ones: x's best-response set on the pair is an
    interval with such ends, so it holds one of them when it is not empty."""
    own = vectors[x]
    cols = range(len(own))
    top = [max(row[y] for row in vectors) for y in cols]
    near = min(cols, key=lambda y: top[y] - own[y])
    for y in cols:
        if y == near:
            continue
        ties = {F(0), F(1)}
        for row in vectors:
            slope = (row[near] - own[near]) - (row[y] - own[y])
            if slope:
                t = F(own[y] - row[y], slope)
                if 0 < t < 1:
                    ties.add(t)
        ends = sorted(ties)
        points = [t for t in ends if 0 < t < 1] + [(u + v) / 2 for u, v in zip(ends, ends[1:])]
        for t in points:
            payoffs = [t * row[near] + (1 - t) * row[y] for row in vectors]
            if payoffs[x] == max(payoffs):
                return near, y
    return None


def _dominating_mixture(first, second, own) -> Fraction | None:
    """A t in [0, 1] with t * first + (1 - t) * second strictly above `own`
    everywhere, or None.  Tried in `Fraction`s at 0 and 1, at every point
    where a column's lead is zero and halfway between neighbouring ones: the
    t that dominate form an interval, open in [0, 1], with such ends."""
    ties = {F(0), F(1)}
    for a, b, v in zip(first, second, own):
        if a != b and 0 < F(v - b, a - b) < 1:
            ties.add(F(v - b, a - b))
    ends = sorted(ties)
    for t in ends + [(u + w) / 2 for u, w in zip(ends, ends[1:])]:
        if all(t * a + (1 - t) * b > v for a, b, v in zip(first, second, own)):
            return t
    return None


def _two_row_reference(vectors, x: int) -> bool:
    """Whether a mixture of the anchor and another rival earns strictly more
    than row x of `vectors` on every column: the anchor is the first rival
    whose smallest lead over x is largest."""
    own = vectors[x]
    rivals = [r for r in range(len(vectors)) if r != x]
    anchor = max(rivals, key=lambda r: min(a - v for a, v in zip(vectors[r], own)))
    return any(
        _dominating_mixture(vectors[anchor], vectors[r], own) is not None
        for r in rivals
        if r != anchor
    )


def _reference_elimination(game: Game) -> ReducedGame:
    """The same removal schedule with a validated subgame `Game` per removal,
    the two-column and two-row tests on its rows, and `lp1_dominance` on it
    for each strategy the pure, two-column and two-row tests leave open."""
    kept = {1: list(range(game.m)), 2: list(range(game.n))}
    witness_support: dict[int, dict[int, frozenset[int]]] = {1: {}, 2: {}}
    stale = {1: list(kept[1]), 2: list(kept[2])}
    current = game
    while stale[1] or stale[2]:
        for player in (1, 2):
            opponent = 2 if player == 1 else 1
            todo, stale[player] = stale[player], []
            for s in todo:
                own, others = kept[player], kept[opponent]
                i = own.index(s)
                vectors = current.int_payoffs[player - 1][1]
                mine = vectors[i]
                reply = next(
                    (y for y, v in enumerate(mine) if all(r[y] <= v for r in vectors)), None
                )
                if reply is not None:
                    witness_support[player][s] = frozenset((others[reply],))
                    continue
                if not any(all(r > v for r, v in zip(rival, mine)) for rival in vectors):
                    pair = _two_column_reference(vectors, i)
                    if pair is not None:
                        witness_support[player][s] = frozenset(others[j] for j in pair)
                        continue
                    if not _two_row_reference(vectors, i):
                        dominated, witness = lp1_dominance(current, player, i)
                        if not dominated:
                            support = frozenset(others[j] for j in witness.support)
                            witness_support[player][s] = support
                            continue
                own.remove(s)
                current = Game.from_rows(
                    [[game.a[x][y] for y in kept[2]] for x in kept[1]],
                    [[game.b[x][y] for y in kept[2]] for x in kept[1]],
                )
                for t, used in list(witness_support[opponent].items()):
                    if s in used:
                        del witness_support[opponent][t]
                        stale[opponent].append(t)
    return ReducedGame(current, tuple(kept[1]), tuple(kept[2]))


def _lp_only_survivors(game: Game) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The surviving rows and columns when `lp1_dominance` on the current
    subgame removes one dominated strategy at a time until none is left."""
    kept = [list(range(game.m)), list(range(game.n))]
    removed = True
    while removed:
        removed = False
        current = Game.from_rows(
            [[game.a[x][y] for y in kept[1]] for x in kept[0]],
            [[game.b[x][y] for y in kept[1]] for x in kept[0]],
        )
        for player in (1, 2):
            own = kept[player - 1]
            i = next((i for i in range(len(own)) if lp1_dominance(current, player, i)[0]), None)
            if i is not None:
                del own[i]
                removed = True
                break
    return tuple(kept[0]), tuple(kept[1])


def _recorded_fronts(monkeypatch) -> list[set[int]]:
    """A list that gets every front `iterated_elimination` makes, in order."""
    fronts = []
    make = domgraph._pareto_front

    def recording(*args):
        front = make(*args)
        fronts.append(set(front))  # a copy: elimination discards from the front
        return front

    monkeypatch.setattr(domgraph, "_pareto_front", recording)
    return fronts


def _assert_matches_reference(game: Game) -> tuple[ReducedGame, int]:
    """Elimination and the reference agree on the reduced game, its index
    maps, the LP count and the pivot count.  Returns (reduced, LP count)."""
    red, counts = _lp_counts(lambda: iterated_elimination(game))
    ref, ref_counts = _lp_counts(lambda: _reference_elimination(game))
    assert (red.game, red.row_map, red.col_map) == (ref.game, ref.row_map, ref.col_map)
    assert counts == ref_counts
    return red, counts[0]


@st.composite
def _dominated_fraction_games(draw) -> Game:
    """A tied game plus one row and one column, at drawn positions, that
    hold all its non-integer payoffs: every other row earns player 1 more
    than the new row, and every other column earns player 2 more than the
    new column, so elimination removes both."""
    game = draw(tied_games())
    part = st.builds(lambda k, d: k + F(1, d), st.integers(0, 3), st.integers(2, 9))
    a = [[*row, draw(part)] for row in game.a]
    b = [[*row, min(row) - draw(part)] for row in game.b]
    a.append([min(col) - draw(part) for col in zip(*a)])
    new_b = [draw(part) for _ in range(game.n)]
    b.append([*new_b, min(new_b) - draw(part)])
    r, c = draw(st.integers(0, game.m)), draw(st.integers(0, game.n))

    def move(matrix):
        matrix.insert(r, matrix.pop())
        return [[*row[:c], row[-1], *row[c:-1]] for row in matrix]

    return Game.from_rows(move(a), move(b))


@st.composite
def _tokens(draw) -> str:
    """Payoff tokens: signs, ``p/q`` (with signed or zero denominators),
    decimals, exponents, underscores, non-ASCII digits and stray text."""
    digit = st.sampled_from("0123456789" * 4 + "_٣१１߁")
    digits = st.text(digit, max_size=4)
    sign = st.sampled_from(["", "", "-", "+"])
    num = st.builds(lambda s, d: s + d, sign, digits)
    form = draw(st.sampled_from(["int", "ratio", "decimal", "exponent", "junk"]))
    if form == "int":
        token = draw(num)
    elif form == "ratio":
        token = draw(num) + "/" + draw(num)
    elif form == "decimal":
        token = draw(num) + "." + draw(digits)
    elif form == "exponent":
        mantissa = draw(num) + draw(st.sampled_from(["", "."])) + draw(digits)
        token = mantissa + draw(st.sampled_from("eE")) + draw(num)
    else:
        token = draw(st.text(st.sampled_from("0123456789-+/._eExinfa"), max_size=6))
    return token or "0"


def _assert_read_as_fraction(token: str) -> None:
    """The token is read to Fraction(token)'s value, or refused with the
    message that names Fraction's error, on the token's line."""
    text = f"1 1\n{token}\n0\n"
    try:
        expected = Fraction(token)
    except ZeroDivisionError:
        message = f"line 2: zero denominator in {token!r}"
    except ValueError:
        message = f"line 2: non-numeric token {token!r}"
    else:
        game = parse_game(text)
        assert game.a[0][0] == expected
        assert game == Game.from_rows([[expected]], [[0]])
        return
    with pytest.raises(GameFormatError) as err:
        parse_game(text)
    assert (str(err.value), err.value.line) == (message, 2)


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
            ("2 x\n", 1),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line_no):
        with pytest.raises(GameFormatError) as err:
            parse_game(text)
        assert err.value.line == line_no
        assert f"line {line_no}" in str(err.value)

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(_tokens())
    def test_tokens_read_as_fraction_reads_them(self, token):
        _assert_read_as_fraction(token)

    @pytest.mark.parametrize(
        "token",
        ["1/-2", "1/+2", "0/0", "-0/0", "1_0/3", "1__0", "1_0", "._5", ".-5", "-.", "5.", "-.5",
         "1e", "1E-2", "١٢/٣", "１.５"],
    )
    def test_token_edge_cases(self, token):
        _assert_read_as_fraction(token)

    def test_integer_paths_make_no_fraction(self, monkeypatch):
        # Parsing ints, p/q and decimals, generating, eliminating and
        # writing never build a Fraction.
        expected = generate_random_game(4, 5, 11)
        scale, rows = expected.int_payoffs[0]
        thousandths = [[v * (1000 // scale) for v in row] for row in rows]
        lines = write_game(expected).splitlines()
        lines[1 : 1 + expected.m] = [
            " ".join(f"{k // 1000}.{k % 1000:03d}" for k in row) for row in thousandths
        ]
        monkeypatch.setattr("nashcycles.games.Fraction", None)
        game = parse_game("\n".join(lines))
        assert generate_random_game(4, 5, 11) == game == expected
        assert write_game(iterated_elimination(game).game)


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

    def test_round_trip_negative_and_fractional_text(self):
        text = "2 3\n-1/2 3 0\n7/3 -4 -5/6\n1/4 -1 2/9\n0 -7/8 12\n"
        assert write_game(parse_game(text)) == text
        assert parse_game(text).b[1] == (F(0), F(-7, 8), F(12))

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_round_trip_negative_and_fractional_games(self, m, n, data):
        entry = st.fractions(-5, 5, max_denominator=12)
        a, b = ([[data.draw(entry) for _ in range(n)] for _ in range(m)] for _ in "ab")
        g = Game.from_rows(a, b)
        text = write_game(g)
        assert parse_game(text) == g
        assert write_game(parse_game(text)) == text
        assert text.splitlines()[1:] == [" ".join(map(str, row)) for row in a + b]


class TestGameHash:
    """The stats trailer prints `game_hash`, so these values are pinned."""

    def test_cli_smoke_game(self):
        # `nashcycles gen -m 4 -n 4 --seed 7`
        assert game_hash(generate_random_game(4, 4, 7)) == "df26b250a560c87b"

    def test_tied_game(self):
        text = "4 4\n0 1 2 1\n2 0 0 1\n0 2 2 0\n0 1 2 1\n1 0 0 2\n1 2 0 0\n1 1 1 2\n1 0 0 2\n"
        assert game_hash(parse_game(text)) == "f15476c947ad8c44"

    def test_decimal_fraction_and_negative_tokens(self):
        text = "2 3\n-1/2 0.25 3\n-7/4 1.125 -2\n2.5 -1/3 0\n4 -3/6 -0.75\n"
        assert game_hash(parse_game(text)) == "40b5bb44eb5996a3"

    def test_digest_is_hashlib_sha256(self):
        # game_hash takes CPython's built-in SHA-256 when it can; its digest
        # is hashlib's, on negative and fractional, tied and tall games.
        rng = random.Random(35)
        entry = lambda: F(rng.randint(-9, 9), rng.randint(1, 12))
        played = []
        for seed in range(10):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            played.append(generate_random_game(m, n, 3500 + seed))
            played.append(Game.from_rows(
                *([[entry() for _ in range(n)] for _ in range(m)] for _ in "ab")
            ))
            played.append(degenerate_game(max(m, 2), n, 3500 + seed))
            tall = rng.randint(50, 400)
            played.append(Game.from_rows(
                *([[rng.randint(-1, 1) for _ in range(n)] for _ in range(tall)] for _ in "ab")
            ))
        assert len(set(played)) == 40
        for g in played:
            assert game_hash(g) == hashlib.sha256(write_game(g).encode()).hexdigest()[:16]

    def test_digest_tries_no_import_per_call(self, monkeypatch):
        # A failed import is not cached: it searches sys.path on every try,
        # so game_hash must not try `_sha2` per call where it is missing.
        g = generate_random_game(4, 4, 7)
        game_hash(g)
        asked = []

        class Recorder:
            def find_spec(self, name, path=None, target=None):
                asked.append(name)

        monkeypatch.setattr(sys, "meta_path", [Recorder(), *sys.meta_path])
        for _ in range(3):
            game_hash(g)
        assert asked == []

    def test_hashlib_fallback(self):
        # Without either built-in module game_hash takes hashlib's SHA-256,
        # which gives the pinned digests.
        run = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from nashcycles.equilibria import game_hash
from nashcycles.games import generate_random_game, parse_game
hashes = [game_hash(generate_random_game(4, 4, 7))]
hashes += [game_hash(parse_game(text)) for text in sys.argv[1:]]
print(json.dumps([hashes, "_hashlib" in sys.modules]))
"""
        texts = (
            "4 4\n0 1 2 1\n2 0 0 1\n0 2 2 0\n0 1 2 1\n1 0 0 2\n1 2 0 0\n1 1 1 2\n1 0 0 2\n",
            "2 3\n-1/2 0.25 3\n-7/4 1.125 -2\n2.5 -1/3 0\n4 -3/6 -0.75\n",
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(nashcycles.__file__)))
        pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c", run, *texts],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath), check=True,
        ).stdout
        hashes, openssl = json.loads(out.splitlines()[-1])
        assert hashes == ["df26b250a560c87b", "f15476c947ad8c44", "40b5bb44eb5996a3"]
        assert openssl


class TestGame:
    def test_one_value_one_game(self):
        halves = [F(1, 2), F(2, 4), "1/2", "2/4", "0.5", "+5e-1"]
        games = [Game.from_rows([[v, 1]], [[0, v]]) for v in halves]
        games.append(parse_game("1 2\n2/4 1\n0 0.5\n"))
        assert all(g == games[0] for g in games)
        assert len({hash(g) for g in games}) == 1
        assert len({game_hash(g) for g in games}) == 1
        assert games[0].int_payoffs == ((2, ((1, 2),)), (2, ((0,), (1,))))

    def test_views(self):
        g = Game.from_rows([[F(1, 3), -2], ["0.25", 0]], [[1, 2], [3, F(4, 6)]])
        assert (g.m, g.n) == (2, 2)
        assert g.a == ((F(1, 3), F(-2)), (F(1, 4), F(0)))
        assert g.b == ((F(1), F(2)), (F(3), F(2, 3)))
        assert g.int_payoffs == ((12, ((4, -24), (3, 0))), (3, ((3, 9), (6, 2))))

    def test_from_rows_refuses(self):
        with pytest.raises(TypeError, match="not floats"):
            Game.from_rows([[0.5]], [[0]])
        with pytest.raises(ValueError, match="ragged"):
            Game.from_rows([[1, 2], [3]], [[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="identical dimensions"):
            Game.from_rows([[1, 2]], [[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="at least one strategy"):
            Game.from_rows([[]], [[]])

    def test_direct_construction_checks_the_form(self):
        g = Game.from_rows([[1, F(1, 2)]], [[3, 4]])
        assert Game(g.int_payoffs) == g
        assert Game([[2, [[2, 1]]], [1, [[3], [4]]]]) == g  # lists become tuples
        with pytest.raises(ValueError, match="coprime"):
            Game(((4, ((2, 4),)), (1, ((3,), (4,)))))
        with pytest.raises(ValueError, match="coprime"):
            Game(((0, ((2, 1),)), (1, ((3,), (4,)))))
        with pytest.raises(TypeError, match="ints"):
            Game(((2, ((2.0, 1),)), (1, ((3,), (4,)))))
        with pytest.raises(ValueError, match="identical dimensions"):
            Game(((2, ((2, 1),)), (1, ((3, 4),))))
        with pytest.raises(ValueError, match="at least one strategy"):
            Game(((1, ()), (1, ())))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(tied_games(), scaled_games()))
    def test_reduced_view_matches_fraction_slices(self, game):
        red = iterated_elimination(game)
        sliced = Game.from_rows(
            [[game.a[x][y] for y in red.col_map] for x in red.row_map],
            [[game.b[x][y] for y in red.col_map] for x in red.row_map],
        )
        assert red.game.int_payoffs == sliced.int_payoffs
        assert red.game == sliced and hash(red.game) == hash(sliced)


class TestRandomGames:
    def test_deterministic(self):
        assert generate_random_game(2, 2, 1) == generate_random_game(2, 2, 1)
        with pytest.raises(ValueError, match="^dimensions must be at least 1$"):
            generate_random_game(0, 2, 1)

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
        with pytest.raises(ValueError, match="^p must belong to player 1 and q to player 2$"):
            expected_payoffs(pd, MixedStrategy.uniform(2, 2), MixedStrategy.uniform(1, 2))

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

    def test_integer_checks_accept_exact_sums(self):
        assert MixedStrategy(1, (F(1, 2), F(1, 3), F(1, 6))).probs == (F(1, 2), F(1, 3), F(1, 6))
        plain = MixedStrategy(2, (0, 1, 0))
        assert plain.probs == (F(0), F(1), F(0))
        assert all(isinstance(p, Fraction) for p in plain.probs)
        assert MixedStrategy.from_weights(1, (3, 0, 2, 1)).probs == (F(1, 2), F(0), F(1, 3), F(1, 6))

    def test_from_weights_checks_the_weights_once(self):
        strategy = MixedStrategy.from_weights(2, [0, 4, 0, 2])
        assert strategy == MixedStrategy(2, (F(0), F(2, 3), F(0), F(1, 3)))
        assert strategy.probs[0] is strategy.probs[2]  # the zeros share one Fraction
        with pytest.raises(ValueError, match="^weights must be non-negative$"):
            MixedStrategy.from_weights(1, [2, -1, 1])
        with pytest.raises(ValueError, match="^owner must be 1 or 2, got 3$"):
            MixedStrategy.from_weights(3, [1])

    def test_pure_checks_its_index(self):
        assert MixedStrategy.pure(2, 2, 3).probs == (F(0), F(0), F(1))
        for index, size in ((-1, 3), (3, 3), (0, 0)):
            with pytest.raises(ValueError, match=f"^strategy index {index} out of range$"):
                MixedStrategy.pure(1, index, size)

    def test_from_weights_refuses_a_zero_sum(self):
        with pytest.raises(ValueError, match="^weights must have a positive sum$"):
            MixedStrategy.from_weights(1, [0, 0])
        with pytest.raises(ValueError, match="^weights must have a positive sum$"):
            MixedStrategy.from_weights(2, [])

    def test_integer_checks_refuse_with_the_same_messages(self):
        with pytest.raises(ValueError, match="^probabilities must sum to exactly 1$"):
            MixedStrategy(1, (F(1, 3), F(1, 3), F(1, 4)))
        with pytest.raises(ValueError, match="^probabilities must be non-negative$"):
            MixedStrategy(2, (F(1, 2), F(-1, 6), F(2, 3)))
        with pytest.raises(ValueError, match="^owner must be 1 or 2, got 3$"):
            MixedStrategy(3, (F(1),))
        with pytest.raises(ValueError, match="^probability vector is empty$"):
            MixedStrategy(1, ())

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.lists(st.fractions(-1, 2, max_denominator=12), min_size=1, max_size=6),
        st.booleans(),
    )
    def test_integer_checks_agree_with_fraction_sum(self, probs, complete):
        # Half the tuples get a last entry that makes the sum exactly 1.
        if complete:
            probs.append(1 - sum(probs))
        expected = all(p >= 0 for p in probs) and sum(probs) == 1
        try:
            MixedStrategy(1, tuple(probs))
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == expected, probs

    def test_support(self):
        s = MixedStrategy(1, (F(1, 2), F(0), F(1, 2)))
        assert s.support == (0, 2)


class TestSupportPair:
    def test_sorts_and_refuses(self):
        assert SupportPair((2, 0, 2), (1,)) == SupportPair((0, 2), (1,))
        for rows, cols in (((), (0,)), ((0,), ())):
            with pytest.raises(ValueError, match="^supports must be non-empty on both sides$"):
                SupportPair(rows, cols)
        with pytest.raises(ValueError, match="^strategy indices must be non-negative$"):
            SupportPair((0,), (1, -1))


class TestBestResponse:
    def test_mp_row1_vs_pure(self, mp):
        assert is_best_response(mp, 1, 0, MixedStrategy.pure(2, 0, 2))
        assert not is_best_response(mp, 1, 0, MixedStrategy.pure(2, 1, 2))
        for player in (1, 2):
            with pytest.raises(ValueError, match="^opponent strategy does not match"):
                pure_payoff_against(mp, player, 0, MixedStrategy.uniform(3 - player, 3))

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

    def test_pure_answers_need_no_lp(self, pd, mp, bos):
        # Every strategy of bos and mp is a best response to a pure one, and
        # in pd the defect row and column dominate the others pointwise.
        for game in (bos, mp):
            red, (lps, _) = _lp_counts(lambda: iterated_elimination(game))
            assert (red.game, red.row_map, red.col_map, lps) == (game, (0, 1), (0, 1), 0)
        red, (lps, _) = _lp_counts(lambda: iterated_elimination(pd))
        assert (red.row_map, red.col_map, lps) == ((1,), (1,), 0)
        # Row 2 has no pure reply and no pure dominator; only a mixture of
        # rows 0 and 1 dominates it, and the two-row rule finds that.
        mixed_only = Game.from_rows([[3, 0], [0, 3], [1, 1]], [[0, 0]] * 3)
        red, (lps, _) = _lp_counts(lambda: iterated_elimination(mixed_only))
        assert (red.row_map, red.col_map, lps) == ((0, 1), (0, 1), 0)

    def test_tall_game_dominated_by_its_last_row(self, monkeypatch):
        # Row 0 leads column 0 but dominates none of the zero rows; only
        # the last row does.  Rule 2 asks one front, {0, m - 1}, for all of
        # them, so the reduction is linear in m.
        m = 3000
        game = Game.from_rows([[5, 0]] + [[0, 0]] * (m - 2) + [[1, 1]], [[1, 0]] * m)
        fronts = _recorded_fronts(monkeypatch)
        red = iterated_elimination(game)
        assert (red.row_map, red.col_map) == ((0,), (0,))
        assert fronts == [{0, m - 1}]

    def test_front_is_made_again_when_rule_4_removes_a_member(self, monkeypatch):
        # Rows 3 and 4 are Pareto-maximal but dominated only by the uniform
        # mixture of rows 0, 1 and 2: a mixture of two of them pays 0 on a
        # column.  Removing row 3 by LP leaves row 4 uncovered.
        game = Game.from_rows(
            [[12, 0, 0], [0, 12, 0], [0, 0, 12], [2, 2, 2], [2, 2, 1]], [[0, 0, 0]] * 5
        )
        fronts = _recorded_fronts(monkeypatch)
        red, lps = _assert_matches_reference(game)
        assert (red.row_map, lps) == ((0, 1, 2), 2)
        assert fronts == [{0, 1, 2, 3}, {0, 1, 2, 4}]
        # A removal by the two-row rule remakes the front too: the mixture of
        # rows 0 and 1 removes row 2 with no LP, and row 3 then meets the
        # front made again without it.
        fronts.clear()
        game = Game.from_rows([[6, 0], [0, 6], [2, 2], [-1, 2]], [[0, 0]] * 4)
        red, lps = _assert_matches_reference(game)
        assert (red.row_map, lps) == ((0, 1), 0)
        assert fronts == [{0, 1, 2}, {0, 1}]

    def test_builds_one_game(self, pd, mp, monkeypatch):
        # Every constructor of the package makes its Game in Game._of.
        built = []
        make = Game._of.__func__

        def counting(cls, a, b):
            built.append(make(cls, a, b))
            return built[-1]

        game = generate_random_game(4, 4, 4000)
        monkeypatch.setattr(Game, "_of", classmethod(counting))
        for g in (pd, game):
            built.clear()
            red = iterated_elimination(g)
            assert g.m + g.n - red.game.m - red.game.n >= 2
            assert len(built) == 1 and built[0] is red.game
        # With nothing removed, the game itself is the reduced game.
        built.clear()
        assert iterated_elimination(mp).game is mp and not built

    @settings(max_examples=150, deadline=None)
    @given(tied_games())
    def test_matches_reference_on_tied_games(self, game):
        _assert_matches_reference(game)

    def test_survivors_match_lp_only_fixpoint(self):
        # Tied and grid games up to 6x6: the survivors are those of
        # `lp1_dominance` alone, one removal at a time to a fixed point.
        rng = random.Random(29)
        for seed in range(60):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            for game in (
                duplicated_game(m, n, 2900 + seed, seed % 2 == 0, seed % 3 == 0),
                generate_random_game(m, n, 2900 + seed),
            ):
                red = iterated_elimination(game)
                assert (red.row_map, red.col_map) == _lp_only_survivors(game), (seed, m, n)

    def test_two_column_witnesses_are_best_responses(self, monkeypatch):
        # Each pair the two-column rule keeps a strategy with holds a mixture
        # against which it earns the most among the survivors it was tested
        # with, in `Fraction`s.
        replies = []
        reply = domgraph._two_column_reply

        def recording(vectors, x, cols, top, strict=False):
            pair = reply(vectors, x, cols, top, strict)
            replies.append((vectors, x, pair))
            return pair

        monkeypatch.setattr(domgraph, "_two_column_reply", recording)
        rng = random.Random(30)
        for seed in range(60):
            m, n = rng.randint(2, 6), rng.randint(2, 6)
            iterated_elimination(duplicated_game(m, n, 3000 + seed, seed % 2 == 0, True))
            iterated_elimination(generate_random_game(m, n, 3000 + seed))
        kept = [(vectors, x, pair) for vectors, x, pair in replies if pair]
        assert kept
        for vectors, x, pair in kept:
            a, b = (y for y in range(pair.bit_length()) if pair >> y & 1)
            (lo_n, lo_d, _), (hi_n, hi_d, _) = lp._mixture_interval(vectors, 1 << x, a, b)
            t = (F(lo_n, lo_d) + F(hi_n, hi_d)) / 2
            payoffs = [t * row[a] + (1 - t) * row[b] for row in vectors]
            assert 0 < t < 1 and payoffs[x] == max(payoffs)

    def test_two_row_removals_are_dominated(self):
        # On random rows and column subsets, tied, grid and with a twin row:
        # the two-row rule removes exactly what the reference finds, the pair
        # it names has a dominating mixture, and `lp1_dominance` confirms
        # every removal on the rows and columns it was tested on.
        rng = random.Random(31)
        removed = 0
        for case in range(2000):
            m, n = rng.randint(3, 6), rng.randint(1, 6)
            top = (2, 1000, 2)[case % 3]
            vectors = [[rng.randint(0, top) for _ in range(n)] for _ in range(m)]
            if case % 3 == 2:
                dst, src = rng.sample(range(m), 2)
                vectors[dst] = list(vectors[src])
            x = rng.randrange(m)
            cols = sorted(rng.sample(range(n), rng.randint(1, n)))
            sliced = [[row[y] for y in cols] for row in vectors]
            pair = domgraph._two_row_dominator(vectors, x, cols)
            assert bool(pair) == _two_row_reference(sliced, x)
            if pair:
                removed += 1
                a, b = (r for r in range(m) if pair >> r & 1)
                assert x not in (a, b)
                assert _dominating_mixture(sliced[a], sliced[b], sliced[x]) is not None
                game = Game.from_rows(sliced, [[0] * len(cols)] * m)
                assert lp1_dominance(game, 1, x)[0]
        assert removed > 300

    def test_matches_reference_on_degenerate_games(self):
        sizes = ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5))
        lps = sum(
            _assert_matches_reference(degenerate_game(*sizes[k % 5], 5300 + k))[1]
            for k in range(40)
        )
        assert lps > 0

    @settings(max_examples=100, deadline=None)
    @given(_dominated_fraction_games())
    def test_matches_reference_across_scales(self, game):
        # Both matrices lose all their non-integer payoffs, so the reduced
        # game's integer scales differ from the game's.
        red, _ = _assert_matches_reference(game)
        for player in (0, 1):
            assert red.game.int_payoffs[player][0] == 1 < game.int_payoffs[player][0]

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
        # Row 1 weakly dominates row 0, yet row 0 is a best response to
        # (1/2, 1/2, 0) and must survive.
        weak = Game.from_rows([[2, 2, 0], [2, 2, 1], [3, 0, 0], [0, 3, 0]], [[0] * 3] * 4)
        assert iterated_elimination(weak).row_map == (0, 1, 2, 3)
        games.append(weak)
        games += [generate_random_game(4, 4, 5000 + k) for k in range(4)]
        sizes = ((3, 3), (4, 3), (4, 4), (5, 5))
        games += [degenerate_game(*sizes[k % 4], 5100 + k) for k in range(40)]
        for g in games:
            red = iterated_elimination(g)
            expected = (red.row_map, red.col_map)
            for _ in range(3):
                assert eliminate_shuffled(g, rng) == expected
