"""Bimatrix game model with exact rational payoffs.

A game is a pair of m-by-n payoff matrices (player 1 rows, player 2
columns).  Everything downstream -- dominance tests, feasibility
programs, graph constructions -- works on these immutable objects, so
all entries are `fractions.Fraction` and no floating point appears
anywhere in the model.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "Game",
    "GameFormatError",
    "MixedStrategy",
    "ReducedGame",
    "SupportPair",
    "expected_payoffs",
    "generate_random_game",
    "is_best_response",
    "iterated_elimination",
    "parse_game",
    "write_game",
]

Rational = Fraction | int | str
_ZERO = Fraction(0)


class GameFormatError(ValueError):
    """Raised for malformed game files; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("payoffs must be exact rationals, not floats")
    return Fraction(value)


def _freeze_matrix(rows: Iterable[Iterable[Rational]]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(_as_fraction(v) for v in row) for row in rows)


@dataclass(frozen=True)
class Game:
    """A two-player game in normal form.

    Attributes
    ----------
    a : player 1's m-by-n payoff matrix.
    b : player 2's m-by-n payoff matrix.
    """

    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.a or not self.a[0]:
            raise ValueError("game must have at least one strategy per player")
        m, n = len(self.a), len(self.a[0])
        if any(len(row) != n for row in self.a):
            raise ValueError("payoff matrix a is ragged")
        if len(self.b) != m or any(len(row) != n for row in self.b):
            raise ValueError("payoff matrices must have identical dimensions")
        for matrix in (self.a, self.b):
            for row in matrix:
                for entry in row:
                    if not isinstance(entry, Fraction):
                        raise TypeError("payoffs must be Fractions; use Game.from_rows")

    @classmethod
    def from_rows(cls, a: Iterable[Iterable[Rational]], b: Iterable[Iterable[Rational]]) -> "Game":
        """Build a game from any nested iterables of ints/strings/Fractions."""
        return cls(_freeze_matrix(a), _freeze_matrix(b))

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return len(self.a[0])

    def strategy_count(self, player: int) -> int:
        return self.m if player == 1 else self.n

    @functools.cached_property
    def int_payoffs(self) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
        """Per player, (S, rows): rows[x][y] is S times the payoff of own
        strategy x against opponent strategy y, S > 0 the lcm of that
        matrix's denominators.  Made on first use; not compared."""
        view = []
        for matrix in (self.a, tuple(zip(*self.b))):
            scale = math.lcm(*(v.denominator for row in matrix for v in row))
            rows = tuple(
                tuple(v.numerator * (scale // v.denominator) for v in row) for row in matrix
            )
            view.append((scale, rows))
        return tuple(view)


@dataclass(frozen=True)
class MixedStrategy:
    """A probability vector over one player's pure strategies.

    `owner` is 1 or 2; `probs` has length m or n accordingly, entries are
    non-negative Fractions summing to exactly 1.  Both checks are made in
    ints: no numerator is negative, and the numerators scaled to the lcm L
    of the denominators sum to L.
    """

    owner: int
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.owner not in (1, 2):
            raise ValueError(f"owner must be 1 or 2, got {self.owner}")
        if not self.probs:
            raise ValueError("probability vector is empty")
        probs = tuple(_as_fraction(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if any(p.numerator < 0 for p in probs):
            raise ValueError("probabilities must be non-negative")
        scale = math.lcm(*(p.denominator for p in probs))
        if sum(p.numerator * (scale // p.denominator) for p in probs) != scale:
            raise ValueError("probabilities must sum to exactly 1")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p > 0)

    @classmethod
    def from_weights(cls, owner: int, weights: Sequence[int]) -> "MixedStrategy":
        """The strategy weights / sum(weights) for non-negative int weights
        with a positive sum, else ValueError.  The weights are checked once,
        in ints, so the probabilities are not checked again: one `Fraction`
        per non-zero weight, and the zeros share one."""
        if owner not in (1, 2):
            raise ValueError(f"owner must be 1 or 2, got {owner}")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        total = sum(weights)
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        return cls._spread(owner, weights, total, range(len(weights)), len(weights))

    @classmethod
    def _spread(
        cls, owner: int, weights: Sequence[int], total: int, index_map: Sequence[int], size: int
    ) -> "MixedStrategy":
        """The strategy over `size` strategies with weights[k] / total at
        index_map[k] and zero elsewhere, in one pass and unchecked: the
        caller vouches for an owner of 1 or 2, non-negative int weights
        summing to `total` > 0 and distinct indices below `size`."""
        probs = [_ZERO] * size
        for i, w in zip(index_map, weights):
            if w:
                probs[i] = Fraction(w, total)
        strategy = object.__new__(cls)
        object.__setattr__(strategy, "owner", owner)
        object.__setattr__(strategy, "probs", tuple(probs))
        return strategy

    @classmethod
    def uniform(cls, owner: int, size: int) -> "MixedStrategy":
        return cls(owner, tuple(Fraction(1, size) for _ in range(size)))

    @classmethod
    def pure(cls, owner: int, index: int, size: int) -> "MixedStrategy":
        probs = [Fraction(0)] * size
        probs[index] = Fraction(1)
        return cls(owner, tuple(probs))


@dataclass(frozen=True)
class SupportPair:
    """A candidate support: sorted row indices and sorted column indices."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(sorted(set(self.rows))))
        object.__setattr__(self, "cols", tuple(sorted(set(self.cols))))
        if not self.rows or not self.cols:
            raise ValueError("supports must be non-empty on both sides")
        if self.rows[0] < 0 or self.cols[0] < 0:
            raise ValueError("strategy indices must be non-negative")

    @classmethod
    def _ascending(cls, rows: tuple[int, ...], cols: tuple[int, ...]) -> "SupportPair":
        """The pair of two non-empty ascending tuples of distinct
        non-negative indices, taken as they are (the caller vouches)."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "rows", rows)
        object.__setattr__(pair, "cols", cols)
        return pair


@dataclass(frozen=True)
class ReducedGame:
    """A game after iterated elimination plus maps back to original indices.

    `row_map[i]` / `col_map[j]` give the original index of reduced strategy
    i / j; both maps ascend.
    """

    game: Game
    row_map: tuple[int, ...]
    col_map: tuple[int, ...]


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def _parse_token(token: str, line: int) -> Fraction:
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise GameFormatError(f"zero denominator in {token!r}", line) from None
    except ValueError:
        raise GameFormatError(f"non-numeric token {token!r}", line) from None


def parse_game(text: str | bytes) -> Game:
    """Parse the game file format into a :class:`Game`.

    The format is plain UTF-8 text: optional ``#`` comment lines, a header
    line ``m n``, then m rows of matrix A and m rows of matrix B, each row
    n whitespace-separated numbers.  Numbers may be integers, decimals, or
    ``p/q`` fractions; decimals are converted exactly via powers of ten.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise GameFormatError("empty input: missing 'm n' header", 1)

    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise GameFormatError(f"expected header 'm n', got {header!r}", header_no)
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise GameFormatError(f"non-integer dimensions in header {header!r}", header_no) from None
    if m < 1 or n < 1:
        raise GameFormatError(f"dimensions must be at least 1, got {m} {n}", header_no)

    body = lines[1:]
    if len(body) != 2 * m:
        raise GameFormatError(
            f"expected {2 * m} matrix rows ({m} for each player), found {len(body)}",
            body[-1][0] if body else header_no,
        )

    def read_matrix(rows: list[tuple[int, str]]) -> tuple[tuple[Fraction, ...], ...]:
        matrix = []
        for line_no, line in rows:
            tokens = line.split()
            if len(tokens) != n:
                raise GameFormatError(
                    f"expected {n} entries, found {len(tokens)}", line_no
                )
            matrix.append(tuple(_parse_token(t, line_no) for t in tokens))
        return tuple(matrix)

    return Game(read_matrix(body[:m]), read_matrix(body[m:]))


def write_game(game: Game) -> str:
    """Serialize a game so that ``parse_game(write_game(g)) == g`` exactly."""
    lines = [f"{game.m} {game.n}"]
    for matrix in (game.a, game.b):
        for row in matrix:
            lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random games
# ---------------------------------------------------------------------------

#: Grid resolution for random payoffs: entries are multiples of 1/1000 in [0, 1].
PAYOFF_GRID = 1000


def generate_random_game(m: int, n: int, seed: int) -> Game:
    """Generate an m-by-n game with payoffs drawn uniformly from the grid
    {0, 1/1000, ..., 1}.

    The same (m, n, seed) always produces the same game.  Matrix A is drawn
    first, row-major, then matrix B.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be at least 1")
    rng = random.Random(seed)

    def draw_matrix():
        return tuple(
            tuple(Fraction(rng.randint(0, PAYOFF_GRID), PAYOFF_GRID) for _ in range(n))
            for _ in range(m)
        )

    a = draw_matrix()
    b = draw_matrix()
    return Game(a, b)


# ---------------------------------------------------------------------------
# Payoffs and best responses
# ---------------------------------------------------------------------------

def expected_payoffs(game: Game, p: MixedStrategy, q: MixedStrategy) -> tuple[Fraction, Fraction]:
    """Exact expected payoffs (p^T A q, p^T B q)."""
    if p.owner != 1 or q.owner != 2:
        raise ValueError("p must belong to player 1 and q to player 2")
    if len(p.probs) != game.m or len(q.probs) != game.n:
        raise ValueError("strategy length does not match game dimensions")
    u1 = Fraction(0)
    u2 = Fraction(0)
    for x, px in enumerate(p.probs):
        if px == 0:
            continue
        for y, qy in enumerate(q.probs):
            if qy == 0:
                continue
            u1 += px * game.a[x][y] * qy
            u2 += px * game.b[x][y] * qy
    return u1, u2


def pure_payoff_against(game: Game, player: int, strategy: int, opponent: MixedStrategy) -> Fraction:
    """Expected payoff of one pure strategy against an opponent mixed strategy."""
    if player == 1:
        if opponent.owner != 2 or len(opponent.probs) != game.n:
            raise ValueError("opponent strategy does not match game dimensions")
        return sum(
            (game.a[strategy][y] * qy for y, qy in enumerate(opponent.probs) if qy),
            Fraction(0),
        )
    if opponent.owner != 1 or len(opponent.probs) != game.m:
        raise ValueError("opponent strategy does not match game dimensions")
    return sum(
        (game.b[x][strategy] * px for x, px in enumerate(opponent.probs) if px),
        Fraction(0),
    )


def is_best_response(game: Game, player: int, strategy: int, opponent: MixedStrategy) -> bool:
    """True iff the pure strategy earns at least as much as every other own
    pure strategy against `opponent` (exact comparison)."""
    own = pure_payoff_against(game, player, strategy, opponent)
    count = game.strategy_count(player)
    return all(
        pure_payoff_against(game, player, other, opponent) <= own
        for other in range(count)
        if other != strategy
    )


# ---------------------------------------------------------------------------
# Iterated elimination of strictly dominated strategies
# ---------------------------------------------------------------------------

def iterated_elimination(game: Game) -> ReducedGame:
    """Remove strictly dominated strategies (allowing domination by mixed
    strategies) until a fixed point.

    A test of a strategy x answers with the first of:

    1. x earns its column maximum against some surviving opponent strategy
       y (ties count): x is a best response to y, so not dominated, and its
       witness support is {y} for the first such y;
    2. some surviving rival earns strictly more than x against every
       surviving opponent strategy: x is dominated.  The rival that earns
       the maximum on the first surviving opponent strategy is tried
       before the others;
    3. x responds best, among the survivors, to a mixture of two surviving
       opponent strategies: its least-deficit one and one other (see
       `lp._two_column_reply`), found in closed form; its witness support
       is that pair;
    4. the best-response-region program (as `lp1_dominance`) on its
       player's rows of `int_payoffs` sliced to the survivors, which is the
       subgame's view times a positive factor; its witness support is kept
       when x survives.

    Rules 2 and 3 cost O(m * n) each.  On the 20 s `generic` panel rule 3
    answers 33 of the 42 tests that reached the LP before it.  Rule 1's
    maxima are taken once, over all strategies: a removed strategy
    earned less than the maximum on every opponent strategy that survived
    its test, so the survivors' maxima there never change, and a strategy
    that earns one of them survives while that opponent strategy does.
    Only rule 4 slices, so a game whose strategies all pass rule 1 (an
    all-zero tall game) or rule 2's first rival (a tall game whose rows
    one row dominates) is reduced in linear time.  A survivor keeps its
    witness support (a mask of original opponent indices) and is tested
    again only when a strategy in it is removed; other removals only drop
    a rival or an unused opponent strategy.  Strict domination is
    path-independent, so the survivors do not depend on this schedule.
    A player always keeps a strategy.  The reduced `Game` is made once
    (`game` itself when nothing is removed).
    """
    # deferred: lp builds on the game types
    from .lp import _best_response_region, _two_column_reply

    # Per side: the survivors, ascending (a dict deletes in O(1) and keeps order).
    kept = (dict.fromkeys(range(game.m)), dict.fromkeys(range(game.n)))
    # Per side: the column maxima over all own strategies and, per opponent
    # strategy, the first own strategy that earns its maximum (see above).
    tops, leaders = [], []
    for _, rows in game.int_payoffs:
        top = list(map(max, zip(*rows)))
        tops.append(top)
        leaders.append(
            [next(x for x, row in enumerate(rows) if row[y] == v) for y, v in enumerate(top)]
        )
    # Per side: survivor -> witness support mask, in the order found.
    witness: tuple[dict[int, int], dict[int, int]] = ({}, {})
    stale = [list(kept[0]), list(kept[1])]
    while stale[0] or stale[1]:
        for side in (0, 1):
            scale, full = game.int_payoffs[side]
            top = tops[side]
            todo, stale[side] = stale[side], []
            for s in todo:
                own, others = kept[side], kept[1 - side]
                mine = full[s]
                reply = next((y for y in others if mine[y] == top[y]), None)
                if reply is not None:
                    witness[side][s] = 1 << reply
                    continue
                lead = full[leaders[side][next(iter(others))]]
                if not all(lead[y] > mine[y] for y in others) and not any(
                    all(full[x][y] > mine[y] for y in others) for x in own
                ):
                    rows, cols = list(own), list(others)
                    at = bisect.bisect_left(rows, s)
                    vectors = [full[x] for x in rows]
                    pair = _two_column_reply(vectors, at, cols, top)
                    if pair:
                        witness[side][s] = pair
                        continue
                    vectors = [[row[y] for y in cols] for row in vectors]
                    weights = _best_response_region((scale, vectors), 1 << at, 0, 0)
                    if weights is not None:
                        witness[side][s] = sum(1 << y for y, w in zip(cols, weights) if w)
                        continue
                del own[s]
                for t, used in list(witness[1 - side].items()):
                    if used >> s & 1:
                        del witness[1 - side][t]
                        stale[1 - side].append(t)
    rows, cols = map(tuple, kept)
    if len(rows) < game.m or len(cols) < game.n:
        a = tuple(tuple(game.a[x][y] for y in cols) for x in rows)
        game = Game(a, tuple(tuple(game.b[x][y] for y in cols) for x in rows))
    return ReducedGame(game, rows, cols)
