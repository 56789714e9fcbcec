"""Bimatrix game model with exact payoffs, stored as ints.

A game is a pair of m-by-n payoff matrices (player 1 rows, player 2
columns), kept per player in one canonical integer form (see `Game`).
Parsing, random games and writing work on the ints; the `Fraction`
matrices are views.  No floating point appears in the model.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
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
    "parse_game",
    "write_game",
]

Rational = Fraction | int | str
#: One player's integer form (S, rows): rows[x][y] / S is the payoff of own
#: strategy x against opponent strategy y.
IntView = tuple[int, tuple[tuple[int, ...], ...]]
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


def _ratio(value: Rational) -> tuple[int, int]:
    if type(value) is int:
        return value, 1
    value = _as_fraction(value)
    return value.numerator, value.denominator


def _reduced(scale: int, flat: Sequence[int], n: int) -> IntView:
    """The integer form of the row-major matrix flat / scale, n to a row:
    both divided by their gcd, so the scale is the lcm of the reduced
    denominators."""
    g = math.gcd(scale, *flat)
    if g > 1:
        scale //= g
        flat = [v // g for v in flat]
    flat = tuple(flat)
    return scale, tuple([flat[k : k + n] for k in range(0, len(flat), n)])


def _scaled(nums: Sequence[int], dens: Sequence[int], n: int) -> IntView:
    """The integer form of the row-major matrix nums / dens, n to a row."""
    scale = math.lcm(*dens)
    nums = list(map(operator.mul, nums, map(operator.floordiv, repeat(scale), dens)))
    return _reduced(scale, nums, n)


@dataclass(frozen=True)
class Game:
    """A two-player game in normal form.

    `int_payoffs` holds, per player, (S, rows): rows[x][y] / S is the
    payoff of own strategy x against opponent strategy y (player 2's rows
    are B's columns), and S is the lcm of the reduced denominators.  The
    form is canonical, so `==` and `hash` compare payoffs.  `a` and `b` are
    the `Fraction` matrices, made on first use.  Build games with
    `from_rows`, `parse_game` or `generate_random_game`; `Game(...)` checks
    the integer form it is given.
    """

    int_payoffs: tuple[IntView, IntView]

    def __post_init__(self):
        view = tuple((scale, tuple(map(tuple, rows))) for scale, rows in self.int_payoffs)
        if len(view) != 2 or not view[0][1] or not view[1][1]:
            raise ValueError("game must have at least one strategy per player")
        (_, rows), (_, cols) = view
        m, n = len(rows), len(cols)
        if any(len(row) != n for row in rows) or any(len(col) != m for col in cols):
            raise ValueError("payoff matrices must have identical dimensions")
        for scale, vectors in view:
            entries = (scale, *chain.from_iterable(vectors))
            if any(type(v) is not int for v in entries):
                raise TypeError("int_payoffs must hold ints; use Game.from_rows")
            if scale < 1 or math.gcd(*entries) != 1:
                raise ValueError("int_payoffs must have a positive scale coprime to its entries")
        object.__setattr__(self, "int_payoffs", view)

    @classmethod
    def from_rows(cls, a: Iterable[Iterable[Rational]], b: Iterable[Iterable[Rational]]) -> "Game":
        """Build a game from any nested iterables of ints/strings/Fractions
        (a float raises TypeError)."""
        a, b = ([[_ratio(v) for v in row] for row in matrix] for matrix in (a, b))
        if not a or not a[0]:
            raise ValueError("game must have at least one strategy per player")
        n = len(a[0])
        if any(len(row) != n for row in a):
            raise ValueError("payoff matrix a is ragged")
        if len(b) != len(a) or any(len(row) != n for row in b):
            raise ValueError("payoff matrices must have identical dimensions")
        return cls._of(*(_scaled(*zip(*chain.from_iterable(pairs)), n) for pairs in (a, b)))

    @classmethod
    def _of(cls, a: IntView, b: IntView) -> "Game":
        """The game of player 1's form `a` and the form `b` of B's rows,
        unchecked: the caller vouches for them."""
        scale, rows = b
        game = object.__new__(cls)
        object.__setattr__(game, "int_payoffs", (a, (scale, tuple(zip(*rows)))))
        return game

    def _sub(self, rows: Sequence[int], cols: Sequence[int]) -> "Game":
        """The game of the strategies `rows` and `cols`, in that order."""
        (a_scale, a_rows), (b_scale, b_cols) = self.int_payoffs
        return Game._of(
            _reduced(a_scale, [a_rows[x][y] for x in rows for y in cols], len(cols)),
            _reduced(b_scale, [b_cols[y][x] for x in rows for y in cols], len(cols)),
        )

    @property
    def m(self) -> int:
        return len(self.int_payoffs[0][1])

    @property
    def n(self) -> int:
        return len(self.int_payoffs[1][1])

    def strategy_count(self, player: int) -> int:
        """The number of pure strategies of `player`, 1 or 2."""
        if player == 1:
            return self.m
        if player == 2:
            return self.n
        raise ValueError(f"player must be 1 or 2, got {player}")

    @functools.cached_property
    def a(self) -> tuple[tuple[Fraction, ...], ...]:
        scale, rows = self.int_payoffs[0]
        return tuple(tuple(Fraction(v, scale) for v in row) for row in rows)

    @functools.cached_property
    def b(self) -> tuple[tuple[Fraction, ...], ...]:
        scale, cols = self.int_payoffs[1]
        return tuple(tuple(Fraction(v, scale) for v in row) for row in zip(*cols))


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
        return cls._spread(owner, weights, total)

    @classmethod
    def _spread(cls, owner: int, weights: Sequence[int], total: int) -> "MixedStrategy":
        """The strategy weights / total, unchecked: the caller vouches for
        an owner of 1 or 2 and non-negative int weights summing to
        `total` > 0."""
        probs = [Fraction(w, total) if w else _ZERO for w in weights]
        strategy = object.__new__(cls)
        object.__setattr__(strategy, "owner", owner)
        object.__setattr__(strategy, "probs", tuple(probs))
        return strategy

    @classmethod
    def uniform(cls, owner: int, size: int) -> "MixedStrategy":
        return cls(owner, tuple(Fraction(1, size) for _ in range(size)))

    @classmethod
    def pure(cls, owner: int, index: int, size: int) -> "MixedStrategy":
        if not 0 <= index < size:
            raise ValueError(f"strategy index {index} out of range")
        probs = [Fraction(0)] * size
        probs[index] = Fraction(1)
        return cls(owner, tuple(probs))


@dataclass(frozen=True)
class SupportPair:
    """A support pair: sorted row indices and sorted column indices.  The
    pipelines pass candidates as bitmask pairs and make one only for an
    equilibrium found."""

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

def _read_token(token: str, line: int) -> tuple[int, int]:
    """(numerator, denominator > 0) of a token, as `Fraction(token)` reads
    it.  ASCII integers, ``p/q`` and plain decimals are split here; any
    other token goes to `Fraction`, so its value or error is Fraction's."""
    if token.isascii() and "_" not in token:
        num, slash, den = token.partition("/")
        try:
            if not slash:
                whole, _, frac = num.partition(".")
                if not frac or frac.isdigit():
                    return int(whole + frac), 10 ** len(frac)
            elif den[:1].isdigit():  # Fraction reads no sign in a denominator
                p, q = int(num), int(den)
                if q:
                    return p, q
        except ValueError:
            pass
    try:
        value = Fraction(token)
    except ZeroDivisionError:
        raise GameFormatError(f"zero denominator in {token!r}", line) from None
    except ValueError:
        raise GameFormatError(f"non-numeric token {token!r}", line) from None
    return value.numerator, value.denominator


def parse_game(text: str | bytes) -> Game:
    """Parse the game file format into a :class:`Game`.

    The format is plain UTF-8 text: optional ``#`` comment lines, a header
    line ``m n``, then m rows of matrix A and m rows of matrix B, each row
    n whitespace-separated numbers.  Numbers may be integers, decimals, or
    ``p/q`` fractions, each read exactly, as `Fraction` reads it.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = []
    for i, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            lines.append((i, line))
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

    def read_matrix(rows: list[tuple[int, str]]) -> IntView:
        pairs = []
        for line_no, line in rows:
            tokens = line.split()
            if len(tokens) != n:
                raise GameFormatError(
                    f"expected {n} entries, found {len(tokens)}", line_no
                )
            pairs += [_read_token(t, line_no) for t in tokens]
        nums, dens = zip(*pairs)
        return _scaled(nums, dens, n)

    return Game._of(read_matrix(body[:m]), read_matrix(body[m:]))


def write_game(game: Game) -> str:
    """Serialize a game so that ``parse_game(write_game(g)) == g`` exactly;
    each payoff is written as `Fraction` writes it."""
    (a_scale, rows), (b_scale, cols) = game.int_payoffs
    lines = [f"{game.m} {game.n}"]
    for scale, matrix in ((a_scale, rows), (b_scale, zip(*cols))):
        for row in matrix:
            parts = []
            for v in row:
                g = math.gcd(v, scale)
                parts.append(str(v // g) if g == scale else f"{v // g}/{scale // g}")
            lines.append(" ".join(parts))
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

    def draw_matrix() -> IntView:
        return _reduced(PAYOFF_GRID, [rng.randint(0, PAYOFF_GRID) for _ in range(m * n)], n)

    a = draw_matrix()
    return Game._of(a, draw_matrix())


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
    """Expected payoff of one pure strategy of `player`, 1 or 2, against an
    opponent mixed strategy."""
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player}")
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
