"""Bimatrix game model with exact rational payoffs.

A game is a pair of m-by-n payoff matrices (player 1 rows, player 2
columns).  Everything downstream -- dominance tests, feasibility
programs, graph constructions -- works on these immutable objects, so
all entries are `fractions.Fraction` and no floating point appears
anywhere in the model.
"""

from __future__ import annotations

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
    row_labels, col_labels : optional display names for pure strategies.
    """

    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[tuple[Fraction, ...], ...]
    row_labels: tuple[str, ...] | None = None
    col_labels: tuple[str, ...] | None = None

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
        if self.row_labels is not None and len(self.row_labels) != m:
            raise ValueError("row_labels length must equal m")
        if self.col_labels is not None and len(self.col_labels) != n:
            raise ValueError("col_labels length must equal n")

    @classmethod
    def from_rows(
        cls,
        a: Iterable[Iterable[Rational]],
        b: Iterable[Iterable[Rational]],
        row_labels: Sequence[str] | None = None,
        col_labels: Sequence[str] | None = None,
    ) -> "Game":
        """Build a game from any nested iterables of ints/strings/Fractions."""
        return cls(
            _freeze_matrix(a),
            _freeze_matrix(b),
            tuple(row_labels) if row_labels is not None else None,
            tuple(col_labels) if col_labels is not None else None,
        )

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return len(self.a[0])

    def payoff_matrix(self, player: int) -> tuple[tuple[Fraction, ...], ...]:
        if player == 1:
            return self.a
        if player == 2:
            return self.b
        raise ValueError(f"player must be 1 or 2, got {player}")

    def strategy_count(self, player: int) -> int:
        return self.m if player == 1 else self.n


@dataclass(frozen=True)
class MixedStrategy:
    """A probability vector over one player's pure strategies.

    `owner` is 1 or 2; `probs` has length m or n accordingly, entries are
    non-negative Fractions summing to exactly 1.
    """

    owner: int
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.owner not in (1, 2):
            raise ValueError(f"owner must be 1 or 2, got {self.owner}")
        if not self.probs:
            raise ValueError("probability vector is empty")
        object.__setattr__(self, "probs", tuple(_as_fraction(p) for p in self.probs))
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be non-negative")
        if sum(self.probs) != 1:
            raise ValueError("probabilities must sum to exactly 1")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p > 0)

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

    @property
    def size(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def sort_key(self) -> tuple:
        return (len(self.rows) + len(self.cols), self.rows, self.cols)


@dataclass(frozen=True)
class ReducedGame:
    """A game after iterated elimination plus maps back to original indices.

    `row_map[i]` / `col_map[j]` give the original index of reduced strategy
    i / j.
    """

    game: Game
    row_map: tuple[int, ...]
    col_map: tuple[int, ...]

    def original_rows(self, rows: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(self.row_map[i] for i in rows))

    def original_cols(self, cols: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(self.col_map[j] for j in cols))


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

def _subgame(game: Game, rows: Sequence[int], cols: Sequence[int]) -> Game:
    a = tuple(tuple(game.a[x][y] for y in cols) for x in rows)
    b = tuple(tuple(game.b[x][y] for y in cols) for x in rows)
    row_labels = tuple(game.row_labels[x] for x in rows) if game.row_labels else None
    col_labels = tuple(game.col_labels[y] for y in cols) if game.col_labels else None
    return Game(a, b, row_labels, col_labels)


def iterated_elimination(game: Game) -> ReducedGame:
    """Remove strictly dominated strategies (allowing domination by mixed
    strategies) until a fixed point.

    Every strategy is tested once; a survivor keeps the support (in original
    indices) of the opponent strategy its test found it a best response to,
    and is tested again only when a strategy in that support is removed.
    Any other removal leaves the witness valid: dropping a rival of its own
    only drops a constraint, and an opponent strategy outside the support
    was never used.  Strict domination is path-independent, so the
    surviving index sets do not depend on this schedule.  A player always
    keeps at least one strategy.
    """
    from .lp import lp1_dominance  # deferred: lp builds on the game types

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
                dominated, witness = lp1_dominance(current, player, own.index(s))
                if not dominated:
                    witness_support[player][s] = frozenset(others[j] for j in witness.support)
                    continue
                own.remove(s)
                current = _subgame(game, kept[1], kept[2])
                for t, used in list(witness_support[opponent].items()):
                    if s in used:
                        del witness_support[opponent][t]
                        stale[opponent].append(t)
    return ReducedGame(current, tuple(kept[1]), tuple(kept[2]))
