"""Shared fixtures: the classic test games and small exact-arithmetic helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from nashcycles.games import Game


@pytest.fixture
def pd() -> Game:
    """Prisoner's Dilemma; row/column 2 (Defect) strictly dominates."""
    return Game.from_rows([[3, 0], [5, 1]], [[3, 5], [0, 1]])


@pytest.fixture
def mp() -> Game:
    """Matching Pennies; unique equilibrium is uniform full support."""
    return Game.from_rows([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])


@pytest.fixture
def bos() -> Game:
    """Battle of the Sexes; two pure equilibria plus one mixed."""
    return Game.from_rows([[2, 0], [0, 1]], [[1, 0], [0, 2]])


@pytest.fixture
def one_by_one() -> Game:
    return Game.from_rows([[7]], [[7]])


@pytest.fixture
def flat_top() -> Game:
    """Degenerate game A=B=[[1,1],[0,0]]: unbalanced supports ({1},{1}),
    ({1},{2}), ({1},{1,2})."""
    return Game.from_rows([[1, 1], [0, 0]], [[1, 1], [0, 0]])


def rational_rank(matrix: list[list[Fraction]]) -> int:
    """Rank over the rationals by Gaussian elimination, exact."""
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][col]
        rows[rank] = [v / head for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def brute_force_cycles(n: int, adj: list[list[int]]) -> list[tuple[int, ...]]:
    """Reference elementary-cycle enumeration by plain DFS, each cycle
    anchored at its smallest vertex.  Independent of the Johnson machinery."""
    adjsets = [set(a) for a in adj]
    out: list[tuple[int, ...]] = []

    def dfs(start: int, v: int, path: list[int], used: set[int]):
        for w in adj[v]:
            if w == start and len(path) > 1:
                out.append(tuple(path))
            elif w > start and w not in used:
                used.add(w)
                path.append(w)
                dfs(start, w, path, used)
                path.pop()
                used.remove(w)

    for s in range(n):
        if s in adjsets[s]:
            out.append((s,))
        dfs(s, s, [s], {s})
    return sorted(out)


def degenerate_game(m: int, n: int, seed: int) -> Game:
    """Payoffs in {0, 1, 2}; row 1 duplicates row 0 for both players and one
    column pays a constant to each player."""
    rng = random.Random(seed)
    a = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
    b = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
    a[1], b[1] = list(a[0]), list(b[0])
    col, ca, cb = rng.randrange(n), rng.randint(0, 2), rng.randint(0, 2)
    for x in range(m):
        a[x][col], b[x][col] = ca, cb
    return Game.from_rows(a, b)


@st.composite
def tied_games(draw) -> Game:
    """Payoffs in {0, 1, 2}, 1x1 to 4x4, optionally with a duplicated row
    (for both players) and an all-zero column (for both players)."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    cell = st.integers(0, 2)
    a = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(m)))[:2]
        a[dst], b[dst] = list(a[src]), list(b[src])
    if draw(st.booleans()):
        col = draw(st.integers(0, n - 1))
        for x in range(m):
            a[x][col] = b[x][col] = 0
    return Game.from_rows(a, b)
