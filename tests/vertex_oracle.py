"""An exact equilibrium oracle that shares no code with `nashcycles.lp`.

It lists a bimatrix game's equilibrium support pairs from its extreme
equilibria (Avis, Rosenberg, Savani & von Stengel 2010, *Enumeration of
Nash equilibria for two-player games*):

1. shift A and B so that every entry is positive;
2. enumerate the vertices of P = {x >= 0 : B^T x <= 1} and
   Q = {y >= 0 : A y <= 1}: each choice of s free coordinates and s tight
   rows is one s x s system, solved by `Fraction` Gaussian elimination;
3. keep the completely labelled pairs other than (0, 0), the extreme
   equilibria up to scale;
4. a biclique (U, V) of that compatibility graph spans the equilibria
   conv(U) x conv(V), and every equilibrium lies in one (Winkels 1979;
   Jansen 1981), so the support pairs are (union of supp U, union of
   supp V) over every biclique.

Brute force throughout: meant for games up to 5x5, where a polytope has
at most C(10, 5) = 252 bases.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def _solve(rows: list[list[Fraction]]) -> list[Fraction] | None:
    """The solution of the square system whose augmented rows are `rows`,
    or None when it is singular."""
    size = len(rows)
    for col in range(size):
        pivot = next((i for i in range(col, size) if rows[i][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        for i in range(size):
            if i != col and rows[i][col]:
                f = rows[i][col] / head[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], head)]
    return [row[-1] / row[i] for i, row in enumerate(rows)]


def _vertices(matrix: list[list[Fraction]]) -> list[tuple[int, int]]:
    """The non-zero vertices of {z >= 0 : matrix z <= 1}, each as the pair
    of bitmasks (support of z, rows tight at z)."""
    count, dim = len(matrix), len(matrix[0])
    found = set()
    for size in range(1, min(count, dim) + 1):
        for free in combinations(range(dim), size):
            for tight in combinations(range(count), size):
                solution = _solve([[matrix[i][j] for j in free] + [Fraction(1)] for i in tight])
                if solution is None or min(solution) < 0:
                    continue
                z = [Fraction(0)] * dim
                for j, v in zip(free, solution):
                    z[j] = v
                levels = [sum(a * v for a, v in zip(row, z)) for row in matrix]
                if max(levels) <= 1:
                    support = sum(1 << j for j, v in enumerate(z) if v)
                    found.add((support, sum(1 << i for i, v in enumerate(levels) if v == 1)))
    return sorted(found)


def _positive(matrix) -> list[list[Fraction]]:
    shift = 1 - min(Fraction(v) for row in matrix for v in row)
    return [[Fraction(v) + shift for v in row] for row in matrix]


def _unions(masks: list[int]) -> set[int]:
    """Every union of a non-empty subset of `masks`."""
    out: set[int] = set()
    for mask in masks:
        out |= {u | mask for u in out}
        out.add(mask)
    return out


def equilibrium_supports(a, b) -> set[tuple[int, int]]:
    """Every equilibrium support pair of the game (A, B), given as two
    equal-shape matrices of numbers, as bitmasks (rows, cols)."""
    m, n = len(a), len(a[0])
    # x in P: label i when x_i = 0, label m + j when column j is tight.
    # y in Q: label i when row i is tight, label m + j when y_j = 0.
    xs = [(s, ~s & (1 << m) - 1 | t << m) for s, t in _vertices([list(c) for c in zip(*_positive(b))])]
    ys = [(s, t | (~s & (1 << n) - 1) << m) for s, t in _vertices(_positive(a))]
    everything = (1 << m + n) - 1
    partners = [sum(1 << k for k, (_, ly) in enumerate(ys) if lx | ly == everything) for _, lx in xs]
    # (union of supp U, the y vertices joined to all of U) for every non-empty U
    # with a common partner, grown one extreme x at a time.
    states = {(xs[i][0], partners[i]) for i in range(len(xs)) if partners[i]}
    frontier = list(states)
    while frontier:
        rows, common = frontier.pop()
        for i, joined in enumerate(partners):
            state = (rows | xs[i][0], common & joined)
            if state[1] and state not in states:
                states.add(state)
                frontier.append(state)
    pairs = set()
    for rows, common in states:
        for cols in _unions([ys[k][0] for k in range(len(ys)) if common >> k & 1]):
            pairs.add((rows, cols))
    return pairs
