"""Equilibrium pipelines.

Three routes to the same set: exhaustive support enumeration (the
correctness oracle), the bicliques of the strategy-level relevancy graph
G_R, and the subset-level graph: its 3-cycles at full caps, the cycle
basis of the capped graph below them.  Every candidate support pair faces
the same feasibility check, so at full caps all three must agree exactly.

The `gr` candidates are sound because of what an arc of G_R means.  If
(p, q) is an equilibrium with supports (R, C), every row x in R is a best
response to q, whose support is C, so C is a subset of R(x); likewise R is a
subset of R(y) for every column y in C.  So the arcs of an equilibrium
support pair run both ways between R and C, and no other pair needs a check.

A candidate is two bitmasks (rows, cols) over the eliminated game from
the generator to the check, and the check's witness is two integer weight
vectors.  All results are reported in the coordinates of the game as
given: pipelines run iterated elimination internally and map the supports
of each equilibrium found, as a `SupportPair`, and its witnesses back
through the index maps, making each probability and payoff once there.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .cycles import DEFAULT_BUDGET, BudgetExceededError, cycle_basis, enumerate_support_trees
# compute_domain_table is unused here, but bench/tracing.py wraps it in this namespace.
from .domgraph import BipartiteDigraph, _bits, build_gi, build_gr, compute_domain_table
from .games import (
    Game,
    MixedStrategy,
    ReducedGame,
    SupportPair,
    iterated_elimination,
    pure_payoff_against,
    write_game,
)
from .lp import InfeasibleSides, fp1_check

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "Equilibrium",
    "EquilibriumSet",
    "PipelineStats",
    "eliminable_strategies",
    "enumerate_by_gi",
    "enumerate_by_gr",
    "enumerate_by_supports",
    "game_hash",
    "verify_equilibrium",
]

@dataclass(frozen=True)
class Equilibrium:
    support: SupportPair
    p: MixedStrategy
    q: MixedStrategy
    u1: Fraction
    u2: Fraction


@dataclass(frozen=True)
class PipelineStats:
    """Candidates, candidates rejected without an LP (by pure dominance,
    in the biclique walk or in the check, or by a recorded infeasible side),
    and equilibria found."""

    candidates: int
    pruned: int
    feasible: int


@dataclass(frozen=True)
class EquilibriumSet:
    game_hash: str
    method: str
    entries: tuple[Equilibrium, ...]
    stats: PipelineStats

    def support_pairs(self) -> tuple[SupportPair, ...]:
        return tuple(e.support for e in self.entries)


def game_hash(game: Game) -> str:
    return hashlib.sha256(write_game(game).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Shared pipeline plumbing
# ---------------------------------------------------------------------------

def _lift(red: ReducedGame, original: Game, rows: int, cols: int, witness) -> Equilibrium:
    """The equilibrium of `fp1_check`'s witness (p_weights, q_weights) for
    the masks (rows, cols) over `red.game`, in the coordinates of `original`.

    Each probability is made once, as w / sum(w) at its original index.
    The common payoffs are the lowest support row's and column's payoffs
    against the weights, read off `red.game.int_payoffs` and divided by
    the matrix's scale."""
    p_weights, q_weights = witness
    p_full = [0] * original.m
    for i, w in zip(red.row_map, p_weights):
        p_full[i] = w
    q_full = [0] * original.n
    for j, w in zip(red.col_map, q_weights):
        q_full[j] = w
    (scale1, rows1), (scale2, cols2) = red.game.int_payoffs
    row = rows1[(rows & -rows).bit_length() - 1]
    col = cols2[(cols & -cols).bit_length() - 1]
    u1 = Fraction(sum(a * w for a, w in zip(row, q_weights)), scale1 * sum(q_weights))
    u2 = Fraction(sum(b * w for b, w in zip(col, p_weights)), scale2 * sum(p_weights))
    lifted = SupportPair(red.original_rows(_bits(rows)), red.original_cols(_bits(cols)))
    p = MixedStrategy.from_weights(1, p_full)
    q = MixedStrategy.from_weights(2, q_full)
    return Equilibrium(lifted, p, q, u1, u2)


def _run_checks(
    original: Game,
    red: ReducedGame,
    candidates: Iterable[tuple[int, int]],
    method: str,
    budget: int,
    infeasible: InfeasibleSides,
) -> EquilibriumSet:
    """Check every candidate (rows, cols), a pair of bitmasks over
    `red.game`, smallest total support first, asking the run's record
    `infeasible` (made for `red.game`).

    Raises BudgetExceededError as soon as the candidates, drawn lazily,
    number more than `budget`, so no generator runs further than that.
    Every generator yields distinct pairs.  Pairs the record left out of
    a walk, already in `infeasible.pruned`, count as candidates too.  A
    side recorded infeasible for (R, C) rules out only pairs (R', C) with
    R' containing R, or (R, C') with C' containing C: larger pairs, unless
    it is the same one.  So checking by size alone (Porter, Nudelman &
    Shoham 2004) records every infeasible side before any candidate it
    rules out is reached, and the order within a size changes no answer.
    """
    pending: list[tuple[int, int]] = []
    for pair in candidates:
        pending.append(pair)
        if len(pending) > budget:
            raise BudgetExceededError(len(pending), budget)
    drawn = len(pending) + infeasible.pruned
    pending.sort(key=lambda pair: pair[0].bit_count() + pair[1].bit_count())
    entries = []
    for rows, cols in pending:
        feasible, witness = fp1_check(red.game, rows, cols, infeasible)
        if feasible:
            entries.append(_lift(red, original, rows, cols, witness))
    entries.sort(key=lambda e: (e.support.rows, e.support.cols))
    stats = PipelineStats(drawn, infeasible.pruned, len(entries))
    return EquilibriumSet(game_hash(original), method, tuple(entries), stats)


def _bicliques(
    graph: BipartiteDigraph, record: InfeasibleSides, budget: int
) -> Iterator[tuple[int, int]]:
    """Lazily yield every support pair (R, C) of a strategy-level graph with
    all arcs of R x C and of C x R present, each once as the bitmask pair
    (rows, cols), except the pairs the pure conditional-dominance test of
    `record` rules out.

    Row sets are walked depth-first by increasing index, keeping the columns
    joined both ways to every row so far; that set only shrinks as R grows,
    so the walk stops where it empties.  On reaching R it counts R's
    2^k - 1 bicliques, k the joined columns, in closed form, and raises
    BudgetExceededError(budget + 1, budget) once the count passes `budget`,
    before building any of them.  It then yields the column sets
    `record.column_sets` leaves, which counts the rest as pruned, so a
    visited row set may yield nothing.  The walk keeps its own stack of
    (rows, joined columns, next row to try), one entry per level, so a tall
    game refuses on its count, not on Python's recursion limit.
    """
    m, n = len(graph.left), len(graph.right)
    mutual = [
        sum(1 << w - m for w in _bits(graph.succ[x]) if graph.succ[w] >> x & 1) for x in range(m)
    ]
    count = 0
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        rows, allowed, x = stack.pop()
        while x < m and not allowed & mutual[x]:
            x += 1
        if x == m:
            continue
        stack.append((rows, allowed, x + 1))
        grown, narrowed = rows | 1 << x, allowed & mutual[x]
        count += (1 << narrowed.bit_count()) - 1
        if count > budget:
            raise BudgetExceededError(budget + 1, budget)
        for cols in record.column_sets(grown, narrowed):
            yield grown, cols
        stack.append((grown, narrowed, x + 1))


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def _support_walk(game: Game, red: ReducedGame, method: str, budget: int) -> EquilibriumSet:
    """`enumerate_by_supports` on the eliminated game `red`, labelled `method`."""
    m, n = red.game.m, red.game.n
    total = ((1 << m) - 1) * ((1 << n) - 1)
    if total > budget:
        raise BudgetExceededError(total, budget)
    record = InfeasibleSides(red.game)
    candidates = _bicliques(BipartiteDigraph.complete(m, n), record, budget)
    return _run_checks(game, red, candidates, method, budget, record)


def enumerate_by_supports(game: Game, budget: int = DEFAULT_BUDGET) -> EquilibriumSet:
    """Exhaustive oracle: runs the feasibility check on every support pair
    of the eliminated game (the bicliques of the complete graph), smallest
    supports first.

    Refuses games whose (2^m - 1)(2^n - 1) candidate count (after
    elimination) exceeds `budget`.
    """
    return _support_walk(game, iterated_elimination(game), "supports", budget)


def enumerate_by_gr(game: Game, budget: int = DEFAULT_BUDGET) -> EquilibriumSet:
    """Strategy-graph pipeline: one feasibility check per biclique of the
    relevancy graph G_R, smallest supports first.

    The bicliques are the support pairs (R, C) with C a subset of R(x) for
    every row x in R and R a subset of R(y) for every column y in C; every
    equilibrium support pair is one (see the module docstring), and on a
    complete G_R every support pair is one.  G_R's build and the checks
    share one record, so a full row's side is solved once.  Refuses games
    with more than `budget` bicliques.
    """
    red = iterated_elimination(game)
    record = InfeasibleSides(red.game)
    candidates = _bicliques(build_gr(red.game, record), record, budget)
    return _run_checks(game, red, candidates, "gr", budget, record)


def enumerate_by_gi(
    game: Game, k: int, l: int, budget: int = DEFAULT_BUDGET
) -> EquilibriumSet:
    """Subset-graph pipeline with vertex-size caps k and l.

    At full caps (k = m, l = n after elimination) G_D's 3-cycles R -> C -> R
    are exactly the equilibrium support pairs, so its arcs are asked lazily
    in the oracle's walk: `fp1_check` asks R -> C, then C -> R only if that
    holds, and an arc left unasked closes no 3-cycle.  Result, stats and
    budget are the oracle's.  Below full caps the run is a heuristic whose
    candidates come from G_I's cycle basis (longer cycles and artificial
    arcs included): each class's strategy sets, and per vertex the union
    of the classes through it.  The basis refuses past `budget` classes,
    the checks past `budget` candidates.
    """
    if k < 1 or l < 1:
        raise ValueError("size caps must be at least 1")
    red = iterated_elimination(game)
    rg = red.game
    k = min(k, rg.m)
    l = min(l, rg.n)
    method = f"gi(k={k},l={l})"
    if k == rg.m and l == rg.n:
        return _support_walk(game, red, method, budget)
    record = InfeasibleSides(rg)
    graph = build_gi(rg, k, l, record)
    candidates = enumerate_support_trees(graph, cycle_basis(graph, budget))
    return _run_checks(game, red, candidates, method, budget, record)


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------

def eliminable_strategies(game: Game, omega: EquilibriumSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Strategies appearing in no equilibrium support, per player."""
    rows_used: set[int] = set()
    cols_used: set[int] = set()
    for entry in omega.entries:
        rows_used.update(entry.support.rows)
        cols_used.update(entry.support.cols)
    return (
        tuple(sorted(set(range(game.m)) - rows_used)),
        tuple(sorted(set(range(game.n)) - cols_used)),
    )


def verify_equilibrium(
    game: Game, p: MixedStrategy, q: MixedStrategy
) -> tuple[bool, tuple[str, ...]]:
    """Check the best-response characterization exactly: every in-support
    pure strategy must earn at least as much as every alternative against
    the opposing strategy.  Returns the verdict plus one message per
    violated condition (1-based indices)."""
    if p.owner != 1 or q.owner != 2:
        raise ValueError("p must belong to player 1 and q to player 2")
    if len(p.probs) != game.m or len(q.probs) != game.n:
        raise ValueError("strategy length does not match game dimensions")
    violations = []
    for player, mine, theirs, label in ((1, p, q, "row"), (2, q, p, "column")):
        payoffs = [pure_payoff_against(game, player, s, theirs) for s in range(len(mine.probs))]
        for x in mine.support:
            own = payoffs[x]
            for other, rival in enumerate(payoffs):
                if rival > own:
                    violations.append(
                        f"player {player} {label} {x + 1} is in the support but earns "
                        f"{own} < {rival} of {label} {other + 1}"
                    )
    return (not violations, tuple(violations))
