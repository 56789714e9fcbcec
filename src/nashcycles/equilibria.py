"""Equilibrium pipelines.

Three routes to the same set: exhaustive support enumeration (the
correctness oracle), the bicliques of the strategy-level relevancy graph
G_R, and support trees of the capped subset-level graph.  Every candidate
support pair faces the same feasibility check, so the pipelines differ
only in how they generate candidates; at full caps all three must agree
exactly.

The `gr` candidates are sound because of what an arc of G_R means.  If
(p, q) is an equilibrium with supports (R, C), every row x in R is a best
response to q, whose support is C, so C is a subset of R(x); likewise R is a
subset of R(y) for every column y in C.  So the arcs of an equilibrium
support pair run both ways between R and C, and no other pair needs a check.

All results are reported in the coordinates of the game as given:
pipelines run iterated elimination internally and map supports and
witnesses back through the index maps.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .cycles import CycleClassLimit, cycle_basis, enumerate_support_trees
# compute_domain_table is unused here, but bench/tracing.py wraps it in this namespace.
from .domgraph import BipartiteDigraph, build_gi, build_gr, compute_domain_table
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

DEFAULT_BUDGET = 1 << 20


class BudgetExceededError(RuntimeError):
    """Raised instead of starting a run whose candidate count exceeds the
    configured budget."""

    def __init__(self, candidates: int, budget: int):
        self.candidates = candidates
        self.budget = budget
        super().__init__(f"{candidates} candidates exceed the budget of {budget}")


@dataclass(frozen=True)
class Equilibrium:
    support: SupportPair
    p: MixedStrategy
    q: MixedStrategy
    u1: Fraction
    u2: Fraction


@dataclass(frozen=True)
class PipelineStats:
    """Candidates checked, candidates rejected without an LP (by pure
    dominance or a recorded infeasible side), and equilibria found."""

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

def _lift(red: ReducedGame, original: Game, support: SupportPair, witness) -> Equilibrium:
    p_red, q_red, u1, u2 = witness
    p_full = [Fraction(0)] * original.m
    for i, prob in enumerate(p_red.probs):
        p_full[red.row_map[i]] = prob
    q_full = [Fraction(0)] * original.n
    for j, prob in enumerate(q_red.probs):
        q_full[red.col_map[j]] = prob
    lifted = SupportPair(red.original_rows(support.rows), red.original_cols(support.cols))
    return Equilibrium(lifted, MixedStrategy(1, tuple(p_full)), MixedStrategy(2, tuple(q_full)), u1, u2)


def _run_checks(
    original: Game,
    red: ReducedGame,
    candidates: Iterable[SupportPair],
    method: str,
    budget: int,
    infeasible: InfeasibleSides,
) -> EquilibriumSet:
    """Check every candidate, smallest supports first, asking the run's
    record `infeasible` (made for `red.game`).

    Raises BudgetExceededError as soon as the candidates, drawn lazily,
    number more than `budget`, so no generator runs further than that.
    Candidates must be distinct.  Checking them in `SupportPair.sort_key`
    order (Porter, Nudelman & Shoham 2004) records every infeasible side
    before any candidate it rules out is reached.
    """
    pending: list[SupportPair] = []
    for sp in candidates:
        pending.append(sp)
        if len(pending) > budget:
            raise BudgetExceededError(len(pending), budget)
    pending.sort(key=SupportPair.sort_key)
    entries = []
    for sp in pending:
        feasible, witness = fp1_check(red.game, sp, infeasible)
        if feasible:
            entries.append(_lift(red, original, sp, witness))
    entries.sort(key=lambda e: (e.support.rows, e.support.cols))
    stats = PipelineStats(len(pending), infeasible.pruned, len(entries))
    return EquilibriumSet(game_hash(original), method, tuple(entries), stats)


def _bicliques(graph: BipartiteDigraph) -> Iterator[SupportPair]:
    """Lazily yield every support pair (R, C) of a strategy-level graph with
    all arcs of R x C and of C x R present, each once.

    Row sets are walked depth-first by increasing index, keeping the columns
    joined both ways to every row so far; that set only shrinks as R grows,
    so the walk stops where it empties and every row set it visits yields at
    least one pair.
    """
    m, n = len(graph.left), len(graph.right)
    mutual = [
        sum(1 << y for y in range(n) if graph.adj_lr[x][y] and graph.adj_rl[y][x])
        for x in range(m)
    ]

    def walk(rows: tuple[int, ...], allowed: int, start: int) -> Iterator[SupportPair]:
        for x in range(start, m):
            narrowed = allowed & mutual[x]
            if not narrowed:
                continue
            grown = rows + (x,)
            cols = [y for y in range(n) if narrowed >> y & 1]
            for size in range(1, len(cols) + 1):
                for chosen in itertools.combinations(cols, size):
                    yield SupportPair(grown, chosen)
            yield from walk(grown, narrowed, x + 1)

    return walk((), (1 << n) - 1, 0)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def enumerate_by_supports(game: Game, budget: int = DEFAULT_BUDGET) -> EquilibriumSet:
    """Exhaustive oracle: runs the feasibility check on every support pair
    of the eliminated game (the bicliques of the complete graph), smallest
    supports first.

    Refuses games whose (2^m - 1)(2^n - 1) candidate count (after
    elimination) exceeds `budget`.
    """
    red = iterated_elimination(game)
    m, n = red.game.m, red.game.n
    total = ((1 << m) - 1) * ((1 << n) - 1)
    if total > budget:
        raise BudgetExceededError(total, budget)
    candidates = _bicliques(BipartiteDigraph.complete(m, n))
    return _run_checks(game, red, candidates, "supports", budget, InfeasibleSides(red.game))


def enumerate_by_gr(game: Game, budget: int = DEFAULT_BUDGET) -> EquilibriumSet:
    """Strategy-graph pipeline: one feasibility check per biclique of the
    relevancy graph G_R, smallest supports first.

    The bicliques are the support pairs (R, C) with C a subset of R(x) for
    every row x in R and R a subset of R(y) for every column y in C; every
    equilibrium support pair is one (see the module docstring), and on a
    complete G_R every support pair is one.  Refuses games with more than
    `budget` bicliques.
    """
    red = iterated_elimination(game)
    candidates = _bicliques(build_gr(red.game))
    return _run_checks(game, red, candidates, "gr", budget, InfeasibleSides(red.game))


def enumerate_by_gi(
    game: Game, k: int, l: int, budget: int = DEFAULT_BUDGET
) -> EquilibriumSet:
    """Subset-graph pipeline with vertex-size caps k and l.

    At full caps (k = m, l = n after elimination) the result provably
    equals the oracle and only 3-cycles are enumerated; with smaller caps
    the run is a heuristic whose candidates come from longer cycles,
    artificial arcs, and pairwise-intersecting cycle families.
    """
    if k < 1 or l < 1:
        raise ValueError("size caps must be at least 1")
    red = iterated_elimination(game)
    rg = red.game
    k = min(k, rg.m)
    l = min(l, rg.n)
    record = InfeasibleSides(rg)
    graph = build_gi(rg, k, l, record)
    full_caps = k == rg.m and l == rg.n
    try:
        basis = cycle_basis(graph, max_len=3 if full_caps else None, max_classes=budget)
    except CycleClassLimit as exc:
        raise BudgetExceededError(exc.count, budget) from None
    trees = enumerate_support_trees(graph, basis, "gi", (rg.m, rg.n))
    candidates = {tree.support_pair(graph) for tree in trees}
    return _run_checks(game, red, candidates, f"gi(k={k},l={l})", budget, record)


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
    for x in p.support:
        own = pure_payoff_against(game, 1, x, q)
        for other in range(game.m):
            rival = pure_payoff_against(game, 1, other, q)
            if rival > own:
                violations.append(
                    f"player 1 row {x + 1} is in the support but earns {own} < {rival} of row {other + 1}"
                )
    for y in q.support:
        own = pure_payoff_against(game, 2, y, p)
        for other in range(game.n):
            rival = pure_payoff_against(game, 2, other, p)
            if rival > own:
                violations.append(
                    f"player 2 column {y + 1} is in the support but earns {own} < {rival} of column {other + 1}"
                )
    return (not violations, tuple(violations))
