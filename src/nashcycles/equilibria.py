"""Equilibrium pipelines.

Three routes to the same set: exhaustive support enumeration (the
correctness oracle), support trees of the strategy-level dominance graph,
and support trees of the capped subset-level graph.  Every candidate
support pair faces the same feasibility check, so the pipelines differ
only in how they generate candidates; at full caps all three must agree
exactly.

All results are reported in the coordinates of the game as given:
pipelines run iterated elimination internally and map supports and
witnesses back through the index maps.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .cycles import CycleClassLimit, cycle_basis, enumerate_support_trees
from .domgraph import build_gi, build_gr, compute_domain_table
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
    """Candidates checked, candidates rejected without an LP because a
    recorded infeasible side ruled them out, and equilibria found."""

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
    candidates: Sequence[SupportPair],
    method: str,
) -> EquilibriumSet:
    # Candidates arrive smallest-first, so every infeasible side is recorded
    # before any candidate it rules out is reached.
    infeasible = InfeasibleSides()
    entries = []
    for sp in candidates:
        feasible, witness = fp1_check(red.game, sp, infeasible)
        if feasible:
            entries.append(_lift(red, original, sp, witness))
    entries.sort(key=lambda e: (e.support.rows, e.support.cols))
    stats = PipelineStats(len(candidates), infeasible.pruned, len(entries))
    return EquilibriumSet(game_hash(original), method, tuple(entries), stats)


def _all_support_pairs(m: int, n: int) -> Iterable[SupportPair]:
    # Smallest total support size first, then lexicographic per side.
    for total in range(2, m + n + 1):
        for r in range(max(1, total - n), min(m, total - 1) + 1):
            for rows in itertools.combinations(range(m), r):
                for cols in itertools.combinations(range(n), total - r):
                    yield SupportPair(rows, cols)


def _support_space(m: int, n: int, budget: int) -> list[SupportPair]:
    """Every support pair, unless their (2^m - 1)(2^n - 1) count exceeds
    `budget`."""
    total = ((1 << m) - 1) * ((1 << n) - 1)
    if total > budget:
        raise BudgetExceededError(total, budget)
    return list(_all_support_pairs(m, n))


def _collect_tree_candidates(graph, trees, budget: int) -> list[SupportPair]:
    seen: set[SupportPair] = set()
    for tree in trees:
        sp = tree.support_pair(graph)
        if sp not in seen:
            seen.add(sp)
            if len(seen) > budget:
                raise BudgetExceededError(len(seen), budget)
    return sorted(seen, key=SupportPair.sort_key)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def enumerate_by_supports(game: Game, budget: int = DEFAULT_BUDGET) -> EquilibriumSet:
    """Exhaustive oracle: runs the feasibility check on every support pair
    of the eliminated game, smallest supports first.

    Refuses games whose (2^m - 1)(2^n - 1) candidate count (after
    elimination) exceeds `budget`.
    """
    red = iterated_elimination(game)
    return _run_checks(game, red, _support_space(red.game.m, red.game.n, budget), "supports")


def enumerate_by_gr(game: Game, budget: int = DEFAULT_BUDGET) -> EquilibriumSet:
    """Strategy-graph pipeline: cycle basis of the relevancy graph, support
    trees, one feasibility check per distinct candidate support pair.

    A complete relevancy graph cannot prune: its basis and trees yield every
    support pair, so the candidates are then taken directly from the full
    support space, in the same order.
    """
    red = iterated_elimination(game)
    rg = red.game
    graph = build_gr(rg)
    if graph.arc_count() == 2 * rg.m * rg.n:
        candidates = sorted(_support_space(rg.m, rg.n, budget), key=SupportPair.sort_key)
    else:
        basis = cycle_basis(graph)
        trees = enumerate_support_trees(graph, basis, "gr", (rg.m, rg.n))
        candidates = _collect_tree_candidates(graph, trees, budget)
    return _run_checks(game, red, candidates, "gr")


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
    row_domains = compute_domain_table(rg, 1, l)
    col_domains = compute_domain_table(rg, 2, k)
    graph = build_gi(rg, k, l, row_domains, col_domains)
    full_caps = k == rg.m and l == rg.n
    try:
        basis = cycle_basis(graph, max_len=3 if full_caps else None, max_classes=budget)
    except CycleClassLimit as exc:
        raise BudgetExceededError(exc.count, budget) from None
    trees = enumerate_support_trees(graph, basis, "gi", (rg.m, rg.n))
    candidates = _collect_tree_candidates(graph, trees, budget)
    return _run_checks(game, red, candidates, f"gi(k={k},l={l})")


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
