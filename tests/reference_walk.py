"""The two-pass checks the exact routes' one-pass walk replaced.

It draws every candidate of the route's strategy-level graph into one list
before checking any: a depth-first walk adds rows by increasing index,
counts each row set's bicliques in closed form and refuses past the
budget, and keeps the column sets pure dominance leaves.  It then sorts the
list by total support size (Porter, Nudelman & Shoham 2004) and runs
`fp1_check` on each pair with the run's one record.  The tests hold the
walk to its entries, stats, LP counts and refusals.
"""

from __future__ import annotations

import nashcycles.equilibria as equilibria
from nashcycles.equilibria import (
    BudgetExceededError,
    EquilibriumSet,
    PipelineStats,
    _mutual,
    _Publisher,
)
from nashcycles.games import Game
from nashcycles.lp import InfeasibleSides, fp1_check


def column_sets(record: InfeasibleSides, rows: int, cols: int):
    """Yield, in decreasing mask order, the non-empty column sets C in
    `cols` for which pure dominance rules out neither side of (rows, C),
    and add the others to `record.pruned` after the last."""
    free = cols & ~record._responders_dominated(1, rows)
    kept = 0
    sub = free
    while sub:
        if not rows & record._responders_dominated(0, sub):
            kept += 1
            yield sub
        sub = sub - 1 & free
    record.pruned += (1 << cols.bit_count()) - 1 - kept


def bicliques(mutual: list[int], n: int, record: InfeasibleSides, budget: int):
    """Lazily yield every pair (R, C) with C inside the columns joined both
    ways to every row of R, as `_mutual` gives them over `n` columns, that
    `column_sets` leaves.  Refuses a fully joined graph on its count before
    the walk, and any other once its closed-form count passes `budget`."""
    m = len(mutual)
    total = ((1 << m) - 1) * ((1 << n) - 1)
    if total > budget and mutual.count((1 << n) - 1) == m:
        raise BudgetExceededError(total, budget)
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
        for cols in column_sets(record, grown, narrowed):
            yield grown, cols
        stack.append((grown, narrowed, x + 1))


def candidates(rg: Game, route: str, budget: int = equilibria.DEFAULT_BUDGET):
    """A fresh record for the reduced game `rg` and every candidate `route`
    draws with it, in the order drawn.  Full-caps `gi` and `supports` walk
    the complete graph; `gr` walks G_R, built with the same record."""
    record = InfeasibleSides(rg)
    if route == "gr":
        mutual = _mutual(equilibria.build_gr(rg, record))
    else:
        mutual = [(1 << rg.n) - 1] * rg.m
    return record, list(bicliques(mutual, rg.n, record, budget))


def checked(original: Game, red, pending, method: str, record: InfeasibleSides) -> EquilibriumSet:
    """`fp1_check` on the candidates `pending` over `red.game`, smallest
    total support first (a stable sort), each feasible pair published."""
    drawn = len(pending) + record.pruned
    pending = sorted(pending, key=lambda pair: pair[0].bit_count() + pair[1].bit_count())
    publish = _Publisher(red, original).entry
    entries = []
    for rows, cols in pending:
        feasible, witness = fp1_check(red.game, rows, cols, record)
        if feasible:
            entries.append(publish(rows, cols, witness))
    entries.sort(key=lambda e: (e.support.rows, e.support.cols))
    stats = PipelineStats(drawn, record.pruned, len(entries))
    return EquilibriumSet(original, method, tuple(entries), stats)


def reference_route(g: Game, route: str, budget: int = equilibria.DEFAULT_BUDGET) -> EquilibriumSet:
    """What `enumerate_by_<route>` returned before the one-pass walk, `gi`
    at full caps; raises its BudgetExceededError.  Elimination and G_R are
    the program's own; a one-sided game, too, is drawn and checked with a
    record."""
    red = equilibria.iterated_elimination(g)
    rg = red.game
    method = f"gi(k={rg.m},l={rg.n})" if route == "gi" else route
    record, pending = candidates(rg, route, budget)
    return checked(g, red, pending, method, record)
