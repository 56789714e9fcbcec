"""The two-pass checks the exact routes' one-pass walk replaced.

It draws every candidate of the route's strategy-level graph into one list
before checking any: a depth-first walk adds rows by increasing index,
counts each row set's bicliques in closed form and refuses past the
budget, and keeps the column sets pure dominance leaves.  It then sorts the
list by total support size (Porter, Nudelman & Shoham 2004) and runs
`fp1_check` on each pair with the run's one record.  The tests hold the
walk to its entries, stats, LP counts and refusals.

By default it draws over the game of the program's merged run, as the
routes do: the quotient of a two-sided reduced game by payoff-equivalent
strategies, each pair counting as the pairs of the reduced game it stands
for, and a feasible pair published as the run publishes it.  It counts
`pruned` itself: the pairs pure dominance drops while drawing and those
`fp1_check` rejects without an LP, each by that weight.  With `merge=False`
it draws and checks every pair of the reduced game itself.
"""

from __future__ import annotations

import nashcycles.equilibria as equilibria
from nashcycles.equilibria import (
    BudgetExceededError,
    EquilibriumSet,
    PipelineStats,
    _mutual,
    _Publisher,
    _stand_ins,
)
from nashcycles.games import Game
from nashcycles.lp import InfeasibleSides, fp1_check


def weight(run: _Publisher, rows: int, cols: int) -> int:
    """The number of pairs of the reduced game that the pair (rows, cols)
    of `run.game` stands for: 1 with no class."""
    if run.sizes is None:
        return 1
    return _stand_ins(rows, run.sizes[0]) * _stand_ins(cols, run.sizes[1])


def column_sets(record: InfeasibleSides, rows: int, cols: int, dropped: list):
    """Yield, in decreasing mask order, the non-empty column sets C in
    `cols` for which pure dominance rules out neither side of (rows, C),
    and append each other pair (rows, C) to `dropped`."""
    free = cols & ~record._responders_dominated(1, rows)
    sub = cols
    while sub:
        if sub & ~free or rows & record._responders_dominated(0, sub):
            dropped.append((rows, sub))
        else:
            yield sub
        sub = sub - 1 & cols


def bicliques(mutual: list[int], record: InfeasibleSides, budget: int, run: _Publisher, dropped: list):
    """Lazily yield every pair (R, C) of `run.game` with C inside the columns
    joined both ways to every row of R, as `_mutual` gives them, that
    `column_sets` leaves, appending the others to `dropped`.  Refuses a
    fully joined graph on its count before the walk, and any other once its
    count passes `budget`, each pair counted as the pairs of the reduced
    game it stands for."""
    m, n = run.game.m, run.game.n
    sizes = ((1,) * m, (1,) * n) if run.sizes is None else run.sizes
    total = ((1 << sum(sizes[0])) - 1) * ((1 << sum(sizes[1])) - 1)
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
        width = sum(sizes[1][y] for y in range(n) if narrowed >> y & 1)
        count += _stand_ins(grown, sizes[0]) * ((1 << width) - 1)
        if count > budget:
            raise BudgetExceededError(budget + 1, budget)
        for cols in column_sets(record, grown, narrowed, dropped):
            yield grown, cols
        stack.append((grown, narrowed, x + 1))


def candidates(
    original: Game, red, route: str, budget: int = equilibria.DEFAULT_BUDGET, merge: bool = True
):
    """The program's run on the reduced game `red` of `original`, merged
    unless `merge` is off, a fresh record for the game it walks, every
    candidate drawn with the record, in the order drawn, and the weight of
    the pairs pure dominance dropped.  Full-caps `gi` and `supports` walk
    the complete graph; `gr` walks G_R, built with the same record."""
    run = _Publisher(red, original, merge)
    walked = run.game
    record = InfeasibleSides(walked)
    if route == "gr":
        mutual = _mutual(equilibria.build_gr(walked, record))
    else:
        mutual = [(1 << walked.n) - 1] * walked.m
    dropped = []
    pending = list(bicliques(mutual, record, budget, run, dropped))
    return run, record, pending, sum(weight(run, *pair) for pair in dropped)


def checked(
    original: Game, run: _Publisher, pending, dropped: int, method: str, record: InfeasibleSides
) -> EquilibriumSet:
    """`fp1_check` on the candidates `pending` over `run.game`, smallest
    total support first (a stable sort), each feasible pair published by
    `run`; `dropped` is the weight of the pairs drawn and dropped before.
    `pruned` adds the weight of each pair `fp1_check` counts as rejected
    without an LP in `record.pruned`."""
    drawn = sum(weight(run, *pair) for pair in pending) + dropped
    pending = sorted(pending, key=lambda pair: pair[0].bit_count() + pair[1].bit_count())
    entries, pruned = [], dropped
    for rows, cols in pending:
        rejected = record.pruned
        feasible, witness = fp1_check(record.game, rows, cols, record)
        pruned += weight(run, rows, cols) * (record.pruned - rejected)
        if feasible:
            run.publish(entries, rows, cols, witness)
    entries.sort(key=lambda e: (e.support.rows, e.support.cols))
    stats = PipelineStats(drawn, pruned, len(entries))
    return EquilibriumSet(original, method, tuple(entries), stats)


def reference_route(
    g: Game, route: str, budget: int = equilibria.DEFAULT_BUDGET, merge: bool = True
) -> EquilibriumSet:
    """What `enumerate_by_<route>` returned before the one-pass walk, `gi`
    at full caps; raises its BudgetExceededError.  Elimination, G_R and the
    run are the program's own; a one-sided walked game, too, is drawn and
    checked with a record."""
    red = equilibria.iterated_elimination(g)
    method = f"gi(k={red.game.m},l={red.game.n})" if route == "gi" else route
    run, record, pending, dropped = candidates(g, red, route, budget, merge)
    return checked(g, run, pending, dropped, method, record)
