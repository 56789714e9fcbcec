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

A game that elimination leaves one strategy on one side is one-sided: the
other player's survivors all tie against that strategy, or elimination
would have removed them, so every support pair of the reduced game is an
equilibrium.  The walk takes it with no record, graph or check, and
publishes each pair with the lone strategy pure and the other side
uniform: the check's witness too, since a one-strategy side has only the
unit weight, and with no rival left the other side's uniform mixture
qualifies.

The exact routes walk and check in one pass (`_walk`), row sets and then
column sets in increasing mask order: every (R', C) with R' inside R and
(R, C') with C' inside C, the only pairs whose failed sides can rule (R, C)
out, comes first.  So the record holds at each pair what the order by total
size (Porter, Nudelman & Shoham 2004) gives it, and so do answers, stats
and LPs, with no candidate held.  Capped `gi`'s candidates come from
`enumerate_support_trees` already sorted by mask pair, and each faces
`fp1_check` in that order.  Both build their result in `_result`.

A candidate is two bitmasks (rows, cols) over the eliminated game from
the walk to the check, and the check's witness is two integer weight
vectors.  All results are reported in the coordinates of the game as
given: pipelines run iterated elimination internally and map the supports
of each equilibrium found, as a `SupportPair`, and its witnesses back
through the index maps.  An entry keeps each side in integers
(`EquilibriumSide`), one per distinct side witness of the run, shared by
the entries using it; its strategy and payoff `Fraction`s are made only
when first read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

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
    "EquilibriumSide",
    "PipelineStats",
    "eliminable_strategies",
    "enumerate_by_gi",
    "enumerate_by_gr",
    "enumerate_by_supports",
    "game_hash",
    "verify_equilibrium",
]

class EquilibriumSide:
    """One player's strategy in an equilibrium, in integers: `weights`, its
    integer weights over that player's strategies in the game as given,
    divided by their gcd, and their sum `total`, so the strategy is
    weights / total; and `payoff`, the numerator and denominator (> 0, in
    lowest terms) of what the other player's best responses earn against
    it.  `strategy` and `value` are the `MixedStrategy` and `Fraction`
    views, each made on first read.  `==` and `hash` compare the integer
    form.  Written out rather than as a frozen dataclass, whose
    `cached_property` views (locked on CPython 3.11) or `object.__setattr__`
    construction make solving and then reading every result slower."""

    __slots__ = ("owner", "weights", "total", "payoff", "_strategy", "_value")

    def __init__(self, owner: int, weights: tuple[int, ...], total: int, payoff: tuple[int, int]):
        self.owner = owner
        self.weights = weights
        self.total = total
        self.payoff = payoff
        self._strategy = self._value = None

    def _key(self):
        return self.owner, self.weights, self.payoff

    def __eq__(self, other):
        if type(other) is not EquilibriumSide:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"EquilibriumSide(owner={self.owner}, weights={self.weights}, payoff={self.payoff})"

    @property
    def strategy(self) -> MixedStrategy:
        if self._strategy is None:
            self._strategy = MixedStrategy._spread(self.owner, self.weights, self.total)
        return self._strategy

    @property
    def value(self) -> Fraction:
        if self._value is None:
            self._value = Fraction(*self.payoff)
        return self._value


@dataclass(frozen=True)
class Equilibrium:
    """An equilibrium found by a pipeline: its supports, and each player's
    side in integers (`sides` = (p's, q's)).  `p`, `q`, `u1` and `u2` are
    views of the sides, made on first read and shared by every entry of
    the run with the same side witness."""

    support: SupportPair
    sides: tuple[EquilibriumSide, EquilibriumSide]

    @property
    def p(self) -> MixedStrategy:
        return self.sides[0].strategy

    @property
    def q(self) -> MixedStrategy:
        return self.sides[1].strategy

    @property
    def u1(self) -> Fraction:
        """Player 1's payoff: what its best responses earn against q."""
        return self.sides[1].value

    @property
    def u2(self) -> Fraction:
        """Player 2's payoff: what its best responses earn against p."""
        return self.sides[0].value


@dataclass(frozen=True)
class PipelineStats:
    """Candidates, candidates rejected without an LP (by pure dominance or
    by a recorded infeasible side), and equilibria found."""

    candidates: int
    pruned: int
    feasible: int


@dataclass(frozen=True)
class EquilibriumSet:
    """The equilibria of `game`, the game as given (not its reduction),
    found by `method`."""

    game: Game
    method: str
    entries: tuple[Equilibrium, ...]
    stats: PipelineStats

    @functools.cached_property
    def game_hash(self) -> str:
        """`game_hash(self.game)`, computed on first read."""
        return game_hash(self.game)

    def support_pairs(self) -> tuple[SupportPair, ...]:
        return tuple(e.support for e in self.entries)


def game_hash(game: Game) -> str:
    """The first 16 hex digits of the SHA-256 of `write_game(game)`."""
    return _sha256()(write_game(game).encode()).hexdigest()[:16]


@functools.cache
def _sha256():
    """SHA-256's constructor, found on first use: CPython's built-in module
    first, because hashlib maps OpenSSL, which no solve needs (random.py
    does the same for SHA-512).  Cached, since a failed import is not: it
    searches sys.path again on every call."""
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256


# ---------------------------------------------------------------------------
# Shared pipeline plumbing
# ---------------------------------------------------------------------------

class _Publisher:
    """One run's lift of `fp1_check`'s witnesses over `red.game` into
    entries in the coordinates of `original`.

    Per player, a side witness (the integer weights `fp1_check` returns,
    divided by their gcd) maps to its `EquilibriumSide`, made once, so the
    entries of a continuum share it.  The weights alone are the key: every
    responder of a witness earns the top payoff against it, so the lowest
    responder of any pair using those weights gives the same value, read off
    `red.game.int_payoffs` over the matrix's scale (u1 against q's weights,
    u2 against p's).  The index maps ascend, so a lifted support needs no
    sort."""

    __slots__ = ("_views", "_maps", "_sizes", "_published")

    def __init__(self, red: ReducedGame, original: Game):
        self._views = red.game.int_payoffs
        self._maps = (red.row_map, red.col_map)
        self._sizes = (original.m, original.n)
        # Per player: reduced side weights -> its EquilibriumSide.
        self._published: tuple[dict, dict] = ({}, {})

    def entry(self, rows: int, cols: int, witness) -> Equilibrium:
        """The equilibrium of the masks (rows, cols) over the reduced game
        and `fp1_check`'s witness (p_weights, q_weights) for them."""
        p_weights, q_weights = witness
        sides = (self._side(0, p_weights, cols), self._side(1, q_weights, rows))
        row_map, col_map = self._maps
        support = SupportPair._ascending(
            tuple([row_map[i] for i in _bits(rows)]), tuple([col_map[j] for j in _bits(cols)])
        )
        return Equilibrium(support, sides)

    def _side(self, side: int, weights, responders: int) -> EquilibriumSide:
        common = math.gcd(*weights)
        if common > 1:
            weights = tuple([w // common for w in weights])
        published = self._published[side]
        found = published.get(weights)
        if found is None:
            total = sum(weights)
            scale, vectors = self._views[1 - side]
            base = vectors[(responders & -responders).bit_length() - 1]
            num, den = sum(a * w for a, w in zip(base, weights)), scale * total
            common = math.gcd(num, den)
            index_map, size = self._maps[side], self._sizes[side]
            lifted = weights
            if len(index_map) < size:
                lifted = [0] * size
                for i, w in zip(index_map, weights):
                    lifted[i] = w
                lifted = tuple(lifted)
            found = published[weights] = EquilibriumSide(
                side + 1, lifted, total, (num // common, den // common)
            )
        return found


def _result(
    original: Game, method: str, entries: list[Equilibrium], candidates: int, pruned: int
) -> EquilibriumSet:
    """A run's `EquilibriumSet`: its entries sorted by support, and its stats."""
    entries.sort(key=lambda e: (e.support.rows, e.support.cols))
    stats = PipelineStats(candidates, pruned, len(entries))
    return EquilibriumSet(original, method, tuple(entries), stats)


def _mutual(graph: BipartiteDigraph) -> list[int]:
    """Per row x of a strategy-level graph, the mask of the columns y with
    both arcs x -> y and y -> x, by one transpose of the columns' rows."""
    m = len(graph.left)
    back = [0] * m
    for y, rows in enumerate(graph.succ[m:]):
        for x in _bits(rows):
            back[x] |= 1 << y
    return [outs >> m & joined for outs, joined in zip(graph.succ, back)]


def _walk(
    original: Game, red: ReducedGame, mutual: list[int], record: InfeasibleSides | None,
    method: str, budget: int
) -> EquilibriumSet:
    """The exact routes' one pass over `_mutual` masks: row sets R depth-first
    in increasing mask order, a child adding an index below its parent's,
    while their joined columns J are not empty; each (R, C), C inside J, is
    a candidate, decided as drawn by `record.feasible_columns`.  Past
    `budget` candidates it refuses before deciding any: a fully joined graph
    on its count, any other by a first pass counting 2^|J| - 1 per R.  With
    no record `red` is one-sided and `mutual` complete: every pair is an
    equilibrium with the all-ones weights on its supports (see the module
    docstring), and none is pruned."""
    m, n = red.game.m, red.game.n
    total = ((1 << m) - 1) * ((1 << n) - 1)
    if total > budget and mutual.count((1 << n) - 1) == m:
        raise BudgetExceededError(total, budget)
    if record is None:
        def columns(rows: int, cols: int) -> list[tuple[int, tuple]]:
            p = tuple([rows >> i & 1 for i in range(m)])
            return [(c, (p, tuple([c >> j & 1 for j in range(n)]))) for c in range(1, cols + 1)]
    else:
        columns = record.feasible_columns
    publish, entries = _Publisher(red, original).entry, []
    for deciding in (False, True) if total > budget else (True,):
        drawn = 0
        stack = [(0, (1 << n) - 1, 0, m)]  # (rows, joined, next index, end) per level
        while stack:
            rows, joined, x, end = stack.pop()
            while x < end and not joined & mutual[x]:
                x += 1
            if x == end:
                continue
            stack.append((rows, joined, x + 1, end))
            rows, joined = rows | 1 << x, joined & mutual[x]
            stack.append((rows, joined, 0, x))
            drawn += (1 << joined.bit_count()) - 1
            if deciding:
                for cols, witness in columns(rows, joined):
                    entries.append(publish(rows, cols, witness))
            elif drawn > budget:
                raise BudgetExceededError(budget + 1, budget)
    return _result(original, method, entries, drawn, 0 if record is None else record.pruned)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def _support_walk(game: Game, red: ReducedGame, method: str, budget: int) -> EquilibriumSet:
    """`enumerate_by_supports` on the eliminated game `red`, labelled `method`:
    the complete graph's walk, with no record on a one-sided `red`."""
    rg = red.game
    record = InfeasibleSides(rg) if rg.m > 1 and rg.n > 1 else None
    return _walk(game, red, [(1 << rg.n) - 1] * rg.m, record, method, budget)


def enumerate_by_supports(game: Game, budget: int = DEFAULT_BUDGET) -> EquilibriumSet:
    """Exhaustive oracle: runs the feasibility check on every support pair
    of the eliminated game (the bicliques of the complete graph), in the
    one-pass walk.

    Refuses games whose (2^m - 1)(2^n - 1) candidate count (after
    elimination) exceeds `budget`, in the walk, before any pair is built.
    A one-sided game is walked with no record.
    """
    return _support_walk(game, iterated_elimination(game), "supports", budget)


def enumerate_by_gr(game: Game, budget: int = DEFAULT_BUDGET) -> EquilibriumSet:
    """Strategy-graph pipeline: one feasibility check per biclique of the
    relevancy graph G_R, in the one-pass walk.

    The bicliques are the support pairs (R, C) with C a subset of R(x) for
    every row x in R and R a subset of R(y) for every column y in C; every
    equilibrium support pair is one (see the module docstring), and on a
    complete G_R every support pair is one.  G_R's build and the checks
    share one record, so a full row's side is solved once.  Refuses games
    with more than `budget` bicliques.  A one-sided game, whose G_R is
    complete, is the oracle's walk with no record and no G_R.
    """
    red = iterated_elimination(game)
    if red.game.m == 1 or red.game.n == 1:
        return _support_walk(game, red, "gr", budget)
    record = InfeasibleSides(red.game)
    return _walk(game, red, _mutual(build_gr(red.game, record)), record, "gr", budget)


def enumerate_by_gi(
    game: Game, k: int, l: int, budget: int = DEFAULT_BUDGET
) -> EquilibriumSet:
    """Subset-graph pipeline with vertex-size caps k and l.

    At full caps (k = m, l = n after elimination) G_D's 3-cycles R -> C -> R
    are exactly the equilibrium support pairs, so its arcs are asked lazily
    in the oracle's walk: it asks R -> C, then C -> R only if that
    holds, and an arc left unasked closes no 3-cycle.  Result, stats and
    budget are the oracle's, a one-sided game's included.
    Below full caps the run is a heuristic whose candidates come from
    G_I's cycle basis (longer cycles and artificial arcs included): each
    class's strategy sets, and per vertex the union of the classes through
    it, sorted by mask pair by `enumerate_support_trees`.  The basis refuses
    past `budget` classes; past `budget` candidates the run refuses before
    it checks any, and otherwise `fp1_check`s each in that order with the
    run's record.
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
    # list(): bench/tracing.py wraps enumerate_support_trees as a generator.
    candidates = list(enumerate_support_trees(graph, cycle_basis(graph, budget)))
    if len(candidates) > budget:
        raise BudgetExceededError(budget + 1, budget)
    publish, entries = _Publisher(red, game).entry, []
    for rows, cols in candidates:
        feasible, witness = fp1_check(rg, rows, cols, record)
        if feasible:
            entries.append(publish(rows, cols, witness))
    return _result(game, method, entries, len(candidates), record.pruned)


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
