"""Dominance: iterated elimination, domains, relevancy sets, and the three
bipartite digraphs built from them.

Every route starts with `iterated_elimination`.  It tries a pure best
response, a pure dominator, a two-column mixture (`_two_column_reply`) and
a dominating mixture of two rows (`_two_row_dominator`) before its LP, and
`build_gr` settles with no LP a row whose strategy is the unique best
response to a two-column mixture.

The strategy-level graph has one singleton vertex per pure strategy and an
arc x -> y whenever y belongs to the relevancy set R(x).  The opponent
strategies to which x responds best form a convex cone, closed under sums,
so one cone point has the largest support, and that support is R(x).
Pure payoff comparisons bound R(x) from above by a set U(x), and R(x) is
U(x) exactly when x responds best to some opponent strategy with support
exactly U(x).  A pure certificate, a unique best response to a mixture
of two columns, or one side question of the run's record settles that;
only a row that fails all three costs the max-support program (see
`build_gr` and `lp3_relevancy`).  The subset-level graphs
have one vertex per strategy subset up to a size cap; an arc from s to t
certifies a single opponent mixed strategy with support exactly t to
which every strategy in s is simultaneously a best response.  The capped
graph G_I is that graph, G_D, plus flagged artificial arcs that keep every
vertex connected.

Every graph labels each vertex with its strategy subset as a bitmask, and
stores one successor bitmask per vertex over unified ids (left vertices
first, then right) and, per vertex, the mask of its artificial arcs, a
subset of its successors.  Builders write these masks and readers use them
as they are.

A strategy's domain, the opponent subsets it can respond best to, is its
singleton row of G_D.  Domains and arcs are asked of one game's
`InfeasibleSides` record, so a record shared by the graph build and the
candidate checks solves each side at most once.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .games import Game, MixedStrategy, ReducedGame
from .lp import (
    InfeasibleSides,
    _best_response_region,
    _max_support,
    _mixture_interval,
    _record,
    lp3_relevancy,
)

# Unused here, but bench/tracing.py wraps these names in this namespace.
from .lp import lp1_dominance, lp2_domain_check, lp2_joint_domain_check, mod_lp1_relevancy

__all__ = [
    "BipartiteDigraph",
    "DomainEntry",
    "RelevancyRow",
    "build_gd",
    "build_gi",
    "build_gr",
    "compute_domain",
    "compute_domain_table",
    "compute_relevancy",
    "format_graph",
    "iterated_elimination",
]


def size_lex_subsets(count: int, cap: int) -> list[int]:
    """All non-empty subsets of range(count) with size <= cap, as bitmasks
    ordered by (size, lexicographic order of the members)."""
    return [
        sum(1 << i for i in members)
        for k in range(1, cap + 1)
        for members in itertools.combinations(range(count), k)
    ]


def _bits(mask: int) -> Iterator[int]:
    """The set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class BipartiteDigraph:
    """Two ordered vertex lists, each vertex labelled by its non-empty
    strategy subset as a bitmask, and one successor bitmask per vertex.
    Vertices are addressed by unified ids: left vertices 0..L-1 first, then
    right vertices L..L+R-1; bit w of `succ[v]` is the arc v -> w, which
    always crosses sides.  `artificial[v]` flags the subset of `succ[v]`
    that no common witness certifies (all zero when omitted)."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    succ: tuple[int, ...]
    artificial: tuple[int, ...] = ()

    def __post_init__(self):
        L, R = len(self.left), len(self.right)
        if not self.artificial:
            object.__setattr__(self, "artificial", (0,) * len(self.succ))
        if len(self.succ) != L + R or len(self.artificial) != L + R:
            raise ValueError("succ and artificial need one mask per vertex")
        if len(set(self.left)) != L or len(set(self.right)) != R:
            raise ValueError("vertex sets within a side must be distinct")
        if min(self.left + self.right, default=1) < 1:
            raise ValueError("vertex labels must be non-empty strategy bitmasks")
        left_ids = (1 << L) - 1
        for v, (outs, flags) in enumerate(zip(self.succ, self.artificial)):
            if outs >> (L + R):
                raise ValueError(f"vertex {v} has an arc past the last vertex")
            if outs & (left_ids if v < L else ~left_ids):
                raise ValueError(f"vertex {v} has an arc within its own side")
            if flags & ~outs:
                raise ValueError(f"vertex {v} flags an artificial arc it lacks")

    @classmethod
    def _of(cls, left, right, succ, artificial=()) -> "BipartiteDigraph":
        """The graph of these fields, unchecked: the caller vouches for
        them.  `artificial` is all zero when omitted, as in the constructor."""
        graph = object.__new__(cls)
        vars(graph).update(
            left=left, right=right, succ=succ, artificial=artificial or (0,) * len(succ)
        )
        return graph

    @classmethod
    def complete(cls, m: int, n: int) -> "BipartiteDigraph":
        """Completely connected graph on singleton vertices (m left, n right)."""
        left_ids, right_ids = (1 << m) - 1, ((1 << n) - 1) << m
        return cls._of(
            tuple(1 << x for x in range(m)),
            tuple(1 << y for y in range(n)),
            (right_ids,) * m + (left_ids,) * n,
        )

    @property
    def order(self) -> int:
        return len(self.left) + len(self.right)

    def side(self, v: int) -> int:
        return 1 if v < len(self.left) else 2

    def strategy_set(self, v: int) -> int:
        L = len(self.left)
        return self.left[v] if v < L else self.right[v - L]

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.succ[u] >> v & 1)

    def arc_artificial(self, u: int, v: int) -> bool:
        return bool(self.artificial[u] >> v & 1)

    def successors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.succ[v]))

    def adjacency(self) -> list[list[int]]:
        return [list(_bits(outs)) for outs in self.succ]

    def arc_count(self) -> int:
        return sum(outs.bit_count() for outs in self.succ)

    def artificial_arc_count(self) -> int:
        return sum(flags.bit_count() for flags in self.artificial)

    def vertex_label(self, v: int) -> str:
        members = ",".join(str(i + 1) for i in _bits(self.strategy_set(v)))
        return f"{self.side(v)}:{{{members}}}"


def format_graph(graph: BipartiteDigraph) -> str:
    """Adjacency-list dump, one line per arc, artificial arcs flagged."""
    lines = []
    for u in range(graph.order):
        for v in graph.successors(u):
            line = f"{graph.vertex_label(u)} -> {graph.vertex_label(v)}"
            if graph.arc_artificial(u, v):
                line += " artificial"
            lines.append(line)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainEntry:
    """One member of a strategy's domain: an opponent support set together
    with the mixed strategy witnessing the best response."""

    support: tuple[int, ...]
    witness: MixedStrategy


def compute_domain(
    game: Game, player: int, x: int, l: int, infeasible: InfeasibleSides | None = None
) -> tuple[DomainEntry, ...]:
    """All opponent support sets of size <= l to which `x` can respond best,
    each with its witness.  Strictly dominated strategies get an empty row.

    Each support is one side question of the record `infeasible` (made for
    `game`; a fresh one when None), with `x` the only responder and the
    complement of the support forbidden.
    """
    opponent = 2 if player == 1 else 1
    opp_count = game.strategy_count(opponent)
    if not 0 <= x < game.strategy_count(player):
        raise ValueError(f"strategy index {x} out of range")
    if not 1 <= l <= opp_count:
        raise ValueError(f"support cap must be in [1, {opp_count}], got {l}")
    record = _record(game, infeasible)
    entries = []
    for support in size_lex_subsets(opp_count, l):
        weights = record.check_side(player, 1 << x, support)
        if weights is not None:
            witness = MixedStrategy.from_weights(opponent, weights)
            entries.append(DomainEntry(tuple(_bits(support)), witness))
    return tuple(entries)


def compute_domain_table(
    game: Game, player: int, l: int, infeasible: InfeasibleSides | None = None
) -> dict[int, tuple[DomainEntry, ...]]:
    """Domain rows for every pure strategy of `player`, asked of one record."""
    record = _record(game, infeasible)
    count = game.strategy_count(player)
    return {x: compute_domain(game, player, x, l, record) for x in range(count)}


# ---------------------------------------------------------------------------
# Relevancy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelevancyRow:
    """The relevancy set of one strategy, with one best-response witness
    whose support is exactly `members` (no witness when it is empty)."""

    strategy: int
    members: tuple[int, ...]
    witnesses: tuple[MixedStrategy, ...] = ()


def compute_relevancy(game: Game, player: int, x: int) -> RelevancyRow:
    """Compute R(x): the opponent pure strategies appearing in the support
    of some mixed strategy to which `x` is a best response.

    One max-support program settles the whole row.  Best-response
    witnesses, unnormalized, form a cone closed under sums, so the union of
    their supports is itself the support of one witness; the program's
    optimum is such a witness.  R(x) is empty exactly when `x` is strictly
    dominated.
    """
    witness = lp3_relevancy(game, player, x)
    if witness is None:
        return RelevancyRow(x, ())
    return RelevancyRow(x, witness.support, (witness,))


# ---------------------------------------------------------------------------
# Iterated elimination of strictly dominated strategies
# ---------------------------------------------------------------------------

def iterated_elimination(game: Game) -> ReducedGame:
    """Remove strictly dominated strategies (allowing domination by mixed
    strategies) until a fixed point.

    A test of a strategy x answers with the first of:

    1. x earns its column maximum against some surviving opponent strategy
       y (ties count): x is a best response to y, so not dominated, and its
       witness support is {y} for the first such y;
    2. some surviving rival earns strictly more than x against every
       surviving opponent strategy: x is dominated.  The rival that earns
       the maximum on the first surviving opponent strategy is tried
       first, then the Pareto front of the survivors, since a member
       f >= r dominates x whenever a rival r does;
    3. x responds best, among the survivors, to a mixture of two surviving
       opponent strategies: its least-deficit one and one other (see
       `_two_column_reply`), found in closed form; its witness support
       is that pair;
    3b. a mixture of two surviving rivals earns strictly more than x
       against every surviving opponent strategy: the anchor, whose
       smallest lead over x is largest, and one other (see
       `_two_row_dominator`), found in closed form; x is dominated;
    4. the best-response-region program (as `lp1_dominance`) on its
       player's rows of `int_payoffs` sliced to the survivors, which is the
       subgame's view times a positive factor; its witness support is kept
       when x survives.

    Rule 2 costs O(|front| * n), and rules 3 and 3b O(m * n) each.  Rule
    1's maxima are taken once, over all strategies: a removed strategy
    earned less than the maximum on every opponent strategy that survived
    its test, so the survivors' maxima there never change, and a strategy
    that earns one of them survives while that opponent strategy does.
    The front is made, in O(m * |front| * n), when rule 2 first needs it,
    and again only when rule 3b or 4 removes a member: rule 2's removals
    leave every survivor below a member.  Only rule 4 slices, so a game
    whose strategies all pass rule 1 (an all-zero tall game) or rule 2
    against a small front is reduced in linear time.  A survivor keeps its
    witness support (a mask of original opponent indices) and is tested
    again only when a strategy in it is removed; other removals only drop a
    rival or an unused opponent strategy.
    Strict domination is path-independent, so the survivors do not depend
    on this schedule.
    A player always keeps a strategy.  The reduced `Game` is made once
    (`game` itself when nothing is removed), from sliced ints.
    """
    # Per side: the survivors, ascending (a dict deletes in O(1) and keeps order).
    kept = (dict.fromkeys(range(game.m)), dict.fromkeys(range(game.n)))
    # Per side: the column maxima over all own strategies and, per opponent
    # strategy, the first own strategy that earns its maximum (see above).
    tops, leaders = [], []
    for _, rows in game.int_payoffs:
        columns = list(zip(*rows))
        top = list(map(max, columns))
        tops.append(top)
        leaders.append(list(map(tuple.index, columns, top)))
    # Per side: survivor -> witness support mask, in the order found.
    witness: tuple[dict[int, int], dict[int, int]] = ({}, {})
    # Per side: rule 2's front, or None until it is (re)made.
    fronts: list[set[int] | None] = [None, None]
    stale = [list(kept[0]), list(kept[1])]
    while stale[0] or stale[1]:
        for side in (0, 1):
            scale, full = game.int_payoffs[side]
            top = tops[side]
            todo, stale[side] = stale[side], []
            own, others = kept[side], kept[1 - side]
            for s in todo:
                mine = full[s]
                reply = None
                for y in others:
                    if mine[y] == top[y]:
                        reply = y
                        break
                if reply is not None:
                    witness[side][s] = 1 << reply
                    continue
                lead = full[leaders[side][next(iter(others))]]
                dominated = True
                for y in others:
                    if lead[y] <= mine[y]:
                        dominated = False
                        break
                if not dominated:
                    if fronts[side] is None:
                        fronts[side] = _pareto_front(full, own, others)
                    dominated = any(
                        all(full[f][y] > mine[y] for y in others) for f in fronts[side]
                    )
                if not dominated:
                    rows, cols = list(own), list(others)
                    at = bisect.bisect_left(rows, s)
                    vectors = [full[x] for x in rows]
                    pair = _two_column_reply(vectors, at, cols, top)
                    if pair:
                        witness[side][s] = pair
                        continue
                    if not _two_row_dominator(vectors, at, cols):
                        vectors = [[row[y] for y in cols] for row in vectors]
                        weights = _best_response_region((scale, vectors), 1 << at, 0, 0)
                        if weights is not None:
                            witness[side][s] = sum(1 << y for y, w in zip(cols, weights) if w)
                            continue
                del own[s]
                if fronts[side] is not None and s in fronts[side]:
                    if dominated:
                        fronts[side].discard(s)
                    else:
                        fronts[side] = None
                for t, used in list(witness[1 - side].items()):
                    if used >> s & 1:
                        del witness[1 - side][t]
                        stale[1 - side].append(t)
    rows, cols = map(tuple, kept)
    if len(rows) < game.m or len(cols) < game.n:
        game = game._sub(rows, cols)
    return ReducedGame(game, rows, cols)


def _pareto_front(
    full: Sequence[Sequence[int]], own: Iterable[int], others: Iterable[int]
) -> set[int]:
    """The x in `own` whose rows full[x] no other weakly exceeds on the
    columns `others` (the first of equal rows); taken by falling sum, a row
    comes after every row above it."""
    cols = list(others)
    ranked = []
    for x in own:
        row = [full[x][y] for y in cols]
        ranked.append((-sum(row), x, row))
    ranked.sort()
    kept, front = [], set()
    for _, x, row in ranked:
        for above in kept:
            if all(map(operator.ge, above, row)):
                break
        else:
            kept.append(row)
            front.add(x)
    return front


def _two_column_reply(vectors, x: int, cols, top, strict: bool = False) -> int:
    """Two columns of `cols` with a mixture to which row x of `vectors`
    responds best (with `strict`, uniquely), as a mask, or 0 when none of
    the pairs tried has one.  The pairs join x's least-deficit column, where
    the best row's lead `top[y] - vectors[x][y]` is smallest, to each other
    column: O(len(vectors) * len(cols))."""
    own = vectors[x]
    near = min(cols, key=lambda y: top[y] - own[y])
    for y in cols:
        if y != near and _mixture_interval(vectors, 1 << x, near, y, strict) is not None:
            return 1 << near | 1 << y
    return 0


def _two_row_dominator(vectors, x: int, cols) -> int:
    """Two rows of `vectors` with a mixture that earns strictly more than
    row x on every column of `cols`, as a mask, or 0 when none of the pairs
    tried has one.  The pairs join the anchor, the rival whose smallest lead
    over x is largest, to each other rival: O(len(vectors) * len(cols)).

    This is `_mixture_interval` on the transposed game: a pair's mixtures
    t * A_a + (1 - t) * A_b are the strategies, the columns the rows, and
    each column's lead of x over the mixture must stay below the zero row.
    The qualifying t are open in [0, 1], so they meet (0, 1) when any do.
    `vectors` holds at least one row besides x."""
    own = vectors[x]
    gaps = {r: [own[y] - row[y] for y in cols] for r, row in enumerate(vectors) if r != x}
    anchor = min(gaps, key=lambda r: max(gaps[r]))
    lead = gaps.pop(anchor)
    for r, gap in gaps.items():
        if _mixture_interval([(0, 0), *zip(lead, gap)], 1, 0, 1, True) is not None:
            return 1 << anchor | 1 << r
    return 0


# ---------------------------------------------------------------------------
# Graph constructions
# ---------------------------------------------------------------------------

def _lex_best_responses(vectors, cols: int, tied) -> int:
    """The rows, as a mask, that respond best to e_y + eps * 1_cols for some
    column y in `cols` and every small eps > 0: the rows of `tied[y]`, the
    mask of those that earn column y's top payoff, with the largest payoff
    sum over `cols` among them.  That strategy's support is exactly `cols`.
    A column whose top payoff one row earns certifies that row with no sum."""
    best, sums, rest = 0, None, cols
    while rest:
        low = rest & -rest
        rest ^= low
        rows = tied[low.bit_length() - 1]
        if rows & rows - 1:
            if sums is None:
                flags = [cols >> c & 1 for c in range(len(tied))]
                sums = [sum(itertools.compress(row, flags)) for row in vectors]
            most, top = None, 0
            while rows:
                bit = rows & -rows
                rows ^= bit
                total = sums[bit.bit_length() - 1]
                if most is None or total > most:
                    most, top = total, bit
                elif total == most:
                    top |= bit
            rows = top
        best |= rows
    return best


def build_gr(game: Game, infeasible: InfeasibleSides | None = None) -> BipartiteDigraph:
    """Strategy-level dominance graph: singleton vertices, arc x -> y iff
    y is in R(x) and arc y -> x iff x is in R(y).

    Each row starts from the record's pure bound U(x), a superset of R(x)
    (`InfeasibleSides.relevancy_bound`; `infeasible` is made for `game`, a
    fresh one when None); an empty bound is an empty row.  Best-response
    witnesses form a cone closed under sums, so R(x) is U(x) exactly when
    `x` responds best to some opponent strategy with support exactly U(x).
    A pure certificate settles that with no LP: `x` earns the top payoff of
    some column y of U(x) and, among the rows tied with it there, the
    largest payoff sum over U(x), so it responds best to e_y + eps * 1_U.
    Per column y the mask `tied[y]` of the rows that earn its maximum is
    built once, and the certificate once per bound (`_lex_best_responses`).
    A row it misses and whose bound is every column is settled, with no
    LP, when `x` is the unique best response to a mixture of two columns
    (`_two_column_reply`): its best-response region then has interior,
    so R(x) is every column.  Any other row asks the record the side
    ({x}, U(x)), and only a row that fails it costs `compute_relevancy`'s
    max-support program, read as integer weights (`lp._max_support`), so
    no `MixedStrategy` is made.
    """
    record = _record(game, infeasible)
    m, n = game.m, game.n
    succ = []
    for player, count, offset, every in ((1, m, m, (1 << n) - 1), (2, n, 0, (1 << m) - 1)):
        vectors = game.int_payoffs[player - 1][1]
        columns = tuple(zip(*vectors))
        top = list(map(max, columns))
        cols = range(len(top))
        tied = []
        for column, most in zip(columns, top):
            rows = bit = 0
            for v in column:
                if v == most:
                    rows |= 1 << bit
                bit += 1
            tied.append(rows)
        certified: dict[int, int] = {}
        for x in range(count):
            bound = record.relevancy_bound(player, x)
            if bound:
                rows = certified.get(bound)
                if rows is None:
                    rows = certified[bound] = _lex_best_responses(vectors, bound, tied)
                if (
                    not rows >> x & 1
                    and not (bound == every and _two_column_reply(vectors, x, cols, top, True))
                    and record.check_side(player, 1 << x, bound) is None
                ):
                    weights = _max_support(game.int_payoffs[player - 1], x) or ()
                    bound = sum(1 << y for y, w in enumerate(weights) if w)
            succ.append(bound << offset)
    singletons = tuple(1 << x for x in range(m)), tuple(1 << y for y in range(n))
    return BipartiteDigraph._of(*singletons, tuple(succ))


def build_gd(
    game: Game, k: int, l: int, infeasible: InfeasibleSides | None = None
) -> BipartiteDigraph:
    """Subset-level dominance graph with vertex sizes capped at k (left) and
    l (right) and only common-witness arcs; k=m, l=n gives the full graph.

    Every arc is one side question of the record `infeasible` (made for
    `game`; a fresh one when None).  Singleton sources come first, so a
    source set holding a strategy whose domain lacks the target is ruled
    out with no LP, by pure dominance or by that strategy's recorded side.
    """
    if not (1 <= k <= game.m and 1 <= l <= game.n):
        raise ValueError("size caps must satisfy 1 <= k <= m and 1 <= l <= n")
    record = _record(game, infeasible)
    left = tuple(size_lex_subsets(game.m, k))
    right = tuple(size_lex_subsets(game.n, l))
    L = len(left)
    succ = [
        sum(1 << L + j for j, t in enumerate(right) if record.check_side(1, s, t) is not None)
        for s in left
    ]
    succ += [
        sum(1 << i for i, s in enumerate(left) if record.check_side(2, t, s) is not None)
        for t in right
    ]
    return BipartiteDigraph._of(left, right, tuple(succ))


def _fallback_arcs(gd: BipartiteDigraph, v: int) -> int:
    """The artificial arcs of cases 2-4 (see `build_gi`) from a vertex `v`
    with no arc in G_D, as a mask.  Member x's domain is G_D's singleton
    row: vertex x on the left, L + x on the right."""
    L = len(gd.left)
    base, targets = (0, range(L, gd.order)) if v < L else (L, range(L))
    domains = [gd.succ[base + x] for x in _bits(gd.strategy_set(v))]
    # Case 2: the largest targets inside the common relevant-strategy pool.
    pool, union = -1, 0
    for dom in domains:
        union |= dom
        relevant = 0
        for w in _bits(dom):
            relevant |= gd.strategy_set(w)
        pool &= relevant
    fits = [w for w in targets if not gd.strategy_set(w) & ~pool]
    if fits:
        best = max(gd.strategy_set(w).bit_count() for w in fits)
        return sum(1 << w for w in fits if gd.strategy_set(w).bit_count() == best)
    # Case 3: every set in any member's domain; case 4: an isolated pure
    # strategy connects everywhere.
    if not union and len(domains) == 1:
        union = sum(1 << w for w in targets)
    return union


def build_gi(
    game: Game, k: int, l: int, infeasible: InfeasibleSides | None = None
) -> BipartiteDigraph:
    """Capped subset-level graph: `build_gd` plus artificial fallback arcs.

    A source vertex with a common-witness arc (case 1) keeps exactly its
    arcs of G_D.  Any other source takes the first applicable case: (2) arcs
    to the largest capped subsets of the strategies relevant to every
    member; (3) arcs to every set in any member's domain; (4) a pure
    strategy with an empty domain gets arcs to every opposite vertex.  Arcs
    from cases 2-4 are flagged artificial.  Domains are G_D's singleton
    rows, so each side of the record `infeasible` (or a fresh one) is asked
    once.
    """
    gd = build_gd(game, k, l, infeasible)
    artificial = tuple(0 if outs else _fallback_arcs(gd, v) for v, outs in enumerate(gd.succ))
    succ = tuple(outs | flags for outs, flags in zip(gd.succ, artificial))
    return BipartiteDigraph._of(gd.left, gd.right, succ, artificial)
