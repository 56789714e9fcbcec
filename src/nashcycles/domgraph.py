"""Dominance graphs: domains, relevancy sets, and the three bipartite
digraphs built from them.

The strategy-level graph has one singleton vertex per pure strategy and an
arc x -> y whenever y belongs to the relevancy set R(x).  Each R(x) costs
one program: the opponent strategies to which x responds best form a
convex cone, closed under sums, so one cone point has the largest support,
and that support is R(x) (see `lp3_relevancy`).  The subset-level
graphs have one vertex per strategy subset up to a size cap; an arc from s
to t certifies a single opponent mixed strategy with support exactly t to
which every strategy in s is simultaneously a best response.  The capped
graph G_I is that graph, G_D, plus flagged artificial arcs that keep every
vertex connected.

A strategy's domain, the opponent subsets it can respond best to, is its
singleton row of G_D.  Domains and arcs are asked of one game's
`InfeasibleSides` record, so a record shared by the graph build and the
candidate checks solves each side at most once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .games import Game, MixedStrategy
from .lp import InfeasibleSides, lp3_relevancy

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
]


def size_lex_subsets(count: int, cap: int) -> list[tuple[int, ...]]:
    """All non-empty subsets of range(count) with size <= cap, ordered by
    (size, lexicographic)."""
    out: list[tuple[int, ...]] = []
    for k in range(1, cap + 1):
        out.extend(itertools.combinations(range(count), k))
    return out


@dataclass(frozen=True)
class BipartiteDigraph:
    """Two ordered vertex lists (strategy subsets) plus boolean adjacency in
    both directions.  Vertices are addressed by unified ids: left vertices
    first, then right."""

    left: tuple[frozenset[int], ...]
    right: tuple[frozenset[int], ...]
    adj_lr: tuple[tuple[bool, ...], ...]
    adj_rl: tuple[tuple[bool, ...], ...]
    artificial_lr: tuple[tuple[bool, ...], ...] | None = None
    artificial_rl: tuple[tuple[bool, ...], ...] | None = None

    def __post_init__(self):
        L, R = len(self.left), len(self.right)
        if len(self.adj_lr) != L or any(len(row) != R for row in self.adj_lr):
            raise ValueError("adj_lr must be |left| x |right|")
        if len(self.adj_rl) != R or any(len(row) != L for row in self.adj_rl):
            raise ValueError("adj_rl must be |right| x |left|")
        if len(set(self.left)) != L or len(set(self.right)) != R:
            raise ValueError("vertex sets within a side must be distinct")

    @classmethod
    def complete(cls, m: int, n: int) -> "BipartiteDigraph":
        """Completely connected graph on singleton vertices (m left, n right)."""
        return cls(
            tuple(frozenset([x]) for x in range(m)),
            tuple(frozenset([y]) for y in range(n)),
            tuple(tuple(True for _ in range(n)) for _ in range(m)),
            tuple(tuple(True for _ in range(m)) for _ in range(n)),
        )

    @property
    def order(self) -> int:
        return len(self.left) + len(self.right)

    def side(self, v: int) -> int:
        return 1 if v < len(self.left) else 2

    def strategy_set(self, v: int) -> frozenset[int]:
        L = len(self.left)
        return self.left[v] if v < L else self.right[v - L]

    def has_arc(self, u: int, v: int) -> bool:
        L = len(self.left)
        if u < L <= v:
            return self.adj_lr[u][v - L]
        if v < L <= u:
            return self.adj_rl[u - L][v]
        return False

    def arc_artificial(self, u: int, v: int) -> bool:
        L = len(self.left)
        if u < L <= v:
            return bool(self.artificial_lr and self.artificial_lr[u][v - L])
        if v < L <= u:
            return bool(self.artificial_rl and self.artificial_rl[u - L][v])
        return False

    def successors(self, v: int) -> tuple[int, ...]:
        L = len(self.left)
        if v < L:
            return tuple(L + j for j, on in enumerate(self.adj_lr[v]) if on)
        return tuple(i for i, on in enumerate(self.adj_rl[v - L]) if on)

    def adjacency(self) -> list[list[int]]:
        return [list(self.successors(v)) for v in range(self.order)]

    def arc_count(self) -> int:
        return sum(sum(row) for row in self.adj_lr) + sum(sum(row) for row in self.adj_rl)

    def artificial_arc_count(self) -> int:
        total = 0
        for matrix in (self.artificial_lr, self.artificial_rl):
            if matrix:
                total += sum(sum(row) for row in matrix)
        return total

    def vertex_label(self, v: int) -> str:
        members = ",".join(str(i + 1) for i in sorted(self.strategy_set(v)))
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


def _record(game: Game, infeasible: InfeasibleSides | None) -> InfeasibleSides:
    """The given record, checked against `game`, or a fresh one."""
    if infeasible is None:
        return InfeasibleSides(game)
    infeasible.require(game)
    return infeasible


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
        member, probs = record.check_side(player, (x,), support)
        if member:
            entries.append(DomainEntry(support, MixedStrategy(opponent, probs)))
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
# Graph constructions
# ---------------------------------------------------------------------------

def build_gr(game: Game) -> BipartiteDigraph:
    """Strategy-level dominance graph: singleton vertices, arc x -> y iff
    y is in R(x) and arc y -> x iff x is in R(y)."""
    m, n = game.m, game.n
    sides = []
    for player, own_count, opp_count in ((1, m, n), (2, n, m)):
        side = []
        for x in range(own_count):
            mask = [False] * opp_count
            for y in compute_relevancy(game, player, x).members:
                mask[y] = True
            side.append(tuple(mask))
        sides.append(tuple(side))
    return BipartiteDigraph(
        tuple(frozenset([x]) for x in range(m)),
        tuple(frozenset([y]) for y in range(n)),
        *sides,
    )


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
    left = size_lex_subsets(game.m, k)
    right = size_lex_subsets(game.n, l)
    adj_lr = tuple(tuple(record.check_side(1, s, t)[0] for t in right) for s in left)
    adj_rl = tuple(tuple(record.check_side(2, t, s)[0] for s in left) for t in right)
    return BipartiteDigraph(
        tuple(frozenset(s) for s in left),
        tuple(frozenset(t) for t in right),
        adj_lr,
        adj_rl,
    )


def _fallback_arcs(adj, sources, targets):
    """Add the artificial arcs of cases 2-4 (see `build_gi`) to every source
    with no common-witness arc; member x's domain is G_D's singleton row
    adj[x].  Returns the adjacency and the flags."""
    out_adj = []
    out_art = []
    for s, row in zip(sources, adj):
        if any(row):
            out_adj.append(row)
            out_art.append((False,) * len(targets))
            continue
        domains = [adj[x] for x in s]
        # Case 2: the largest targets inside the common relevant-strategy pool.
        pool = frozenset.intersection(
            *(frozenset().union(*itertools.compress(targets, dom)) for dom in domains)
        )
        fits = [len(t) for t in targets if t <= pool]
        if fits:
            best = max(fits)
            flags = tuple(t <= pool and len(t) == best for t in targets)
        else:
            # Case 3: every set in any member's domain; case 4: an isolated
            # pure strategy connects everywhere.
            flags = tuple(map(any, zip(*domains)))
            if not any(flags):
                flags = (len(s) == 1,) * len(targets)
        out_adj.append(flags)
        out_art.append(flags)
    return tuple(out_adj), tuple(out_art)


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
    adj_lr, art_lr = _fallback_arcs(gd.adj_lr, gd.left, gd.right)
    adj_rl, art_rl = _fallback_arcs(gd.adj_rl, gd.right, gd.left)
    return BipartiteDigraph(gd.left, gd.right, adj_lr, adj_rl, art_lr, art_rl)
