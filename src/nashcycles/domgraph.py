"""Dominance graphs: domains, relevancy sets, and the three bipartite
digraphs built from them.

The strategy-level graph has one singleton vertex per pure strategy and an
arc x -> y whenever y belongs to the relevancy set R(x).  The subset-level
graphs have one vertex per strategy subset up to a size cap; an arc from s
to t certifies a single opponent mixed strategy with support exactly t to
which every strategy in s is simultaneously a best response.  The capped
variant adds flagged artificial arcs to keep every vertex connected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .games import Game, MixedStrategy
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


def compute_domain(game: Game, player: int, x: int, l: int) -> tuple[DomainEntry, ...]:
    """All opponent support sets of size <= l to which `x` can respond best,
    each with its witness.  Strictly dominated strategies get an empty row."""
    opp_count = game.strategy_count(2 if player == 1 else 1)
    if not 1 <= l <= opp_count:
        raise ValueError(f"support cap must be in [1, {opp_count}], got {l}")
    entries = []
    for support in size_lex_subsets(opp_count, l):
        complement = tuple(y for y in range(opp_count) if y not in support)
        member, witness = lp2_domain_check(game, player, x, support, complement)
        if member:
            entries.append(DomainEntry(support, witness))
    return tuple(entries)


def compute_domain_table(game: Game, player: int, l: int) -> dict[int, tuple[DomainEntry, ...]]:
    """Domain rows for every pure strategy of `player`."""
    count = game.strategy_count(player)
    return {x: compute_domain(game, player, x, l) for x in range(count)}


# ---------------------------------------------------------------------------
# Relevancy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelevancyRow:
    """The relevancy set of one strategy.

    Every member is backed either by a one-sided dominance certificate
    (`mod_lp1_members`) or by some harvested best-response witness whose
    support contains it.
    """

    strategy: int
    members: tuple[int, ...]
    mod_lp1_members: tuple[int, ...] = ()
    witnesses: tuple[MixedStrategy, ...] = ()


def compute_relevancy(game: Game, player: int, x: int) -> RelevancyRow:
    """Compute R(x): the opponent pure strategies appearing in the support
    of some mixed strategy to which `x` is a best response.

    Phase 1 runs the one-sided certificate per opponent strategy and
    harvests the dominance-test witness.  Phase 2 settles each remaining
    candidate y with a single positive-probability probe, so a row costs
    at most 1 + 2n programs.
    """
    opp_count = game.strategy_count(2 if player == 1 else 1)

    dominated, lp1_witness = lp1_dominance(game, player, x)
    if dominated:
        return RelevancyRow(x, ())

    members: set[int] = set(lp1_witness.support)
    witnesses = [lp1_witness]
    certified = []
    for y in range(opp_count):
        if mod_lp1_relevancy(game, player, x, y):
            certified.append(y)
            members.add(y)

    for y in range(opp_count):
        if y in members:
            continue
        member, witness = lp2_domain_check(game, player, x, (y,), ())
        if member:
            members.add(y)
            members.update(witness.support)
            witnesses.append(witness)

    return RelevancyRow(x, tuple(sorted(members)), tuple(certified), tuple(witnesses))


# ---------------------------------------------------------------------------
# Graph constructions
# ---------------------------------------------------------------------------

def build_gr(game: Game) -> BipartiteDigraph:
    """Strategy-level dominance graph: singleton vertices, arc x -> y iff
    y is in R(x) and arc y -> x iff x is in R(y)."""
    m, n = game.m, game.n
    adj_lr = []
    for x in range(m):
        row = compute_relevancy(game, 1, x)
        mask = [False] * n
        for y in row.members:
            mask[y] = True
        adj_lr.append(tuple(mask))
    adj_rl = []
    for y in range(n):
        row = compute_relevancy(game, 2, y)
        mask = [False] * m
        for x in row.members:
            mask[x] = True
        adj_rl.append(tuple(mask))
    return BipartiteDigraph(
        tuple(frozenset([x]) for x in range(m)),
        tuple(frozenset([y]) for y in range(n)),
        tuple(adj_lr),
        tuple(adj_rl),
    )


def _case1_arc(
    game: Game,
    player: int,
    source: tuple[int, ...],
    target: tuple[int, ...],
    domain_sets: dict[int, frozenset[tuple[int, ...]]],
    opp_count: int,
) -> bool:
    # Per-strategy membership is necessary for a common witness; screen first.
    if any(target not in domain_sets[x] for x in source):
        return False
    if len(source) == 1:
        return True
    complement = tuple(y for y in range(opp_count) if y not in target)
    member, _ = lp2_joint_domain_check(game, player, source, target, complement)
    return member


def _domain_tables(game, k, l, row_domains, col_domains):
    """Check the size caps, fill in missing domain tables, and index each
    domain row by its support sets."""
    if not (1 <= k <= game.m and 1 <= l <= game.n):
        raise ValueError("size caps must satisfy 1 <= k <= m and 1 <= l <= n")
    if row_domains is None:
        row_domains = compute_domain_table(game, 1, l)
    if col_domains is None:
        col_domains = compute_domain_table(game, 2, k)
    row_sets = {x: frozenset(e.support for e in row) for x, row in row_domains.items()}
    col_sets = {y: frozenset(e.support for e in row) for y, row in col_domains.items()}
    return row_domains, col_domains, row_sets, col_sets


def build_gd(
    game: Game,
    k: int,
    l: int,
    row_domains: dict[int, tuple[DomainEntry, ...]] | None = None,
    col_domains: dict[int, tuple[DomainEntry, ...]] | None = None,
) -> BipartiteDigraph:
    """Subset-level dominance graph with vertex sizes capped at k (left) and
    l (right) and only common-witness arcs; k=m, l=n gives the full graph."""
    m, n = game.m, game.n
    _, _, row_sets, col_sets = _domain_tables(game, k, l, row_domains, col_domains)
    left = size_lex_subsets(m, k)
    right = size_lex_subsets(n, l)
    adj_lr = tuple(
        tuple(_case1_arc(game, 1, s, t, row_sets, n) for t in right) for s in left
    )
    adj_rl = tuple(
        tuple(_case1_arc(game, 2, t, s, col_sets, m) for s in left) for t in right
    )
    return BipartiteDigraph(
        tuple(frozenset(s) for s in left),
        tuple(frozenset(t) for t in right),
        adj_lr,
        adj_rl,
    )


def _gi_out_arcs(game, player, sources, targets, domain_sets, domains, opp_count):
    adj = []
    art = []
    target_index = {t: j for j, t in enumerate(targets)}
    for s in sources:
        mask = [False] * len(targets)
        flags = [False] * len(targets)
        hits = [j for j, t in enumerate(targets) if _case1_arc(game, player, s, t, domain_sets, opp_count)]
        if hits:
            for j in hits:
                mask[j] = True
        else:
            # Case 2: largest targets inside the common relevant-strategy pool.
            pool: set[int] | None = None
            for x in s:
                union = set()
                for entry in domains[x]:
                    union.update(entry.support)
                pool = union if pool is None else pool & union
            candidates = [j for j, t in enumerate(targets) if pool and set(t) <= pool]
            if candidates:
                best = max(len(targets[j]) for j in candidates)
                for j in candidates:
                    if len(targets[j]) == best:
                        mask[j] = flags[j] = True
            else:
                # Case 3: anything appearing in any member's domain.
                any_members = {entry.support for x in s for entry in domains[x]}
                if any_members:
                    for t in any_members:
                        j = target_index[t]
                        mask[j] = flags[j] = True
                elif len(s) == 1:
                    # Case 4: an isolated pure strategy connects everywhere.
                    mask = [True] * len(targets)
                    flags = [True] * len(targets)
        adj.append(tuple(mask))
        art.append(tuple(flags))
    return tuple(adj), tuple(art)


def build_gi(
    game: Game,
    k: int,
    l: int,
    row_domains: dict[int, tuple[DomainEntry, ...]] | None = None,
    col_domains: dict[int, tuple[DomainEntry, ...]] | None = None,
) -> BipartiteDigraph:
    """Capped subset-level graph with artificial fallback arcs.

    Per source vertex the first applicable case wins: (1) common-witness
    arcs as in the uncapped graph; (2) arcs to the largest capped subsets
    of the strategies relevant to every member; (3) arcs to every set in
    any member's domain; (4) a pure strategy with an empty domain gets arcs
    to every opposite vertex.  Arcs from cases 2-4 are flagged artificial.
    """
    m, n = game.m, game.n
    row_domains, col_domains, row_sets, col_sets = _domain_tables(
        game, k, l, row_domains, col_domains
    )
    left = size_lex_subsets(m, k)
    right = size_lex_subsets(n, l)
    adj_lr, art_lr = _gi_out_arcs(game, 1, left, right, row_sets, row_domains, n)
    adj_rl, art_rl = _gi_out_arcs(game, 2, right, left, col_sets, col_domains, m)
    return BipartiteDigraph(
        tuple(frozenset(s) for s in left),
        tuple(frozenset(t) for t in right),
        adj_lr,
        adj_rl,
        art_lr,
        art_rl,
    )
