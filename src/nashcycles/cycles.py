"""Elementary-cycle machinery for bipartite digraphs.

Strongly connected components and elementary-cycle enumeration follow the
classic linear-time / output-linear algorithms (iterative, so deep graphs
cannot hit the recursion limit).  The cycle basis deduplicates cycles by
vertex set, one bitmask per class: classes are seeded from mutual arc
pairs and grown one vertex per side, and a class is admitted only once an
explicit witness cycle through exactly its vertex set has been
constructed.  The paper's support trees bundle a main cycle with 3-cycles
hanging off it; they generate the unbalanced support candidates that
single cycles cannot.  The capped `gi` route takes its candidates straight
from the basis as bitmask pairs: each class, and the union of the classes
through each vertex.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Sequence

from .domgraph import BipartiteDigraph, _bits

__all__ = [
    "BudgetExceededError",
    "Cycle",
    "CycleBasisEntry",
    "DEFAULT_BUDGET",
    "SupportTree",
    "cycle_basis",
    "elementary_cycles",
    "enumerate_support_trees",
    "gr_support_trees",
    "johnson_cycles",
    "strongly_connected_components",
    "tarjan_scc",
]


DEFAULT_BUDGET = 1 << 20


#: Counts of up to this many bits are named in decimal; Python's default
#: limit on int-to-string conversion is 4300 digits, about 14 000 bits.
_DECIMAL_BITS = 4000


class BudgetExceededError(RuntimeError):
    """Raised by every stage whose own count (candidates, bicliques or
    cycle classes) passes the budget, before it builds past it.

    `candidates` keeps the exact count.  The message names it in decimal up
    to `_DECIMAL_BITS` bits and beyond that as the power of two it exceeds
    (a closed-form count of a tall game can have tens of thousands of
    digits), so building the message never converts a huge int."""

    def __init__(self, candidates: int, budget: int):
        self.candidates = candidates
        self.budget = budget
        if candidates.bit_length() <= _DECIMAL_BITS:
            count = f"{candidates}"
        else:
            count = f"more than 2^{(candidates - 1).bit_length() - 1}"
        super().__init__(f"{count} candidates exceed the budget of {budget}")


# ---------------------------------------------------------------------------
# Generic digraph algorithms (vertices 0..n-1, sorted adjacency lists)
# ---------------------------------------------------------------------------

def strongly_connected_components(n: int, adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative.  Components are returned sorted by
    their smallest vertex, each component sorted ascending."""
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, pos = work[-1]
            if pos == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            neighbors = adj[v]
            while pos < len(neighbors):
                w = neighbors[pos]
                pos += 1
                if index[w] < 0:
                    work[-1] = (v, pos)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    if index[w] < lowlink[v]:
                        lowlink[v] = index[w]
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                component.sort()
                components.append(component)
            if work:
                parent = work[-1][0]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]
    components.sort(key=lambda c: c[0])
    return components


def _cycles_through(start: int, adj: dict[int, list[int]]) -> Iterator[list[int]]:
    # Johnson's CIRCUIT procedure, iterative; yields cycles anchored at `start`.
    path = [start]
    blocked = {start}
    blocked_by: dict[int, set[int]] = defaultdict(set)
    stack = [iter(adj[start])]
    closed = [False]
    while stack:
        advanced = False
        for w in stack[-1]:
            if w == start:
                yield path.copy()
                closed[-1] = True
            elif w not in blocked:
                path.append(w)
                closed.append(False)
                blocked.add(w)
                stack.append(iter(adj[w]))
                advanced = True
                break
        if advanced:
            continue
        stack.pop()
        v = path.pop()
        if closed.pop():
            if closed:
                closed[-1] = True
            unblock = {v}
            while unblock:
                u = unblock.pop()
                if u in blocked:
                    blocked.remove(u)
                    unblock |= blocked_by[u]
                    blocked_by[u].clear()
        else:
            for w in adj[v]:
                blocked_by[w].add(v)


def elementary_cycles(n: int, adj: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """Every elementary cycle of a digraph, each exactly once, as a vertex
    list starting (and implicitly ending) at the cycle's smallest vertex.

    Cycles are grouped by their smallest vertex in ascending order, which
    makes the rotation canonical for free.  Self-loops come out as
    single-vertex cycles.
    """
    for s in range(n):
        if s in adj[s]:
            yield [s]
    for s in range(n):
        visible = [sorted(w for w in adj[v] if w >= s and w != v) for v in range(n)]
        component = None
        for comp in strongly_connected_components(n, visible):
            if s in comp:
                component = set(comp)
                break
        if component is None or len(component) < 2:
            continue
        sub = {v: [w for w in visible[v] if w in component] for v in component}
        yield from _cycles_through(s, sub)


# ---------------------------------------------------------------------------
# Bipartite wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cycle:
    """An elementary cycle as a sequence of unified vertex ids with the
    first vertex repeated at the end; in a bipartite digraph the sides
    alternate and the distinct-vertex count splits evenly."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) < 3 or self.vertices[0] != self.vertices[-1]:
            raise ValueError("a cycle must repeat its initial vertex at the end")
        body = self.vertices[:-1]
        if len(set(body)) != len(body):
            raise ValueError("cycle is not elementary")

    @property
    def length(self) -> int:
        return len(self.vertices)

    def sides(self, graph: BipartiteDigraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
        left = tuple(sorted(v for v in self.vertices[:-1] if graph.side(v) == 1))
        right = tuple(sorted(v for v in self.vertices[:-1] if graph.side(v) == 2))
        return left, right


def tarjan_scc(graph: BipartiteDigraph) -> list[tuple[int, ...]]:
    """Strongly connected components of the graph as tuples of unified
    vertex ids, ordered by smallest contained vertex."""
    comps = strongly_connected_components(graph.order, graph.adjacency())
    return [tuple(c) for c in comps]


def johnson_cycles(graph: BipartiteDigraph) -> Iterator[Cycle]:
    """All elementary cycles, canonically rotated, each exactly once."""
    for cyc in elementary_cycles(graph.order, graph.adjacency()):
        yield Cycle(tuple(cyc) + (cyc[0],))


# ---------------------------------------------------------------------------
# Support cycle basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleBasisEntry:
    """One equivalence class of cycles: the vertex sets per side, one
    representative cycle, and whether realizing the class forces an
    artificial arc."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    representative: Cycle
    artificial: bool

    @property
    def distinct_count(self) -> int:
        return len(self.left) + len(self.right)

    def sort_key(self) -> tuple:
        return (self.distinct_count, self.left, self.right)

    def strategy_sets(self, graph: BipartiteDigraph) -> tuple[int, int]:
        """The union of the left and of the right vertex labels, as the
        bitmask pair (rows, cols)."""
        rows = cols = 0
        for v in self.left:
            rows |= graph.strategy_set(v)
        for v in self.right:
            cols |= graph.strategy_set(v)
        return rows, cols


def _witness_cycle(mask: int, succ: Sequence[int]) -> tuple[int, ...] | None:
    # Alternating elementary cycle through exactly the vertices of `mask`,
    # anchored at its smallest (left) vertex; first found in ascending
    # successor order (the graph is bipartite, so successors alternate
    # sides).  A vertex with no successor or predecessor inside the mask
    # rules the cycle out before any search.
    reach = 0
    for v in _bits(mask):
        outs = succ[v] & mask
        if not outs:
            return None
        reach |= outs
    if reach != mask:
        return None
    start = mask & -mask
    path = [start.bit_length() - 1]

    def extend(v: int, rest: int) -> bool:
        if not rest:
            return bool(succ[v] & start)
        options = succ[v] & rest
        while options:
            bit = options & -options
            options ^= bit
            path.append(bit.bit_length() - 1)
            if extend(path[-1], rest ^ bit):
                return True
            path.pop()
        return False

    return (*path, path[0]) if extend(path[0], mask ^ start) else None


def cycle_basis(graph: BipartiteDigraph, budget: int = DEFAULT_BUDGET) -> list[CycleBasisEntry]:
    """Deduplicated cycle classes grown one vertex per side from the
    3-cycles: distinct (left vertex set, right vertex set) pairs, each with
    a witness elementary cycle through exactly its vertices.

    The mutual arc pairs (3-cycles) form level one, and a level-k class
    spawns level-(k+1) candidates by adding one new vertex per side; a
    candidate joins the basis only when a witness cycle through exactly its
    vertex set is found, over plain arcs if possible and else, on a graph
    with artificial arcs, over all arcs, which marks the class artificial.
    Candidates are vertex bitmasks.  So an elementary cycle whose vertex
    sets no such chain reaches is left out: x0 -> y0 -> x1 -> y1 -> x0 with
    no mutual arc is a cycle, and its graph's basis is empty.  That loses no
    equilibrium.  Every equilibrium support (R, C) is a biclique of G_R, so
    each x in R and y in C form a 3-cycle there; at full caps the vertices R
    and C of G_I form one too, since the equilibrium's own strategies are
    common witnesses both ways.
    Past `budget` classes it raises BudgetExceededError(budget + 1, budget),
    and a graph with an arc from every vertex to every opposite vertex, whose
    classes are all its vertex sets with equal sides, sum_k C(L, k) C(R, k) =
    C(L + R, L) - 1 of them, raises with that count before it admits any.
    """
    L = len(graph.left)
    R = len(graph.right)

    succ_all = graph.succ
    succ_plain = [outs & ~flags for outs, flags in zip(graph.succ, graph.artificial)]
    has_artificial = any(graph.artificial)
    left_ids = (1 << L) - 1
    right_ids = ((1 << R) - 1) << L
    total = math.comb(L + R, L) - 1
    if total > budget and succ_all[:L].count(right_ids) == L and succ_all[L:].count(left_ids) == R:
        raise BudgetExceededError(total, budget)

    entries: list[CycleBasisEntry] = []
    admitted: list[int] = []

    def admit(mask: int) -> None:
        witness = _witness_cycle(mask, succ_plain)
        artificial = witness is None
        if artificial:
            witness = _witness_cycle(mask, succ_all) if has_artificial else None
            if witness is None:
                return
        left = tuple(_bits(mask & left_ids))
        right = tuple(_bits(mask & right_ids))
        entries.append(CycleBasisEntry(left, right, Cycle(witness), artificial))
        admitted.append(mask)
        if len(entries) > budget:
            raise BudgetExceededError(budget + 1, budget)

    for u in range(L):
        for w in _bits(succ_all[u]):
            if succ_all[w] >> u & 1:
                admit(1 << u | 1 << w)
    seen: set[int] = set()
    done = 0
    for _ in range(1, min(L, R)):
        frontier, done = admitted[done:], len(admitted)
        for mask in frontier:
            for u in _bits(left_ids & ~mask):
                grown = mask | 1 << u
                for w in _bits(right_ids & ~mask):
                    candidate = grown | 1 << w
                    if candidate not in seen:
                        seen.add(candidate)
                        admit(candidate)

    entries.sort(key=CycleBasisEntry.sort_key)
    return entries


# ---------------------------------------------------------------------------
# Support trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportTree:
    """A main cycle class plus attached cycle classes; the union of member
    vertex sets is the candidate support."""

    main: CycleBasisEntry
    leaves: tuple[CycleBasisEntry, ...] = ()

    @property
    def members(self) -> tuple[CycleBasisEntry, ...]:
        return (self.main, *self.leaves)

    def support_pair(self, graph: BipartiteDigraph) -> tuple[int, int]:
        """The candidate support as the bitmask pair (rows, cols)."""
        rows = cols = 0
        for entry in self.members:
            r, c = entry.strategy_sets(graph)
            rows |= r
            cols |= c
        return rows, cols


def gr_support_trees(
    graph: BipartiteDigraph,
    basis: Sequence[CycleBasisEntry],
    caps: tuple[int, int],
) -> Iterator[SupportTree]:
    """The paper's support trees: every basis entry alone plus, per main
    cycle, every subset of 3-cycles that share a vertex with one side of
    the main cycle and add a distinct new vertex on the other side
    (growing that side's support, within `caps`)."""
    three = [e for e in basis if e.distinct_count == 2]
    for main in basis:
        yield SupportTree(main)
        main_left = set(main.left)
        main_right = set(main.right)
        for grow_right in (True, False):
            if grow_right:
                shared, other = main_left, main_right
                room = caps[1] - len(main.right)
            else:
                shared, other = main_right, main_left
                room = caps[0] - len(main.left)
            if room <= 0:
                continue
            options: dict[int, CycleBasisEntry] = {}
            for leaf in three:
                (lu,) = leaf.left
                (rw,) = leaf.right
                anchor, extra = (lu, rw) if grow_right else (rw, lu)
                if anchor in shared and extra not in other:
                    options.setdefault(extra, leaf)
            extras = sorted(options)
            for size in range(1, min(room, len(extras)) + 1):
                for combo in itertools.combinations(extras, size):
                    yield SupportTree(main, tuple(options[e] for e in combo))


def enumerate_support_trees(
    graph: BipartiteDigraph, basis: Sequence[CycleBasisEntry]
) -> Iterator[tuple[int, int]]:
    """The capped `gi` route's candidates as distinct (rows, cols) bitmask
    pairs, in one pass over the basis: each class's strategy sets, then,
    in vertex order, the union of the classes through each vertex where two
    or more meet (a star, its classes pairwise intersecting).  A pair is
    yielded only the first time it is seen."""
    seen: set[tuple[int, int]] = set()
    star_rows = [0] * graph.order
    star_cols = [0] * graph.order
    classes = [0] * graph.order
    for entry in basis:
        pair = rows, cols = entry.strategy_sets(graph)
        if pair not in seen:
            seen.add(pair)
            yield pair
        for v in entry.left + entry.right:
            star_rows[v] |= rows
            star_cols[v] |= cols
            classes[v] += 1
    for v in range(graph.order):
        pair = star_rows[v], star_cols[v]
        if classes[v] >= 2 and pair not in seen:
            seen.add(pair)
            yield pair
