"""Elementary-cycle machinery for bipartite digraphs.

Strongly connected components and elementary-cycle enumeration follow the
classic linear-time / output-linear algorithms (iterative, so deep graphs
cannot hit the recursion limit).  The cycle basis deduplicates cycles by
vertex set, one bitmask per class: classes are seeded from mutual arc
pairs and grown one vertex per side, and a class is admitted only once an
explicit witness cycle through exactly its vertex set has been
constructed.  Support trees bundle a main cycle with other classes (3-cycles
hanging off it, or a star of classes through one vertex); they generate
the unbalanced support candidates that single cycles cannot.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Sequence

from .domgraph import BipartiteDigraph
from .games import SupportPair

__all__ = [
    "Cycle",
    "CycleBasisEntry",
    "CycleClassLimit",
    "SupportTree",
    "cycle_basis",
    "elementary_cycles",
    "enumerate_support_trees",
    "johnson_cycles",
    "strongly_connected_components",
    "tarjan_scc",
]


class CycleClassLimit(RuntimeError):
    """Raised when the cycle basis grows past a caller-imposed class cap."""

    def __init__(self, count: int):
        self.count = count
        super().__init__(f"cycle basis exceeded {count - 1} classes")


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

    def strategy_sets(self, graph: BipartiteDigraph) -> tuple[frozenset[int], frozenset[int]]:
        rows: set[int] = set()
        for v in self.left:
            rows |= graph.strategy_set(v)
        cols: set[int] = set()
        for v in self.right:
            cols |= graph.strategy_set(v)
        return frozenset(rows), frozenset(cols)


def _bits(mask: int) -> Iterator[int]:
    """The set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def cycle_basis(
    graph: BipartiteDigraph,
    max_len: int | None = None,
    max_classes: int | None = None,
) -> list[CycleBasisEntry]:
    """Deduplicated cycle classes grown one vertex per side from the
    3-cycles: distinct (left vertex set, right vertex set) pairs, each with
    a witness elementary cycle through exactly its vertices.

    The mutual arc pairs (3-cycles) form level one, and a level-k class
    spawns level-(k+1) candidates by adding one new vertex per side; a
    candidate joins the basis only when a witness cycle through exactly its
    vertex set is found, over plain arcs if possible and else over all arcs,
    which marks the class artificial.  Candidates are vertex bitmasks.  So
    an elementary cycle whose vertex sets no such chain reaches is left
    out: x0 -> y0 -> x1 -> y1 -> x0 with no mutual arc is a cycle, and its
    graph's basis is empty.  That loses no equilibrium.  Every equilibrium
    support (R, C) is a biclique of G_R, so each x in R and y in C form a
    3-cycle there; at full caps the vertices R and C of G_I form one too,
    since the equilibrium's own strategies are common witnesses both ways.
    `max_len` caps the representative sequence length (2k+1 for k vertices
    per side); the default is the longest possible cycle.  `max_classes`
    aborts runaway enumerations with :class:`CycleClassLimit`.
    """
    L = len(graph.left)
    R = len(graph.right)
    cap = min(L, R)
    if max_len is not None:
        cap = min(cap, max(0, (max_len - 1) // 2))
    if cap < 1:
        return []

    succ_plain: list[int] = []  # successor bitmasks over plain arcs
    succ_all: list[int] = []
    for v in range(graph.order):
        outs = graph.successors(v)
        succ_all.append(sum(1 << w for w in outs))
        succ_plain.append(sum(1 << w for w in outs if not graph.arc_artificial(v, w)))
    left_ids = (1 << L) - 1
    right_ids = ((1 << R) - 1) << L

    entries: list[CycleBasisEntry] = []
    admitted: list[int] = []

    def admit(mask: int) -> None:
        witness = _witness_cycle(mask, succ_plain)
        artificial = witness is None
        if artificial:
            witness = _witness_cycle(mask, succ_all)
            if witness is None:
                return
        left = tuple(_bits(mask & left_ids))
        right = tuple(_bits(mask & right_ids))
        entries.append(CycleBasisEntry(left, right, Cycle(witness), artificial))
        admitted.append(mask)
        if max_classes is not None and len(entries) > max_classes:
            raise CycleClassLimit(len(entries))

    for u in range(L):
        for w in _bits(succ_all[u]):
            if succ_all[w] >> u & 1:
                admit(1 << u | 1 << w)
    seen: set[int] = set()
    done = 0
    for _ in range(1, cap):
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

    def support_pair(self, graph: BipartiteDigraph) -> SupportPair:
        rows: set[int] = set()
        cols: set[int] = set()
        for entry in self.members:
            r, c = entry.strategy_sets(graph)
            rows |= r
            cols |= c
        return SupportPair(tuple(rows), tuple(cols))


def _gr_trees(
    graph: BipartiteDigraph,
    basis: Sequence[CycleBasisEntry],
    caps: tuple[int, int],
) -> Iterator[SupportTree]:
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


def _gi_trees(
    graph: BipartiteDigraph,
    basis: Sequence[CycleBasisEntry],
    caps: tuple[int, int],
) -> Iterator[SupportTree]:
    for entry in basis:
        yield SupportTree(entry)
    spans = []  # per class: its vertex, row and column bitmasks
    for entry in basis:
        sets = (entry.left + entry.right, *entry.strategy_sets(graph))
        spans.append(tuple(sum(1 << i for i in items) for items in sets))
    emitted: set[tuple[int, ...]] = set()
    for v in range(graph.order):
        star = [i for i, span in enumerate(spans) if span[0] >> v & 1]
        if len(star) < 2:
            continue
        # Greedy in basis order: keep each class whose rows and columns,
        # added to the running unions, stay within the caps.
        trimmed: list[int] = []
        rows = cols = 0
        for i in star:
            grown_rows = rows | spans[i][1]
            grown_cols = cols | spans[i][2]
            if grown_rows.bit_count() <= caps[0] and grown_cols.bit_count() <= caps[1]:
                trimmed.append(i)
                rows, cols = grown_rows, grown_cols
        if len(trimmed) < 2:
            continue
        key = tuple(trimmed)
        if key in emitted:
            continue
        emitted.add(key)
        yield SupportTree(basis[trimmed[0]], tuple(basis[i] for i in trimmed[1:]))


def enumerate_support_trees(
    graph: BipartiteDigraph,
    basis: Sequence[CycleBasisEntry],
    mode: str,
    caps: tuple[int, int],
) -> Iterator[SupportTree]:
    """Candidate support generators built from the cycle basis.

    ``gr`` mode emits every basis entry alone plus, per main cycle, every
    subset of 3-cycles that share a vertex with one side of the main cycle
    and add a distinct new vertex on the other side (growing that side's
    support, within `caps`).  ``gi`` mode emits every entry alone plus
    maximal families of classes through a common vertex (pairwise
    intersecting by construction), trimmed to `caps`.
    """
    if mode == "gr":
        return _gr_trees(graph, basis, caps)
    if mode == "gi":
        return _gi_trees(graph, basis, caps)
    raise ValueError(f"mode must be 'gr' or 'gi', got {mode!r}")
