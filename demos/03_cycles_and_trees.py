"""Walkthrough: elementary cycles, the support cycle basis, support trees.

    python demos/03_cycles_and_trees.py
"""

from nashcycles import (
    BipartiteDigraph,
    Game,
    build_gr,
    cycle_basis,
    enumerate_by_gr,
    enumerate_by_supports,
    gr_support_trees,
    johnson_cycles,
    tarjan_scc,
)

# On the completely connected 2+2 graph there are six elementary cycles:
# four 3-cycles and two 5-cycles (vertex ids: left 0-1, right 2-3).
graph = BipartiteDigraph.complete(2, 2)
print("SCCs:", tarjan_scc(graph))
print("Elementary cycles of the complete 2+2 digraph:")
for cycle in johnson_cycles(graph):
    print(f"  {cycle.vertices}  (length {cycle.length})")
print()

# The cycle basis keeps one representative per distinct vertex set: the two
# 5-cycles collapse into a single class, leaving five entries.
basis = cycle_basis(graph)
print("Cycle basis:")
for entry in basis:
    print(f"  left={entry.left} right={entry.right} "
          f"representative={entry.representative.vertices}")
print()

# Support trees attach 3-cycles to a main cycle to reach unbalanced
# supports; on this graph they generate all nine support pairs.  A tree's
# support pair is two bitmasks: bit i of `rows` is row i.
trees = list(gr_support_trees(graph, basis, (2, 2)))
supports = sorted({t.support_pair(graph) for t in trees},
                  key=lambda pair: (pair[0].bit_count() + pair[1].bit_count(), pair))
print(f"{len(trees)} trees generating {len(supports)} distinct supports:")
for rows, cols in supports:
    print(f"  rows={[i for i in range(2) if rows >> i & 1]} "
          f"cols={[j for j in range(2) if cols >> j & 1]}")
print()

# A degenerate game where the equilibrium supports are unbalanced: among the
# trees, only a main 3-cycle plus one leaf reaches the support ({1}, {1,2}).
# The gr route checks the bicliques of G_R, a subset of the tree supports
# that still holds every equilibrium support.
flat = Game.from_rows([[1, 1], [0, 0]], [[1, 1], [0, 0]])
oracle = enumerate_by_supports(flat)
via_gr = enumerate_by_gr(flat)
print("Degenerate game equilibrium supports (oracle == gr route):",
      oracle.support_pairs() == via_gr.support_pairs())
for eq in via_gr.entries:
    print(f"  rows={eq.support.rows} cols={eq.support.cols} q={eq.q.probs}")
print()

# The strategy-level graph of Matching Pennies is completely connected, so
# its basis has all five classes; the only equilibrium support comes from
# the single 4-vertex class.
mp = Game.from_rows([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
mp_graph = build_gr(mp)
print(f"MP basis size: {len(cycle_basis(mp_graph))}; "
      f"equilibria: {enumerate_by_gr(mp).support_pairs()}")
