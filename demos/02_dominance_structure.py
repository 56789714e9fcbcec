"""Walkthrough: dominance tests, domains, relevancy sets, and the graphs.

    python demos/02_dominance_structure.py
"""

from nashcycles import (
    Game,
    build_gd,
    build_gi,
    build_gr,
    compute_domain,
    compute_relevancy,
    format_graph,
    iterated_elimination,
    lp1_dominance,
)

mp = Game.from_rows([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
pd = Game.from_rows([[3, 0], [5, 1]], [[3, 5], [0, 1]])

# The strict-dominance test maximizes the worst payoff gap over the
# opponent simplex; a negative optimum certifies domination.
dominated, witness = lp1_dominance(pd, 1, 0)
print(f"PD row 1 strictly dominated: {dominated}")
dominated, witness = lp1_dominance(mp, 1, 0)
print(f"MP row 1 strictly dominated: {dominated}; best-response witness q={witness.probs}")
print()

# The domain of a strategy lists every opponent support to which it can
# respond best.  Dominated strategies have empty domains.
print("MP domain of row 1 (supports up to size 2):")
for entry in compute_domain(mp, 1, 0, 2):
    print(f"  support {entry.support} via witness {entry.witness.probs}")
print(f"PD domain of row 1: {compute_domain(pd, 1, 0, 2)}  (empty: dominated)")
print()

# The relevancy set R(x) is the union of the domain's members; computing it
# needs far fewer programs than the full domain.
row = compute_relevancy(mp, 1, 0)
print(f"MP R(row 1) = {row.members}")
print()

# Three graphs.  The strategy-level graph connects x -> y when y is
# relevant to x; on most random games it is completely connected.
print("Strategy-level graph of MP:")
print(format_graph(build_gr(mp)))
print()

# The subset-level graph has one vertex per strategy subset; an arc s -> t
# certifies one opponent mixed strategy with support t to which every
# member of s responds best.  Dominated strategies end up isolated.
print("Subset-level graph of PD (pre-elimination; row 1 is isolated):")
print(format_graph(build_gd(pd, 2, 2)))
print()

# The capped variant keeps every vertex connected through flagged
# artificial arcs; they only ever add candidates, never equilibria.
flat = Game.from_rows([[1, 1], [0, 0]], [[1, 1], [0, 0]])
print("Capped graph of a game with a dominated row (artificial arcs flagged):")
print(format_graph(build_gi(flat, 1, 1)))
print()

red = iterated_elimination(pd)
print(f"PD after elimination: {red.game.m}x{red.game.n}, "
      f"surviving rows {red.row_map}, columns {red.col_map}")
