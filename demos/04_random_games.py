"""Walkthrough: seeded random games, pipeline agreement, basis statistics.

    python demos/04_random_games.py
"""

import time
from fractions import Fraction

from nashcycles import (
    build_gr,
    cycle_basis,
    enumerate_by_gi,
    enumerate_by_gr,
    enumerate_by_supports,
    generate_random_game,
    iterated_elimination,
    write_game,
)

# Payoffs are drawn from the grid {0, 1/1000, ..., 1}; a (size, seed) pair
# always produces the same game.
game = generate_random_game(3, 3, 2024)
print("A seeded random 3x3 game:")
print(write_game(game))

# The three pipelines must agree exactly at full caps: the exhaustive
# oracle, the strategy-graph route, and the subset-graph route.
for seed in range(5):
    g = generate_random_game(4, 4, seed)
    oracle = enumerate_by_supports(g)
    via_gr = enumerate_by_gr(g)
    via_gi = enumerate_by_gi(g, g.m, g.n)
    agree = (oracle.support_pairs() == via_gr.support_pairs()
             == via_gi.support_pairs())
    print(f"seed {seed}: {len(oracle.entries)} equilibria, "
          f"oracle candidates {oracle.stats.candidates}, "
          f"gr candidates {via_gr.stats.candidates}, agree={agree}")
print()

# Basis statistics in the style of a benchmark table: average class count
# and its share of the support space, per game size.
print("size  avg|basis|  avg ratio   avg seconds")
for size in range(4, 8):
    totals = []
    ratios = []
    started = time.perf_counter()
    for trial in range(5):
        g = generate_random_game(size, size, 10_000 + size * 100 + trial)
        reduced = iterated_elimination(g).game
        basis = cycle_basis(build_gr(reduced))
        totals.append(len(basis))
        space = ((1 << size) - 1) ** 2
        ratios.append(Fraction(len(basis), space))
    avg_seconds = (time.perf_counter() - started) / 5
    avg_basis = sum(totals) / 5
    avg_ratio = float(sum(ratios, Fraction(0)) / 5)
    print(f"{size:4d}  {avg_basis:10.1f}  {avg_ratio:9.4f}   {avg_seconds:.3f}")
