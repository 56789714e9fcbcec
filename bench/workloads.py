"""Workload panels: which games a run solves, by which route, in which order.

Every workload is a fixed *panel* of games, sized from ``--seconds``
by the workload's nominal rate, and the workload seed sets the order in
which each round solves it.  The seed does not draw other games, and it
does not relabel them: per-game cost varies a hundredfold between games of
one size, and relabelling a game's strategies moves its cost by up to 40%
(the order of Bland's rule and of the cycle search changes), so with the ten
to two hundred games a run can afford, the figures of two seeds would differ
by more than any useful regression bound.

This module imports nothing from the program, so the orchestrator can use
it without loading the code under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: The 200-game acceptance corpus: (m, n) -> trials, seeds 1000m + 100n + trial.
CORPUS_ALLOCATION = {
    (2, 2): 30, (2, 3): 20, (3, 2): 20, (3, 3): 30,
    (2, 4): 12, (4, 2): 12, (3, 4): 12, (4, 3): 12, (4, 4): 14,
    (2, 5): 6, (5, 2): 6, (3, 5): 5, (5, 3): 5, (4, 5): 5, (5, 4): 5, (5, 5): 6,
}
CORPUS_ROUTES = ("supports", "gr", "gi")

#: Size cycle of each generated workload.  Generator seeds of ``generic`` and
#: ``degenerate`` follow the corpus rule 1000m + 100n + trial, with trials
#: counted per size from 0; ``gi_capped`` uses generator seeds 0, 1, 2, ...
GENERIC_SIZES = ((4, 4), (4, 4), (4, 4), (5, 5))
DEGENERATE_SIZES = ((3, 3), (4, 4), (5, 5))
DEGENERATE_VARIANTS = ("plain", "dup_row", "const_col")
GI_CAPPED_SIZES = ((5, 5),)
GI_CAP = 2

#: Panel games per second of ``--seconds``, chosen on the seed code (2-CPU
#: sandbox, Python 3.11, no gmpy2) so that all rounds of a run take about
#: ``--seconds``.  They are never re-measured at run time, so every commit
#: solves the same panel for the same arguments.
RATES = {"generic": 1.0, "degenerate": 0.5, "gi_capped": 0.15}

#: Fresh processes per run that each solve the whole panel once, in their own
#: order; every solve is one timing sample.  The 2-CPU sandbox the panels were
#: sized on switches between two speeds 1.6 to 1.9 times apart, for a fraction
#: of a second up to half a minute, so a game solved once lands at either
#: speed; repeated solves keep a percentile from resting on one sample.
ROUNDS = {"corpus": 2, "generic": 3, "degenerate": 3, "gi_capped": 3}

WORKLOADS = ("corpus", "generic", "degenerate", "gi_capped")


@dataclass(frozen=True)
class GameSpec:
    """One game of a panel and the route that solves it."""

    index: int
    family: str  # "grid": generate_random_game; "degenerate": degenerate_payoffs
    m: int
    n: int
    seed: int
    variant: str  # degenerate games only
    route: str  # "supports", "gr", "gi" (full caps) or "gi_capped" (k = l = GI_CAP)

    @property
    def exact(self) -> bool:
        """Whether the route must return exactly the oracle's set."""
        return self.route != "gi_capped"


def _sized(sizes, count, family, route, variants=("",), seed_rule=True) -> list[GameSpec]:
    trials: dict[tuple[int, int], int] = {}
    specs = []
    for index in range(count):
        m, n = sizes[index % len(sizes)]
        trial = trials.get((m, n), 0)
        trials[(m, n)] = trial + 1
        variant = variants[(index // len(sizes)) % len(variants)]
        seed = 1000 * m + 100 * n + trial if seed_rule else trial
        specs.append(GameSpec(index, family, m, n, seed, variant, route))
    return specs


def panel(workload: str, seconds: int) -> list[GameSpec]:
    """The games of one run, in panel order."""
    if workload == "corpus":
        specs = []
        for (m, n), trials in sorted(CORPUS_ALLOCATION.items()):
            for trial in range(trials):
                index = len(specs)
                route = CORPUS_ROUTES[index % len(CORPUS_ROUTES)]
                specs.append(GameSpec(index, "grid", m, n, 1000 * m + 100 * n + trial, "", route))
        return specs
    if workload not in RATES:
        raise ValueError(f"unknown workload {workload!r}")
    count = max(1, math.ceil(seconds * RATES[workload]))
    if workload == "generic":
        return _sized(GENERIC_SIZES, count, "grid", "gr")
    if workload == "degenerate":
        return _sized(DEGENERATE_SIZES, count, "degenerate", "gr", DEGENERATE_VARIANTS)
    return _sized(GI_CAPPED_SIZES, count, "grid", "gi_capped", seed_rule=False)


def solve_order(workload: str, seed: int, round_: int, count: int) -> list[int]:
    """Each round solves the panel in its own seeded order."""
    order = list(range(count))
    random.Random(f"{workload}:{seed}:order:{round_}").shuffle(order)
    return order


def degenerate_payoffs(m: int, n: int, seed: int, variant: str):
    """Small-integer payoffs in {0, 1, 2}: ties everywhere.

    ``dup_row`` copies one row of both matrices onto another (two identical
    strategies); ``const_col`` makes one column constant in each matrix
    (player 1 indifferent against it, player 2 earning the same whatever
    player 1 does).
    """
    rng = random.Random(seed)
    a = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
    b = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
    if variant == "dup_row" and m > 1:
        target, source = rng.sample(range(m), 2)
        a[target] = list(a[source])
        b[target] = list(b[source])
    elif variant == "const_col":
        col = rng.randrange(n)
        value_a, value_b = rng.randint(0, 2), rng.randint(0, 2)
        for row in range(m):
            a[row][col] = value_a
            b[row][col] = value_b
    elif variant not in ("plain", "dup_row"):
        raise ValueError(f"unknown degenerate variant {variant!r}")
    return a, b


def build_game(nc, spec: GameSpec):
    """The game of ``spec``, built with the program module ``nc``."""
    if spec.family == "grid":
        return nc.generate_random_game(spec.m, spec.n, spec.seed)
    a, b = degenerate_payoffs(spec.m, spec.n, spec.seed, spec.variant)
    return nc.Game.from_rows(a, b)

