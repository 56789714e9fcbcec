"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest -s`` to see them as they happen)."""

from __future__ import annotations

import hashlib
import math
import random
import re
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import brute_force_cycles, rational_rank

from nashcycles.cli import main as cli_main
from nashcycles.cycles import cycle_basis, elementary_cycles, gr_support_trees, johnson_cycles
from nashcycles.domgraph import (
    BipartiteDigraph,
    build_gd,
    build_gr,
    compute_domain,
    compute_relevancy,
    iterated_elimination,
)
from nashcycles.equilibria import enumerate_by_gi, enumerate_by_gr, enumerate_by_supports
from nashcycles import lp as lp_module
from nashcycles.games import Game, SupportPair, generate_random_game, write_game
from nashcycles.lp import fp1_check

F = Fraction

# 200 seeded games covering every size combination from 2x2 through 5x5,
# weighted toward the smaller sizes.
ALLOCATION = {
    (2, 2): 30, (2, 3): 20, (3, 2): 20, (3, 3): 30,
    (2, 4): 12, (4, 2): 12, (3, 4): 12, (4, 3): 12, (4, 4): 14,
    (2, 5): 6, (5, 2): 6, (3, 5): 5, (5, 3): 5, (4, 5): 5, (5, 4): 5, (5, 5): 6,
}
assert sum(ALLOCATION.values()) == 200


def corpus_games():
    for (m, n), trials in sorted(ALLOCATION.items()):
        for trial in range(trials):
            yield generate_random_game(m, n, 1000 * m + 100 * n + trial)


@contextmanager
def criterion(num: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {num:2d} FAIL  {description}")
        raise
    print(f"\nCRITERION {num:2d} PASS  {description}  [{time.perf_counter() - start:.1f}s]")


@pytest.fixture(scope="session")
def corpus_runs():
    start = time.perf_counter()
    results = []
    for game in corpus_games():
        oracle = enumerate_by_supports(game)
        via_gr = enumerate_by_gr(game)
        via_gi = enumerate_by_gi(game, game.m, game.n)
        results.append((game, oracle, via_gr, via_gi))
    return results, time.perf_counter() - start


@pytest.fixture(scope="session")
def corpus_results(corpus_runs):
    return corpus_runs[0]


def test_criterion_01_oracle_equivalence(corpus_runs):
    corpus_results, elapsed = corpus_runs
    with criterion(1, "oracle equivalence of gr and gi pipelines on 200 games 2x2..5x5"):
        for game, oracle, via_gr, via_gi in corpus_results:
            assert via_gr.support_pairs() == oracle.support_pairs(), game
            assert via_gi.support_pairs() == oracle.support_pairs(), game
        assert elapsed < 300.0
        print(f"\n  200 games through three pipelines in {elapsed:.1f}s")


def test_criterion_02_golden_games(pd, mp, bos):
    with criterion(2, "fixed-game golden vectors (PD, Matching Pennies, Battle of the Sexes)"):
        pd_set = enumerate_by_supports(pd)
        assert [(e.support.rows, e.support.cols) for e in pd_set.entries] == [((1,), (1,))]

        mp_set = enumerate_by_supports(mp)
        assert [(e.support.rows, e.support.cols) for e in mp_set.entries] == [((0, 1), (0, 1))]
        assert mp_set.entries[0].p.probs == (F(1, 2), F(1, 2))
        assert mp_set.entries[0].q.probs == (F(1, 2), F(1, 2))

        bos_set = enumerate_by_supports(bos)
        assert [(e.support.rows, e.support.cols) for e in bos_set.entries] == [
            ((0,), (0,)),
            ((0, 1), (0, 1)),
            ((1,), (1,)),
        ]
        mixed = bos_set.entries[1]
        assert mixed.p.probs == (F(2, 3), F(1, 3))
        assert mixed.q.probs == (F(1, 3), F(2, 3))
        assert mixed.u1 == mixed.u2 == F(2, 3)


def test_criterion_03_gd_three_cycles_are_equilibria():
    with criterion(3, "all 3-cycles of the full-cap subset graph pass the feasibility check (50 games)"):
        start = time.perf_counter()
        checked = 0
        for seed in range(1, 51):
            game = generate_random_game(4, 4, 40000 + seed)
            graph = build_gd(game, 4, 4)
            assert graph.artificial_arc_count() == 0
            # The 3-cycles S -> T -> S are the mutual arc pairs.
            for s in range(len(graph.left)):
                for t in range(len(graph.left), graph.order):
                    if graph.succ[s] >> t & 1 and graph.succ[t] >> s & 1:
                        rows, cols = graph.strategy_set(s), graph.strategy_set(t)
                        assert fp1_check(game, rows, cols)[0]
                        checked += 1
        assert checked > 0
        assert time.perf_counter() - start < 120.0


def test_criterion_04_cycle_basis_combinatorics():
    with criterion(4, "cycle-basis size on complete graphs equals the binomial sum and Johnson dedup"):
        for m in range(1, 5):
            for n in range(1, 5):
                graph = BipartiteDigraph.complete(m, n)
                basis = cycle_basis(graph)
                expected = sum(
                    math.comb(m, k) * math.comb(n, k) for k in range(1, min(m, n) + 1)
                )
                assert len(basis) == expected
                dedup = {
                    tuple(sorted(set(c.vertices[:-1]))) for c in johnson_cycles(graph)
                }
                assert {tuple(sorted(e.left + e.right)) for e in basis} == dedup
        assert len(cycle_basis(BipartiteDigraph.complete(2, 2))) == 5
        assert len(cycle_basis(BipartiteDigraph.complete(3, 3))) == 19


def test_criterion_05_johnson_correctness():
    with criterion(5, "elementary-cycle counts match brute force on 100 random digraphs"):
        rng = random.Random(55)
        for _ in range(100):
            n = rng.randint(2, 8)
            adj = [
                sorted({rng.randrange(n) for _ in range(rng.randint(0, n))} - {v})
                for v in range(n)
            ]
            found = sorted(tuple(c) for c in elementary_cycles(n, adj))
            assert found == brute_force_cycles(n, adj)
        assert len(list(johnson_cycles(BipartiteDigraph.complete(2, 2)))) == 6


def _plant_dominated(seed: int) -> tuple[Game, int, int]:
    rng = random.Random(seed)
    m, n = rng.randint(2, 3), rng.randint(2, 3)
    base = generate_random_game(m, n, 60000 + seed)
    delta = F(1, 977)
    base_row = rng.randrange(m)
    a = [list(row) for row in base.a]
    b = [list(row) for row in base.b]
    a.append([a[base_row][y] - delta for y in range(n)])
    b.append(list(b[base_row]))
    base_col = rng.randrange(n)
    for x in range(m + 1):
        a[x].append(a[x][base_col])
        b[x].append(b[x][base_col] - delta)
    return Game.from_rows(a, b), m, n


def test_criterion_06_dominance_invariants():
    with criterion(6, "strictly dominated strategies: empty domains, absent from relevancy and supports"):
        for seed in range(10):
            game, dead_row, dead_col = _plant_dominated(seed)
            assert compute_domain(game, 1, dead_row, game.n) == ()
            assert compute_domain(game, 2, dead_col, game.m) == ()

            red = iterated_elimination(game)
            assert dead_row not in red.row_map
            assert dead_col not in red.col_map
            for x in range(red.game.m):
                row = compute_relevancy(red.game, 1, x)
                assert dead_col not in {red.col_map[y] for y in row.members}
                for witness in row.witnesses:
                    assert dead_col not in {red.col_map[y] for y in witness.support}
            for y in range(red.game.n):
                row = compute_relevancy(red.game, 2, y)
                assert dead_row not in {red.row_map[x] for x in row.members}
                for witness in row.witnesses:
                    assert dead_row not in {red.row_map[x] for x in witness.support}

            omega = enumerate_by_supports(game)
            for entry in omega.entries:
                assert dead_row not in entry.support.rows
                assert dead_col not in entry.support.cols
            assert not fp1_check(game, 1 << dead_row, 0b1)[0]
            assert not fp1_check(game, 0b1, 1 << dead_col)[0]
            assert not fp1_check(game, 1 << dead_row, 1 << dead_col)[0]


def test_criterion_07_theorem_2_realization(corpus_results):
    with criterion(7, "every oracle equilibrium is realized by a cycle class of the right size"):
        for game, oracle, _, _ in corpus_results:
            if not oracle.entries:
                continue
            red = iterated_elimination(game)
            graph = build_gr(red.game)
            class_sets = {(e.left, e.right) for e in cycle_basis(graph)}
            inv_rows = {orig: i for i, orig in enumerate(red.row_map)}
            inv_cols = {orig: j for j, orig in enumerate(red.col_map)}
            offset = len(graph.left)
            for entry in oracle.entries:
                rows = tuple(sorted(inv_rows[x] for x in entry.support.rows))
                cols = tuple(sorted(offset + inv_cols[y] for y in entry.support.cols))
                k = min(len(rows), len(cols))
                if len(rows) == len(cols):
                    assert (rows, cols) in class_sets, (game, entry.support)
                else:
                    assert any(
                        len(left) == k
                        and len(right) == k
                        and set(left) <= set(rows)
                        and set(right) <= set(cols)
                        for left, right in class_sets
                    ), (game, entry.support)


def test_criterion_08_stats_pipeline(capsys):
    with criterion(8, "stats pipeline at size 7 stays under the completely-connected ratio bound"):
        start = time.perf_counter()
        assert cli_main(["stats", "--sizes", "7..7", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"size=7 trials=10 avg_basis=([\d.]+) avg_ratio=([\d.]+)", out)
        assert match, out
        ratio = float(match.group(2))
        bound = 3431 / 16129
        assert ratio <= bound
        assert time.perf_counter() - start < 120.0
        # Paper reference for the same pipeline: |delta| = 757, ratio 0.04;
        # treated as descriptive, not reproducible.
        print(f"\n  measured avg_basis={match.group(1)} avg_ratio={ratio:.4f} bound={bound:.4f}")


def _unique_witness_systems(game: Game, entries) -> bool:
    for entry in entries:
        rows, cols = entry.support.rows, entry.support.cols
        q_system = [[game.a[x][y] for y in cols] + [F(-1)] for x in rows]
        q_system.append([F(1)] * len(cols) + [F(0)])
        if rational_rank(q_system) != len(cols) + 1:
            return False
        p_system = [[game.b[x][y] for x in rows] + [F(-1)] for y in cols]
        p_system.append([F(1)] * len(rows) + [F(0)])
        if rational_rank(p_system) != len(rows) + 1:
            return False
    return True


def test_criterion_09_balanced_supports(corpus_results):
    with criterion(9, "games whose witnesses solve their equality systems uniquely have balanced supports"):
        qualifying = 0
        for game, oracle, _, _ in corpus_results:
            if not oracle.entries:
                continue
            if not _unique_witness_systems(game, oracle.entries):
                continue
            qualifying += 1
            for entry in oracle.entries:
                assert len(entry.support.rows) == len(entry.support.cols), (game, entry.support)
        assert qualifying > 100  # the corpus is overwhelmingly non-degenerate
        print(f"\n  {qualifying} of {len(corpus_results)} games qualified as non-degenerate")


def test_criterion_10_degenerate_unbalanced(flat_top):
    with criterion(10, "degenerate game yields the unbalanced supports via oracle and gr trees"):
        expected = {
            SupportPair((0,), (0,)),
            SupportPair((0,), (1,)),
            SupportPair((0,), (0, 1)),
        }
        oracle = enumerate_by_supports(flat_top)
        assert expected <= set(oracle.support_pairs())
        via_gr = enumerate_by_gr(flat_top)
        assert expected <= set(via_gr.support_pairs())
        # The wide support must arise from a main 3-cycle plus one leaf.
        red = iterated_elimination(flat_top)
        graph = build_gr(red.game)
        basis = cycle_basis(graph)
        trees = list(gr_support_trees(graph, basis, (red.game.m, red.game.n)))
        wide = [
            t
            for t in trees
            if t.leaves and t.support_pair(graph) == (0b1, 0b11)
        ]
        assert wide and all(t.main.distinct_count == 2 and len(t.leaves) == 1 for t in wide)


#: Where each `_solve_rows` call comes from, by the innermost of these frames.
_LP_LAYERS = {"iterated_elimination": "elimination", "_region": "sides", "lp3_relevancy": "gr_rows"}


def test_corpus_output_and_lp_counts_are_pinned(tmp_path, capsys, monkeypatch):
    # `solve --output structured` on every corpus game and route, hashed with
    # each exit code: closed forms that skip an LP must not move one byte.
    # The LPs each layer solves on the way are pinned as well.
    counts = dict.fromkeys(_LP_LAYERS.values(), 0)
    solve_rows = lp_module._solve_rows

    def counted(*args):
        frame = sys._getframe(1)
        while frame.f_code.co_name not in _LP_LAYERS:
            frame = frame.f_back
        counts[_LP_LAYERS[frame.f_code.co_name]] += 1
        return solve_rows(*args)

    monkeypatch.setattr(lp_module, "_solve_rows", counted)
    digest = hashlib.sha256()
    path = tmp_path / "corpus.game"
    for game in corpus_games():
        path.write_text(write_game(game))
        for route in ("supports", "gr", "gi"):
            code = cli_main(["solve", str(path), "--method", route, "--output", "structured"])
            digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest()[:16] == "4f40cf4246ba57d4"
    assert counts == {"elimination": 12, "sides": 121, "gr_rows": 0}
