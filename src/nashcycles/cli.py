"""Command-line front end.

Subcommands: ``solve`` (equilibrium enumeration), ``cycles`` (cycle-basis
inspection), ``stats`` (random-game basis statistics), ``gen`` (seeded
game generation), and ``check`` (equilibrium verification).

Exit codes: 0 success, 1 invalid verdict from ``check``, 2 usage or parse
error, 3 candidate budget exceeded.  Structured output mode produces
byte-identical stdout across runs; wall-clock timings go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction

from .cycles import cycle_basis
from .domgraph import build_gd, build_gi, build_gr, format_graph
from .equilibria import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    EquilibriumSet,
    enumerate_by_gi,
    enumerate_by_gr,
    enumerate_by_supports,
    verify_equilibrium,
)
from .games import (
    Game,
    GameFormatError,
    MixedStrategy,
    generate_random_game,
    iterated_elimination,
    parse_game,
    write_game,
)

__all__ = ["main"]


def _fmt(value: Fraction) -> str:
    return str(value)


def _fmt_vector(probs) -> str:
    return "(" + ",".join(_fmt(p) for p in probs) + ")"


def _fmt_indices(indices) -> str:
    return "{" + ",".join(str(i + 1) for i in indices) + "}"


def _equilibrium_line(entry) -> str:
    return (
        f"rows={_fmt_indices(entry.support.rows)} cols={_fmt_indices(entry.support.cols)} "
        f"p={_fmt_vector(entry.p.probs)} q={_fmt_vector(entry.q.probs)} "
        f"u1={_fmt(entry.u1)} u2={_fmt(entry.u2)}"
    )


def _print_result(result: EquilibriumSet, structured: bool) -> None:
    for entry in result.entries:
        if structured:
            print(f"eq method={result.method} " + _equilibrium_line(entry))
        else:
            print(_equilibrium_line(entry))
    if structured:
        stats = result.stats
        print(
            f"stats method={result.method} game={result.game_hash} "
            f"candidates={stats.candidates} pruned={stats.pruned} feasible={stats.feasible}"
        )


def _load_game(path: str) -> Game:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_game(handle.read())


def _parse_vector(text: str, owner: int) -> MixedStrategy:
    try:
        probs = tuple(Fraction(token.strip()) for token in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse probability vector {text!r}") from None
    return MixedStrategy(owner, probs)


def _caps(args, game: Game) -> tuple[int, int]:
    """The --k/--l vertex-size caps, defaulting to the game's dimensions."""
    k = args.k if args.k is not None else game.m
    l = args.l if args.l is not None else game.n
    if not (1 <= k <= game.m and 1 <= l <= game.n):
        raise ValueError(f"caps must satisfy 1 <= k <= {game.m} and 1 <= l <= {game.n}")
    return k, l


def _parse_sizes(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValueError(f"cannot parse size range {text!r} (expected A..B)") from None
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid size range {text!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    game = _load_game(args.game)
    k, l = _caps(args, game)
    start = time.perf_counter()
    if args.method == "supports":
        result = enumerate_by_supports(game, args.budget)
    elif args.method == "gr":
        result = enumerate_by_gr(game, args.budget)
    else:
        result = enumerate_by_gi(game, k, l, args.budget)
    elapsed = time.perf_counter() - start
    _print_result(result, args.output == "structured")
    print(f"wall_seconds={elapsed:.3f}", file=sys.stderr)
    return 0


def _cmd_cycles(args) -> int:
    game = _load_game(args.game)
    k, l = _caps(args, game)
    start = time.perf_counter()
    if args.method == "gr":
        graph = build_gr(game)
    elif args.method == "gd":
        graph = build_gd(game, k, l)
    else:
        graph = build_gi(game, k, l)
    if args.dump_graph:
        dump = format_graph(graph)
        if dump:
            print(dump)
    basis = cycle_basis(graph)
    flat = all(len(graph.strategy_set(v)) == 1 for v in range(graph.order))

    def side_label(vertex_ids) -> str:
        if flat:
            strategies = sorted(i for v in vertex_ids for i in graph.strategy_set(v))
            return _fmt_indices(strategies)
        parts = [
            _fmt_indices(sorted(graph.strategy_set(v))) for v in vertex_ids
        ]
        return "{" + ",".join(parts) + "}"

    for entry in basis:
        line = f"k={entry.distinct_count} left={side_label(entry.left)} right={side_label(entry.right)}"
        if entry.artificial:
            line += " artificial"
        print(line)
    elapsed = time.perf_counter() - start
    three = sum(1 for e in basis if e.distinct_count == 2)
    artificial = sum(1 for e in basis if e.artificial)
    space = ((1 << game.m) - 1) * ((1 << game.n) - 1)
    ratio = Fraction(len(basis), space)
    print(
        f"basis={len(basis)} three_cycles={three} artificial={artificial} "
        f"support_space={space} ratio={ratio} ({float(ratio):.6f})"
    )
    print(f"wall_seconds={elapsed:.3f}", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    lo, hi = _parse_sizes(args.sizes)
    structured = args.output == "structured"
    for size in range(lo, hi + 1):
        basis_sizes = []
        ratios = []
        elapsed = 0.0
        # The ratio denominator is the generated game's support space, so the
        # completely-connected count for the drawn size is a hard upper bound.
        space = (((1 << size) - 1)) ** 2
        for trial in range(args.trials):
            seed = args.seed * 1_000_000 + size * 1_000 + trial
            game = generate_random_game(size, size, seed)
            start = time.perf_counter()
            reduced = iterated_elimination(game).game
            graph = build_gr(reduced)
            basis = cycle_basis(graph)
            elapsed += time.perf_counter() - start
            basis_sizes.append(len(basis))
            ratios.append(Fraction(len(basis), space))
        avg_basis = Fraction(sum(basis_sizes), args.trials)
        avg_ratio = sum(ratios, Fraction(0)) / args.trials
        line = (
            f"size={size} trials={args.trials} "
            f"avg_basis={float(avg_basis):.6g} avg_ratio={float(avg_ratio):.6f}"
        )
        if not structured:
            line += f" avg_seconds={elapsed / args.trials:.3f}"
        print(line)
        print(f"wall size={size} avg_seconds={elapsed / args.trials:.3f}", file=sys.stderr)
    return 0


def _cmd_gen(args) -> int:
    game = generate_random_game(args.m, args.n, args.seed)
    text = write_game(game)
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args) -> int:
    game = _load_game(args.game)
    p = _parse_vector(args.p, 1)
    q = _parse_vector(args.q, 2)
    valid, report = verify_equilibrium(game, p, q)
    if valid:
        print("valid")
        return 0
    print("invalid")
    for line in report:
        print(line)
    return 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first call and reused: the parser holds no game data, and
    # each parse_args call returns a fresh namespace.
    parser = argparse.ArgumentParser(
        prog="nashcycles",
        description="Enumerate Nash-equilibrium support pairs of bimatrix games "
        "via dominance-graph cycles, with an exhaustive oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="enumerate all equilibrium support pairs")
    solve.add_argument("game", help="path to a game file")
    solve.add_argument("--method", choices=("supports", "gr", "gi"), default="gr")
    solve.add_argument("--k", type=int, default=None, help="left vertex-size cap (gi)")
    solve.add_argument("--l", type=int, default=None, help="right vertex-size cap (gi)")
    solve.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    solve.add_argument("--output", choices=("text", "structured"), default="text")
    solve.set_defaults(func=_cmd_solve)

    cycles = sub.add_parser("cycles", help="dump the cycle basis of a dominance graph")
    cycles.add_argument("game")
    cycles.add_argument("--method", choices=("gr", "gd", "gi"), default="gr")
    cycles.add_argument("--k", type=int, default=None)
    cycles.add_argument("--l", type=int, default=None)
    cycles.add_argument("--dump-graph", action="store_true")
    cycles.add_argument("--output", choices=("text", "structured"), default="text")
    cycles.set_defaults(func=_cmd_cycles)

    stats = sub.add_parser("stats", help="average cycle-basis size over random games")
    stats.add_argument("--sizes", required=True, help="size range A..B (square games)")
    stats.add_argument("--trials", type=int, default=10)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument("--output", choices=("text", "structured"), default="text")
    stats.set_defaults(func=_cmd_stats)

    gen = sub.add_parser("gen", help="generate a seeded random game file")
    gen.add_argument("-m", type=int, required=True)
    gen.add_argument("-n", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("-o", "--output-path", default=None)
    gen.set_defaults(func=_cmd_gen)

    check = sub.add_parser("check", help="verify a strategy pair")
    check.add_argument("game")
    check.add_argument("--p", required=True, help="player 1 vector, e.g. 1/2,1/2")
    check.add_argument("--q", required=True, help="player 2 vector")
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GameFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
