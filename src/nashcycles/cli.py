"""Command-line front end.

Subcommands: ``solve`` (equilibrium enumeration), ``cycles`` (cycle-basis
inspection), ``stats`` (random-game basis statistics), ``gen`` (seeded
game generation), and ``check`` (equilibrium verification).

Each subcommand is declared once, in ``_COMMANDS``.  ``main`` first reads
the command line against that table itself (``_read_argv``), which takes
only exact subcommand and flag names, each flag followed by a value that
does not start with ``-`` and passes its type and choices, every required
option, and the right number of positionals.  Any other command line,
help included, goes to the argparse parser built from the same table, so
argparse is imported only then.  Both give the same namespace, and help,
usage and error text and exit codes are argparse's.

Exit codes: 0 success, 1 invalid verdict from ``check``, 2 usage or parse
error, 3 candidate budget exceeded (for ``cycles`` and ``stats``: a cycle
basis of more classes than the default budget).  Structured output mode
produces byte-identical stdout across runs; wall-clock timings go to
stderr.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from .cycles import DEFAULT_BUDGET, BudgetExceededError, cycle_basis
from .domgraph import _bits, build_gd, build_gi, build_gr, format_graph, iterated_elimination
from .equilibria import (
    EquilibriumSet,
    enumerate_by_gi,
    enumerate_by_gr,
    enumerate_by_supports,
    game_hash,
    verify_equilibrium,
)
from .games import (
    Game,
    MixedStrategy,
    generate_random_game,
    parse_game,
    write_game,
)

__all__ = ["main"]


def _fmt_ratio(num: int, den: int) -> str:
    """`str(Fraction(num, den))` for den > 0, made without the `Fraction`."""
    common = math.gcd(num, den)
    return str(num // common) if common == den else f"{num // common}/{den // common}"


def _fmt_side(side) -> str:
    """An equilibrium side's probabilities weights / total, as
    `str(Fraction(w, total))` each."""
    return "(" + ",".join([_fmt_ratio(w, side.total) for w in side.weights]) + ")"


def _fmt_indices(indices) -> str:
    return "{" + ",".join(str(i + 1) for i in indices) + "}"


def _equilibrium_line(entry) -> str:
    """An entry's line, formatted from its integer sides: no `Fraction` or
    `MixedStrategy` is made."""
    p, q = entry.sides
    return (
        f"rows={_fmt_indices(entry.support.rows)} cols={_fmt_indices(entry.support.cols)} "
        f"p={_fmt_side(p)} q={_fmt_side(q)} "
        f"u1={_fmt_ratio(*q.payoff)} u2={_fmt_ratio(*p.payoff)}"
    )


def _print_result(result: EquilibriumSet, structured: bool) -> None:
    """Write the result's lines with one write.  The digest is read once,
    so it is computed directly, not through the result's cached property."""
    prefix = f"eq method={result.method} " if structured else ""
    lines = [prefix + _equilibrium_line(entry) for entry in result.entries]
    if structured:
        stats = result.stats
        lines.append(
            f"stats method={result.method} game={game_hash(result.game)} "
            f"candidates={stats.candidates} pruned={stats.pruned} feasible={stats.feasible}"
        )
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


def _load_game(path: str) -> Game:
    # parse_game decodes the bytes as UTF-8.  os.open and os.read skip the
    # io layer's file objects, a measurable share of a small solve timed
    # from cold caches; a directory opens, so its read error is given the
    # path, as open() gives it.
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return parse_game(b"".join(chunks))


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
    if args.budget < 1:
        raise ValueError(f"--budget must be at least 1, got {args.budget}")
    game = _load_game(args.game)
    start = time.perf_counter()
    if args.method == "supports":
        result = enumerate_by_supports(game, args.budget)
    elif args.method == "gr":
        result = enumerate_by_gr(game, args.budget)
    else:
        result = enumerate_by_gi(game, *_caps(args, game), args.budget)
    elapsed = time.perf_counter() - start
    _print_result(result, args.output == "structured")
    print(f"wall_seconds={elapsed:.3f}", file=sys.stderr)
    return 0


def _cmd_cycles(args) -> int:
    game = _load_game(args.game)
    start = time.perf_counter()
    if args.method == "gr":
        graph = build_gr(game)
    elif args.method == "gd":
        graph = build_gd(game, *_caps(args, game))
    else:
        graph = build_gi(game, *_caps(args, game))
    if args.dump_graph:
        dump = format_graph(graph)
        if dump:
            print(dump)
    basis = cycle_basis(graph, DEFAULT_BUDGET)
    flat = all(graph.strategy_set(v).bit_count() == 1 for v in range(graph.order))

    def side_label(vertex_ids) -> str:
        if flat:
            # Distinct singletons: their sum is their union.
            return _fmt_indices(_bits(sum(map(graph.strategy_set, vertex_ids))))
        parts = [_fmt_indices(_bits(graph.strategy_set(v))) for v in vertex_ids]
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
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
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
            basis = cycle_basis(graph, DEFAULT_BUDGET)
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


# Every subcommand once: its name, help, handler and arguments, each argument
# the names and keywords that argparse's add_argument takes.  `_build_parser`
# and `_read_argv` both read this table.
_COMMANDS = (
    ("solve", "enumerate all equilibrium support pairs", _cmd_solve, (
        (("game",), {"help": "path to a game file"}),
        (("--method",), {"choices": ("supports", "gr", "gi"), "default": "gr"}),
        (("--k",), {"type": int, "default": None, "help": "left vertex-size cap (gi)"}),
        (("--l",), {"type": int, "default": None, "help": "right vertex-size cap (gi)"}),
        (("--budget",), {"type": int, "default": DEFAULT_BUDGET}),
        (("--output",), {"choices": ("text", "structured"), "default": "text"}),
    )),
    ("cycles", "dump the cycle basis of a dominance graph", _cmd_cycles, (
        (("game",), {}),
        (("--method",), {"choices": ("gr", "gd", "gi"), "default": "gr"}),
        (("--k",), {"type": int, "default": None}),
        (("--l",), {"type": int, "default": None}),
        (("--dump-graph",), {"action": "store_true"}),
    )),
    ("stats", "average cycle-basis size over random games", _cmd_stats, (
        (("--sizes",), {"required": True, "help": "size range A..B (square games)"}),
        (("--trials",), {"type": int, "default": 10}),
        (("--seed",), {"type": int, "default": 0}),
        (("--output",), {"choices": ("text", "structured"), "default": "text"}),
    )),
    ("gen", "generate a seeded random game file", _cmd_gen, (
        (("-m",), {"type": int, "required": True}),
        (("-n",), {"type": int, "required": True}),
        (("--seed",), {"type": int, "required": True}),
        (("-o", "--output-path"), {"default": None}),
    )),
    ("check", "verify a strategy pair", _cmd_check, (
        (("game",), {}),
        (("--p",), {"required": True, "help": "player 1 vector, e.g. 1/2,1/2"}),
        (("--q",), {"required": True, "help": "player 2 vector"}),
    )),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first call and reused: the parser holds no game data, and
    # each parse_args call returns a fresh namespace.
    import argparse

    parser = argparse.ArgumentParser(
        prog="nashcycles",
        description="Enumerate Nash-equilibrium support pairs of bimatrix games "
        "via dominance-graph cycles, with an exhaustive oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, arguments in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for names, options in arguments:
            command.add_argument(*names, **options)
        command.set_defaults(func=func)
    return parser


def _reading_table(func, arguments):
    """One subcommand's table for `_read_argv`: its handler, each dest's
    default in declaration order, each flag's (dest, type, choices) with
    type None for a switch, the positional dests in order, and the
    required option dests, whose default is None."""
    defaults, flags, positionals, required = {}, {}, [], []
    for names, options in arguments:
        dest = names[-1].lstrip("-").replace("-", "_")
        switch = options.get("action") == "store_true"
        defaults[dest] = options.get("default", False if switch else None)
        if names[0][0] != "-":
            positionals.append(dest)
            continue
        if options.get("required"):
            required.append(dest)
        spec = dest, None if switch else options.get("type", str), options.get("choices")
        for flag in names:
            flags[flag] = spec
    return func, defaults, flags, tuple(positionals), tuple(required)


# Every subcommand's reading table, made once from `_COMMANDS`.
_READING_TABLES = {
    name: _reading_table(func, arguments) for name, _, func, arguments in _COMMANDS
}


def _read_argv(argv) -> SimpleNamespace | None:
    """The namespace `_build_parser().parse_args(argv)` returns, read from
    `_COMMANDS` without argparse, or None for a command line this reader
    does not take: a subcommand name not exact, a flag not spelled exactly
    as declared (help, abbreviations, ``--opt=value`` and ``--`` included),
    a value or positional that starts with ``-``, a missing value, required
    option or positional, an extra positional, or a value that fails its
    type or choices.  Argparse reads those, with its own messages."""
    table = _READING_TABLES.get(argv[0]) if argv else None
    if table is None:
        return None
    func, defaults, flags, positionals, required = table
    values = {"command": argv[0], "func": func, **defaults}
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            given.append(token)
            continue
        spec = flags.get(token)
        if spec is None:
            return None
        dest, convert, choices = spec
        value = True
        if convert is not None:
            value = next(tokens, "-")
            if value[:1] == "-":
                return None
            try:
                value = convert(value)
            except ValueError:
                return None
            if choices is not None and value not in choices:
                return None
        values[dest] = value
    for dest in required:
        if values[dest] is None:
            return None
    if len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
