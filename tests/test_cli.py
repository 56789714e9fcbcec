"""Command-line interface: formats, determinism, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nashcycles
from nashcycles.cli import _build_parser, _fmt_ratio, _fmt_side, _read_argv, main
from nashcycles.equilibria import EquilibriumSide
from nashcycles.games import generate_random_game, parse_game, write_game

from counting import strategies_made

PD = "2 2\n3 0\n5 1\n3 5\n0 1\n"
MP = "2 2\n1 -1\n-1 1\n-1 1\n1 -1\n"
BOS = "2 2\n2 0\n0 1\n1 0\n0 2\n"
TIED = "4 4\n0 1 2 1\n2 0 0 1\n0 2 2 0\n0 1 2 1\n1 0 0 2\n1 2 0 0\n1 1 1 2\n1 0 0 2\n"
TWINS = "3 3\n2 2 0\n1 1 2\n1 1 2\n0 0 1\n1 1 0\n1 1 0\n"
ZERO34 = "3 4\n" + "0 0 0 0\n" * 6


@pytest.fixture
def game_file(tmp_path):
    def write(text, name="game.game"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestSolve:
    def test_bos_supports(self, game_file, capsys):
        assert main(["solve", game_file(BOS), "--method", "supports"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "rows={1} cols={1} p=(1,0) q=(1,0) u1=2 u2=1",
            "rows={1,2} cols={1,2} p=(2/3,1/3) q=(1/3,2/3) u1=2/3 u2=2/3",
            "rows={2} cols={2} p=(0,1) q=(0,1) u1=1 u2=2",
        ]

    def test_pd_gr_maps_to_original_indices(self, game_file, capsys):
        assert main(["solve", game_file(PD), "--method", "gr"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["rows={2} cols={2} p=(0,1) q=(0,1) u1=1 u2=1"]

    def test_methods_agree(self, game_file, capsys):
        path = game_file(MP)
        outputs = []
        for method in ("supports", "gr", "gi"):
            argv = ["solve", path, "--method", method]
            if method == "gi":
                argv += ["--k", "2", "--l", "2"]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    # Per game and options, the trailer's method, game hash and
    # candidates/pruned/feasible.  After BOS come the merged games the CI
    # smoke step solves: tied.game's rows 1 and 4 are one class (capped gi
    # is not merged), twins.game walks a 2 x 2 quotient and zero34.game a
    # 1 x 1 one.
    TRAILERS = [
        (BOS, ["--method", "supports"], "supports f11994b3dfc82fac 9/6/3"),
        (TIED, ["--method", "supports"], "supports f15476c947ad8c44 105/93/9"),
        (TIED, ["--method", "gr"], "gr f15476c947ad8c44 73/64/9"),
        (TIED, ["--method", "gi"], "gi(k=4,l=3) f15476c947ad8c44 105/93/9"),
        (TIED, ["--method", "gi", "--k", "3", "--l", "3"], "gi(k=3,l=3) f15476c947ad8c44 18/8/9"),
        (TWINS, ["--method", "supports"], "supports 745105bec71da748 49/40/9"),
        (TWINS, ["--method", "gr"], "gr 745105bec71da748 49/40/9"),
        (TWINS, ["--method", "gi"], "gi(k=3,l=3) 745105bec71da748 49/40/9"),
        (ZERO34, ["--method", "supports"], "supports 062782ec259866b0 105/0/105"),
        (ZERO34, ["--method", "gr"], "gr 062782ec259866b0 105/0/105"),
        (ZERO34, ["--method", "gi"], "gi(k=3,l=4) 062782ec259866b0 105/0/105"),
    ]

    def test_structured_mode_byte_identical(self, game_file, capsys):
        for text, options, trailer in self.TRAILERS:
            argv = ["solve", game_file(text), *options, "--output", "structured"]
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert main(argv) == 0
            second = capsys.readouterr().out
            assert first == second
            method, game, counts = trailer.split()
            candidates, pruned, feasible = counts.split("/")
            assert first.splitlines()[-1] == (
                f"stats method={method} game={game} "
                f"candidates={candidates} pruned={pruned} feasible={feasible}"
            ), options

    def test_wall_time_on_stderr_only(self, game_file, capsys):
        assert main(["solve", game_file(PD)]) == 0
        captured = capsys.readouterr()
        assert "wall_seconds" not in captured.out
        assert "wall_seconds=" in captured.err

    def test_missing_file_exit_2(self, capsys):
        assert main(["solve", "/nonexistent.game"]) == 2

    def test_directory_exit_2_names_it(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_parse_error_exit_2(self, game_file, capsys):
        assert main(["solve", game_file("junk\n")]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_budget_exit_3(self, game_file, capsys):
        assert main(["solve", game_file(MP), "--method", "supports", "--budget", "2"]) == 3

    def test_tall_game_exit_3(self, game_file, capsys):
        # An all-zero 1100 x 1 game keeps every row after elimination; each
        # route refuses on its own count with one error line, however deep
        # `gr`'s biclique walk goes.
        path = game_file("1100 1\n" + "0\n" * 2200)
        for method in ("supports", "gr", "gi"):
            assert main(["solve", path, "--budget", "2000", "--method", method]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("error: ") and line.endswith(" candidates exceed the budget of 2000")

    def test_huge_tall_game_exit_3(self, game_file, capsys):
        # An all-zero 15000 x 1 game: elimination and the side record are
        # linear in its rows, and the closed-form count of every route's
        # fully joined graph, 2^15000 - 1, has more digits than Python
        # converts to a string, so the message names the power of two it
        # exceeds.
        path = game_file("15000 1\n" + "0\n" * 30000)
        for method in ("supports", "gr", "gi"):
            assert main(["solve", path, "--budget", "2000", "--method", method]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "error: more than 2^14999 candidates exceed the budget of 2000"
            ]

    def test_non_positive_budget_exit_2(self, game_file, capsys):
        path = game_file(MP)
        for budget in ("0", "-1"):
            assert main(["solve", path, "--method", "supports", "--budget", budget]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --budget must be at least 1, got {budget}\n"

    def test_bad_caps_exit_2(self, game_file, capsys):
        assert main(["solve", game_file(MP), "--method", "gi", "--k", "9"]) == 2

    def test_caps_ignored_off_gi(self, game_file, capsys):
        path = game_file(PD)
        for method in ("supports", "gr"):
            assert main(["solve", path, "--method", method, "--k", "9", "--l", "9"]) == 0
            assert capsys.readouterr().out == "rows={2} cols={2} p=(0,1) q=(0,1) u1=1 u2=1\n"

    def test_usage_error_exit_2(self, capsys):
        # A command line the reader declines goes to argparse: its usage
        # line, its message and exit 2, read before any file is opened.
        for argv, message in (
            (["solve"], "the following arguments are required: game"),
            (["solve", "g.game", "--method", "bogus"], "argument --method: invalid choice: 'bogus'"),
            (["solve", "g.game", "--k", "x"], "argument --k: invalid int value: 'x'"),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage: nashcycles solve [-h] [--method {supports,gr,gi}]")
            assert f"\nnashcycles solve: error: {message}" in captured.err

    def test_well_formed_solve_loads_no_argparse(self, tmp_path):
        # Fresh processes, since pytest itself loads argparse: cli.main on
        # every route, and `python -m nashcycles solve`, whose imports
        # -X importtime lists on stderr.
        path = tmp_path / "g.game"
        path.write_text(write_game(generate_random_game(4, 4, 7)))
        src = str(Path(nashcycles.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=pythonpath)
        script = (
            "import contextlib, io, sys\n"
            "from nashcycles import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['solve', sys.argv[1], '--method', m, '--output', 'structured'])\n"
            "             for m in ('supports', 'gr', 'gi')]\n"
            "print(codes, 'argparse' in sys.modules)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script, str(path)], capture_output=True, text=True, env=env, check=True
        )
        assert run.stdout == "[0, 0, 0] False\n"
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "nashcycles", "solve", str(path)],
            capture_output=True, text=True, env=env, check=True,
        )
        imported = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines() if "|" in line}
        assert "nashcycles.cli" in imported and "argparse" not in imported


@contextlib.contextmanager
def _fractions_made():
    """Yield a one-item list counting the `Fraction`s built inside the
    block: by the constructor and by `Fraction._from_coprime_ints` (3.12+
    arithmetic), which does not call it."""
    count = [0]
    new = Fraction.__new__

    def fraction_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__", fraction_new)
        if "_from_coprime_ints" in vars(Fraction):
            coprime = Fraction._from_coprime_ints.__func__

            def fraction_coprime(cls, *args):
                count[0] += 1
                return coprime(cls, *args)

            patch.setattr(Fraction, "_from_coprime_ints", classmethod(fraction_coprime))
        yield count


class TestPrinting:
    """A solve prints each line from its entries' integer sides."""

    ROUTES = (["--method", "supports"], ["--method", "gr"], ["--method", "gi"])

    def test_a_solve_makes_no_fraction_or_strategy(self, game_file, capsys):
        texts = [PD, MP, BOS, "1 3\n0 0 0\n0 0 0\n", "3 1\n0\n0\n0\n0\n0\n0\n",
                 "4 4\n0 1 2 1\n2 0 0 1\n0 2 2 0\n0 1 2 1\n1 0 0 2\n1 2 0 0\n1 1 1 2\n1 0 0 2\n"]
        texts += [write_game(generate_random_game(m, n, 1000 * m + 100 * n))
                  for m in range(2, 6) for n in range(2, 6)]
        with _fractions_made() as fractions, strategies_made() as made:
            assert Fraction(1, 2) and fractions == [1]  # the counter counts
            fractions[0] = 0
            for index, text in enumerate(texts):
                path = game_file(text, f"g{index}.game")
                cap = str(min(2, *map(int, text.split()[:2])))
                for route in (*self.ROUTES, ["--method", "gi", "--k", cap, "--l", cap]):
                    for output in ("structured", "text"):
                        assert main(["solve", path, *route, "--output", output]) == 0
                        assert (fractions, made) == ([0], []), (index, route)
        out = capsys.readouterr().out
        assert out.count("\neq method=") > len(texts)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=6).filter(any),
        st.integers(-(10**9), 10**9),
        st.integers(1, 10**9),
    )
    @example([0, 3, 0], 0, 7)
    @example([5], -6, 3)
    @example([2, 4], 12, 4)
    def test_int_formatter_prints_what_fraction_prints(self, weights, num, den):
        total = sum(weights)
        side = EquilibriumSide(1, tuple(weights), total, (num, den))
        assert _fmt_side(side) == "(" + ",".join(str(Fraction(w, total)) for w in weights) + ")"
        assert _fmt_ratio(num, den) == str(Fraction(num, den))


class TestCycles:
    def test_mp_basis_and_ratio(self, game_file, capsys):
        assert main(["cycles", game_file(MP)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:5] == [
            "k=2 left={1} right={1}",
            "k=2 left={1} right={2}",
            "k=2 left={2} right={1}",
            "k=2 left={2} right={2}",
            "k=4 left={1,2} right={1,2}",
        ]
        assert out[5].startswith("basis=5 three_cycles=4 artificial=0 ")
        assert "ratio=5/9" in out[5]

    def test_one_by_one(self, game_file, capsys):
        assert main(["cycles", game_file("1 1\n7\n7\n")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "k=2 left={1} right={1}"
        assert "basis=1" in out[1] and "ratio=1 (1.000000)" in out[1]

    def test_pd_gd_pre_elimination(self, game_file, capsys):
        assert main(["cycles", game_file(PD), "--method", "gd"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "k=2 left={{2}} right={{2}}"
        assert out[1].startswith("basis=1")
        # G_I at k = l = 1 keeps the dominated row by artificial arcs.
        assert main(["cycles", game_file(PD), "--method", "gi", "--k", "1", "--l", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "k=2 left={1} right={1} artificial"
        assert out[3] == "k=2 left={2} right={2}"
        assert out[5].startswith("basis=5 three_cycles=4 artificial=4 ")

    def test_caps_ignored_on_gr(self, game_file, capsys):
        path = game_file(MP)
        assert main(["cycles", path]) == 0
        plain = capsys.readouterr().out
        assert main(["cycles", path, "--method", "gr", "--k", "9", "--l", "9"]) == 0
        assert capsys.readouterr().out == plain

    def test_bad_caps_exit_2(self, game_file, capsys):
        for method in ("gd", "gi"):
            assert main(["cycles", game_file(MP), "--method", method, "--k", "9"]) == 2
            assert "caps must satisfy" in capsys.readouterr().err

    def test_basis_past_budget_exit_3(self, game_file, capsys, monkeypatch):
        # The G_R basis of this generic 4x4 game has 34 classes.
        monkeypatch.setattr("nashcycles.cli.DEFAULT_BUDGET", 10)
        path = game_file(write_game(generate_random_game(4, 4, 7)))
        assert main(["cycles", path]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: 11 candidates exceed the budget of 10\n"
        assert "basis=" not in captured.out

    def test_dump_graph_format(self, game_file, capsys):
        assert main(["cycles", game_file(MP), "--dump-graph"]) == 0
        out = capsys.readouterr().out.splitlines()
        arc_lines = [l for l in out if "->" in l]
        assert len(arc_lines) == 8
        pattern = re.compile(r"^[12]:\{\d+(,\d+)*\} -> [12]:\{\d+(,\d+)*\}( artificial)?$")
        for line in arc_lines:
            assert pattern.match(line), line


class TestStats:
    def test_small_run_shape(self, capsys):
        assert main(["stats", "--sizes", "2..3", "--trials", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert out[0].startswith("size=2 trials=2 avg_basis=")
        assert out[1].startswith("size=3 trials=2 avg_basis=")

    def test_single_size_one(self, capsys):
        for sizes in ("1..1", "1"):
            assert main(["stats", "--sizes", sizes, "--trials", "1"]) == 0
            out = capsys.readouterr().out.strip()
            assert out.startswith("size=1 trials=1 ")
            assert "avg_basis=1 " in out
            assert "avg_ratio=1.000000" in out

    def test_structured_excludes_time(self, capsys):
        assert main(["stats", "--sizes", "2..2", "--trials", "1", "--output", "structured"]) == 0
        captured = capsys.readouterr()
        assert "avg_seconds" not in captured.out
        assert "avg_seconds" in captured.err

    def test_deterministic(self, capsys):
        argv = ["stats", "--sizes", "2..2", "--trials", "3", "--output", "structured"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_bad_range_exit_2(self, capsys):
        assert main(["stats", "--sizes", "x..y"]) == 2
        assert main(["stats", "--sizes", "3..2"]) == 2
        assert capsys.readouterr().err.endswith("error: invalid size range '3..2'\n")

    def test_non_positive_trials_exit_2(self, capsys):
        for trials in ("0", "-1"):
            assert main(["stats", "--sizes", "2..2", "--trials", trials]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --trials must be at least 1, got {trials}\n"


class TestGen:
    def test_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "g.game")
        assert main(["gen", "-m", "7", "-n", "7", "--seed", "42", "-o", path]) == 0
        game = parse_game(open(path).read())
        assert (game.m, game.n) == (7, 7)

    def test_byte_identical_runs(self, tmp_path):
        p1, p2 = str(tmp_path / "a.game"), str(tmp_path / "b.game")
        main(["gen", "-m", "3", "-n", "4", "--seed", "5", "-o", p1])
        main(["gen", "-m", "3", "-n", "4", "--seed", "5", "-o", p2])
        assert open(p1).read() == open(p2).read()

    def test_stdout_output(self, capsys):
        assert main(["gen", "-m", "1", "-n", "1", "--seed", "0"]) == 0
        game = parse_game(capsys.readouterr().out)
        assert (game.m, game.n) == (1, 1)
        for matrix in (game.a, game.b):
            assert 0 <= matrix[0][0] <= 1

    def test_runs_as_module(self):
        # `python -m nashcycles` with the package on PYTHONPATH, not installed.
        src = str(Path(nashcycles.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        run = subprocess.run(
            [sys.executable, "-m", "nashcycles", "gen", "-m", "2", "-n", "2", "--seed", "1"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath), check=True,
        )
        assert parse_game(run.stdout) == generate_random_game(2, 2, 1)


class TestCheck:
    def test_mp_valid(self, game_file, capsys):
        assert main(["check", game_file(MP), "--p", "1/2,1/2", "--q", "1/2,1/2"]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_pd_invalid(self, game_file, capsys):
        assert main(["check", game_file(PD), "--p", "1,0", "--q", "1,0"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "invalid"
        assert len(out) > 1

    def test_bos_mixed_valid(self, game_file, capsys):
        assert main(["check", game_file(BOS), "--p", "2/3,1/3", "--q", "1/3,2/3"]) == 0

    def test_malformed_vector_exit_2(self, game_file, capsys):
        assert main(["check", game_file(MP), "--p", "1/2,fish", "--q", "1/2,1/2"]) == 2

    def test_wrong_length_exit_2(self, game_file, capsys):
        assert main(["check", game_file(MP), "--p", "1", "--q", "1/2,1/2"]) == 2

    def test_bad_sum_exit_2(self, game_file, capsys):
        assert main(["check", game_file(MP), "--p", "1/2,1/3", "--q", "1/2,1/2"]) == 2


def _parsed(argv):
    """vars() of argparse's namespace for `argv`, or None when it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(_build_parser().parse_args(argv))
    except SystemExit:
        return None


# One well-formed command line per subcommand, every option given.
_WELL_FORMED = (
    ["solve", "g.game", "--method", "gi", "--k", "2", "--l", "3", "--budget", "9", "--output", "structured"],
    ["cycles", "--method", "gd", "g.game", "--k", "2", "--l", "2", "--dump-graph"],
    ["stats", "--sizes", "2..3", "--trials", "2", "--seed", "5", "--output", "text"],
    ["gen", "-m", "3", "-n", "4", "--seed", "7", "-o", "out.game"],
    ["check", "g.game", "--p", "1/2,1/2", "--q", "1,0"],
)


class TestArgvReader:
    """`cli._read_argv` against argparse: on a command line it reads, the
    namespace argparse makes; on any other, None, so argparse reads it."""

    def test_reads_well_formed_lines(self):
        lines = [*_WELL_FORMED, ["solve", "g.game"], ["stats", "--sizes", "1"], ["cycles", ""]]
        # Repeated flags: the last value wins, as in argparse.
        lines.append(["solve", "g.game", "--method", "gr", "--method", "gi", "--k", "1", "--k", "2"])
        lines.append(["gen", "-o", "a", "--output-path", "b", "-m", "1", "-n", "1", "--seed", "0"])
        lines.append(["cycles", "g.game", "--dump-graph", "--dump-graph"])
        for argv in lines:
            expected = _parsed(argv)
            assert expected is not None, argv
            args = _read_argv(argv)
            assert args is not None and vars(args) == expected, argv

    def test_declines_what_it_does_not_take(self):
        declined = [
            [], ["-h"], ["--help"], ["sol", "g.game"], ["bogus"],
            ["solve", "g.game", "-h"], ["check", "--help"],
            # Abbreviated or joined flags, and the end of options.
            ["solve", "g.game", "--meth", "gr"], ["solve", "g.game", "--method=gr"],
            ["gen", "-m3", "-n", "3", "--seed", "1"], ["solve", "--", "g.game"],
            # Values and positionals that start with "-", negative ints among them.
            ["solve", "g.game", "--k", "-1"], ["solve", "g.game", "--budget", "-5"],
            ["stats", "--sizes", "2..2", "--trials", "-1"], ["solve", "-g.game"],
            ["solve", "g.game", "--method"], ["gen", "-m", "3", "-n", "3", "--seed", "1", "-o", "-"],
            # Missing or extra positionals, missing required options.
            ["solve"], ["solve", "a", "b"], ["stats", "x", "--sizes", "2"], ["stats"],
            ["gen", "-m", "3", "-n", "3"], ["check", "g.game", "--p", "1"],
            # Type and choices failures.
            ["solve", "g.game", "--k", "x"], ["solve", "g.game", "--method", "bogus"],
            ["cycles", "g.game", "--method", "supports"], ["gen", "-m", "", "-n", "1", "--seed", "1"],
        ]
        for argv in declined:
            assert _read_argv(argv) is None, argv

    def test_matches_argparse_on_drawn_lines(self):
        # Each drawn line mixes a subcommand's flags, near misses and values;
        # the reader must agree with argparse wherever it reads one.
        pool = ["-h", "--help", "--", "--meth", "--method=gr", "--sizes=2", "-m3", "--output-path"]
        pool += ["g.game", "", "2", "3", "-1", "+4", " 7", "x", "bogus", "gr", "gi", "gd"]
        pool += ["supports", "text", "structured", "2..3", "1/2,1/2", "-"]
        rng = random.Random(38)
        read = 0
        for argv in _WELL_FORMED:
            flags = [token for token in argv if token.startswith("-")]
            for _ in range(600):
                line = [argv[0]] + [
                    rng.choice(flags if rng.random() < 0.4 else pool)
                    for _ in range(rng.randint(0, 9))
                ]
                if rng.random() < 0.5:
                    line += argv[1:]
                args = _read_argv(line)
                assert args is None or vars(args) == _parsed(line), line
                read += args is not None
        assert read > 150, read


class TestDeterminismAcrossProcesses:
    def test_hash_seed_changes_no_output(self, tmp_path):
        # Runs within one process share a hash seed; G_I's fallback pools and
        # the gi candidates are built from sets, so compare two processes.
        game = tmp_path / "g.game"
        game.write_text(write_game(generate_random_game(3, 3, 8)))
        path = str(game)
        solve = ["solve", path, "--output", "structured", "--method"]
        commands = [solve + ["supports"], solve + ["gr"], solve + ["gi"]]
        commands.append(solve + ["gi", "--k", "2", "--l", "2"])
        commands.append(["cycles", path, "--method", "gi", "--k", "2", "--l", "2", "--dump-graph"])
        src = str(Path(nashcycles.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        for argv in commands:
            outputs = []
            for seed in ("1", "2"):
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
                run = subprocess.run(
                    [sys.executable, "-m", "nashcycles.cli", *argv],
                    capture_output=True, text=True, env=env, check=True,
                )
                outputs.append(run.stdout)
            assert outputs[0] == outputs[1], argv
            assert outputs[0]


class TestTracedPackage:
    # bench/tracing.py replaces names in the package's namespaces with
    # wrappers: the generator wrapper of `enumerate_support_trees` among
    # them.  Run in a fresh process, so no wrapper outlives the test.
    SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from nashcycles import cli, domgraph, equilibria, lp
from nashcycles.games import Game, generate_random_game

games = [
    generate_random_game(4, 4, 7),
    Game.from_rows([[2, 1, 1, 2], [0, 0, 2, 0], [2, 1, 2, 0]], [[2, 0, 0, 2], [0, 1, 0, 1], [1, 2, 2, 1]]),
]
routes = {
    "supports": equilibria.enumerate_by_supports,
    "gr": equilibria.enumerate_by_gr,
    "gi": lambda g: equilibria.enumerate_by_gi(g, g.m, g.n),
    "gi(1,1)": lambda g: equilibria.enumerate_by_gi(g, 1, 1),
    "gi(2,2)": lambda g: equilibria.enumerate_by_gi(g, 2, 2),
}

# Spans of each run; none until `install` wraps the package.
tracer = tracing.Tracer()

def solve():
    results, runs = [], []
    for g in games:
        for name, route in routes.items():
            first = len(tracer.spans)
            results.append(route(g))
            spans = tracer.spans[first:]
            trees = [s.info for s in spans if s.name == "cycles.enumerate_support_trees"]
            fp1s = sum(s.name == "lp.fp1_check" for s in spans)
            runs.append([name, results[-1].stats.candidates, trees, fp1s])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["solve", sys.argv[2], "--method", "gi", "--k", "2", "--l", "2", "--output", "structured"])
    return results, runs, code, out.getvalue()

plain, _, plain_code, plain_out = solve()
tracing.install(tracer, {"lp": lp, "domgraph": domgraph, "equilibria": equilibria, "cli": cli})
traced, runs, code, out = solve()
solves = [s.name for s in tracer.spans if s.name.startswith("equilibria.enumerate_by_")]
print(json.dumps([traced == plain, [plain_code, code], out == plain_out, out, runs, solves]))
"""

    def test_traced_solves_match_untraced(self, tmp_path):
        path = tmp_path / "g.game"
        path.write_text(write_game(generate_random_game(4, 4, 7)))
        root = Path(__file__).resolve().parent.parent
        src = str(Path(nashcycles.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        run = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(root / "bench"), str(path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath), check=True,
        )
        same, codes, same_out, out, runs, solves = json.loads(run.stdout)
        assert same and same_out and codes == [0, 0]
        assert "stats method=gi(k=2,l=2) game=df26b250a560c87b candidates=9 pruned=4 feasible=3" in out
        assert solves == ["equilibria.enumerate_by_gi"]
        for name, candidates, trees, fp1s in runs:
            if name.startswith("gi("):
                # One span per capped run, counting every candidate; one
                # fp1_check span per candidate.
                assert trees == [candidates] and fp1s == candidates, name
            else:
                assert trees == [] and fp1s == 0, name
