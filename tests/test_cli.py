"""Command-line interface: formats, determinism, exit codes."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nashcycles
from nashcycles.cli import main
from nashcycles.games import generate_random_game, parse_game, write_game

PD = "2 2\n3 0\n5 1\n3 5\n0 1\n"
MP = "2 2\n1 -1\n-1 1\n-1 1\n1 -1\n"
BOS = "2 2\n2 0\n0 1\n1 0\n0 2\n"


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

    def test_structured_mode_byte_identical(self, game_file, capsys):
        path = game_file(BOS)
        argv = ["solve", path, "--method", "supports", "--output", "structured"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "stats method=supports" in first
        assert "candidates=9 pruned=6 feasible=3" in first

    def test_wall_time_on_stderr_only(self, game_file, capsys):
        assert main(["solve", game_file(PD)]) == 0
        captured = capsys.readouterr()
        assert "wall_seconds" not in captured.out
        assert "wall_seconds=" in captured.err

    def test_missing_file_exit_2(self, capsys):
        assert main(["solve", "/nonexistent.game"]) == 2

    def test_parse_error_exit_2(self, game_file, capsys):
        assert main(["solve", game_file("junk\n")]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_budget_exit_3(self, game_file, capsys):
        assert main(["solve", game_file(MP), "--method", "supports", "--budget", "2"]) == 3

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
        assert main(["solve"]) == 2


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
        assert captured.err == "error: cycle basis exceeded 10 classes\n"
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
        assert main(["stats", "--sizes", "1..1", "--trials", "1"]) == 0
        out = capsys.readouterr().out.strip()
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
