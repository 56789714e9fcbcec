"""nashcycles benchmark: one workload per invocation, oracle-checked.

    python3 bench/run.py --workload generic --seed 3 --seconds 20 --trace 0

Workloads: ``corpus``, ``generic``, ``degenerate`` and, by hand only,
``gi_capped`` (``workloads.py`` builds the panels; ``predictions.json`` says
why each exists and which end-to-end metric each per-layer metric should
move).

With ``--trace 0`` the run starts the workload process a few times for
set-up only, then once per round to solve the whole panel with tracing off
(each game once per process, so no cache of the program outlives its
round), and prints the end-to-end metrics over all solves.  Times are
reported at a reference machine speed: each game's time, and each set-up
time, is scaled by ``REFERENCE_UNIT_S`` over the mean time of a fixed
calibration unit run around it, because the sandbox this was written on
switches between two speeds 1.6 to 1.9 times apart; the unscaled figures are
printed above the result.  With ``--trace 1`` it solves the panel once
untraced and once traced, each in a fresh process, and prints the per-layer
metrics (unscaled) and the tracing overhead.  Every reported support pair
is checked against the exhaustive oracle's set and every witness with
``verify_equilibrium``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the run conditions, the failures and the percentile that
``game_s.tail`` stands for.

The program is imported from ``src/`` of the checkout this script sits in;
without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 7  # set-up times per untraced run, the timed launches included
RUN_LIMIT_S = 170.0  # every process of one invocation ends within this
#: Game times are reported at this calibration-unit time: each game's time is
#: scaled by REFERENCE_UNIT_S over the mean time of the calibration units run
#: just before and during it (see ``worker.SpeedProbe``).  2.0 ms is the
#: unit's usual time on the 2-CPU sandbox the benchmark was written on.
REFERENCE_UNIT_S = 0.002


class BenchError(RuntimeError):
    """The run cannot produce a result (the program does not start)."""


def launch(args, mode: str, round_: int, scratch: Path, deadline: float) -> dict:
    """Run the workload process once; returns its result plus ``launched``."""
    out = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=scratch))
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--round", str(round_), "--mode", mode, "--out", str(out), "--deadline", f"{deadline:.1f}",
    ]
    launched = time.monotonic()
    proc = _run(cmd, deadline + 10, f"{mode} process")
    result_path = out / "result.json"
    if not result_path.is_file():
        raise BenchError(f"{mode} process wrote no result: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    result["launched"] = launched
    return result


def _run(cmd, timeout: float, what: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not end within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def reference(args, specs, scratch: Path, timeout: float) -> tuple[int, dict[str, list]]:
    """(stored panel games, oracle pairs by game hash): the store, plus
    a separate oracle process for games past the stored panel."""
    stored_games, pairs = oracle.load_store(args.workload)
    if len(specs) <= stored_games:
        return stored_games, pairs
    out = scratch / "oracle.json"
    cmd = [
        sys.executable, str(BENCH / "oracle.py"), "--workload", args.workload,
        "--seconds", str(args.seconds), "--first", str(stored_games), "--out", str(out),
    ]
    _run(cmd, timeout, "oracle process")
    return stored_games, {**pairs, **json.loads(out.read_text())}


def judge(specs, result, stored_games, ref_pairs) -> tuple[dict[int, str], int, int]:
    """({game index: first failure}, oracle pairs found, oracle pairs expected)."""
    failures = {}
    found_total = expected_total = 0
    for record in result["games"]:
        spec = specs[record["index"]]
        problems = []
        pairs = ref_pairs.get(record["hash"])
        if pairs is None:
            drift = " (generator or writer drift)" if spec.index < stored_games else ""
            failures[spec.index] = f"game hash {record['hash']} is not in the reference{drift}"
            continue
        expected = sorted((tuple(rows), tuple(cols)) for rows, cols in pairs)
        expected_total += len(expected)
        if record["error"]:
            failures[spec.index] = record["error"]
            continue
        found = sorted((tuple(rows), tuple(cols)) for rows, cols in record["pairs"])
        found_total += len(set(found) & set(expected))
        stray = sorted(set(found) - set(expected))
        if stray:
            problems.append(f"pairs outside the oracle set: {stray}")
        elif spec.exact and found != expected:
            problems.append(f"{len(found)} pairs reported, the oracle has {len(expected)}")
        problems += record["witness_problems"]
        if problems:
            failures[spec.index] = problems[0]
    return failures, found_total, expected_total


def tail(times: list[float]) -> tuple[str, float]:
    """(label, value): the highest whole percentile with at least ten solves
    beyond it, by nearest rank; the maximum when there are ten or fewer."""
    ordered = sorted(times)
    count = len(ordered)
    if count <= 10:
        return "max", ordered[-1]
    pct = math.floor(100 * (count - 10) / count)
    return f"p{pct}", ordered[math.ceil(pct * count / 100) - 1]


def setup_time(result: dict) -> float:
    """Launch to first game, scaled like the game times by the calibration
    units the process ran right after its set-up."""
    return (result["ready"] - result["launched"]) * REFERENCE_UNIT_S / result["ready_unit_s"]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "nashcycles" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'nashcycles'}", file=sys.stderr)
        return 2

    began = time.monotonic()
    specs = workloads.panel(args.workload, args.seconds)
    modes = ["plain", "traced"] if args.trace else ["timed"] * workloads.ROUNDS[args.workload]
    probes = 0 if args.trace else max(0, SETUP_SAMPLES - len(modes))
    scratch_root = BENCH / "_runs"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        setups = []
        for _ in range(probes):
            setups.append(setup_time(launch(args, "setup", 0, scratch, 30)))
        rounds = []
        for round_, mode in enumerate(modes):
            left = RUN_LIMIT_S - (time.monotonic() - began)
            deadline = max(5.0, (left - 20) / (len(modes) - round_))
            rounds.append(launch(args, mode, round_, scratch, deadline))
            setups.append(setup_time(rounds[-1]))
        left = RUN_LIMIT_S - (time.monotonic() - began)
        stored_games, ref_pairs = reference(args, specs, scratch, max(5.0, left))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    failures: dict[int, str] = {}
    recall_found = recall_expected = 0
    for result in rounds:
        round_failures, found, expected = judge(specs, result, stored_games, ref_pairs)
        for index, msg in round_failures.items():
            failures.setdefault(index, msg)
        recall_found += found
        recall_expected += expected

    conditions = rounds[0]["conditions"]
    print(
        f"workload={args.workload} seed={args.seed} games={len(specs)} rounds={len(rounds)} "
        f"trace={args.trace} nproc={conditions['nproc']} cpus_usable={conditions['cpus_usable']} "
        f"python={conditions['python']} gmpy2={'yes' if conditions['gmpy2'] else 'no'}"
    )
    for index, msg in sorted(failures.items()):
        spec = specs[index]
        print(f"FAIL game {index} ({spec.m}x{spec.n} {spec.family} {spec.variant} seed {spec.seed}, {spec.route}): {msg}")

    if args.trace:
        plain_s = sum(g["seconds"] or 0.0 for g in rounds[0]["games"])
        traced_s = sum(g["seconds"] or 0.0 for g in rounds[1]["games"])
        layers = dict(rounds[1]["layers"])
        layers["trace.overhead_s"] = traced_s - plain_s
        layers["trace.overhead_frac"] = (traced_s - plain_s) / plain_s if plain_s else 0.0
        metrics = {name: metric(layers[name], unit) for name, unit in _per_layer_units()}
    else:
        solved = [
            g for r in rounds for g in r["games"]
            if g["index"] not in failures and g["seconds"] is not None
        ]
        raw = [g["seconds"] for g in solved]
        times = [g["seconds"] * REFERENCE_UNIT_S / g["unit_s"] for g in solved]
        label, tail_s = tail(times) if times else ("none", 0.0)
        print(
            f"game_s over {len(times)} solves ({len(specs)} games x {len(rounds)} rounds); "
            f"game_s.tail is the {label}; calibration unit mean "
            f"{1000 * statistics.mean(g['unit_s'] for g in solved):.3f} ms "
            f"(reference {1000 * REFERENCE_UNIT_S:.1f} ms); unscaled: "
            f"games_per_s={len(raw) / sum(raw):.4f} game_s.p50={statistics.median(raw):.5f} "
            f"game_s.tail={tail(raw)[1]:.5f}"
        )
        metrics = {
            "games_per_s": metric(len(times) / sum(times) if times else 0.0, "1/s"),
            "game_s.p50": metric(statistics.median(times) if times else 0.0, "s"),
            "game_s.tail": metric(tail_s, "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_kb"] for r in rounds) / 1024, "MB"),
            "recall": metric(recall_found / recall_expected if recall_expected else 1.0, "ratio"),
        }
    print(json.dumps({
        "correct": not failures,
        "attempted": len(specs),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def _per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


if __name__ == "__main__":
    sys.exit(main())
