"""One workload process: build the panel, solve every game once, verify.

``run.py`` starts this script in a fresh single-threaded interpreter with
``src`` on ``PYTHONPATH``, one process per round, so no cache of the
program outlives the round it belongs to.  Modes:

* ``setup``: build the inputs, record when the first game would be
  submitted, and exit;
* ``timed``: time every game with tracing off, sampling the machine's speed
  with :class:`SpeedProbe`;
* ``plain``: the same without the probe (the baseline of a traced run);
* ``traced``: the same games with per-layer spans (see ``tracing.py``).

Each game is timed from the call into the pipeline (or ``cli.main``) to its
return.  Witnesses are checked with ``verify_equilibrium`` after the last
timed game.  The result goes to ``<out>/result.json``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import resource
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import tracing
import workloads


class DeadlineExceeded(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def _import_program(root: Path):
    import nashcycles
    from nashcycles import cli, domgraph, equilibria, lp

    source = Path(nashcycles.__file__).resolve()
    if root / "src" not in source.parents:
        raise SystemExit(f"nashcycles was imported from {source}, not from this checkout")
    return nashcycles, {"lp": lp, "domgraph": domgraph, "equilibria": equilibria, "cli": cli}


def _calibration_unit() -> float:
    """Seconds for one fixed exact-arithmetic elimination, the kind of work
    the simplex does."""
    start = time.perf_counter()
    rng = random.Random(12345)
    rows = [[Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(8)] for _ in range(7)]
    for col in range(7):
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(7):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return time.perf_counter() - start


class SpeedProbe:
    """Samples how fast this machine runs exact arithmetic while games run.

    Every ``SAMPLE_CPU_S`` of process CPU time, SIGVTALRM runs one
    calibration unit.  A game's speed is the mean unit time over the units
    run just before it and during it; the probe's own time is taken out of
    the game's time.
    """

    SAMPLE_CPU_S = 0.1

    def __init__(self):
        self.units: list[float] = []
        signal.signal(signal.SIGVTALRM, self._sample)

    def _sample(self, signum, frame):
        self.units.append(_calibration_unit())

    def start(self) -> int:
        self.units += [_calibration_unit(), _calibration_unit()]
        mark = len(self.units) - 2
        signal.setitimer(signal.ITIMER_VIRTUAL, self.SAMPLE_CPU_S, self.SAMPLE_CPU_S)
        return mark

    def stop(self, mark: int) -> tuple[float, float]:
        """(seconds the probe took inside the game, mean unit seconds)."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        units = self.units[mark:]
        return sum(units[2:]), sum(units) / len(units)


def _parse_vector(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(tok) for tok in text.strip("()").split(","))


def _parse_indices(text: str) -> tuple[int, ...]:
    return tuple(int(tok) - 1 for tok in text.strip("{}").split(","))


def _cli_entries(stdout: str):
    """(rows, cols, p, q) per ``eq`` line of ``solve --output structured``."""
    entries = []
    for line in stdout.splitlines():
        if not line.startswith("eq "):
            continue
        fields = dict(tok.split("=", 1) for tok in line.split()[1:])
        entries.append((
            _parse_indices(fields["rows"]),
            _parse_indices(fields["cols"]),
            _parse_vector(fields["p"]),
            _parse_vector(fields["q"]),
        ))
    return entries


def _check_witnesses(nc, game, entries) -> list[str]:
    problems = []
    for rows, cols, p_probs, q_probs in entries:
        p = nc.MixedStrategy(1, tuple(p_probs))
        q = nc.MixedStrategy(2, tuple(q_probs))
        valid, report = nc.verify_equilibrium(game, p, q)
        if not valid:
            problems.append(f"witness for {rows}/{cols} is no equilibrium: {report[0]}")
        if tuple(p.support) != tuple(rows) or tuple(q.support) != tuple(cols):
            problems.append(f"witness support {p.support}/{q.support} differs from reported {rows}/{cols}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--round", type=int, default=0, help="selects the solve order")
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "plain", "traced"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--deadline", type=float, required=True, help="seconds for all timed games")
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # ---- set-up: everything before the first game is submitted ----------
    nc, modules = _import_program(root)
    specs = workloads.panel(args.workload, args.seconds)
    games = [workloads.build_game(nc, spec) for spec in specs]
    paths = {}
    if args.workload == "corpus":
        for spec, game in zip(specs, games):
            path = out / f"game{spec.index:03d}.game"
            path.write_text(nc.write_game(game), encoding="utf-8")
            paths[spec.index] = str(path)
    order = workloads.solve_order(args.workload, args.seed, args.round, len(specs))
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer, modules)
    ready = time.monotonic()
    # How fast the machine ran just now, to scale the set-up time like the games.
    ready_unit_s = sum(_calibration_unit() for _ in range(3)) / 3
    if args.mode == "setup":
        (out / "result.json").write_text(json.dumps({"ready": ready, "ready_unit_s": ready_unit_s}))
        return 0

    # ---- timed loop ------------------------------------------------------
    cli_main = modules["cli"].main
    records = {i: {"index": i, "route": s.route, "seconds": None, "error": None} for i, s in enumerate(specs)}
    outputs = {}
    probe = SpeedProbe() if args.mode == "timed" else None
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, args.deadline)
    try:
        for index in order:
            spec, game, record = specs[index], games[index], records[index]
            if tracer is not None:
                tracer.game = index
            gc.collect()  # start every game from the same collector state
            mark = probe.start() if probe else 0
            try:
                if args.workload == "corpus":
                    argv = ["solve", paths[index], "--method", spec.route, "--output", "structured"]
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with redirect_stdout(stdout), redirect_stderr(stderr):
                        start = time.perf_counter()
                        if tracer is None:
                            code = cli_main(argv)
                        else:
                            code = tracer.call("cli.main", cli_main, argv)
                        record["seconds"] = time.perf_counter() - start
                    outputs[index] = ("cli", code, stdout.getvalue(), stderr.getvalue())
                else:
                    if spec.route == "gr":
                        name, fn, call_args = "enumerate_by_gr", nc.enumerate_by_gr, (game,)
                    else:
                        name, fn = "enumerate_by_gi", nc.enumerate_by_gi
                        call_args = (game, workloads.GI_CAP, workloads.GI_CAP)
                    start = time.perf_counter()
                    if tracer is None:
                        result = fn(*call_args)
                    else:
                        result = tracer.call(f"equilibria.{name}", fn, *call_args, post=tracing.post_enumerate)
                    record["seconds"] = time.perf_counter() - start
                    outputs[index] = ("api", result)
            except Exception as exc:  # a failing game is counted, not fatal
                record["error"] = f"{type(exc).__name__}: {exc}"
            if probe:
                probe_s, unit_s = probe.stop(mark)
                if record["seconds"] is not None:
                    record["seconds"] -= probe_s
                    record["unit_s"] = unit_s
    except DeadlineExceeded:
        for index, record in records.items():
            if index not in outputs and record["error"] is None:
                record["error"] = f"not finished within the {args.deadline:.0f} s deadline"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # ---- after the timer: extract supports and verify witnesses ----------
    output_bytes = 0
    for index, record in records.items():
        game = games[index]
        record["hash"] = nc.game_hash(game)
        output = outputs.get(index)
        if output is None:
            continue
        if output[0] == "cli":
            _, code, stdout, stderr = output
            output_bytes += len(stdout.encode())
            if code != 0:
                record["error"] = f"cli exited {code}: {stderr.strip()[-200:]}"
                continue
        try:
            if output[0] == "cli":
                entries = _cli_entries(output[2])
            else:
                entries = [
                    (e.support.rows, e.support.cols, e.p.probs, e.q.probs) for e in output[1].entries
                ]
            record["pairs"] = [[list(rows), list(cols)] for rows, cols, _, _ in entries]
            record["witness_problems"] = _check_witnesses(nc, game, entries)
        except (KeyError, TypeError, ValueError) as exc:
            record["error"] = f"unreadable result: {type(exc).__name__}: {exc}"

    result = {
        "ready": ready,
        "ready_unit_s": ready_unit_s,
        "peak_rss_kb": peak_rss_kb,
        "conditions": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "gmpy2": "gmpy2" in sys.modules,
        },
        "games": list(records.values()),
    }
    if tracer is not None:
        result["layers"] = tracing.summarize(tracer.spans, output_bytes)
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
