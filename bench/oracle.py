"""Correctness reference: oracle support-pair sets of the panel games.

``reference.json`` stores, per workload, the support pairs that the
exhaustive oracle (``enumerate_by_supports``) returns for every game of the
panel at ``--seconds 60``, keyed by ``game_hash``.  A game whose hash is
missing from a stored panel means the generator or the game writer drifted,
and the game fails.  Games past the stored panel (a larger ``--seconds``)
are solved by the oracle in a separate process, never in the timed one.

Rebuild the store after changing a panel::

    PYTHONPATH=src python3 bench/oracle.py --rebuild --seconds 60

Compute the oracle for part of one panel (what ``run.py`` does)::

    PYTHONPATH=src python3 bench/oracle.py --workload generic --seconds 90 \\
        --first 60 --out oracle.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads

STORE = Path(__file__).resolve().parent / "reference.json"


def load_store(workload: str) -> tuple[int, dict[str, list]]:
    """(panel games stored, {game hash: [[rows, cols], ...]})."""
    data = json.loads(STORE.read_text())
    entry = data["workloads"][workload]
    return entry["games"], entry["pairs"]


def compute(workload: str, seconds: int, first: int) -> dict[str, list]:
    import nashcycles as nc

    pairs = {}
    for spec in workloads.panel(workload, seconds)[first:]:
        game = workloads.build_game(nc, spec)
        result = nc.enumerate_by_supports(game)
        pairs[nc.game_hash(game)] = [[list(sp.rows), list(sp.cols)] for sp in result.support_pairs()]
    return pairs


def main() -> int:
    parser = argparse.ArgumentParser(description="Exhaustive oracle for the benchmark panels.")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--rebuild", action="store_true", help=f"rewrite {STORE.name} for every workload")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--first", type=int, default=0, help="skip this many games of the panel")
    parser.add_argument("--out", help="where to write {hash: pairs} for --workload")
    args = parser.parse_args()
    if args.rebuild:
        data = {"seconds": args.seconds, "workloads": {}}
        for workload in workloads.WORKLOADS:
            pairs = compute(workload, args.seconds, 0)
            data["workloads"][workload] = {"games": len(workloads.panel(workload, args.seconds)), "pairs": pairs}
            print(f"{workload}: {len(pairs)} games", file=sys.stderr)
        STORE.write_text(json.dumps(data, sort_keys=True) + "\n")
        return 0
    if not (args.workload and args.out):
        parser.error("--workload and --out are required without --rebuild")
    Path(args.out).write_text(json.dumps(compute(args.workload, args.seconds, args.first)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
