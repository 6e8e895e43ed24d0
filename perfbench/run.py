"""svaport benchmark: one workload through translate -> inject -> evaluate.

    python3 perfbench/run.py --workload campaign|port|replay --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Every round is a fresh process
(``child.py``) that generates the workload's inputs from the seed, loads
the config, and runs the three CLI stages with ``--jobs 1``.  Rounds repeat
until their timed stages add up to ``--seconds`` (at least one round).

* ``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median round),
  ``peak_rss_mb`` (median round) and ``setup_s`` (median of at least
  ``SETUPS`` set-ups, topped up with set-up-only processes).
* ``--trace 1`` runs one traced round and reports the per-layer metrics.

Every round's outputs are checked against the reference implementations
(``checks.py``); a round whose output tree is byte-identical to a checked
one needs no second look.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("campaign", "port", "replay")
SETUPS = 5          # set-ups per run that setup_s is the median of
TIME_LIMIT = 170    # seconds a whole run may take


class RoundFailed(Exception):
    pass


def _run_child(workload: str, seed: int, directory: Path, deadline: float,
               *, trace: int = 0, setup_only: bool = False) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"),
            "--workload", workload, "--seed", str(seed),
            "--dir", str(directory), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    launched = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--launched", repr(launched)],
                              stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round in {directory} ran past the time limit")
    if proc.returncode != 0:
        raise RoundFailed(f"round in {directory} exited with "
                          f"{proc.returncode}")
    return json.loads((directory / "result.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT

    for needed in (ROOT / "src" / "svaport" / "cli.py",
                   ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from "
                  "a checkout of the repository", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks, tracer

    work = ROOT / "perfbench" / "out" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    rounds: list[dict] = []
    try:
        if args.trace:
            rounds.append(_run_child(args.workload, args.seed, work / "r0",
                                     deadline, trace=1))
        else:
            while not rounds or \
                    sum(r["wall_s"] for r in rounds) < args.seconds:
                rounds.append(_run_child(args.workload, args.seed,
                                         work / f"r{len(rounds)}", deadline))
            setups = [r["setup_s"] for r in rounds]
            while len(setups) < SETUPS:
                setups.append(_run_child(
                    args.workload, args.seed, work / f"s{len(setups)}",
                    deadline, setup_only=True)["setup_s"])
    except RoundFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    problems: list[str] = []
    attempted = failed = 0
    verdicts: dict[str, tuple] = {}
    for i, r in enumerate(rounds):
        sha = checks.digest(Path(r["out"]))
        print(f"digest {args.workload} seed={args.seed} round={i} {sha}")
        if sha not in verdicts:
            verdicts[sha] = checks.check(args.workload, args.seed,
                                         Path(r["config"]), Path(r["out"]))
            problems += verdicts[sha][0]
        attempted += verdicts[sha][1].attempted
        failed += verdicts[sha][1].failed
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        layers = dict(rounds[0]["layers"], **{"trace.wall_s":
                                              rounds[0]["wall_s"]})
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracer.metric_units().items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"]
                                                  for r in rounds),
                       "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"]
                                                       for r in rounds),
                            "unit": "MB"},
        }
    if problems:
        print(f"outputs kept in {work}", file=sys.stderr)
    else:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
