#!/usr/bin/env python3
"""Record the benchmark of the committed tree against a base revision.

    python3 scripts/bench_record.py --base REV

Run it from a checkout whose tree is clean: uncommitted changes, staged or
not, and untracked files that are not ignored are refused, so the record
describes a commit.  Both sides run from checkouts made with ``git
worktree`` in one temporary directory, removed afterwards: the base
revision in ``<tmp>/base`` and the committed tree in ``<tmp>/head``.
The two paths have the same length, since the checkout's path alone
moves ``peak_rss_mb`` by more than a change may.

For each workload of ``BENCHMARK.json`` the recorder runs its command
(``perfbench/run.py --seed 1 --seconds <run_seconds> --trace 0``) in
ten pairs, one run on each side, the side that runs first alternating
from pair to pair.  Then one traced run (``--trace 1``) on each side
gives the work counters.  Every run must be correct, and every run of
one side must leave the same seed-1 digest.

It writes ``BENCH_<short sha>.json`` at the root of the checkout: both
revisions, the machine, and per workload each side's digest, counters
and the operations its runs attempted and failed, summed over the runs,
and, for each end-to-end metric, each side's values, median and quartiles,
the pairs the revision won and whether the gap between the medians is
wider than the base's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def _run(checkout: Path, command: list[str], workload: str, seconds: float,
         trace: int) -> dict:
    """One benchmark run in *checkout*: its metrics and digests."""
    argv = command + ["--workload", workload, "--seed", str(SEED),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, text=True, capture_output=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"error: {' '.join(argv)} in {checkout} failed:\n"
                         + proc.stderr[-2000:])
    result["digests"] = {line.split()[-1] for line in lines
                         if line.startswith(f"digest {workload} ")}
    return result


def summary(values: list[float]) -> dict:
    """The values with their median and quartiles (inclusive method)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(metric: dict, base: list[float], revision: list[float]) -> dict:
    """Both sides of one end-to-end metric of ``BENCHMARK.json``, taken in
    pairs: the pairs the revision won, and whether its median is better
    than the base's by more than the base's interquartile range."""
    sign = 1 if metric["better"] == "lower" else -1
    old, new = summary(base), summary(revision)
    return {
        "unit": metric["unit"], "better": metric["better"],
        "bound": metric["bound"], "base": old, "revision": new,
        "won": sum(sign * (b - r) > 0 for b, r in zip(base, revision)),
        "gap_exceeds_base_iqr":
            sign * (old["median"] - new["median"]) > old["q3"] - old["q1"],
    }


def _workload(sides: dict[str, Path], bench: dict, name: str) -> dict:
    metrics = bench["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    digests: dict[str, set[str]] = {side: set() for side in sides}
    operations = {side: {"attempted": 0, "failed": 0} for side in sides}

    def tally(side: str, result: dict) -> None:
        digests[side] |= result["digests"]
        for key, count in operations[side].items():
            operations[side][key] = count + result[key]

    order = list(sides)
    for i in range(PAIRS):
        for side in order if i % 2 == 0 else order[::-1]:
            print(f"{name} pair {i + 1}/{PAIRS}: {side}", file=sys.stderr)
            result = _run(sides[side], bench["command"], name,
                          bench["run_seconds"], 0)
            tally(side, result)
            for m in metrics:
                values[side][m["name"]].append(
                    result["metrics"][m["name"]]["value"])
    counters = {}
    for side, checkout in sides.items():
        result = _run(checkout, bench["command"], name, 1, 1)
        tally(side, result)
        counters[side] = {key: m["value"] for key, m
                          in sorted(result["metrics"].items())
                          if m["unit"] == "count"}
    for side, seen in digests.items():
        if len(seen) != 1:
            raise SystemExit(f"error: {name} left {len(seen)} seed-{SEED} "
                             f"digests on {side}")
    return {
        "digest": {side: seen.pop() for side, seen in digests.items()},
        "counters": counters,
        "operations": operations,
        "metrics": {m["name"]: compare(m, values["base"][m["name"]],
                                       values["revision"][m["name"]])
                    for m in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="the revision to compare against")
    args = parser.parse_args(argv)
    if _git("status", "--porcelain"):
        print("error: the tree has uncommitted changes; commit them first",
              file=sys.stderr)
        return 2
    revision = _git("rev-parse", "HEAD")
    base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "revision": revision,
        "base": base,
        "machine": {"system": platform.system(),
                    "machine": platform.machine(), "cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "seed": SEED,
        "run_seconds": bench["run_seconds"],
        "pairs": PAIRS,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": Path(tmp) / "base", "revision": Path(tmp) / "head"}
        try:
            for side, rev in zip(sides.values(), (base, revision)):
                _git("worktree", "add", "--detach", str(side), rev)
            for w in bench["workloads"]:
                record["workloads"][w["name"]] = _workload(
                    sides, bench, w["name"])
        finally:
            for checkout in sides.values():
                if checkout.exists():
                    _git("worktree", "remove", "--force", str(checkout))
    path = ROOT / f"BENCH_{_git('rev-parse', '--short', 'HEAD')}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
