"""One benchmark round in a fresh process.

Set-up (imports, generating the workload's inputs, loading the config)
runs first; then the timed stages translate -> inject -> evaluate through
``svaport.cli.main`` with ``--jobs 1``.  The round's figures go to
``<dir>/result.json``:

* ``setup_s``: from the parent's launch of this process (``--launched``, a
  ``time.monotonic`` reading) to the start of translate;
* ``wall_s`` and per-stage seconds;
* ``peak_rss_mb``: this process's peak resident memory;
* ``layers`` (``--trace 1`` only): the per-layer metrics of ``tracer``.

With ``--setup-only`` the process stops before translate.

    python3 perfbench/child.py --workload port --seed 1 --dir DIR \\
        --launched T [--trace 0|1] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("translate", "inject", "evaluate")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from svaport import cli
    from svaport.config import ProjectConfig

    from perfbench import workloads
    from perfbench.tracer import Tracer

    config = workloads.WRITERS[args.workload](args.dir / "inputs", args.seed)
    ProjectConfig.load(config)
    ready = time.monotonic()
    result: dict = {"setup_s": ready - args.launched, "config": str(config),
                    "out": str(args.dir / "out")}
    if args.setup_only:
        (args.dir / "result.json").write_text(json.dumps(result))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    stages: dict[str, float] = {}
    for stage in STAGES:
        argv = [stage, "--config", str(config), "--out", result["out"],
                "--jobs", "1"]
        start = time.perf_counter()
        if tracer is not None:
            with tracer.span(f"cli.{stage}"):
                rc = cli.main(argv)
        else:
            rc = cli.main(argv)
        stages[stage] = time.perf_counter() - start
        if rc != 0:
            print(f"{stage} exited with {rc}", file=sys.stderr)
            return 1
    result["wall_s"] = sum(stages.values())
    result["stages"] = stages
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
