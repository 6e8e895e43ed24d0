#!/usr/bin/env python3
"""Run a full porting-and-injection campaign from one command.

Chains the translate, inject, and evaluate stages over a campaign config
(the bundled five-module campaign by default) and leaves all artifacts --
ported assertions, trojan specs and stimuli, metrics.json, and the final
report -- under the output directory.
"""

import argparse

from svaport import corpus
from svaport.cli import main as run_stage
from svaport.config import REPORT_FORMATS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(corpus.campaign_path()),
                        help="campaign config (default: bundled corpus)")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--format", choices=REPORT_FORMATS,
                        help="report format override")
    parser.add_argument("--jobs", type=int, help="worker process count")
    args = parser.parse_args(argv)

    common = ["--config", args.config]
    for flag in ("out", "seed", "format", "jobs"):
        value = getattr(args, flag)
        if value is not None:
            common += [f"--{flag}", str(value)]

    worst = 0
    for stage in ("translate", "inject", "evaluate"):
        rc = run_stage([stage, *common])
        if rc > worst:
            worst = rc
        if rc == 1:  # hard error; partial translations (rc 2) still proceed
            return rc
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
