#!/usr/bin/env python3
"""Sweep trigger width and watch activation probability fall off.

For each k in the requested range, forges one k-bit-trigger trojan against
a corpus module (porting the module's assertion set first, since payloads
target the assertions' cones) and measures the trigger probability three
ways: closed form, exhaustive enumeration of the trigger cone, and Monte
Carlo sampling.  The power index column is -log10 of the closed form.
"""

import argparse

from svaport import corpus
from svaport.metrics import measure_trigger
from svaport.rtl_parser import parse_design
from svaport.sva import parse_assertions
from svaport.translate import (SignalMap, TranslationConfig, assertion_key,
                               translate)
from svaport.trojan import ForgeParams, forge


def ported_assertions(module: str):
    """Parse a corpus module and port its assertion set onto it."""
    design = parse_design(corpus.design_path(module).read_text())
    smap = SignalMap.load(corpus.signal_map_path(module), netlist=design)
    ported = []
    for idx, a in enumerate(parse_assertions(
            corpus.assertions_path(module).read_text())):
        outcome = translate(a, design, smap,
                            TranslationConfig(key=assertion_key(a, idx),
                                              generate_testcase=False))
        if outcome.translatable:
            ported.append(outcome.verdict.assertion)
    return design, ported


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--module", default="pmp_unit",
                        choices=corpus.MODULES)
    parser.add_argument("--k-min", type=int, default=2)
    parser.add_argument("--k-max", type=int, default=8)
    parser.add_argument("--samples", type=int, default=20000,
                        help="Monte Carlo sample count (0 disables)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    design, assertions = ported_assertions(args.module)
    print(f"{'k':>2}  {'target':<22} {'analytic P':>11} {'exact P':>11} "
          f"{'sampled P':>11} {'95% interval':>22} {'TPI':>6}")
    for k in range(args.k_min, args.k_max + 1):
        spec = forge(design, assertions,
                     ForgeParams(count=1, k_values=(k,),
                                 seed=args.seed + k))[0][0]
        probe = measure_trigger(design, spec, samples=args.samples,
                                seed=args.seed)
        exact = ("-" if probe.brute_force is None
                 else f"{float(probe.brute_force):.3e}")
        if probe.monte_carlo is None:
            sampled, interval = "-", "-"
        else:
            mc = probe.monte_carlo
            sampled = f"{mc.estimate:.3e}"
            interval = f"[{mc.low:.3e}, {mc.high:.3e}]"
        target = spec.meta["target_assertion"]
        print(f"{k:>2}  {target:<22} {float(probe.analytic):>11.3e} "
              f"{exact:>11} {sampled:>11} {interval:>22} "
              f"{probe.power_index:>6.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
