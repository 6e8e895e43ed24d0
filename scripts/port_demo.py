#!/usr/bin/env python3
"""Walk a single assertion through the porting pipeline, step by step.

By default this ports the bundled reference assertion onto the CSR-style
corpus module using the documented signal map, printing what happened to
every signal along the way and replaying the generated test case.  Point
the flags at your own files to port something else.
"""

import argparse
import textwrap
from pathlib import Path

from svaport import corpus
from svaport.monitor import Checker, check_assertion
from svaport.rtl_parser import parse_design
from svaport.sim import SimKernel
from svaport.sva import parse_assertion, render_assertion
from svaport.translate import (SignalMap, TranslationConfig, assertion_key,
                               translate)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--assertion", metavar="SVA",
                        default=str(corpus.golden_path("source_assertion.sva")),
                        help="file holding exactly one source assertion")
    parser.add_argument("--design", metavar="SV",
                        default=str(corpus.design_path("csr_unit")),
                        help="target design to port onto")
    parser.add_argument("--map", dest="signal_map", metavar="JSON",
                        default=str(corpus.golden_path("csr_map.json")),
                        help="signal map guiding the translation")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for test-case search")
    args = parser.parse_args(argv)

    target = parse_design(Path(args.design).read_text())
    source = parse_assertion(Path(args.assertion).read_text())
    smap = SignalMap.load(args.signal_map, netlist=target)
    outcome = translate(
        source, target, smap,
        TranslationConfig(key=assertion_key(source, 0), seed=args.seed))
    report = outcome.link_report.to_dict()

    print("source assertion:")
    print(textwrap.indent(render_assertion(source), "  "))
    print(f"\nlinking against module {target.name}:")
    for entry in report["signals"]:
        where = entry["target"] or "-"
        print(f"  {entry['source']:<18} -> {where:<18} "
              f"[{entry['status']}: {entry['method']}]")
    clock = report["clock"]
    print(f"  {clock['source'] or '(none)':<18} -> "
          f"{clock['target'] or '-':<18} [clock: {clock['method']}]")
    if report["disable"]["present"] and report["disable"]["dropped"]:
        print(f"  disable clause dropped: {report['disable']['reason']}")

    if not outcome.translatable:
        print("\nuntranslatable:")
        for reason in outcome.verdict.reasons:
            print(f"  - {reason}")
        return 2

    print("\ntranslated assertion:")
    print(textwrap.indent(render_assertion(outcome.verdict.assertion), "  "))

    testcase = outcome.verdict.testcase
    if testcase is None:
        print("\nno passing test case found within the search budget")
        return 0
    verdict = check_assertion(SimKernel(target).run(testcase),
                              Checker(outcome.verdict.assertion, target))
    print(f"\ntest case: {testcase.cycles} cycles, "
          f"{verdict.non_vacuous_passes} real pass(es), "
          f"{verdict.failure_count} failure(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
