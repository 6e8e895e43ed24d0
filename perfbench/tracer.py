"""Per-layer tracing, installed from outside the program.

``Tracer.install`` replaces the layers' public functions with wrappers at
every place the pipeline looks them up (modules import them by value, so
``trojan.search_stimulus`` and ``translate.search_stimulus`` are wrapped
separately).  Each call records a span (name, start, end, parent) kept in
memory until the run ends, and bumps the layer's counters at the same
boundary.  ``metrics`` turns spans and counters into the per-layer metrics:
inclusive and self time per layer, work counts and their ratios.  The
wrappers stay for the life of the process, which runs one traced round.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager

# span names; each yields <name>_s (inclusive) and <name>.self_s
SPANS = (
    "cli.translate", "cli.inject", "cli.evaluate",
    "translate.translate", "translate.generate_testcase",
    "trojan.forge", "trojan.inject",
    "search.search_stimulus",
    "sim.kernel_compile", "sim.run_batch", "sim.run",
    "monitor.check_assertion",
    "rtl_parser.parse_design", "graph.build_graph", "sva.parse_assertions",
)

COUNTS = (
    "sim.kernel_compiles", "sim.distinct_netlists",
    "sim.run_batch.row_cycles", "sim.run.cycles",
    "monitor.check_assertion.calls", "monitor.attempts",
    "search.search_stimulus.calls", "search.candidates",
    "search.exact_checks", "search.accepted",
    "trojan.forge_attempts", "trojan.forged", "trojan.inject.calls",
    "translate.assertions", "translate.translatable", "translate.testcases",
    "rtl_parser.parse_design.calls", "rtl_parser.bytes",
    "graph.build_graph.calls", "sva.parse_assertions.calls",
)

# ratio name -> (numerator, denominator, unit)
RATIOS = {
    "sim.run_batch.row_cycles_per_s":
        ("sim.run_batch.row_cycles", "sim.run_batch_s", "1/s"),
    "sim.run.cycles_per_s": ("sim.run.cycles", "sim.run_s", "1/s"),
    "monitor.attempts_per_s":
        ("monitor.attempts", "monitor.check_assertion_s", "1/s"),
    "search.accept_ratio": ("search.accepted", "search.exact_checks", "ratio"),
    "trojan.forge_yield": ("trojan.forged", "trojan.forge_attempts", "ratio"),
    "rtl_parser.bytes_per_s":
        ("rtl_parser.bytes", "rtl_parser.parse_design_s", "B/s"),
}

# modules whose forge time is reported on its own
FORGE_MODULES = ("pmp_unit", "csr_unit", "debug_unit", "irq_unit", "cf_unit")

# wall_s of the traced round; the tracing overhead is this minus the
# untraced wall_s of the same workload
TRACE_METRICS = {"trace.spans": "count", "trace.wall_s": "s"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in SPANS:
        units[f"{name}_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({f"trojan.forge_s.{m}": "s" for m in FORGE_MODULES})
    units.update({name: "count" for name in COUNTS})
    units.update({name: unit for name, (_, _, unit) in RATIOS.items()})
    units.update(TRACE_METRICS)
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.forge_s: Counter = Counter()
        self._netlists: set[tuple[str, str]] = set()

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None, before=None):
        """Replace ``owner.attr`` by a traced wrapper.  *before* may
        rewrite the bound arguments; *after(args, result, span)* counts."""
        original = getattr(owner, attr)
        signature = inspect.signature(original) if before else None
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                bound = signature.bind(*args, **kwargs)
                before(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result, record)
            return result

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        mod = importlib.import_module
        cli, translate = mod("svaport.cli"), mod("svaport.translate")
        trojan, monitor = mod("svaport.trojan"), mod("svaport.monitor")
        sim = mod("svaport.sim")
        c = self.counts

        def compiled(args, result, record):
            kernel = args[0]
            c["sim.kernel_compiles"] += 1
            self._netlists.add((kernel.netlist.name, kernel.source))

        def batch(args, result, record):
            rows, cycles = next(iter(result.values())).shape \
                if result else (0, 0)
            c["sim.run_batch.row_cycles"] += rows * cycles

        def ran(args, result, record):
            c["sim.run.cycles"] += result.cycles

        def checked(args, result, record):
            c["monitor.check_assertion.calls"] += 1
            c["monitor.attempts"] += result.attempts

        def count_accept(arguments):
            accept = arguments["accept"]

            def counted(stim):
                c["search.exact_checks"] += 1
                return accept(stim)
            arguments["accept"] = counted

        def searched(args, result, record):
            stim, stats = result
            c["search.search_stimulus.calls"] += 1
            c["search.candidates"] += stats.candidates
            c["search.accepted"] += stim is not None

        def forged(args, result, record):
            c["trojan.forged"] += len(result)
            self.forge_s[args[0].name] += record[2] - record[1]

        def injected(args, result, record):
            c["trojan.inject.calls"] += 1
            c["trojan.forge_attempts"] += self._inside("trojan.forge")

        def translated(args, result, record):
            c["translate.assertions"] += 1
            c["translate.translatable"] += result.translatable
            c["translate.testcases"] += (result.translatable and
                                         result.verdict.testcase is not None)

        def parsed(args, result, record):
            c["rtl_parser.parse_design.calls"] += 1
            c["rtl_parser.bytes"] += len(args[0].encode())

        def counter(key):
            def bump(args, result, record):
                c[key] += 1
            return bump

        self.wrap(sim.SimKernel, "__init__", "sim.kernel_compile", compiled)
        self.wrap(sim.SimKernel, "run_batch", "sim.run_batch", batch)
        self.wrap(sim.SimKernel, "run", "sim.run", ran)
        self.wrap(monitor, "check_assertion", "monitor.check_assertion",
                  checked)
        self.wrap(translate, "check_assertion", "monitor.check_assertion",
                  checked)
        for owner in (translate, trojan):
            self.wrap(owner, "search_stimulus", "search.search_stimulus",
                      searched, before=count_accept)
        self.wrap(cli, "forge", "trojan.forge", forged)
        for owner in (cli, trojan):
            self.wrap(owner, "inject", "trojan.inject", injected)
        self.wrap(cli, "translate", "translate.translate", translated)
        self.wrap(translate, "generate_testcase",
                  "translate.generate_testcase")
        for owner in (cli, mod("svaport.rtl_parser")):
            self.wrap(owner, "parse_design", "rtl_parser.parse_design", parsed)
        for owner in (cli, translate, trojan, mod("svaport.metrics"),
                      mod("svaport.graph")):
            self.wrap(owner, "build_graph", "graph.build_graph",
                      counter("graph.build_graph.calls"))
        for owner in (cli, mod("svaport.sva")):
            self.wrap(owner, "parse_assertions", "sva.parse_assertions",
                      counter("sva.parse_assertions.calls"))

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            self_time[name] += end - start
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}_s"] = inclusive[name]
            out[f"{name}.self_s"] = self_time[name]
        for module in FORGE_MODULES:
            out[f"trojan.forge_s.{module}"] = self.forge_s[module]
        self.counts["sim.distinct_netlists"] = len(self._netlists)
        for name in COUNTS:
            out[name] = self.counts[name]
        for name, (num, den, _) in RATIOS.items():
            out[name] = out[num] / out[den] if out[den] else 0.0
        out["trace.spans"] = len(self.spans)
        return out
