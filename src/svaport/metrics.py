"""Trigger-rarity and detection-coverage metrics, plus report rendering.

Two numbers summarise a verification campaign.  The power index of a
trojan, ``log10(1/P)``, grades how rare its trigger condition is: an index
of 3 means one activation per thousand uniformly random input vectors.
The detection ratio of a module, ``detected / generated * 100``, grades
how much of the planted trojan population the ported assertion set caught.

Probabilities are kept as exact :class:`~fractions.Fraction` values end to
end.  A 72-bit trigger has probability 2**-72; squeezing that through
naive decimal string handling loses it to zero, so floats appear only at
the presentation edge.  Three independent paths produce ``P``:

* :func:`analytic_probability` - the closed form 2**-k for a conjunction
  of k independent input bits,
* :func:`brute_force_probability` - exhaustive enumeration of the trigger's
  input cone (the ground truth, up to ``MAX_BRUTE_FORCE_BITS`` = 24 bits),
* :func:`monte_carlo_probability` - seeded sampling with a binomial 95%
  interval for cones too wide to enumerate.

:func:`emit_report` renders the campaign summary in three value-identical
formats: an aligned text table, JSON, and CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import ConeTooLargeError, ConfigError, DomainError
from .graph import DependencyGraph, build_graph
from .netlist import Netlist
from .rng import substream
from .search import input_cone
from .sim import BatchExpr, SimKernel
from .trojan import TrojanSpec, trigger_expr

_LOG10_2 = math.log10(2)

#: Exhaustive enumeration is capped at this many input bits (16.7M vectors).
MAX_BRUTE_FORCE_BITS = 24

#: Sampling below this count gives intervals too wide to be useful.
MIN_SAMPLES = 1000

_ENUM_CHUNK = 1 << 16

#: Two-sided 95% normal quantile, used for the binomial interval.
_Z95 = 1.959963984540054


# ---------------------------------------------------------------------------
# scalar metrics


def tpi(p) -> float:
    """Power index of a trigger probability: ``log10(1 / p)``.

    Accepts an exact :class:`Fraction`, an int, or a float.  For the dyadic
    probabilities the analytic model produces (``p = 2**-k``) the result is
    computed as ``k * log10(2)`` so the closed form holds bit-for-bit even
    when ``2**k`` dwarfs the float range.
    """
    try:
        exact = Fraction(p)
    except (TypeError, ValueError) as err:
        raise DomainError(f"not a probability: {p!r}") from err
    if exact <= 0 or exact > 1:
        raise DomainError(f"probability must lie in (0, 1], got {p}")
    num, den = exact.numerator, exact.denominator
    if num == 1 and den & (den - 1) == 0:
        return (den.bit_length() - 1) * _LOG10_2
    return math.log10(den) - math.log10(num)


# ---------------------------------------------------------------------------
# trigger probability, three ways


def analytic_probability(spec: TrojanSpec | int) -> Fraction:
    """Probability that a conjunction of k independent bits holds: 2**-k.

    Takes a trojan spec (using its ``k``) or a bare bit count.  Every input
    bit is modelled as an independent fair coin, which is exact whenever
    the trigger constrains primary-input bits directly.
    """
    k = spec if isinstance(spec, int) else spec.k
    if k < 1:
        raise DomainError("a trigger must constrain at least one bit")
    return Fraction(1, 1 << k)


def _trigger_hits(netlist: Netlist, spec: TrojanSpec,
                  graph: DependencyGraph | None,
                  ) -> tuple[list[str], Callable[[dict, int], int]]:
    """The trigger's input cone, the input ports it can depend on, and a
    count of the rows of a one-cycle batch of *rows* (rows, 1) arrays
    over that cone on which the trigger holds (an empty cone has no
    arrays: one row stands for all).  The trigger compiles once, and
    every batch runs on one kernel sliced to the trigger's nets."""
    graph = graph if graph is not None else build_graph(netlist)
    trig = BatchExpr(trigger_expr(spec, netlist), netlist.width,
                     netlist.constants())
    kernel = SimKernel(netlist, keep=trig.nets)

    def count(arrays: dict[str, np.ndarray], rows: int) -> int:
        hits = trig(kernel.run_batch(arrays, 1))[:, 0]
        return int(np.count_nonzero(np.broadcast_to(hits, rows)))
    return input_cone(netlist, graph, {c.signal for c in spec.trigger}), count


def brute_force_probability(netlist: Netlist, spec: TrojanSpec, *,
                            graph: DependencyGraph | None = None) -> Fraction:
    """Exact trigger probability by enumerating the trigger's input cone.

    Every combination of the cone's input bits is simulated for one cycle
    on a kernel sliced to the trigger's nets, and the trigger condition
    evaluated on the settled values; the result is the exact hit ratio.
    Independent of the analytic model, so it doubles as its oracle.
    Cones beyond ``MAX_BRUTE_FORCE_BITS`` raise
    :class:`ConeTooLargeError`; fall back to sampling there.
    """
    cone, count = _trigger_hits(netlist, spec, graph)
    widths = [netlist.width(n) for n in cone]
    bits = sum(widths)
    if bits > MAX_BRUTE_FORCE_BITS:
        raise ConeTooLargeError(
            f"trigger cone of {spec.id} spans {bits} input bits (limit "
            f"{MAX_BRUTE_FORCE_BITS}); use monte_carlo_probability instead")
    offsets = [sum(widths[:i]) for i in range(len(cone))]
    total = 1 << bits
    hits = 0
    for start in range(0, total, _ENUM_CHUNK):
        idx = np.arange(start, min(start + _ENUM_CHUNK, total),
                        dtype=np.uint64)[:, None]
        hits += count({
            name: (idx >> np.uint64(off)) & np.uint64((1 << w) - 1)
            for name, off, w in zip(cone, offsets, widths)
        }, len(idx))
    return Fraction(hits, total)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sampled trigger probability with a binomial 95% interval."""

    estimate: float
    low: float
    high: float
    hits: int
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "interval95": [self.low, self.high],
            "hits": self.hits,
            "samples": self.samples,
            "seed": self.seed,
        }


def _wilson_interval(hits: int, samples: int) -> tuple[float, float]:
    """Binomial 95% score interval; well behaved at 0 and n hits."""
    z2 = _Z95 * _Z95
    phat = hits / samples
    denom = 1.0 + z2 / samples
    center = (phat + z2 / (2 * samples)) / denom
    half = _Z95 * math.sqrt(
        phat * (1.0 - phat) / samples + z2 / (4.0 * samples * samples)) / denom
    low = 0.0 if hits == 0 else max(0.0, center - half)
    high = 1.0 if hits == samples else min(1.0, center + half)
    return low, high


def monte_carlo_probability(netlist: Netlist, spec: TrojanSpec,
                            samples: int = 100_000, seed: int = 0, *,
                            graph: DependencyGraph | None = None,
                            ) -> MonteCarloEstimate:
    """Estimate the trigger probability from uniform random input vectors.

    Draws *samples* vectors over the trigger's input cone from a substream
    derived from *seed* and the trojan id, so repeated calls reproduce the
    estimate exactly, and simulates each for one cycle on a kernel sliced
    to the trigger's nets, whatever the cone's width.
    """
    if samples < MIN_SAMPLES:
        raise DomainError(
            f"at least {MIN_SAMPLES} samples are required, got {samples}")
    cone, count = _trigger_hits(netlist, spec, graph)
    rng = substream(seed, "metrics", "monte-carlo", spec.id)
    hits = 0
    done = 0
    while done < samples:
        rows = min(_ENUM_CHUNK, samples - done)
        hits += count({
            name: rng.integers(0, 1 << netlist.width(name), size=(rows, 1),
                               dtype=np.uint64,
                               endpoint=False)
            for name in cone
        }, rows)
        done += rows
    low, high = _wilson_interval(hits, samples)
    return MonteCarloEstimate(estimate=hits / samples, low=low, high=high,
                              hits=hits, samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# report model


@dataclass(frozen=True)
class ModuleRow:
    """Per-module translation and detection tallies."""

    module: str
    source_assertions: int
    translated: int
    generated: int
    detected: int

    def __post_init__(self) -> None:
        counts = (self.source_assertions, self.translated,
                  self.generated, self.detected)
        if any(c < 0 for c in counts):
            raise DomainError(f"negative count in module row {self.module}")
        if self.translated > self.source_assertions:
            raise DomainError(
                f"{self.module}: translated {self.translated} exceeds "
                f"source count {self.source_assertions}")
        if self.detected > self.generated:
            raise DomainError(
                f"{self.module}: detected {self.detected} exceeds "
                f"generated count {self.generated}")


@dataclass(frozen=True)
class TrojanRow:
    """Per-trojan report line: where it lives and how rare its trigger is."""

    id: str
    module: str
    probability: Fraction

    def __post_init__(self) -> None:
        if not 0 < self.probability <= 1:
            raise DomainError(
                f"{self.id}: probability {self.probability} outside (0, 1]")


@dataclass
class MetricsReport:
    """Everything the final report needs, still in exact arithmetic."""

    modules: list[ModuleRow] = field(default_factory=list)
    trojans: list[TrojanRow] = field(default_factory=list)
    seed: int | None = None


# ---------------------------------------------------------------------------
# rendering


def _fmt_probability(p: Fraction) -> str:
    """Scientific notation with four significant digits."""
    return f"{float(p):.3e}"


def _fmt_tpi(p: Fraction) -> str:
    return f"{tpi(p):.2f}"


def _fmt_pct(part: int, whole: int) -> str:
    """Percentage trimmed of trailing zeros; n/a for an empty denominator."""
    if whole == 0:
        return "n/a"
    text = f"{float(Fraction(part, whole) * 100):.2f}"
    return text.rstrip("0").rstrip(".") + "%"


_MODULE_COLUMNS = ("module", "source assertions", "translated",
                   "translation %", "generated", "detected", "detection %")
_TROJAN_COLUMNS = ("HW-T no.", "module", "P", "TPI")


def _module_cells(row: ModuleRow) -> tuple[str, ...]:
    return (row.module,
            str(row.source_assertions),
            str(row.translated),
            _fmt_pct(row.translated, row.source_assertions),
            str(row.generated),
            str(row.detected),
            _fmt_pct(row.detected, row.generated))


def _trojan_cells(row: TrojanRow) -> tuple[str, ...]:
    return (row.id, row.module,
            _fmt_probability(row.probability),
            _fmt_tpi(row.probability))


def _align(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> list[str]:
    """Left-align the first column, right-align the numeric rest."""
    widths = [len(h) for h in header]
    for cells in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
    lines = []
    for cells in [header] + rows:
        padded = [cells[0].ljust(widths[0])]
        padded += [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        lines.append("  ".join(padded).rstrip())
    lines.insert(1, "-" * len(lines[0]))
    return lines


def _render_table(report: MetricsReport) -> str:
    module_rows = [_module_cells(r) for r in report.modules]
    trojan_rows = [_trojan_cells(r) for r in report.trojans]
    lines = []
    if report.seed is not None:
        lines += [f"seed: {report.seed}", ""]
    lines += ["Assertion translation and trojan detection by module", ""]
    lines += _align(_MODULE_COLUMNS, module_rows)
    lines += ["", "Trigger probability and power index by trojan", ""]
    lines += _align(_TROJAN_COLUMNS, trojan_rows)
    return "\n".join(lines) + "\n"


def _render_json(report: MetricsReport) -> str:
    doc = {
        "seed": report.seed,
        "modules": [
            dict(zip(("module", "source_assertions", "translated",
                      "translation_pct", "generated", "detected",
                      "detection_pct"), _module_cells(r)))
            for r in report.modules
        ],
        "trojans": [
            dict(zip(("id", "module", "p", "tpi"), _trojan_cells(r)))
            for r in report.trojans
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _render_csv(report: MetricsReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if report.seed is not None:
        writer.writerow(["seed", report.seed])
        writer.writerow([])
    writer.writerow(_MODULE_COLUMNS)
    for row in report.modules:
        writer.writerow(_module_cells(row))
    writer.writerow([])
    writer.writerow(_TROJAN_COLUMNS)
    for row in report.trojans:
        writer.writerow(_trojan_cells(row))
    return buf.getvalue()


_RENDERERS = {
    "table": _render_table,
    "json": _render_json,
    "csv": _render_csv,
}


def emit_report(report: MetricsReport, format: str = "table") -> str:
    """Render the campaign report as text.

    *format* is one of ``table`` (aligned plain text), ``json``, or
    ``csv``.  All three carry the same formatted values: probabilities in
    scientific notation with four significant digits, power indexes with
    two decimals, percentages trimmed of trailing zeros.  Module counts of
    zero render their percentage as ``n/a``.
    """
    try:
        renderer = _RENDERERS[format.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown report format {format!r}; "
            f"expected one of {sorted(_RENDERERS)}") from None
    return renderer(report)
