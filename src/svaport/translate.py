"""Porting assertions from one design onto another.

The pipeline resolves every identifier of a source assertion against the
target design (explicit alias -> exact name -> normalized name), annotates
each resolved signal with how it sits in the target's dependency graph,
drops signals that have no counterpart when a removable conjunct carries
them, rewrites the surviving expression onto target names, folds in the
extra conditions the target design needs, and finally searches for a
stimulus that exercises the result on the clean target.

Temporal structure is never touched: implication operator, cycle delays,
and ``$past`` depths pass through verbatim; only boolean leaves are
renamed, removed, or added.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import expr as ex
from .errors import ConfigError
from .graph import DependencyGraph, Relationship, build_graph, classify, fanin
from .monitor import Checker, check_assertion
from .netlist import Netlist
from .records import field, read_json, record
from .rng import substream
from .search import (SearchStats, input_cone, necessary_literals,
                     schedules, search_stimulus)
from .sim import SimKernel, Stimulus
from .sva import Assertion, SeqExpr, signals_of

DEFAULT_SUFFIXES = ("_i", "_o", "_q", "_d", "_n")

_ATTACH = ("antecedent", "consequent")
_POSITION = ("first", "last")


# --------------------------------------------------------------------------
# signal map

@dataclass(frozen=True)
class Augmentation:
    """An extra condition the target design needs conjoined in.

    *signal* names the net the condition gates on (it must appear in the
    condition), *attach* picks the side of the implication, *position*
    whether the condition lands before or after the ported conjuncts, and
    *applies_to* restricts the rule to particular assertions (empty tuple
    means every assertion translated with this map).
    """

    signal: str
    condition: ex.Expr
    attach: str
    position: str = "last"
    applies_to: tuple[str, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class NamingRule:
    """Output naming for one translated assertion."""

    applies_to: str
    property_name: str | None = None
    label: str | None = None
    error: str | None = None


@dataclass
class SignalMap:
    """Alias table plus per-design translation hints, loaded from JSON."""

    mappings: dict[str, str] = dataclasses.field(default_factory=dict)
    augmentations: list[Augmentation] = dataclasses.field(default_factory=list)
    suffixes: tuple[str, ...] = DEFAULT_SUFFIXES
    prefixes: tuple[str, ...] = ()
    naming: list[NamingRule] = dataclasses.field(default_factory=list)

    @staticmethod
    def from_dict(data: dict) -> "SignalMap":
        where, aug = "signal map", "augmentation"
        record(data, where, {"mappings", "augmentations", "normalize",
                             "naming"})
        m = SignalMap()
        for row in field(data, "mappings", list, where, default=()):
            record(row, "mapping", {"source", "target"})
            src = field(row, "source", str, "mapping", default="")
            tgt = field(row, "target", str, "mapping", default="")
            if not (src and tgt):
                raise ConfigError(f"mapping needs source and target: {row}")
            if src in m.mappings:
                raise ConfigError(f"duplicate mapping for {src}")
            m.mappings[src] = tgt
        for row in field(data, "augmentations", list, where, default=()):
            record(row, aug, {"signal", "condition", "attach", "position",
                              "applies_to", "note"})
            attach = row.get("attach")
            if attach not in _ATTACH:
                raise ConfigError(f"augmentation attach must be one of {_ATTACH}")
            position = field(row, "position", str, aug, default="last")
            if position not in _POSITION:
                raise ConfigError(f"augmentation position must be one of {_POSITION}")
            text = field(row, "condition", str, aug)
            cond = ex.parse_expr_text(text)
            signal = field(row, "signal", str, aug, default="")
            if signal not in ex.idents_of(cond):
                raise ConfigError(
                    f"augmentation signal {signal!r} does not appear in its "
                    f"condition {text!r}")
            m.augmentations.append(Augmentation(
                signal=signal, condition=cond, attach=attach, position=position,
                applies_to=field(row, "applies_to", (list, str), aug,
                                 default=()),
                note=field(row, "note", str, aug, default="")))
        norm = record(field(data, "normalize", dict, where, default={}),
                      "normalize", {"suffixes", "prefixes"})
        m.suffixes = field(norm, "suffixes", (list, str), "normalize",
                           default=DEFAULT_SUFFIXES)
        m.prefixes = field(norm, "prefixes", (list, str), "normalize",
                           default=())
        for row in field(data, "naming", list, where, default=()):
            record(row, "naming rule", {"applies_to", "property", "label",
                                        "error"})
            key = field(row, "applies_to", str, "naming rule")
            if any(rule.applies_to == key for rule in m.naming):
                raise ConfigError(f"duplicate naming rule for {key}")
            m.naming.append(NamingRule(key, *(
                field(row, name, str, "naming rule", default=None)
                for name in ("property", "label", "error"))))
        return m

    @staticmethod
    def load(path: str | Path, netlist: Netlist | None = None) -> "SignalMap":
        m = SignalMap.from_dict(read_json(path))
        if netlist is not None:
            m.validate(netlist)
        return m

    def check_keys(self, keys: set[str], where: str) -> None:
        """Every assertion key an augmentation or a naming rule applies to
        must be one of *keys*, those of the assertions it is used with."""
        named = [k for g in self.augmentations for k in g.applies_to]
        for key in named + [rule.applies_to for rule in self.naming]:
            if key not in keys:
                raise ConfigError(f"{where}: applies_to {key!r} names no "
                                  f"assertion; the keys are {sorted(keys)}")

    def validate(self, netlist: Netlist) -> None:
        """Every mapped target and augmentation identifier must exist."""
        for src, tgt in self.mappings.items():
            if not netlist.resolves(tgt):
                raise ConfigError(
                    f"mapping {src} -> {tgt}: {tgt} is not a net or "
                    f"parameter of {netlist.name}")
        for aug in self.augmentations:
            for name in sorted(ex.idents_of(aug.condition)):
                if not netlist.resolves(name):
                    raise ConfigError(
                        f"augmentation on {aug.signal}: {name} is not a net "
                        f"or parameter of {netlist.name}")


def _normalize(name: str, suffixes: tuple[str, ...],
               prefixes: tuple[str, ...]) -> str:
    """Case-fold and strip at most one suffix and one prefix.

    A single pass is deliberate: it keeps loosely related infrastructure
    names (say ``rst`` vs ``rst_ni``) from colliding while still folding the
    common port/register decorations away.
    """
    out = name.casefold()
    for suf in sorted(suffixes, key=len, reverse=True):
        if suf and out.endswith(suf.casefold()) and len(out) > len(suf):
            out = out[: -len(suf)]
            break
    for pre in sorted(prefixes, key=len, reverse=True):
        if pre and out.startswith(pre.casefold()) and len(out) > len(pre):
            out = out[len(pre):]
            break
    return out


# --------------------------------------------------------------------------
# link report

MATCHED = "matched"
DROPPED = "dropped"
UNRESOLVED = "unresolved"


@dataclass
class LinkEntry:
    """Outcome for one source-assertion signal."""

    source: str
    status: str
    method: str
    target: str | None = None
    relationship: Relationship | None = None
    fanin: tuple[str, ...] = ()
    gating_candidates: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        rel = None
        if self.relationship is not None:
            rel = {
                "kind": self.relationship.kind.value,
                "depth": self.relationship.depth,
                "path": list(self.relationship.witness_path),
            }
        return {
            "source": self.source,
            "status": self.status,
            "method": self.method,
            "target": self.target,
            "relationship": rel,
            "fanin": list(self.fanin),
            "gating_candidates": list(self.gating_candidates),
        }


@dataclass
class LinkReport:
    """Per-signal linking outcomes for one assertion against one design."""

    assertion: Assertion
    target_module: str
    entries: dict[str, LinkEntry]
    clock_source: str = ""
    clock_target: str | None = None
    clock_method: str = ""
    disable_dropped: bool = False
    disable_reason: str = ""

    def with_status(self, status: str) -> list[LinkEntry]:
        return [e for e in self.entries.values() if e.status == status]

    def unresolved(self) -> list[LinkEntry]:
        return sorted(self.with_status(UNRESOLVED), key=lambda e: e.source)

    def rename_table(self) -> dict[str, str]:
        return {e.source: e.target for e in self.entries.values()
                if e.status == MATCHED and e.target is not None}

    def to_dict(self) -> dict:
        return {
            "assertion": self.assertion.effective_name(),
            "target_module": self.target_module,
            "clock": {
                "source": self.clock_source,
                "target": self.clock_target,
                "method": self.clock_method,
            },
            "disable": {
                "present": self.assertion.disable is not None,
                "dropped": self.disable_dropped,
                "reason": self.disable_reason,
            },
            "signals": [self.entries[k].to_dict() for k in sorted(self.entries)],
        }


# --------------------------------------------------------------------------
# pipeline stages

def _resolve(name: str, target: Netlist, smap: SignalMap,
             norm_index: dict[str, list[str]]) -> tuple[str | None, str]:
    """Resolution chain for one identifier: (target name, method text)."""
    if name in smap.mappings:
        return smap.mappings[name], "alias_file"
    if target.resolves(name):
        return name, "exact"
    key = _normalize(name, smap.suffixes, smap.prefixes)
    candidates = norm_index.get(key, [])
    if len(candidates) == 1:
        return candidates[0], "normalized"
    if len(candidates) > 1:
        return None, "ambiguous normalized match: " + ", ".join(candidates)
    return None, f"no exact or normalized counterpart in {target.name}"


def _norm_index(target: Netlist, smap: SignalMap) -> dict[str, list[str]]:
    index: dict[str, list[str]] = {}
    names = sorted(target.nets) + sorted(target.params)
    for cand in names:
        index.setdefault(_normalize(cand, smap.suffixes, smap.prefixes), []).append(cand)
    return index


def identify_signals(source: Assertion, target: Netlist,
                     smap: SignalMap) -> LinkReport:
    """Resolve every assertion identifier (and the clock) against the target."""
    index = _norm_index(target, smap)
    entries: dict[str, LinkEntry] = {}
    for name in sorted(signals_of(source)):
        tgt, method = _resolve(name, target, smap, index)
        if tgt is None:
            entries[name] = LinkEntry(name, UNRESOLVED, method)
        else:
            entries[name] = LinkEntry(name, MATCHED, method, target=tgt)
    report = LinkReport(source, target.name, entries, clock_source=source.clock)
    clk, method = _resolve(source.clock, target, smap, index)
    if clk is None and len(target.clock_nets()) == 1:
        clk, method = next(iter(target.clock_nets())), "sole clock of target"
    report.clock_target, report.clock_method = clk, method
    return report


def trace_internal_logic(report: LinkReport,
                         graph: DependencyGraph,
                         netlist: Netlist) -> LinkReport:
    """Annotate matched signals with their place in the target's logic.

    Records the full fan-in cone, the direct reads of the signal's driver
    (the conditions a gating augmentation would come from), and how the
    signal relates to the nearest primary input feeding it.
    """
    inputs = {n.name for n in netlist.inputs()}
    for entry in report.entries.values():
        if entry.status != MATCHED or entry.target is None:
            continue
        name = entry.target
        if not graph.has_node(name):
            continue  # parameters have no node
        cone = fanin(graph, name)
        entry.fanin = tuple(sorted(cone))
        entry.gating_candidates = graph.reads_of(name)
        feeding = [(depth, n) for n, depth in cone.items() if n in inputs]
        if feeding:
            _, nearest = min(feeding)
            entry.relationship = classify(graph, name, nearest)
    return report


def _strip_conjuncts(seq: SeqExpr, doomed: set[str]) -> SeqExpr | None:
    """Remove every conjunct mentioning a doomed signal; None if a step empties."""
    steps = []
    for delay, term in seq.steps:
        keep = [c for c in ex.conjuncts(term) if not (ex.idents_of(c) & doomed)]
        if not keep:
            return None
        steps.append((delay, ex.conjoin(keep)))
    return SeqExpr(tuple(steps))


def drop_untranslatable(report: LinkReport) -> LinkReport:
    """Decide the fate of unresolved signals.

    A signal carried only by removable conjuncts is dropped (the conjunct
    goes with it); one whose removal would leave an implication side empty
    stays unresolved.  A disable expression referencing signals without
    counterparts is removed wholesale — losing a reset guard weakens
    nothing an implication checks.
    """
    a = report.assertion
    functional = signals_of(replace(a, disable=None))
    disable_ids = ex.idents_of(a.disable) if a.disable is not None else set()

    doomed = {e.source for e in report.unresolved() if e.source in functional}
    while doomed:
        blocked: set[str] = set()
        for seq in (a.antecedent, a.consequent):
            for _, term in seq.steps:
                cs = ex.conjuncts(term)
                if all(ex.idents_of(c) & doomed for c in cs):
                    for c in cs:
                        blocked |= ex.idents_of(c) & doomed
        if not blocked:
            break
        for name in blocked:
            entry = report.entries[name]
            entry.method += ("; dropping it would empty the "
                             "antecedent or consequent")
        doomed -= blocked
    for name in doomed:
        entry = report.entries[name]
        entry.status = DROPPED
        entry.method = "removable conjunct dropped: " + entry.method

    if a.disable is not None:
        unresolved_disable = {
            n for n in disable_ids
            if report.entries[n].status != MATCHED}
        if unresolved_disable:
            report.disable_dropped = True
            report.disable_reason = (
                "disable expression references "
                + ", ".join(sorted(unresolved_disable))
                + " with no counterpart; clause removed")
            for name in unresolved_disable:
                entry = report.entries[name]
                if entry.status == UNRESOLVED and name not in functional:
                    entry.status = DROPPED
                    entry.method = "disable clause removed: " + entry.method
    return report


# --------------------------------------------------------------------------
# translation

@dataclass
class TranslationConfig:
    """Knobs for the rewrite and the activation search."""

    horizon: int = 16  # cycles per candidate stimulus
    seed: int = 0
    generate_testcase: bool = True
    key: str | None = None  # naming/augmentation selector; default derived


@dataclass
class Translatable:
    assertion: Assertion
    testcase: Stimulus | None
    search: SearchStats | None = None  # None when no search ran


@dataclass
class Untranslatable:
    reasons: list[str]


@dataclass
class TranslationOutcome:
    verdict: Translatable | Untranslatable
    link_report: LinkReport
    notes: list[str] = dataclasses.field(default_factory=list)

    @property
    def translatable(self) -> bool:
        return isinstance(self.verdict, Translatable)


def assertion_key(a: Assertion, index: int = 0) -> str:
    """Stable handle used by augmentation/naming selectors."""
    return a.label or a.name or f"#{index}"


def _restyle(term: ex.Expr) -> ex.Expr:
    """Render plain negations of a name as comparisons with zero."""
    out = []
    for c in ex.conjuncts(term):
        if isinstance(c, ex.Unary) and c.op == "!" and \
                isinstance(c.operand, (ex.Ident, ex.Select)):
            c = ex.Binary("==", c.operand, ex.Const(0))
        out.append(c)
    return ex.conjoin(out)


def _apply_augmentations(seq: SeqExpr, augs: list[Augmentation],
                         attach: str) -> SeqExpr:
    """Conjoin extra conditions into the step where the implication binds:
    the last antecedent step, the first consequent step."""
    ours = [g for g in augs if g.attach == attach]
    if not ours:
        return seq
    steps = list(seq.steps)
    idx = len(steps) - 1 if attach == "antecedent" else 0
    delay, term = steps[idx]
    firsts = [g.condition for g in ours if g.position == "first"]
    lasts = [g.condition for g in ours if g.position == "last"]
    steps[idx] = (delay, ex.conjoin(firsts + ex.conjuncts(term) + lasts))
    return SeqExpr(tuple(steps))


def translate(source: Assertion, target: Netlist, smap: SignalMap,
              config: TranslationConfig | None = None, *,
              graph: DependencyGraph | None = None) -> TranslationOutcome:
    """Run the whole pipeline for one assertion.

    Either every identifier finds a home (verdict carries the rewritten
    assertion plus a stimulus driving its antecedent), or the unresolved
    identifiers are listed one reason apiece.
    """
    config = config or TranslationConfig()
    smap.validate(target)
    graph = graph or build_graph(target)

    report = identify_signals(source, target, smap)
    report = trace_internal_logic(report, graph, target)
    report = drop_untranslatable(report)

    unresolved = report.unresolved()
    if report.clock_target is None:
        return TranslationOutcome(
            Untranslatable([f"clock {source.clock}: {report.clock_method}"]
                           + [f"{e.source}: {e.method}" for e in unresolved]),
            report)
    if unresolved:
        return TranslationOutcome(
            Untranslatable([f"{e.source}: {e.method}" for e in unresolved]),
            report)

    dropped = {e.source for e in report.with_status(DROPPED)}
    table = report.rename_table()
    key = config.key or assertion_key(source)
    augs = [g for g in smap.augmentations
            if not g.applies_to or key in g.applies_to]

    def rebuild(seq: SeqExpr) -> SeqExpr:
        reduced = _strip_conjuncts(seq, dropped)
        assert reduced is not None  # drop stage guarantees non-empty steps
        steps = tuple(
            (delay, _restyle(ex.rename(term, table)))
            for delay, term in reduced.steps)
        return SeqExpr(steps)

    ante = _apply_augmentations(rebuild(source.antecedent), augs, "antecedent")
    cons = _apply_augmentations(rebuild(source.consequent), augs, "consequent")

    disable = None
    if source.disable is not None and not report.disable_dropped:
        disable = ex.rename(source.disable, table)

    out = replace(source, antecedent=ante, consequent=cons,
                  clock=report.clock_target, disable=disable)
    rule = next((n for n in smap.naming if n.applies_to == key), None)
    if rule is not None:
        out = replace(out,
                      name=rule.property_name or out.name,
                      label=rule.label or out.label,
                      action=rule.error or out.action)

    notes: list[str] = []
    testcase = stats = None
    if config.generate_testcase:
        testcase, stats = generate_testcase(out, target, config, graph=graph)
        if testcase is None and not stats.candidates:
            notes.append("the antecedent's first step can never hold: the "
                         "input bits it needs contradict each other")
        elif testcase is None:
            notes.append("no stimulus found that drives the antecedent "
                         "within the search budget")
    return TranslationOutcome(Translatable(out, testcase, stats), report,
                              notes)


# --------------------------------------------------------------------------
# test-case generation

def generate_testcase(a: Assertion, target: Netlist,
                      config: TranslationConfig | None = None, *,
                      graph: DependencyGraph | None = None,
                      ) -> tuple[Stimulus | None, SearchStats]:
    """Find inputs under which *a* passes non-vacuously on the clean
    design, and say what the search took.

    One ``Checker`` decides the verdict (no failure, at least one
    completed non-vacuous pass) over every candidate of each simulated
    batch, and ``check_assertion`` runs it again on a scalar simulation
    of the first candidate that meets it, both on a kernel sliced to the
    nets the assertion reads.  Every input of the assertion's cone is
    searched in one pass that forces the input bits the antecedent's first
    step needs (``necessary_literals``; the ``search`` module says why that
    loses no witness).  An antecedent whose literals contradict each other
    can never hold, so it is not searched at all.
    """
    config = config or TranslationConfig()
    checker = Checker(a, target)
    literals = necessary_literals(a.antecedent.steps[0][1], target)
    if literals is None:
        return None, SearchStats()
    graph = graph or build_graph(target)
    kernel = SimKernel(target, keep=checker.nets)

    def objective(arrays: dict[str, np.ndarray],
                  inputs: dict[str, np.ndarray]) -> np.ndarray:
        verdict = checker(arrays)
        return verdict.passed & ~verdict.failed

    def accept(stim: Stimulus) -> bool:
        verdict = check_assertion(kernel.run(stim), checker)
        return verdict.failure_count == 0 and verdict.non_vacuous_passes >= 1

    cone = input_cone(target, graph, signals_of(a))
    rng = substream(config.seed, "translate", "testcase", a.effective_name())
    return search_stimulus(target, cone, literals, objective, accept, rng,
                           config.horizon, kernel=kernel,
                           plans=schedules(target, literals, config.horizon))
