"""Output checks, made apart from the program.

Verdicts are recomputed with the independent reference simulator and
assertion checker of ``tests/oracles.py`` (fixpoint settling, attempt
schedules derived from scratch); trojans are spliced into the clean design
here, from the spec alone.  ``check`` returns the list of problems found
(empty when the outputs are right) and the operations the run attempted
and failed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from svaport import corpus
from svaport import expr as ex
from svaport.netlist import Assign, Netlist
from svaport.rtl_parser import parse_design
from svaport.sim import Stimulus
from svaport.sva import parse_assertions, render_assertion
from svaport.translate import (SignalMap, TranslationConfig, assertion_key,
                               translate)
from tests.oracles import check_reference, simulate_fixpoint

from perfbench import workloads


@dataclass
class Operations:
    """Work the program was asked to do, and how much of it failed."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def digest(out_dir: Path) -> str:
    """sha256 over every output file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


# --------------------------------------------------------------------------
# reference replay


def oracle_inject(netlist: Netlist, spec: dict) -> Netlist:
    """The spec's trojan spliced into the clean design: while every trigger
    condition holds, the payload net's driver value is inverted, replaced
    by a constant, or has the trigger XORed into it."""
    conds = []
    for c in spec["trigger"]:
        bit = c.get("bit")
        base = ex.Ident(c["signal"]) if bit is None \
            else ex.Select(c["signal"], bit, bit)
        conds.append(ex.Binary("==", base, ex.Const(c["value"])))
    trig = conds[0]
    for cond in conds[1:]:
        trig = ex.Binary("&&", trig, cond)
    payload = spec["payload"]

    def corrupt(orig: ex.Expr) -> ex.Expr:
        if payload["kind"] == "invert_net":
            return ex.Ternary(trig, ex.Unary("~", orig), orig)
        if payload["kind"] == "force_constant":
            return ex.Ternary(trig, ex.Const(payload["value"]), orig)
        return ex.Binary("^", orig, trig)

    net = payload["net"]
    assigns = [Assign(a.lhs, corrupt(a.rhs)) if a.lhs == net else a
               for a in netlist.assigns]
    registers = [replace(r, next=corrupt(r.next)) if r.target == net else r
                 for r in netlist.registers]
    return replace(netlist, nets=dict(netlist.nets), assigns=assigns,
                   registers=registers)


def constrained_bits(spec: dict, netlist: Netlist) -> int:
    return sum(1 if c.get("bit") is not None else netlist.width(c["signal"])
               for c in spec["trigger"])


def trigger_fired(spec: dict, trace) -> bool:
    def holds(c, t):
        v = trace.values[c["signal"]][t]
        if c.get("bit") is not None:
            v = (v >> c["bit"]) & 1
        return v == c["value"]
    return any(all(holds(c, t) for c in spec["trigger"])
               for t in range(trace.cycles))


def fails(trace, assertion) -> bool:
    return bool(check_reference(trace, assertion)[1])


# --------------------------------------------------------------------------
# per-module output


class ModuleOutput:
    def __init__(self, job: dict, base: Path, out_dir: Path):
        self.name = job["name"]
        self.job = job
        self.dir = out_dir / self.name
        self.netlist = parse_design(
            (base / job["target_design"]).read_text())
        self.sources = parse_assertions(
            (base / job["assertions"]).read_text())
        self.links = {p.stem: json.loads(p.read_text())
                      for p in sorted((self.dir / "links").glob("*.json"))}
        self.texts = {p.stem: p.read_text() for p in
                      sorted((self.dir / "translated").glob("*.sva"))}
        self.translated = {stem: parse_assertions(text)[0]
                           for stem, text in self.texts.items()}
        self.testcases = {
            p.stem: json.loads(p.read_text())
            for p in sorted((self.dir / "testcases").glob("*.json"))}

    def check_ports(self, problems: list[str], ops: Operations) -> None:
        """Every assertion ports, and every witness passes non-vacuously
        with no failure on the clean design."""
        untranslatable = [s for s, doc in self.links.items()
                          if not doc["translatable"]]
        if len(self.links) != len(self.sources) or untranslatable:
            problems.append(f"{self.name}: {len(self.links)} link reports "
                            f"for {len(self.sources)} assertions, "
                            f"untranslatable: {untranslatable}")
        if set(self.translated) != set(self.links) - set(untranslatable):
            problems.append(f"{self.name}: translated files do not match "
                            "the link reports")
        ops.add(len(self.sources), len(self.sources) - len(self.translated))
        misses = set(self.translated) - set(self.testcases)
        ops.add(len(self.translated), len(misses))
        for stem, rows in self.testcases.items():
            a = self.translated.get(stem)
            if a is None:
                problems.append(f"{self.name}/{stem}: witness without an "
                                "assertion")
                continue
            statuses, failures = check_reference(
                simulate_fixpoint(self.netlist, Stimulus(rows)), a)
            if failures or "pass" not in statuses:
                problems.append(f"{self.name}/{stem}: witness does not pass "
                                "non-vacuously under the reference checker")

    def trojan_specs(self) -> list[dict]:
        tdir = self.dir / "trojans"
        return [json.loads(p.read_text()) for p in sorted(tdir.glob("*.json"))
                if not p.name.endswith(".stim.json")] if tdir.is_dir() else []

    def activation(self, spec: dict) -> Stimulus:
        return Stimulus(json.loads((self.dir / "trojans" /
                                    f"{spec['id']}.stim.json").read_text()))

    def replay(self, spec: dict, stim: Stimulus):
        """Reference trace of the trojan's activation on the injected design."""
        return simulate_fixpoint(oracle_inject(self.netlist, spec), stim)


def _rows_by_id(out_dir: Path, problems: list[str]) -> dict[str, dict]:
    rows = json.loads((out_dir / "metrics.json").read_text())["trojans"]
    for row in rows:
        if row["error"] is not None:
            problems.append(f"{row['id']}: evaluation error {row['error']}")
    return {row["id"]: row for row in rows}


def _check_row(row: dict | None, spec: dict, module: ModuleOutput,
               problems: list[str]) -> bool:
    """k and p of one trojan; False when the row is missing."""
    if row is None:
        problems.append(f"{spec['id']}: not in metrics.json")
        return False
    k = constrained_bits(spec, module.netlist)
    if spec["k"] != k or row["k"] != k:
        problems.append(f"{spec['id']}: k={row['k']} but the trigger "
                        f"constrains {k} bits")
    if Fraction(row["p"]) != Fraction(1, 2 ** k):
        problems.append(f"{spec['id']}: p={row['p']}, expected 2^-{k}")
    return True


def _check_detection(row: dict, module: ModuleOutput, dirty,
                     problems: list[str]) -> None:
    detected = any(fails(dirty, a) for a in module.translated.values())
    if row["detected"] != detected:
        problems.append(f"{row['id']}: detected={row['detected']} but the "
                        f"reference replay says {detected}")


# --------------------------------------------------------------------------
# workloads


def _load(config: Path, out_dir: Path) -> list[ModuleOutput]:
    doc = json.loads(config.read_text())
    return [ModuleOutput(job, config.parent, out_dir)
            for job in doc["modules"]]


def _check_campaign(modules, out_dir, seed, problems, ops) -> None:
    rows = _rows_by_id(out_dir, problems)
    for m in modules:
        m.check_ports(problems, ops)
        specs = m.trojan_specs()
        ops.add(m.job.get("trojans", 0), m.job.get("trojans", 0) - len(specs))
        by_name = {a.effective_name(): a for a in m.translated.values()}
        for spec in specs:
            row = rows.get(spec["id"])
            if not _check_row(row, spec, m, problems):
                continue
            stim = m.activation(spec)
            clean = simulate_fixpoint(m.netlist, stim)
            dirty = m.replay(spec, stim)
            target = by_name.get(spec["meta"]["target_assertion"])
            if not trigger_fired(spec, dirty):
                problems.append(f"{spec['id']}: activation does not fire "
                                "the trigger")
            if target is None or not fails(dirty, target) \
                    or fails(clean, target):
                problems.append(f"{spec['id']}: activation does not fail "
                                "its target only on the injected design")
            _check_detection(row, m, dirty, problems)
    ops.add(len(rows), sum(r["error"] is not None for r in rows.values()))


def _index(stem: str) -> int:
    return int(stem[1:stem.index("_")])


def _check_port(modules, out_dir, seed, problems, ops) -> None:
    layout = workloads.port_layout(seed)
    for m in modules:
        m.check_ports(problems, ops)
        module = m.name.rsplit("_x", 1)[0]
        expected = _port_reference(module, layout[module])
        got = [m.texts.get(stem) for stem in sorted(m.links, key=_index)]
        if len(got) != len(expected):
            problems.append(f"{m.name}: {len(got)} ports, expected "
                            f"{len(expected)}")
        for idx, (want, have) in enumerate(zip(expected, got)):
            if have is None or want.strip() != have.strip():
                problems.append(f"{m.name}: ported assertion {idx} is\n"
                                f"{have}\nexpected\n{want}")


def _port_reference(module: str, copies) -> list[str]:
    """The program's port of the single corpus module, renamed per copy,
    in the order the copies appear in the generated files."""
    netlist = parse_design(corpus.design_path(module).read_text())
    smap = SignalMap.load(corpus.signal_map_path(module), netlist=netlist)
    single = []
    for idx, a in enumerate(parse_assertions(
            corpus.assertions_path(module).read_text())):
        conf = TranslationConfig(key=assertion_key(a, idx),
                                 generate_testcase=False)
        single.append(translate(a, netlist, smap, conf).verdict.assertion)
    renamable = set(netlist.nets) - workloads.shared_nets(netlist)
    out = []
    for c in copies:
        for a in single:
            table = c.net_table(renamable)
            table.update({n: c.label(n) for n in (a.name, a.label) if n})
            out.append(workloads.rename_text(render_assertion(a), table))
    return out


def _check_replay(modules, out_dir, seed, problems, ops) -> None:
    rows = _rows_by_id(out_dir, problems)
    rng = np.random.default_rng([seed, 99])
    for m in modules:
        m.check_ports(problems, ops)
        specs = m.trojan_specs()
        if len(specs) != workloads.REPLAY_TROJANS:
            problems.append(f"{m.name}: {len(specs)} trojans injected, "
                            f"expected {workloads.REPLAY_TROJANS}")
        for spec in specs:
            _check_row(rows.get(spec["id"]), spec, m, problems)
        # the reference replay is slow: a seeded sample, one per module
        spec = specs[int(rng.integers(0, len(specs)))] if specs else None
        if spec is not None and spec["id"] in rows:
            dirty = m.replay(spec, m.activation(spec))
            _check_detection(rows[spec["id"]], m, dirty, problems)
    ops.add(len(rows), sum(r["error"] is not None for r in rows.values()))


_CHECKS = {"campaign": _check_campaign, "port": _check_port,
           "replay": _check_replay}


def check(workload: str, seed: int, config: Path,
          out_dir: Path) -> tuple[list[str], Operations]:
    problems: list[str] = []
    ops = Operations()
    _CHECKS[workload](_load(config, out_dir), out_dir, seed, problems, ops)
    return problems, ops
