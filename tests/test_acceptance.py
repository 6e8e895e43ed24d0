"""Top-level acceptance checks, one test per release criterion.

Each test is self-describing and prints as a single pass/fail line under
``pytest -v``.  Tolerances are pinned in the assertions themselves.
"""

import hashlib
import json
import math
import random
import shutil
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from svaport import corpus
from svaport.cli import _replay, main as cli_main
from svaport.graph import Relation, build_graph, classify, fanin
from svaport.metrics import (analytic_probability, brute_force_probability,
                             monte_carlo_probability, tpi)
from svaport.monitor import check_assertion, check_assertions
from svaport.netlist import NetKind
from svaport.rtl_parser import parse_design
from svaport.search import input_cone
from svaport.sim import BatchExpr, SimKernel, Stimulus, Trace, load_stimulus
from svaport.sva import parse_assertion, parse_assertions
from svaport.translate import (SignalMap, TranslationConfig, assertion_key,
                               translate)
from svaport.trojan import load_trojans, trigger_expr

from perfbench import checks as bench_checks, workloads

from . import gen, oracles

TABLE2 = json.loads(
    (Path(__file__).parent / "data" / "table2.json").read_text())

EXPECTED_SOURCE_COUNTS = {"pmp_unit": 7, "csr_unit": 7, "debug_unit": 4,
                          "irq_unit": 6, "cf_unit": 9}

# sha256 of the bundled campaign's output tree: every file's path relative
# to the output directory and its bytes, each followed by a NUL byte, in
# sorted path order (``perfbench/checks.py`` digests a tree the same way)
CAMPAIGN_SHA256 = \
    "56f9e19a02b0da825eb4051c68f8a0e008826cb07623fe73c51e72d34d4e09c4"

# sha256 of the seed-1 ``port`` benchmark workload's output tree, digested
# the same way: 99 witness searches on designs of three parallel copies
PORT_SHA256 = \
    "b6a1e6ebdd10b5e5532b2bf0c72b930afc28918c4237b676b161b33b7cb01c7b"


def _spec_paths(run, module):
    tdir = run.module_dir(module) / "trojans"
    return sorted(p for p in tdir.glob("*.json")
                  if not p.name.endswith(".stim.json"))


def _translated(run, module):
    out = []
    for f in sorted((run.module_dir(module) / "translated").glob("*.sva")):
        out.extend(parse_assertions(f.read_text()))
    return out


def test_c01_published_power_index_table_reproduces():
    assert len(TABLE2) == 33
    for row in TABLE2:
        got = round(tpi(Fraction(row["p"])), 2)
        tolerance = 0.02 if row["p"] == "1.2e-1" else 0.01
        assert abs(got - row["tpi"]) <= tolerance + 1e-12, row


def test_c02_three_bit_trigger_worked_example():
    p = analytic_probability(3)
    assert p == Fraction(1, 8)
    assert float(p) == 0.125  # prints as 1.25e-1 exactly
    assert abs(tpi(p) - 0.903) <= 0.001


def test_c03_golden_csr_translation_is_structural_and_fast():
    target = parse_design(corpus.design_path("csr_unit").read_text())
    smap = SignalMap.load(corpus.golden_path("csr_map.json"), netlist=target)
    source = parse_assertion(corpus.golden_path("source_assertion.sva").read_text())
    want = parse_assertion(corpus.golden_path("ported_assertion.sva").read_text())
    started = time.perf_counter()
    out = translate(source, target, smap,
                    TranslationConfig(key=assertion_key(source, 0),
                                      generate_testcase=False))
    elapsed = time.perf_counter() - started
    assert out.translatable
    assert out.verdict.assertion == want
    assert elapsed < 1.0, f"translation took {elapsed:.3f} s"


def test_c04_interrupt_controller_classification_and_fanin():
    netlist = parse_design(corpus.golden_path("irq_ctrl.sv").read_text())
    graph = build_graph(netlist)
    direct = classify(graph, "handle_irq", "irq_enabled")
    assert direct.kind is Relation.DIRECT and direct.depth == 1
    indirect = classify(graph, "handle_irq", "csr_mstatus_mie_i")
    assert indirect.kind is Relation.INDIRECT and indirect.depth == 2
    oracle = oracles.reachable_from(netlist, "handle_irq")
    assert len(oracle) == 8
    assert fanin(graph, "handle_irq") == oracle


def test_c05_bundled_campaign_translates_and_detects_everything(campaign_run):
    assert campaign_run.config.jobs == 1
    rows = {r["module"]: r for r in campaign_run.metrics["modules"]}
    assert set(rows) == set(EXPECTED_SOURCE_COUNTS)
    planned = {job.name: job.trojans for job in campaign_run.config.modules}
    for module, source_count in EXPECTED_SOURCE_COUNTS.items():
        row = rows[module]
        assert row["source_assertions"] == source_count
        assert row["translated"] == source_count      # translation % = 100
        assert row["generated"] == planned[module]
        assert row["detected"] == row["generated"]
    assert sum(r["generated"] for r in rows.values()) == 33
    assert campaign_run.elapsed < 60.0, \
        f"pipeline took {campaign_run.elapsed:.1f} s"


def test_c06_removing_one_assertion_breaks_detection(campaign_run, tmp_path):
    control = tmp_path / "control"
    shutil.copytree(campaign_run.out_dir, control)
    spec = load_trojans(
        control / "debug_unit" / "trojans" / "debug_unit_t00.json")[0]
    target_name = spec.meta["target_assertion"]
    victims = [f for f in (control / "debug_unit" / "translated").glob("*.sva")
               if any(a.effective_name() == target_name
                      for a in parse_assertions(f.read_text()))]
    assert len(victims) == 1
    victims[0].unlink()
    rc = cli_main(["evaluate", "--config", str(corpus.campaign_path()),
                   "--out", str(control)])
    assert rc == 0
    raw = json.loads((control / "metrics.json").read_text())
    row = next(r for r in raw["modules"] if r["module"] == "debug_unit")
    assert row["detected"] < row["generated"]
    entry = next(t for t in raw["trojans"] if t["id"] == "debug_unit_t00")
    assert entry["detected"] is False


def test_c07_temporal_semantics_hold_on_1000_random_traces():
    overlapped = parse_assertion(
        "assert property (@(posedge clk) a |-> ##1 c);")
    nonoverlapped = parse_assertion(
        "assert property (@(posedge clk) a |=> c);")
    past_checks = [parse_assertion(
        f"assert property (@(posedge clk) b |-> $past(x, {d}) == xs{d});")
        for d in (1, 2, 3)]
    disabled = parse_assertion(
        "assert property (@(posedge clk) disable iff (d) a |-> c && b);")

    rng = random.Random(0x5EED)
    names = ("clk", "a", "b", "c", "d", "x", "xs1", "xs2", "xs3")
    widths = dict.fromkeys(names, 1) | {"x": 4, "xs1": 4, "xs2": 4, "xs3": 4}
    netlist = gen.netlist_of("rand", widths)
    traces = non_vacuous = 0
    for i in range(1000):
        n = rng.randint(8, 14)
        values = {"clk": [1] * n}
        for bit in ("a", "b", "c", "d"):
            values[bit] = [rng.randint(0, 1) for _ in range(n)]
        if i % 10 == 0:
            values["d"] = [1] * n  # every attempt suppressed
        values["x"] = [rng.randint(0, 15) for _ in range(n)]
        for depth in (1, 2, 3):
            values[f"xs{depth}"] = [0] * depth + values["x"][:-depth]
        trace = Trace(netlist=netlist, nets=names, values=values, cycles=n)
        traces += 1

        v_over = check_assertion(trace, overlapped)
        v_non = check_assertion(trace, nonoverlapped)
        assert v_over.statuses == v_non.statuses
        assert v_over.failures == v_non.failures

        for a in past_checks:
            verdict = check_assertion(trace, a)
            assert verdict.failure_count == 0, (i, a.effective_name())
            non_vacuous += verdict.non_vacuous_passes

        v_dis = check_assertion(trace, disabled)
        dis = values["d"]
        if i % 10 == 0:
            assert v_dis.failures == []
            assert all(s == "not_attempted" for s in v_dis.statuses)
        for failure in v_dis.failures:
            window = range(failure.attempt_cycle,
                           min(failure.fail_cycle, n - 1) + 1)
            assert not any(dis[t] for t in window), (i, failure)
    assert traces == 1000
    assert non_vacuous > 1000  # the $past oracle was exercised for real


def test_c08_every_forged_trojan_is_dormant_until_activated(campaign_run,
                                                            corpus_designs):
    rng = np.random.default_rng(88)
    cycles, want = 6, 1000
    for module in corpus.MODULES:
        clean = corpus_designs[module]
        clean_kernel = SimKernel(clean)
        assertions = _translated(campaign_run, module)
        inactive = {r.reset.net: 1 - r.reset.active_level
                    for r in clean.registers if r.reset is not None}
        input_nets = list(clean.inputs())
        for spec_path in _spec_paths(campaign_run, module):
            spec = load_trojans(spec_path)[0]
            dirty = parse_design(spec_path.with_suffix(".sv").read_text())
            dirty_kernel = SimKernel(dirty)
            assert all(clean.nets[c.signal].kind is NetKind.INPUT
                       for c in spec.trigger)
            trig = BatchExpr(trigger_expr(spec, clean), clean.width, {})

            # uniform random stimuli, kept only when the trigger never fires
            quiet = {n.name: [] for n in input_nets}
            collected = 0
            while collected < want:
                chunk = {
                    n.name: np.full((4000, cycles),
                                    inactive[n.name], dtype=np.uint64)
                    if n.name in inactive else
                    rng.integers(0, 1 << n.width, size=(4000, cycles),
                                 dtype=np.uint64)
                    for n in input_nets
                }
                fired = (trig(chunk) != 0).any(axis=1)
                for name, arr in chunk.items():
                    quiet[name].append(arr[~fired])
                collected += int((~fired).sum())
            stimuli = {n: np.concatenate(parts)[:want]
                       for n, parts in quiet.items()}

            clean_out = clean_kernel.run_batch(stimuli, cycles)
            dirty_out = dirty_kernel.run_batch(stimuli, cycles)
            for net in clean.nets:
                assert np.array_equal(clean_out[net], dirty_out[net]), \
                    (spec.id, net)

            # the stored activation makes the corruption visible and caught
            stim = load_stimulus(
                spec_path.with_name(f"{spec.id}.stim.json"), clean)
            clean_trace = clean_kernel.run(stim)
            dirty_trace = dirty_kernel.run(stim)
            assert any(clean_trace.values[n] != dirty_trace.values[n]
                       for n in clean.nets), spec.id
            verdicts = check_assertions(dirty_trace, assertions)
            assert any(v.failure_count >= 1 for v in verdicts), spec.id


def test_evaluate_slice_keeps_every_verdict(campaign_run, corpus_designs):
    # evaluate runs each trojan on a kernel sliced to the assertions' nets;
    # on the stored activation and on a long random stimulus, every verdict
    # equals the full kernel's
    rng = random.Random(23)
    for module in corpus.MODULES:
        assertions = _translated(campaign_run, module)
        for spec_path in _spec_paths(campaign_run, module):
            dirty = parse_design(spec_path.with_suffix(".sv").read_text())
            activation = load_stimulus(
                spec_path.with_name(f"{spec_path.stem}.stim.json"), dirty)
            noise = Stimulus.for_design(dirty, [
                {n.name: rng.randrange(1 << n.width) for n in dirty.inputs()}
                for _ in range(300)])
            for stim in (activation, noise):
                full = check_assertions(SimKernel(dirty).run(stim), assertions)
                sliced = _replay(dirty, stim, assertions)
                assert [(v.name, v.statuses, v.failures,
                         v.past_underflow_warnings) for v in sliced] == \
                    [(v.name, v.statuses, v.failures,
                      v.past_underflow_warnings) for v in full], spec_path.stem


def test_c09_probability_paths_agree(campaign_run, corpus_designs):
    graphs = {m: build_graph(d) for m, d in corpus_designs.items()}
    affordable = 0
    for module in corpus.MODULES:
        netlist, graph = corpus_designs[module], graphs[module]
        for spec_path in _spec_paths(campaign_run, module):
            spec = load_trojans(spec_path)[0]
            cone = input_cone(netlist, graph,
                              sorted({c.signal for c in spec.trigger}))
            if sum(netlist.width(n) for n in cone) > 16:
                continue
            affordable += 1
            assert brute_force_probability(netlist, spec, graph=graph) \
                == analytic_probability(spec)
    assert affordable == 28  # the five csr triggers reach 32-bit write data

    netlist, graph = corpus_designs["pmp_unit"], graphs["pmp_unit"]
    spec = load_trojans(
        campaign_run.module_dir("pmp_unit") / "trojans"
        / "pmp_unit_t01.json")[0]
    exact = brute_force_probability(netlist, spec, graph=graph)
    assert exact == analytic_probability(spec) == Fraction(1, 8)
    seeds = range(140, 200)
    covered = 0
    for seed in seeds:
        mc = monte_carlo_probability(netlist, spec, samples=100_000,
                                     seed=seed, graph=graph)
        covered += mc.low <= float(exact) <= mc.high
    assert covered / len(seeds) >= 0.95, f"{covered}/{len(seeds)} in interval"


def test_c10_evaluation_reports_are_byte_identical(campaign_run, tmp_path):
    rerun = tmp_path / "rerun"
    shutil.copytree(campaign_run.out_dir, rerun)
    argv = ["evaluate", "--config", str(corpus.campaign_path()),
            "--out", str(rerun)]

    def snapshot():
        return {p.name: p.read_bytes()
                for p in rerun.iterdir() if p.is_file()}

    assert cli_main(argv) == 0
    first = snapshot()
    assert cli_main(argv) == 0
    assert snapshot() == first
    assert first["metrics.json"] \
        == (campaign_run.out_dir / "metrics.json").read_bytes()
    assert first["report.txt"] \
        == (campaign_run.out_dir / "report.txt").read_bytes()


def test_c11_campaign_output_tree_is_byte_identical(campaign_run):
    out = campaign_run.out_dir
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    assert h.hexdigest() == CAMPAIGN_SHA256


def test_c12_port_output_tree_is_byte_identical(tmp_path):
    config = workloads.write_port(tmp_path / "inputs", 1)
    out = tmp_path / "out"
    for stage in ("translate", "inject", "evaluate"):
        assert cli_main([stage, "--config", str(config), "--out", str(out),
                         "--jobs", "1"]) == 0
    assert bench_checks.digest(out) == PORT_SHA256
