"""Trojan forging, injection, and activation-proof obligations."""

import json
import random

import shutil
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svaport import corpus, monitor, sim, trojan
from svaport import netlist as netlist_module
from svaport import search as search_module
from svaport.cli import main as cli_main
from svaport import expr as ex
from svaport.errors import (ActivationNotFoundError, CombinationalLoopError,
                            ConfigError, InsufficientSignalsError,
                            PayloadConflictError)
from svaport.monitor import Checker, check_assertions
from svaport.netlist import Assign, NetKind, Netlist, render_netlist
from svaport.rtl_parser import parse_design
from svaport.search import necessary_literals
from svaport.sim import BatchExpr, SimKernel, Stimulus
from svaport.sva import Assertion, SeqExpr, parse_assertions, signals_of
from svaport.trojan import (ForgeParams, TriggerCond, TrojanSpec,
                            activation_stimulus, forge, inject, load_trojans,
                            trigger_expr, validate_spec)

from . import gen
from .oracles import check_reference, simulate_fixpoint, trigger_holds

TOY_RTL = """\
module toy (
  input  logic       clk,
  input  logic [3:0] a_i,
  input  logic [3:0] b_i,
  input  logic       en_i,
  output logic [3:0] sum_o,
  output logic       flag_o
);
  logic [3:0] mix;
  assign mix = a_i ^ b_i;
  assign sum_o = en_i ? mix : 4'd0;
  assign flag_o = sum_o == 4'd15;
endmodule
"""

TOY_SVA = """\
A_SUM: assert property (@(posedge clk) en_i |-> sum_o == (a_i ^ b_i));
A_FLAG: assert property (@(posedge clk) a_i == b_i |-> flag_o == 0);
"""


@pytest.fixture(scope="module")
def toy():
    return parse_design(TOY_RTL)


@pytest.fixture(scope="module")
def toy_asserts():
    return parse_assertions(TOY_SVA)


@pytest.fixture(scope="module")
def forged(toy, toy_asserts):
    """(spec, activation) pairs."""
    return forge(toy, toy_asserts, ForgeParams(count=4, k_min=2, k_max=3,
                                               seed=11, horizon=8))


@pytest.fixture(scope="module")
def specs(forged):
    return [spec for spec, _ in forged]


def _spec(toy, **kw):
    base = dict(id="toy_t99", module="toy", module_kind="combinational",
                trigger=(TriggerCond("a_i", 0, 1), TriggerCond("en_i", None, 1)),
                k=2, payload_kind="invert_net", payload_net="sum_o")
    base.update(kw)
    return TrojanSpec(**base)


def _check(trace, assertions):
    """*assertions* compiled for the trace's netlist and checked over it."""
    return check_assertions(trace,
                            [Checker(a, trace.netlist) for a in assertions])


def clean_kernel(spec, netlist, checkers):
    """The clean design's kernel for an activation search of *spec*, kept
    to the nets its objective compares: the outputs, the payload net and
    every net of *checkers*."""
    keep = trojan._outputs(netlist) | {spec.payload_net}
    return SimKernel(netlist, keep=keep.union(*(c.nets for c in checkers)))


def test_validate_spec_rejects_malformed_records(toy):
    validate_spec(_spec(toy), toy)  # the baseline is fine
    cases = [
        (dict(module="other"), "not toy"),
        (dict(payload_kind="swap_bits"), "unknown payload kind"),
        (dict(trigger=(), k=0), "empty trigger"),
        (dict(trigger=(TriggerCond("ghost", 0, 1),), k=1), "not a net"),
        (dict(trigger=(TriggerCond("a_i", 4, 1),), k=1), "out of range"),
        (dict(trigger=(TriggerCond("a_i", None, 16),), k=4), "out of range"),
        (dict(trigger=(TriggerCond("a_i", 1, 1),
                       TriggerCond("a_i", 1, 0)), k=2), "duplicate"),
        # a whole-signal condition and a bit condition on one net, in
        # either order, and two whole-signal conditions
        (dict(trigger=(TriggerCond("a_i", None, 3),
                       TriggerCond("a_i", 0, 0)), k=5), "condition on a_i"),
        (dict(trigger=(TriggerCond("en_i", 0, 1),
                       TriggerCond("en_i", None, 1)), k=2),
         "condition on en_i"),
        (dict(trigger=(TriggerCond("b_i", None, 1),
                       TriggerCond("b_i", None, 1)), k=8), "condition on b_i"),
        (dict(k=5), "constrains 2 bits"),
        (dict(trigger=(TriggerCond("a_i", None, 3),), k=1), "constrains 4"),
        (dict(payload_kind="force_constant"), "needs a value"),
        (dict(payload_kind="force_constant", payload_value=16), "out of range"),
    ]
    for overrides, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            validate_spec(_spec(toy, **overrides), toy)


def test_a_trigger_condition_names_the_bits_it_constrains(toy):
    assert TriggerCond("a_i", None, 0b1010).bits(toy) == {
        ("a_i", 0): 0, ("a_i", 1): 1, ("a_i", 2): 0, ("a_i", 3): 1}
    assert TriggerCond("en_i", None, 1).bits(toy) == {("en_i", 0): 1}
    assert TriggerCond("a_i", 2, 1).bits(toy) == {("a_i", 2): 1}
    # k is the number of distinct bits: a_i's four and en_i's one
    validate_spec(_spec(toy, trigger=(TriggerCond("a_i", None, 3),
                                      TriggerCond("en_i", None, 1)), k=5), toy)
    # a bit condition inside a whole-signal one constrains its bit twice
    with pytest.raises(ConfigError, match="a bit is constrained twice"):
        validate_spec(_spec(toy, trigger=(TriggerCond("a_i", None, 3),
                                          TriggerCond("a_i", 2, 0)), k=5), toy)


def test_spec_files_round_trip(specs, tmp_path):
    path = tmp_path / "trojans.json"
    path.write_text(json.dumps([s.to_dict() for s in specs], indent=2))
    assert load_trojans(path) == specs
    # a single bare object is accepted too: the import format
    single = tmp_path / "one.json"
    single.write_text(json.dumps(specs[0].to_dict()))
    assert load_trojans(single) == [specs[0]]


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"id": "x", "module": "toy"}]))
    with pytest.raises(ConfigError, match="missing field"):
        load_trojans(path)


def test_inject_preserves_interface_and_original(toy):
    spec = _spec(toy)
    before = render_netlist(toy)
    out = inject(toy, spec)
    assert render_netlist(toy) == before
    assert out.name == toy.name
    assert out.ports == toy.ports
    assert {n: (d.kind, d.width) for n, d in out.nets.items()} \
        == {n: (d.kind, d.width) for n, d in toy.nets.items()}
    assert out.params == toy.params
    assert render_netlist(out) != before
    # only the payload net's driver changed
    changed = [a.lhs for a in out.assigns
               if a not in toy.assigns]
    assert changed == ["sum_o"]


def test_inject_can_rewrite_a_register_driver():
    csr = parse_design(corpus.design_path("csr_unit").read_text())
    reg = next(r.target for r in csr.registers)
    spec = TrojanSpec(id=f"{csr.name}_t99", module=csr.name,
                      module_kind="sequential",
                      trigger=(TriggerCond("csr_wdata_i", 0, 1),), k=1,
                      payload_kind="invert_net", payload_net=reg)
    out = inject(csr, spec)
    assert out.assigns == csr.assigns
    assert [r.target for r in out.registers] \
        == [r.target for r in csr.registers]
    assert out.registers != csr.registers


def test_inject_rejects_unrewritable_payloads(toy):
    with pytest.raises(PayloadConflictError, match="not a net"):
        inject(toy, _spec(toy, payload_net="ghost"))
    with pytest.raises(PayloadConflictError, match="input"):
        inject(toy, _spec(toy, payload_net="a_i"))


def test_inject_surfaces_trigger_loops(toy):
    # flag_o depends on mix, so guarding mix by flag_o closes a cycle
    spec = _spec(toy, trigger=(TriggerCond("flag_o", None, 0),), k=1,
                 payload_net="mix")
    with pytest.raises(CombinationalLoopError):
        inject(toy, spec)


def test_trigger_expr_agrees_with_the_oracle_trigger_check(toy, specs):
    rng = random.Random(3)
    stim = Stimulus.for_design(toy, [
        {"a_i": rng.randrange(16), "b_i": rng.randrange(16),
         "en_i": rng.randrange(2)} for _ in range(64)])
    for spec in specs:
        trig = BatchExpr(trigger_expr(spec, toy), toy.width, {})
        trace = SimKernel(inject(toy, spec)).run(stim)
        fired = trig(trace.arrays(trig.nets))[0]
        for t in range(trace.cycles):
            assert bool(fired[t]) == trigger_holds(spec, trace, t)


def test_forge_is_deterministic(toy, toy_asserts, forged):
    again = forge(toy, toy_asserts, ForgeParams(count=4, k_min=2, k_max=3,
                                                seed=11, horizon=8))
    assert again == forged
    other = forge(toy, toy_asserts, ForgeParams(count=4, k_min=2, k_max=3,
                                                seed=12, horizon=8))
    assert other != forged


def test_forge_honors_k_values(toy, toy_asserts):
    specs = [spec for spec, _ in forge(
        toy, toy_asserts,
        ForgeParams(count=3, k_values=(2, 4, 3), seed=5, horizon=8))]
    assert [s.k for s in specs] == [2, 4, 3]
    for s in specs:
        assert len({b for c in s.trigger for b in c.bits(toy)}) == s.k
    with pytest.raises(ConfigError, match="k_values"):
        forge(toy, toy_asserts, ForgeParams(count=2, k_values=(2,), seed=5))


@pytest.mark.parametrize("knobs, message", [
    ({"k_min": 3, "k_max": 2}, "need 1 <= k_min <= k_max, got [3, 2]"),
    ({"k_min": 3, "k_max": 1}, "need 1 <= k_min <= k_max, got [3, 1]"),
    ({"payloads": ()}, "payloads must name at least one kind"),
], ids=["empty_range", "reversed_range", "no_payloads"])
def test_forge_rejects_knobs_the_config_rejects(toy, toy_asserts, knobs,
                                                message):
    with pytest.raises(ConfigError) as err:
        forge(toy, toy_asserts, ForgeParams(count=2, seed=5, **knobs))
    assert str(err.value) == f"forge: {message}"


def test_forge_cycles_widths_and_targets(toy, toy_asserts, specs):
    assert [s.k for s in specs] == [2, 3, 2, 3]
    assert [s.meta["target_assertion"] for s in specs] \
        == ["A_SUM", "A_FLAG", "A_SUM", "A_FLAG"]
    assert [s.id for s in specs] == [f"toy_t{j:02d}" for j in range(4)]
    for s in specs:
        assert s.module_kind == "combinational"
        # the activation comes back beside the spec, not inside it
        assert s.meta == {"target_assertion": s.meta["target_assertion"],
                          "seed": 11}
        validate_spec(s, toy)


def test_forged_triggers_use_only_free_input_bits():
    irq = parse_design(corpus.design_path("irq_unit").read_text())
    asserts = parse_assertions(corpus.assertions_path("irq_unit").read_text())
    # the corpus assertions name source-side signals; forge on the ported set
    from svaport.translate import SignalMap, TranslationConfig, translate
    smap = SignalMap.load(corpus.signal_map_path("irq_unit"), netlist=irq)
    ported = [translate(a, irq, smap, TranslationConfig(
        key=a.effective_name() or str(i), generate_testcase=False)).verdict.assertion
        for i, a in enumerate(asserts)]
    forged = forge(irq, ported, ForgeParams(count=2, k_min=2, k_max=2, seed=9,
                                            horizon=8))
    banned = irq.clock_nets() | irq.reset_nets()
    for s, _ in forged:
        for c in s.trigger:
            assert irq.nets[c.signal].kind is NetKind.INPUT
            assert c.signal not in banned


def test_dormant_trojans_are_invisible(toy, specs):
    rng = random.Random(2024)
    nets = sorted(toy.nets)
    for spec in specs:
        dirty = inject(toy, spec)
        quiet = 0
        for _ in range(200):
            stim = Stimulus.for_design(toy, [
                {"a_i": rng.randrange(16), "b_i": rng.randrange(16),
                 "en_i": rng.randrange(2)} for _ in range(6)])
            dirty_trace = SimKernel(dirty).run(stim)
            if any(trigger_holds(spec, dirty_trace, t)
                   for t in range(dirty_trace.cycles)):
                continue
            quiet += 1
            clean_trace = SimKernel(toy).run(stim)
            for n in nets:
                assert clean_trace.values[n] == dirty_trace.values[n], spec.id
        assert quiet >= 10, f"{spec.id}: too few non-triggering stimuli"


def test_activation_replays_from_metadata(toy, toy_asserts, forged):
    by_name = {a.effective_name(): a for a in toy_asserts}
    for spec, stim in forged:
        dirty = SimKernel(inject(toy, spec)).run(stim)
        clean = SimKernel(toy).run(stim)
        assert any(clean.values[n] != dirty.values[n] for n in sorted(toy.nets))
        verdicts = {v.name: v for v in _check(dirty, toy_asserts)}
        target = spec.meta["target_assertion"]
        assert verdicts[target].failed
        assert not any(v.failed for n, v in verdicts.items() if n != target)
        clean_v = _check(clean, [by_name[target]])[0]
        assert not clean_v.failed


def test_activation_stimulus_search(toy, specs):
    spec = specs[0]
    stim = activation_stimulus(spec, toy, seed=4)
    dirty = SimKernel(inject(toy, spec)).run(stim)
    clean = SimKernel(toy).run(stim)
    assert any(trigger_holds(spec, dirty, t) for t in range(dirty.cycles))
    assert any(clean.values[n] != dirty.values[n] for n in sorted(toy.nets))


def test_unsatisfiable_trigger_exhausts_the_budget(toy):
    # en_i == 0 forces sum_o to 0, so sum_o == 15 (flag_o == 1) never holds
    # with it; the payload sits on flag_o, outside the trigger's fan-in
    spec = _spec(toy, trigger=(TriggerCond("en_i", None, 0),
                               TriggerCond("sum_o", None, 15)), k=5,
                 payload_net="flag_o")
    with pytest.raises(ActivationNotFoundError, match="within budget"):
        activation_stimulus(spec, toy, horizon=4, seed=1)


def test_forge_needs_assertions_and_trigger_bits(toy, toy_asserts):
    with pytest.raises(InsufficientSignalsError, match="without assertions"):
        forge(toy, [], ForgeParams(count=1))
    # toy's assertion cone offers 9 input bits in total
    with pytest.raises(InsufficientSignalsError, match="k=10"):
        forge(toy, toy_asserts, ForgeParams(count=1, k_values=(10,), seed=0))


def test_activation_builds_each_dependency_map_once(monkeypatch):
    built: list = []
    ordered: list = []
    read_edges = netlist_module._read_edges
    closure = netlist_module.combinational_closure

    def counting(nl):
        built.append(nl)
        return read_edges(nl)

    def counting_order(nl):
        ordered.append(nl)
        return closure(nl)

    monkeypatch.setattr(netlist_module, "_read_edges", counting)
    monkeypatch.setattr(netlist_module, "combinational_closure",
                        counting_order)
    clean = parse_design(TOY_RTL)
    spec = _spec(clean)
    trojan.activation_stimulus(spec, clean, 4)
    # the clean design's map and assign order are built by its parse, the
    # injected design's by inject; every kernel, cone and graph after that
    # reuses them
    assert len(built) == 2 and built[0] is clean
    assert render_netlist(built[1]) == render_netlist(inject(clean, spec))
    assert list(map(id, ordered)) == list(map(id, built))


def test_forge_compiles_once_per_netlist(toy, toy_asserts, monkeypatch):
    sources: list[str] = []
    compiled = sim._compiled

    def recording(source, name):
        sources.append(source)
        return compiled(source, name)

    monkeypatch.setattr(sim, "_compiled", recording)
    compiled.cache_clear()
    params = ForgeParams(count=4, k_min=2, k_max=3, seed=11, horizon=8)
    specs = forge(toy, toy_asserts, params)
    assert len(specs) == 4
    # one forge generates each source once: the checkers and the clean
    # kernel are built once, and each attempt's corrupted design is new
    assert compiled.cache_info().misses == len(set(sources)) == len(sources)
    # each distinct generated source compiles once, however many kernels
    # and expressions are built from it: forging again compiles nothing
    first = len(sources)
    assert forge(toy, toy_asserts, params) == specs
    assert sources == sources[:first] * 2
    assert compiled.cache_info().misses == first


def test_kernels_of_one_source_share_one_step_function(toy):
    assert SimKernel(toy)._fn is SimKernel(toy)._fn
    assert SimKernel(toy, {"sum_o"})._fn is not SimKernel(toy)._fn
    # the payload on sum_o cannot reach a kernel kept to a_i and b_i: the
    # corrupted design's kernel runs the clean design's step
    injected = inject(toy, _spec(toy))
    clean, dirty = (SimKernel(nl, keep={"a_i", "b_i"})
                    for nl in (toy, injected))
    assert dirty.netlist is injected and dirty._fn is clean._fn
    # the payload reaches flag_o: a kernel kept to it runs its own step
    assert (SimKernel(injected, keep={"flag_o"})._fn
            is not SimKernel(toy, keep={"flag_o"})._fn)


def test_forge_compiles_each_assertion_once(toy, toy_asserts, monkeypatch):
    compiled: list[str] = []
    compile_checker = monitor.Checker.__init__

    def counting_compile(self, assertion, netlist):
        compile_checker(self, assertion, netlist)
        compiled.append(assertion.effective_name())

    monkeypatch.setattr(monitor.Checker, "__init__", counting_compile)
    attempts: list[None] = []
    find = trojan._find_activation

    def counting_find(*args, **kwargs):
        attempts.append(None)
        return find(*args, **kwargs)

    monkeypatch.setattr(trojan, "_find_activation", counting_find)
    # seed 6 takes ten attempts for four trojans
    forge(toy, toy_asserts, ForgeParams(count=4, k_min=2, k_max=3, seed=6,
                                        horizon=8))
    assert len(attempts) == 10
    assert sorted(compiled) == ["A_FLAG", "A_SUM"]


def test_forge_tells_unlabeled_assertions_apart(toy):
    # two properties without labels share one effective name; each forged
    # activation must still fail its target alone
    unlabeled = parse_assertions(
        "\n".join(line.split(": ", 1)[1] for line in TOY_SVA.splitlines()))
    assert {a.effective_name() for a in unlabeled} == {"<anonymous>"}
    for seed in range(30):
        for j, (spec, stim) in enumerate(forge(toy, unlabeled, ForgeParams(
                count=2, k_min=2, k_max=3, seed=seed, horizon=8))):
            verdicts = _check(SimKernel(inject(toy, spec)).run(stim),
                              unlabeled)
            assert [v.failed for v in verdicts] == [j == 0, j == 1], seed


DEEP_RTL = """\
module deep (
  input  logic       clk,
  input  logic [7:0] x_i,
  input  logic [7:0] y_i,
  output logic       hit_o,
  output logic       ok_o
);
  assign hit_o = y_i == 8'd31;
  assign ok_o = !x_i[1];
endmodule
"""


def test_activation_search_decides_every_candidate_of_a_batch():
    # trigger x_i[0] == 0 is forced, so x_i[7:1] and y_i give 15 free bits,
    # x_i first.  Every row whose antecedent holds (x_i[1] == 0) also shows
    # the inverted ok_o, but the target fails only where hit_o is high
    # (y_i == 31): the first such row has about 2,000 differing rows
    # before it in the first batch.
    netlist = parse_design(DEEP_RTL)
    target = parse_assertions(
        "T: assert property (@(posedge clk) x_i[1] == 0 |-> ok_o || !hit_o);")[0]
    spec = TrojanSpec(id="deep_t00", module="deep",
                      module_kind="combinational",
                      trigger=(TriggerCond("x_i", 0, 0),), k=1,
                      payload_kind="invert_net", payload_net="ok_o")
    checkers = [Checker(target, netlist)]
    stim = trojan._find_activation(spec, clean_kernel(spec, netlist, checkers),
                                   checkers, 0, 4, np.random.default_rng(0))
    assert stim is not None
    assert {(c["x_i"], c["y_i"]) for c in stim.inputs} == {(0, 31)}
    dirty = _check(SimKernel(inject(netlist, spec)).run(stim), [target])
    clean = _check(SimKernel(netlist).run(stim), [target])
    assert dirty[0].failed and not clean[0].failed


def test_forge_runs_both_designs_on_every_candidate_of_a_batch(
        toy, toy_asserts, monkeypatch):
    calls: list[tuple[sim.SimKernel, dict]] = []
    run_batch = sim.SimKernel.run_batch

    def counting_run_batch(self, inputs, cycles):
        calls.append((self, inputs))
        return run_batch(self, inputs, cycles)

    built: list[sim.SimKernel] = []
    build = sim.SimKernel.__init__

    def counting_build(self, *args, **kwargs):
        built.append(self)
        build(self, *args, **kwargs)

    attempts: list[tuple[TrojanSpec, int, int, int]] = []
    find = trojan._find_activation

    def tracking_find(spec, clean, checkers, target, *args, **kwargs):
        attempts.append((spec, target, len(calls), len(built)))
        return find(spec, clean, checkers, target, *args, **kwargs)

    monkeypatch.setattr(sim.SimKernel, "run_batch", counting_run_batch)
    monkeypatch.setattr(sim.SimKernel, "__init__", counting_build)
    monkeypatch.setattr(trojan, "_find_activation", tracking_find)
    horizon = 8
    # A_PAR reads flag_o and sum_o, and flag_o is computed from sum_o, so
    # a trojan on sum_o never fails it; the pre-filter cannot prove that
    asserts = toy_asserts + parse_assertions(
        "A_PAR: assert property (@(posedge clk) "
        "en_i |-> flag_o == (sum_o == 4'd15));")
    # seed 6 takes twelve attempts for three trojans: four hold en_i low
    # against A_PAR's antecedent en_i and one forces flag_o to 0 against
    # A_FLAG's consequent, and these five run nothing; the others run 448
    # candidates in 7 batches.  None varies clk, the clock the assertions
    # sample, which no logic of the toy reads
    forge(toy, asserts, ForgeParams(count=3, k_min=2, k_max=3, seed=6,
                                    horizon=horizon))
    # the call builds one clean kernel, before its first attempt
    clean = built[0]
    assert clean.netlist is toy and attempts[0][3] == 1
    ends = [(start, made) for _, _, start, made in attempts[1:]]
    ends.append((len(calls), len(built)))
    candidates = batches = skipped = 0
    for (spec, target, start, made), (end, made_end) in zip(attempts, ends):
        assertion = asserts[target]
        term = assertion.antecedent.steps[0][1]
        # both runs keep exactly the objective's nets: the outputs, the
        # payload net, every assertion's nets and clock
        objective_nets = {"sum_o", "flag_o", spec.payload_net}.union(
            *(signals_of(a) | {a.clock} for a in asserts))
        runs = calls[start:end]
        # the toy is combinational, every net is an assign and every
        # target is ante |-> cons, so an attempt runs no batch exactly
        # when a trigger bit contradicts a bit the term needs, or when no
        # cycle can fire the trigger and fail the target
        injected = inject(toy, spec)
        needed = necessary_literals(term, injected)
        [(_, cons)] = assertion.consequent.steps
        hopeless = needed is None or any(
            needed.get((c.signal, c.bit), c.value) != c.value
            for c in spec.trigger) or necessary_literals(ex.conjoin(
                [trigger_expr(spec, toy), term, ex.Unary("!", cons)]),
                injected) is None
        assert (not runs) == hopeless, spec.trigger
        if hopeless:
            skipped += 1
            assert made_end == made
            continue
        # a searched attempt builds one kernel, the corrupted design's
        [dirty] = built[made:made_end]
        assert dirty.netlist is not toy
        assert set(dirty.net_order) == set(clean.net_order) == objective_nets
        # every batch runs the corrupted design, then the clean one on the
        # same candidates
        assert len(runs) % 2 == 0
        for (first, inputs), (second, again) in zip(runs[::2], runs[1::2]):
            assert first is dirty and second is clean and again is inputs
            candidates += len(_rows(inputs))
            batches += 1
    assert (candidates, batches, skipped) == (448, 7, 5)


def test_search_reads_the_corrupted_design_where_the_payload_reaches_it(
        toy, monkeypatch):
    # forcing sum_o to 15 raises flag_o, which the target's antecedent
    # reads: only in the corrupted design can flag_o hold while en_i is
    # low, so the search must be given the corrupted design, not the clean
    # one
    target = parse_assertions(
        "T: assert property (@(posedge clk) flag_o |-> en_i);")[0]
    spec = _spec(toy, trigger=(TriggerCond("en_i", None, 0),), k=1,
                 payload_kind="force_constant", payload_value=15)
    searched: list[Netlist] = []
    search = trojan.search_stimulus

    def recording_search(inputs, forced, accept, rng, horizon, netlist,
                         plans):
        searched.append(netlist)
        return search(inputs, forced, accept, rng, horizon, netlist, plans)

    monkeypatch.setattr(trojan, "search_stimulus", recording_search)
    checkers = [Checker(target, toy)]
    stim = trojan._find_activation(spec, clean_kernel(spec, toy, checkers),
                                   checkers, 0, 4, np.random.default_rng(0))
    assert stim is not None
    [netlist] = searched
    assert render_netlist(netlist) == render_netlist(inject(toy, spec))
    assert _check(SimKernel(inject(toy, spec)).run(stim),
                  [target])[0].failed
    assert not _check(SimKernel(toy).run(stim), [target])[0].failed


def test_activation_drives_a_sampled_clock_that_the_trigger_reads(toy):
    # on a combinational design the clock the checkers sample is an input
    # like any other: with a trigger on it, the search must vary it
    spec = _spec(toy, trigger=(TriggerCond("clk", None, 1),), k=1)
    target = parse_assertions(TOY_SVA)[:1]
    checkers = [Checker(target[0], toy)]
    stim = trojan._find_activation(spec, clean_kernel(spec, toy, checkers),
                                   checkers, 0, 4, np.random.default_rng(0))
    assert stim is not None
    assert _meets_by_oracle(toy, spec, target, 0, stim)


GATED_RESET_RTL = """\
module gated (
  input  logic clk,
  input  logic rst_ni,
  input  logic hold_i,
  input  logic d_i,
  output logic q_o
);
  logic rst_q;
  assign rst_q = rst_ni & hold_i;
  always_ff @(posedge clk) begin
    if (!rst_q) q_o <= 1'b0;
    else q_o <= d_i;
  end
endmodule
"""


def test_activation_drives_the_inputs_of_a_logic_driven_reset():
    # q_o's reset net rst_q is driven by logic of two inputs, which reach
    # q_o only through that reset.  Left at their idle level 0 they hold
    # q_o in reset for the whole run, where no trojan on it shows: the
    # search must vary them
    netlist = parse_design(GATED_RESET_RTL)
    spec = TrojanSpec(id="gated_t00", module="gated",
                      module_kind="sequential",
                      trigger=(TriggerCond("d_i", None, 1),), k=1,
                      payload_kind="invert_net", payload_net="q_o")
    stim = activation_stimulus(spec, netlist, 8)
    clean = simulate_fixpoint(netlist, stim)
    dirty = simulate_fixpoint(inject(netlist, spec), stim)
    assert clean.values["q_o"] != dirty.values["q_o"]


# --------------------------------------------------------------------------
# the pre-filter of forge attempts


def _record_skips(monkeypatch) -> list[tuple[tuple, dict]]:
    """Record the arguments of every ``_find_activation`` call that the
    pre-filter skips."""
    calls: list[tuple[tuple, dict]] = []
    find = trojan._find_activation

    def recording(*args, skipped, **kwargs):
        before = skipped.total()
        stim = find(*args, skipped=skipped, **kwargs)
        if skipped.total() > before:
            assert stim is None
            calls.append((args, kwargs))
        return stim

    monkeypatch.setattr(trojan, "_find_activation", recording)
    return calls


_FIND_ACTIVATION = trojan._find_activation  # before any test wraps it


def _unfiltered_find(*args, **kwargs):
    """``_find_activation`` without the pre-filter, its search sampling
    every schedule."""
    with mock.patch.object(trojan, "_hopeless", lambda *_: None), \
            mock.patch.object(trojan, "ruled_out", lambda *_: None):
        return _FIND_ACTIVATION(*args, **kwargs)


def test_campaign_attempts_the_prefilter_skips_find_nothing_unfiltered(
        campaign_run, tmp_path, monkeypatch):
    out = tmp_path / "out"
    shutil.copytree(campaign_run.out_dir, out)
    calls = _record_skips(monkeypatch)
    assert cli_main(["inject", "--config", str(corpus.campaign_path()),
                     "--out", str(out)]) == 0
    for args, kwargs in calls:
        assert _unfiltered_find(*args, **kwargs) is None, args[0]
    assert Counter(args[0].id for args, _ in calls) == {
        "pmp_unit_t01": 8, "debug_unit_t02": 3, "cf_unit_t02": 3,
        "csr_unit_t02": 2, "pmp_unit_t05": 1, "cf_unit_t05": 1}


WARM_RTL = """\
module warm (
  input  logic clk,
  input  logic en_i,
  input  logic d_i,
  output logic y_o,
  output logic q_o
);
  assign y_o = d_i;
  always_ff @(posedge clk) q_o <= d_i;
endmodule
"""


def test_prefilter_keeps_attempts_the_warm_up_can_activate():
    # the antecedent needs en_i low and the trigger holds it high: on a
    # design with registers the flipped-prefix warm-up holds it low, and
    # the trigger fires once the warm-up ends
    netlist = parse_design(WARM_RTL)
    spec = TrojanSpec(id="warm_t00", module="warm",
                      module_kind="sequential",
                      trigger=(TriggerCond("en_i", 0, 1),), k=1,
                      payload_kind="invert_net", payload_net="y_o")
    target = parse_assertions(
        "W: assert property (@(posedge clk) !en_i |-> ##4 y_o == d_i);")
    skipped: Counter[str] = Counter()
    checkers = [Checker(target[0], netlist)]
    stim = trojan._find_activation(spec, clean_kernel(spec, netlist, checkers),
                                   checkers, 0, 8, np.random.default_rng(0),
                                   skipped=skipped)
    assert stim is not None and not skipped
    assert [c["en_i"] for c in stim.inputs] == [0] * 4 + [1] * 4
    # the term also needs d_i high: the search forces that literal with the
    # trigger, and the warm-up flips only the trigger's bits, so the
    # activation holds d_i high throughout
    target = parse_assertions(
        "W: assert property (@(posedge clk) !en_i && d_i |-> ##4 y_o == d_i);")
    checkers = [Checker(target[0], netlist)]
    stim = trojan._find_activation(spec, clean_kernel(spec, netlist, checkers),
                                   checkers, 0, 8, np.random.default_rng(0),
                                   skipped=skipped)
    assert stim is not None and not skipped
    assert [(c["en_i"], c["d_i"]) for c in stim.inputs] == \
        [(0, 1)] * 4 + [(1, 1)] * 4
    # with d_i also in the trigger and needed high, the warm-up holds it
    # low: no cycle can meet the antecedent, and the attempt is skipped
    spec = replace(spec, trigger=(TriggerCond("d_i", 0, 1),
                                  TriggerCond("en_i", 0, 1)), k=2)
    target = parse_assertions(
        "W: assert property (@(posedge clk) !en_i && d_i |-> ##4 y_o == d_i);")
    checkers = [Checker(target[0], netlist)]
    clean = clean_kernel(spec, netlist, checkers)
    assert trojan._find_activation(spec, clean, checkers, 0, 8,
                                   np.random.default_rng(0),
                                   skipped=skipped) is None
    assert skipped == {"no candidate meets the target's first antecedent "
                       "term (a forced bit contradicts a bit it needs)": 1}
    assert _unfiltered_find(spec, clean, checkers, 0, 8,
                            np.random.default_rng(0)) is None


def test_a_searched_attempt_rules_out_each_schedule_once(monkeypatch):
    # forge alone decides which schedules an attempt's search tries: the
    # search asks ``ruled_out`` nothing again.  The term needs no input
    # bit, so both schedules are searched; the search refuses every
    # witness, so it walks both
    netlist = parse_design(WARM_RTL)
    spec = TrojanSpec(id="warm_t00", module="warm",
                      module_kind="sequential",
                      trigger=(TriggerCond("en_i", 0, 1),), k=1,
                      payload_kind="invert_net", payload_net="y_o")
    target = parse_assertions(
        "W: assert property (@(posedge clk) en_i || !en_i |-> ##4 "
        "y_o == d_i);")
    asked: list[str] = []
    rule = search_module.ruled_out

    def counting(need, schedule, forced):
        asked.append(schedule.name)
        return rule(need, schedule, forced)

    monkeypatch.setattr(trojan, "ruled_out", counting)
    monkeypatch.setattr(search_module, "ruled_out", counting)
    searched: list = []
    find = trojan.search_stimulus

    def refusing(inputs, forced, accept, *rest, **kwargs):
        searched.append(find(inputs, forced,
                             lambda batch: accept(batch) & False,
                             *rest, **kwargs))
        return searched[-1]

    monkeypatch.setattr(trojan, "search_stimulus", refusing)
    skipped: Counter[str] = Counter()
    checkers = [Checker(target[0], netlist)]
    assert trojan._find_activation(spec,
                                   clean_kernel(spec, netlist, checkers),
                                   checkers, 0, 8, np.random.default_rng(0),
                                   skipped=skipped) is None
    # en_i is forced, so each schedule has the two values of d_i
    [(_, stats)] = searched
    assert not skipped and stats.candidates == 2 * 2
    assert asked == ["constant", "flipped_prefix"]


@pytest.mark.parametrize("horizon", range(2, 7))
def test_the_warm_up_leaves_the_vector_the_last_cycle(horizon):
    # the antecedent needs en_i low and the trigger holds it high, so only
    # the warm-up meets the term and only the cycles after it fire the
    # trigger: a warm-up as long as the stimulus would never fire it
    netlist = parse_design(WARM_RTL)
    spec = TrojanSpec(id="warm_t00", module="warm",
                      module_kind="sequential",
                      trigger=(TriggerCond("en_i", 0, 1),), k=1,
                      payload_kind="invert_net", payload_net="y_o")
    target = parse_assertions(
        "W: assert property (@(posedge clk) !en_i |=> y_o == d_i);")
    checkers = [Checker(target[0], netlist)]
    stim = trojan._find_activation(spec, clean_kernel(spec, netlist, checkers),
                                   checkers, 0, horizon,
                                   np.random.default_rng(0))
    assert stim is not None
    warm = min(4, horizon - 1)
    assert [c["en_i"] for c in stim.inputs] == \
        [0] * warm + [1] * (horizon - warm)
    assert _meets_by_oracle(netlist, spec, target, 0, stim)


CLASH_RTL = """\
module clash (
  input  logic        clk,
  input  logic        en_i,
  input  logic [15:0] addr_i,
  input  logic [23:0] d_i,
  output logic [23:0] y_o,
  output logic [23:0] q_o
);
  assign y_o = d_i;
  always_ff @(posedge clk) q_o <= d_i;
endmodule
"""


def test_a_clashing_trigger_searches_only_the_warm_up_that_holds_the_term(
        monkeypatch):
    # the antecedent needs en_i low and addr_i == 16'hbeef; the trigger
    # holds en_i high, so no candidate meets the term from cycle 0.  The
    # search forces addr_i with the trigger and flips only the trigger's
    # bits for the warm-up, which then holds the whole term
    netlist = parse_design(CLASH_RTL)
    spec = TrojanSpec(id="clash_t00", module="clash",
                      module_kind="sequential",
                      trigger=(TriggerCond("d_i", 3, 1),
                               TriggerCond("en_i", 0, 1)), k=2,
                      payload_kind="invert_net", payload_net="y_o")
    target = parse_assertions(
        "C: assert property (@(posedge clk) "
        "!en_i && addr_i == 16'hbeef |=> y_o == d_i);")
    batches: list[dict[str, np.ndarray]] = []
    results: list[tuple] = []
    search = trojan.search_stimulus

    def recording_search(inputs, forced, accept, *args, **kwargs):
        def recorded(batch):
            batches.append(batch)
            return accept(batch)
        results.append(search(inputs, forced, recorded, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(trojan, "search_stimulus", recording_search)
    horizon = 8
    checkers = [Checker(target[0], netlist)]
    stim = trojan._find_activation(spec, clean_kernel(spec, netlist, checkers),
                                   checkers, 0, horizon,
                                   np.random.default_rng(0))
    [(found, stats)] = results
    assert stim is not None and found is stim
    assert _meets_by_oracle(netlist, spec, target, 0, stim)
    # the witness comes from the first batch, of the flipped-prefix
    # schedule: no constant batch is simulated
    assert (stats.candidates, stats.schedule, stats.space, stats.forced) \
        == (256, "flipped_prefix", "sampled", 18)
    [batch] = batches
    assert batch["en_i"].shape == (256, horizon)
    assert (batch["en_i"] == [0] * 4 + [1] * 4).all()
    assert ((batch["d_i"][:, :4] >> 3 & 1) == 0).all()
    assert ((batch["d_i"][:, 4:] >> 3 & 1) == 1).all()
    # every candidate holds the needed bits the trigger does not contradict
    assert batch["addr_i"].shape == (256, horizon)
    assert (batch["addr_i"] == 0xbeef).all()


@st.composite
def _clashing_cases(draw):
    """An activation case whose target's first antecedent term needs some
    of the trigger's bits, the first one inverted and the others either
    way, besides a random comparison."""
    netlist, spec, assertions, _ = draw(_activation_cases())
    conds = draw(st.permutations(spec.trigger))[:draw(
        st.integers(1, len(spec.trigger)))]
    values = [1 - conds[0].value] + [draw(st.integers(0, 1))
                                     for _ in conds[1:]]
    parts: list[ex.Expr] = [
        ex.Binary("==", ex.Select(c.signal, c.bit, c.bit), ex.Const(v, 1))
        for c, v in zip(conds, values)]
    symbols = {n: netlist.width(n) for n in netlist.nets if n != "clk"}
    if draw(st.booleans()):
        parts.append(draw(gen.comparisons(symbols)))
    check = draw(gen.expressions(symbols, max_depth=1))
    target = draw(st.integers(0, len(assertions)))
    assertions.insert(target, Assertion(
        SeqExpr(((0, ex.conjoin(parts)),)), "|->", SeqExpr(((0, check),)),
        "clk"))
    return netlist, spec, assertions, target


@settings(max_examples=30)
@given(_clashing_cases(), st.integers(0, 2 ** 32 - 1))
def test_generated_attempts_the_prefilter_skips_find_nothing_unfiltered(
        case, seed):
    netlist, spec, assertions, target = case
    checkers = [Checker(a, netlist) for a in assertions]
    skipped: Counter[str] = Counter()
    args = (spec, clean_kernel(spec, netlist, checkers), checkers, target, 6)
    stim = trojan._find_activation(*args, np.random.default_rng(seed),
                                   skipped=skipped)
    assume(skipped)
    assert stim is None
    assert _unfiltered_find(*args, np.random.default_rng(seed)) is None


_PROOF_BITS = 12  # few enough input bits for the oracles to try every vector


@st.composite
def _single_cycle_cases(draw):
    """A combinational generated design with at most _PROOF_BITS input
    bits, a trigger on its input bits, a payload on an assign-driven net,
    and a target ``ante |-> cons`` whose consequent most often compares
    the payload net, or a select of it, with a constant, as its
    antecedent may."""
    netlist = draw(gen.designs(max_inputs=3, max_registers=0))
    bits = [(n.name, b) for n in netlist.inputs() if n.name != "clk"
            for b in range(n.width)]
    assume(len(bits) <= _PROOF_BITS)
    picks = draw(st.lists(st.sampled_from(bits), min_size=1, max_size=3,
                          unique=True))
    trigger = tuple(TriggerCond(name, bit, draw(st.integers(0, 1)))
                    for name, bit in sorted(picks))
    net = draw(st.sampled_from([a.lhs for a in netlist.assigns]))
    width = netlist.width(net)
    kind = draw(st.sampled_from(trojan.PAYLOAD_KINDS))
    value = (draw(st.integers(0, (1 << width) - 1))
             if kind == "force_constant" else None)
    spec = TrojanSpec(id="rand_t00", module=netlist.name,
                      module_kind="combinational", trigger=trigger,
                      k=len(trigger), payload_kind=kind, payload_net=net,
                      payload_value=value)
    symbols = {n: netlist.width(n) for n in netlist.nets if n != "clk"}
    lsb = draw(st.integers(0, width - 1))
    msb = draw(st.integers(lsb, width - 1))
    seen = draw(st.sampled_from([ex.Ident(net), ex.Select(net, msb, lsb)]))
    span = ex.width_of(seen, netlist.width)
    compared = st.builds(ex.Binary, st.sampled_from(["==", "!="]),
                         st.just(seen),
                         st.builds(ex.Const, st.integers(0, (1 << span) - 1),
                                   st.just(span)))
    cons = draw(st.one_of(compared, gen.expressions(symbols, max_depth=1)))
    ante = draw(st.one_of(compared, gen.comparisons(symbols),
                          gen.expressions(symbols, max_depth=1)))
    disable = draw(st.none() | gen.expressions(symbols, max_depth=1))
    target = Assertion(SeqExpr(((0, ante),)), "|->", SeqExpr(((0, cons),)),
                       "clk", disable=disable)
    return netlist, spec, target


@given(_single_cycle_cases())
def test_attempts_the_prefilter_skips_never_fire_the_trigger_and_fail(case):
    # every input vector is one cycle of a stimulus: the design is
    # combinational and the target reads no $past, so cycles are
    # independent, and each is decided by the reference simulator and
    # checker
    netlist, spec, target = case
    skipped: Counter[str] = Counter()
    checkers = [Checker(target, netlist)]
    assert trojan._find_activation(
        spec, clean_kernel(spec, netlist, checkers), checkers, 0, 4,
        np.random.default_rng(0), skipped=skipped) is None or not skipped
    assume(skipped)
    names = [n.name for n in netlist.inputs()]
    offsets = np.cumsum([0] + [netlist.width(n) for n in names])
    rows = [{n: code >> int(lo) & ex.mask(netlist.width(n))
             for n, lo in zip(names, offsets)}
            for code in range(1 << int(offsets[-1]))]
    injected = inject(netlist, spec)
    trace = simulate_fixpoint(injected, Stimulus.for_design(injected, rows))
    _, failures = check_reference(trace, target)
    assert not any(trigger_holds(spec, trace, t) for t, _ in failures)


NEG_RTL = """\
module neg (
  input  logic clk,
  input  logic d_i,
  output logic tog_o,
  output logic p_o,
  output logic q_o
);
  assign p_o = d_i;
  always_ff @(posedge clk) tog_o <= !tog_o;
  always_ff @(posedge clk) q_o <= p_o;
endmodule
"""


@pytest.mark.parametrize("prop", [
    # q_o, a register the target reads, holds the payload a cycle on
    "!p_o |-> !q_o",
    # the consequent is read a cycle after the antecedent
    "p_o |-> ##1 p_o",
    # the disable expression reads the cycle before
    "disable iff (!$past(p_o)) 1'b1 |-> p_o",
], ids=["register", "delay", "past_disable"])
def test_prefilter_searches_targets_that_see_the_payload_later(prop):
    # the trigger fires every other cycle and forces p_o high then: in no
    # cycle can it fire while p_o is low, so trigger && ante && !cons is a
    # contradiction.  Yet each target sees the payload in a later cycle,
    # when the trigger no longer fires, and fails there on the corrupted
    # design alone: the attempt must be searched, and it is activated
    netlist = parse_design(NEG_RTL)
    spec = TrojanSpec(id="neg_t00", module="neg", module_kind="sequential",
                      trigger=(TriggerCond("tog_o", None, 1),), k=1,
                      payload_kind="force_constant", payload_net="p_o",
                      payload_value=1)
    text = f"N: assert property (@(posedge clk) {prop});"
    if "$past" in prop:
        # the parser keeps $past out of disable expressions
        base = parse_assertions(text.replace("!$past(p_o)", "!p_o"))[0]
        target = replace(base, disable=ex.Unary("!", ex.Past(ex.Ident("p_o"))))
    else:
        target = parse_assertions(text)[0]
    (_, ante), *_ = target.antecedent.steps
    (_, cons), *_ = target.consequent.steps
    assert necessary_literals(ex.conjoin(
        [trigger_expr(spec, netlist), ante, ex.Unary("!", cons)]),
        inject(netlist, spec)) is None
    skipped: Counter[str] = Counter()
    checkers = [Checker(target, netlist)]
    stim = trojan._find_activation(spec, clean_kernel(spec, netlist, checkers),
                                   checkers, 0, 6, np.random.default_rng(0),
                                   skipped=skipped)
    assert not skipped and stim is not None
    assert _meets_by_oracle(netlist, spec, [target], 0, stim)


GATE_RTL = """\
module gate (
  input  logic       clk,
  input  logic       en_i,
  input  logic [1:0] d_i,
  output logic [1:0] q_o
);
  assign q_o = d_i;
endmodule
"""


_FIRST_TERM = "no candidate meets the target's first antecedent term ({})"


@pytest.mark.parametrize("antecedent, reason", [
    ("en_i", _FIRST_TERM.format("a forced bit contradicts a bit it needs")),
    ("en_i && !en_i",
     _FIRST_TERM.format("its requirements contradict each other")),
    ("q_o == 2'd0", "the target sees the payload only in the cycle the "
     "trigger fires, and no cycle can fire the trigger and fail the target"),
], ids=["en_i-a forced bit contradicts a bit it needs",
        "en_i && !en_i-its requirements contradict each other",
        "q_o == 2'd0-no cycle can fire the trigger and fail the target"])
def test_activation_error_names_the_skipped_attempts(antecedent, reason,
                                                    monkeypatch):
    # the target never fails, so every attempt fails.  Skipped are those
    # whose trigger holds en_i low (or all, when the term can never
    # hold); or, for q_o == 0, those whose payload makes q_o nonzero
    # whenever the trigger fires: an inverted q_o whose trigger holds a
    # d_i bit low, and a forced q_o other than 0
    netlist = parse_design(GATE_RTL)
    target = parse_assertions(
        f"G: assert property (@(posedge clk) {antecedent} |-> q_o == q_o);")
    calls = _record_skips(monkeypatch)
    with pytest.raises(ActivationNotFoundError) as info:
        forge(netlist, target, ForgeParams(count=1, k_min=1, k_max=1,
                                           seed=3, tries=8))
    assert 0 < len(calls) <= 8
    assert str(info.value) == (
        f"no viable trojan 0 for gate after 8 attempts; {len(calls)} "
        f"skipped unsearched, since {reason}")


_TERM_CLASH = _FIRST_TERM.format("a forced bit contradicts a bit it needs")
_SINGLE_CYCLE = ("the target sees the payload only in the cycle the trigger "
                 "fires, and no cycle can fire the trigger and fail the "
                 "target")


def test_campaign_forge_accounting(campaign_run, tmp_path, monkeypatch):
    # every attempt of the bundled campaign's forge: whether it found an
    # activation, and why the pre-filter skipped it if it did; and the
    # kernels inject builds and the row-cycles its batches step, work
    # counts that do not drift with machine load as timings do
    out = tmp_path / "out"
    shutil.copytree(campaign_run.out_dir, out)
    attempts: list[tuple[str, bool, Counter[str]]] = []
    find = trojan._find_activation

    def recording(spec, *args, skipped, **kwargs):
        before = skipped.copy()
        stim = find(spec, *args, skipped=skipped, **kwargs)
        attempts.append((spec.id, stim is not None, skipped - before))
        return stim

    work = Counter()
    build, run_batch = sim.SimKernel.__init__, sim.SimKernel.run_batch

    def counting_build(self, *args, **kwargs):
        work["kernels"] += 1
        build(self, *args, **kwargs)

    def counting_run_batch(self, inputs, cycles):
        out = run_batch(self, inputs, cycles)
        work["row_cycles"] += next(iter(out.values())).size
        return out

    monkeypatch.setattr(trojan, "_find_activation", recording)
    monkeypatch.setattr(sim.SimKernel, "__init__", counting_build)
    monkeypatch.setattr(sim.SimKernel, "run_batch", counting_run_batch)
    assert cli_main(["inject", "--config", str(corpus.campaign_path()),
                     "--out", str(out)]) == 0
    assert len(attempts) == 53
    assert sum(found for _, found, _ in attempts) == 33
    assert sum((why for _, _, why in attempts), Counter()) == {
        _TERM_CLASH: 11, _SINGLE_CYCLE: 7}
    assert Counter(tid for tid, _, why in attempts if why) == {
        "pmp_unit_t01": 8, "debug_unit_t02": 3, "cf_unit_t02": 3,
        "csr_unit_t02": 2, "pmp_unit_t05": 1, "cf_unit_t05": 1}
    # searched in vain: the target never fails on the corrupted design
    # (cf_unit_t06), or another assertion fails with it (cf_unit_t02)
    assert sorted(tid for tid, found, why in attempts
                  if not found and not why) == ["cf_unit_t02", "cf_unit_t06"]
    # each of the five forge calls builds its clean kernel once, and each
    # of the 35 searched attempts its corrupted kernel; each batch steps
    # every candidate on both
    assert work == {"kernels": 40, "row_cycles": 134_328}


def _rows(inputs: dict[str, np.ndarray]) -> list[dict[str, int]]:
    """The candidate rows of a batch of inputs that hold their values in
    every cycle."""
    names = sorted(inputs)
    assert all((inputs[n] == inputs[n][:, :1]).all() for n in names)
    return [dict(zip(names, row))
            for row in zip(*(inputs[n][:, 0].tolist() for n in names))]


# --------------------------------------------------------------------------
# the activation search against the oracles

_FREE_BITS = 10  # small enough for the oracle to try every candidate


@st.composite
def _activation_cases(draw):
    """A generated design and assertions, a trigger on input bits, a payload
    on a driven net, and a target when there are assertions; at most
    _FREE_BITS input bits are left free.  Some targets clash with the
    trigger, so that only a warm-up can meet them."""
    netlist = draw(gen.designs(max_inputs=3))
    off = netlist.clock_nets() | netlist.reset_nets()
    bits = [(n.name, b) for n in netlist.inputs() if n.name not in off
            for b in range(n.width)]
    picks = draw(st.lists(st.sampled_from(bits), min_size=1, max_size=3,
                          unique=True))
    assume(len(bits) - len(picks) <= _FREE_BITS)
    trigger = tuple(TriggerCond(name, bit, draw(st.integers(0, 1)))
                    for name, bit in sorted(picks))
    driven = sorted(n for n in netlist.nets
                    if netlist.driver_of(n) is not None)
    net = draw(st.sampled_from(driven))
    kind = draw(st.sampled_from(trojan.PAYLOAD_KINDS))
    value = (draw(st.integers(0, (1 << netlist.width(net)) - 1))
             if kind == "force_constant" else None)
    spec = TrojanSpec(id="rand_t00", module=netlist.name,
                      module_kind="sequential" if netlist.registers
                      else "combinational",
                      trigger=trigger, k=len(trigger), payload_kind=kind,
                      payload_net=net, payload_value=value)
    symbols = {n: netlist.width(n) for n in netlist.nets if n != "clk"}
    assertions = draw(st.lists(gen.assertions(symbols), max_size=2))
    target = draw(st.integers(0, len(assertions) - 1)) if assertions else None
    driver = netlist.driver_of(net)
    if not isinstance(driver, Assign):
        return netlist, spec, assertions, target
    check = ex.Binary("==", ex.Ident(net), driver.rhs)
    if netlist.registers and draw(st.booleans()):
        # the target alone, clashing with the trigger so that only the
        # warm-up of flipped_prefix can meet it: its antecedent compares
        # the widest trigger input with a constant, every trigger bit
        # that comparison needs is inverted against it, and its
        # consequent looks 1-5 cycles later, when the trigger may fire
        name = max((c.signal for c in trigger), key=netlist.width)
        width = netlist.width(name)
        ante = ex.Binary("==", ex.Ident(name), ex.Const(
            draw(st.integers(0, (1 << width) - 1)), width))
        need = necessary_literals(ante, netlist)
        spec = replace(spec, trigger=tuple(
            replace(c, value=1 - need[c.signal, c.bit])
            if (c.signal, c.bit) in need else c for c in trigger))
        later = SeqExpr(((draw(st.integers(1, 5)), check),))
        return netlist, spec, [Assertion(SeqExpr(((0, ante),)), "|->", later,
                                         "clk")], 0
    if draw(st.booleans()):
        # the target is then an assertion that the clean design always
        # meets and the corrupted one breaks where the payload changes the
        # net, so that activations with a target are found often
        ante = draw(gen.expressions(symbols, max_depth=1))
        target = draw(st.integers(0, len(assertions)))
        assertions.insert(target, Assertion(
            SeqExpr(((0, ante),)), "|->", SeqExpr(((0, check),)), "clk"))
    return netlist, spec, assertions, target


def _meets_by_oracle(netlist, spec, assertions, target, stim) -> bool:
    """The activation objective, decided by the reference simulator and
    checker: the trigger fires, an output, the payload net or a net an
    assertion reads differs, and with a target, the target fails on the
    corrupted design and holds on the clean one, and no other assertion
    fails on the corrupted design."""
    dirty = simulate_fixpoint(inject(netlist, spec), stim)
    if not any(trigger_holds(spec, dirty, t) for t in range(dirty.cycles)):
        return False
    clean = simulate_fixpoint(netlist, stim)
    seen = {n.name for n in netlist.nets.values()
            if n.kind is NetKind.OUTPUT} | {spec.payload_net}
    for a in assertions:
        seen |= signals_of(a) & netlist.nets.keys()
    if all(dirty.values[n] == clean.values[n] for n in seen):
        return False
    if target is None:
        return True
    fails = lambda trace, a: bool(check_reference(trace, a)[1])
    return (fails(dirty, assertions[target])
            and not fails(clean, assertions[target])
            and not any(fails(dirty, a) for i, a in enumerate(assertions)
                        if i != target))


@settings(max_examples=60)
@given(_activation_cases(), st.integers(0, 2 ** 32 - 1))
def test_activation_search_agrees_with_the_oracles(case, seed):
    netlist, spec, assertions, target = case
    horizon = 6
    checkers = [Checker(a, netlist) for a in assertions]
    clean = clean_kernel(spec, netlist, checkers)
    stim = trojan._find_activation(spec, clean, checkers, target, horizon,
                                   np.random.default_rng(seed))
    # the search forcing the trigger bits alone finds an activation only
    # where the guided one, which also forces the target's literals, does
    with mock.patch.object(trojan, "necessary_literals", lambda *_: {}):
        unguided = trojan._find_activation(spec, clean, checkers, target,
                                           horizon,
                                           np.random.default_rng(seed))
    assert unguided is None or stim is not None
    if stim is not None:
        assert stim.cycles == horizon
        assert _meets_by_oracle(netlist, spec, assertions, target, stim)
        return
    # nothing found: no candidate of the constant schedule, every free
    # input bit enumerated and reset idle, meets the objective either
    off = netlist.clock_nets() | netlist.reset_nets()
    forced = {(c.signal, c.bit): c.value for c in spec.trigger}
    names = [n.name for n in netlist.inputs() if n.name not in off]
    free = [(n, b) for n in names for b in range(netlist.width(n))
            if (n, b) not in forced]
    for code in range(1 << len(free)):
        row = dict.fromkeys(names, 0)
        for (n, b), v in forced.items():
            row[n] |= v << b
        for i, (n, b) in enumerate(free):
            row[n] |= (code >> i & 1) << b
        stim = Stimulus.for_design(netlist, [row] * horizon)
        assert not _meets_by_oracle(netlist, spec, assertions, target, stim)


@given(gen.designs(max_inputs=3), st.data(), st.integers(0, 2 ** 32 - 1))
def test_whole_input_trigger_searches_as_its_bits_do(netlist, data, seed):
    # a condition on a whole input and its bit-by-bit twin, with the same
    # id and seed, force the same bits: their searches try the same
    # candidates and meet the same activation
    off = netlist.clock_nets() | netlist.reset_nets()
    name = data.draw(st.sampled_from(
        [n.name for n in netlist.inputs() if n.name not in off]))
    width = netlist.width(name)
    value = data.draw(st.integers(0, (1 << width) - 1))
    net = data.draw(st.sampled_from(sorted(
        n for n in netlist.nets if netlist.driver_of(n) is not None)))
    kind = data.draw(st.sampled_from(("invert_net", "xor_into_assign")))
    whole = TrojanSpec(id="rand_t00", module=netlist.name,
                       module_kind="sequential" if netlist.registers
                       else "combinational",
                       trigger=(TriggerCond(name, None, value),), k=width,
                       payload_kind=kind, payload_net=net)
    bits = replace(whole, trigger=tuple(
        TriggerCond(name, b, value >> b & 1) for b in range(width)))
    outcomes = []
    search = trojan.search_stimulus

    def counting_search(*args, **kwargs):
        stim, stats = search(*args, **kwargs)
        outcomes.append(stats.candidates)
        return stim, stats

    with mock.patch.object(trojan, "search_stimulus", counting_search):
        for spec in (whole, bits):
            try:
                stim = activation_stimulus(spec, netlist, 6, seed=seed)
            except ActivationNotFoundError:
                stim = None
            outcomes.append(None if stim is None else stim.columns)
    assert outcomes[:2] == outcomes[2:]
