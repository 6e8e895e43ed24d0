"""Trojan forging, injection, and activation-proof obligations."""

import json
import random

import numpy as np
import pytest

from svaport import corpus, sim, trojan
from svaport.errors import (ActivationNotFoundError, CombinationalLoopError,
                            ConfigError, InsufficientSignalsError,
                            PayloadConflictError)
from svaport.monitor import check_assertions
from svaport.netlist import NetKind
from svaport.rtl_parser import parse_design
from svaport.search import SearchBudget
from svaport.sim import BatchExpr, Stimulus, simulate
from svaport.sva import parse_assertions
from svaport.trojan import (ForgeParams, TriggerCond, TrojanSpec,
                            activation_stimulus, forge, inject, load_trojans,
                            save_trojans, trigger_expr, validate_spec)

from .oracles import trigger_holds

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
    return forge(toy, toy_asserts, ForgeParams(count=4, k_min=2, k_max=3,
                                               seed=11, horizon=8))


def _spec(toy, **kw):
    base = dict(id="toy_t99", module="toy", module_kind="combinational",
                trigger=(TriggerCond("a_i", 0, 1), TriggerCond("en_i", None, 1)),
                k=2, payload_kind="invert_net", payload_net="sum_o")
    base.update(kw)
    return TrojanSpec(**base)


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
        (dict(k=5), "constrains 2 bits"),
        (dict(trigger=(TriggerCond("a_i", None, 3),), k=1), "constrains 4"),
        (dict(payload_kind="force_constant"), "needs a value"),
        (dict(payload_kind="force_constant", payload_value=16), "out of range"),
    ]
    for overrides, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            validate_spec(_spec(toy, **overrides), toy)


def test_spec_files_round_trip(forged, tmp_path):
    path = tmp_path / "trojans.json"
    save_trojans(forged, path)
    assert load_trojans(path) == forged
    # a single bare object is accepted too: the import format
    single = tmp_path / "one.json"
    single.write_text(json.dumps(forged[0].to_dict()))
    assert load_trojans(single) == [forged[0]]


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"id": "x", "module": "toy"}]))
    with pytest.raises(ConfigError, match="missing field"):
        load_trojans(path)


def test_inject_preserves_interface_and_original(toy):
    spec = _spec(toy)
    before = toy.fingerprint()
    out = inject(toy, spec)
    assert toy.fingerprint() == before
    assert out.name == toy.name
    assert out.ports == toy.ports
    assert {n: (d.kind, d.width) for n, d in out.nets.items()} \
        == {n: (d.kind, d.width) for n, d in toy.nets.items()}
    assert out.params == toy.params
    assert out.fingerprint() != before
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


def test_trigger_expr_agrees_with_the_oracle_trigger_check(toy, forged):
    rng = random.Random(3)
    stim = Stimulus.for_design(toy, [
        {"a_i": rng.randrange(16), "b_i": rng.randrange(16),
         "en_i": rng.randrange(2)} for _ in range(64)])
    for spec in forged:
        trig = BatchExpr(trigger_expr(spec, toy), toy.width, {})
        trace = simulate(inject(toy, spec), stim)
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
    specs = forge(toy, toy_asserts,
                  ForgeParams(count=3, k_values=(2, 4, 3), seed=5, horizon=8))
    assert [s.k for s in specs] == [2, 4, 3]
    for s in specs:
        assert sum(c.bits_constrained(toy) for c in s.trigger) == s.k
    with pytest.raises(ConfigError, match="k_values"):
        forge(toy, toy_asserts, ForgeParams(count=2, k_values=(2,), seed=5))


def test_forge_cycles_widths_and_targets(toy, toy_asserts, forged):
    assert [s.k for s in forged] == [2, 3, 2, 3]
    assert [s.meta["target_assertion"] for s in forged] \
        == ["A_SUM", "A_FLAG", "A_SUM", "A_FLAG"]
    assert [s.id for s in forged] == [f"toy_t{j:02d}" for j in range(4)]
    for s in forged:
        assert s.module_kind == "combinational"
        assert s.meta["seed"] == 11
        assert s.meta["activation"]
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
    specs = forge(irq, ported, ForgeParams(count=2, k_min=2, k_max=2, seed=9,
                                           horizon=8))
    banned = irq.clock_nets() | irq.reset_nets()
    for s in specs:
        for c in s.trigger:
            assert irq.nets[c.signal].kind is NetKind.INPUT
            assert c.signal not in banned


def test_dormant_trojans_are_invisible(toy, forged):
    rng = random.Random(2024)
    nets = sorted(toy.nets)
    for spec in forged:
        dirty = inject(toy, spec)
        quiet = 0
        for _ in range(200):
            stim = Stimulus.for_design(toy, [
                {"a_i": rng.randrange(16), "b_i": rng.randrange(16),
                 "en_i": rng.randrange(2)} for _ in range(6)])
            dirty_trace = simulate(dirty, stim)
            if any(trigger_holds(spec, dirty_trace, t)
                   for t in range(dirty_trace.cycles)):
                continue
            quiet += 1
            clean_trace = simulate(toy, stim)
            for n in nets:
                assert clean_trace.values[n] == dirty_trace.values[n], spec.id
        assert quiet >= 10, f"{spec.id}: too few non-triggering stimuli"


def test_activation_replays_from_metadata(toy, toy_asserts, forged):
    by_name = {a.effective_name(): a for a in toy_asserts}
    for spec in forged:
        stim = Stimulus(inputs=spec.meta["activation"])
        dirty = simulate(inject(toy, spec), stim)
        clean = simulate(toy, stim)
        assert any(clean.values[n] != dirty.values[n] for n in sorted(toy.nets))
        verdicts = {v.name: v for v in check_assertions(dirty, toy_asserts)}
        target = spec.meta["target_assertion"]
        assert verdicts[target].failed
        assert not any(v.failed for n, v in verdicts.items() if n != target)
        clean_v = check_assertions(clean, [by_name[target]])[0]
        assert not clean_v.failed


def test_activation_stimulus_search(toy, forged):
    spec = forged[0]
    stim = activation_stimulus(spec, toy, seed=4)
    dirty = simulate(inject(toy, spec), stim)
    clean = simulate(toy, stim)
    assert any(trigger_holds(spec, dirty, t) for t in range(dirty.cycles))
    assert any(clean.values[n] != dirty.values[n] for n in sorted(toy.nets))


def test_unsatisfiable_trigger_exhausts_the_budget(toy):
    # a_i == 3 forces bit 0 high, so requiring a_i[0] == 0 never fires
    spec = _spec(toy, trigger=(TriggerCond("a_i", None, 3),
                               TriggerCond("a_i", 0, 0)), k=5)
    budget = SearchBudget(horizon=4, exhaustive_bits=4, random_vectors=200)
    with pytest.raises(ActivationNotFoundError, match="within budget"):
        activation_stimulus(spec, toy, budget=budget, seed=1)


def test_forge_needs_assertions_and_trigger_bits(toy, toy_asserts):
    with pytest.raises(InsufficientSignalsError, match="without assertions"):
        forge(toy, [], ForgeParams(count=1))
    # toy's assertion cone offers 9 input bits in total
    with pytest.raises(InsufficientSignalsError, match="k=10"):
        forge(toy, toy_asserts, ForgeParams(count=1, k_values=(10,), seed=0))


def test_forge_compiles_once_per_netlist_and_confirms_each_check(
        toy, toy_asserts, monkeypatch):
    compiled: list[tuple[str, str]] = []
    compile_kernel = sim.SimKernel.__init__

    def counting_compile(self, netlist):
        compile_kernel(self, netlist)
        compiled.append((netlist.name, self.source))

    confirmed: list[bool] = []
    search = trojan.search_stimulus

    def counting_search(netlist, relevant, forced, objective, accept, *rest,
                        **kwargs):
        def confirm(stim):
            confirmed.append(accept(stim))
            return confirmed[-1]
        return search(netlist, relevant, forced, objective, confirm, *rest,
                      **kwargs)

    monkeypatch.setattr(sim.SimKernel, "__init__", counting_compile)
    monkeypatch.setattr(trojan, "search_stimulus", counting_search)
    specs = forge(toy, toy_asserts, ForgeParams(count=4, k_min=2, k_max=3,
                                                seed=11, horizon=8))
    assert len(specs) == 4
    # one kernel per distinct netlist (the clean design plus one injected
    # design per attempt), not one per candidate stimulus
    assert len(compiled) == len(set(compiled))
    # the batch objective is exact: every scalar confirmation succeeds
    assert confirmed and all(confirmed)


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
    # (y_i == 31): the first such row has about 2,000 screened, differing
    # rows before it in the first batch.
    netlist = parse_design(DEEP_RTL)
    target = parse_assertions(
        "T: assert property (@(posedge clk) x_i[1] == 0 |-> ok_o || !hit_o);")[0]
    spec = TrojanSpec(id="deep_t00", module="deep",
                      module_kind="combinational",
                      trigger=(TriggerCond("x_i", 0, 0),), k=1,
                      payload_kind="invert_net", payload_net="ok_o")
    budget = SearchBudget(horizon=4)
    stim = trojan._find_activation(spec, netlist, [target], target, budget,
                                   np.random.default_rng(0),
                                   unique_failure=True)
    assert stim is not None
    assert {(c["x_i"], c["y_i"]) for c in stim.inputs} == {(0, 31)}
    dirty = check_assertions(simulate(inject(netlist, spec), stim), [target])
    clean = check_assertions(simulate(netlist, stim), [target])
    assert dirty[0].failed and not clean[0].failed
