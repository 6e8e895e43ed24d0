"""Signal linking and assertion rewriting onto a target design, and the
witness search that shows a ported assertion passing."""

from dataclasses import replace
from importlib import import_module
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svaport import corpus, monitor
from svaport import expr as ex
from svaport.errors import ConfigError
from svaport.monitor import Checker, check_assertion
from svaport.netlist import NetKind
from svaport.rtl_parser import parse_design
from svaport.sim import SimKernel
from svaport.sva import SeqExpr, parse_assertion, parse_assertions, signals_of
from svaport.translate import (SignalMap, TranslationConfig, Translatable,
                               Untranslatable, assertion_key,
                               generate_testcase, identify_signals, translate)

from . import gen, oracles
from .test_trojan import GATED_RESET_RTL, TOY_RTL

GOLDEN_SOURCE = corpus.golden_path("source_assertion.sva").read_text()
GOLDEN_WANT = corpus.golden_path("ported_assertion.sva").read_text()


@pytest.fixture(scope="module")
def csr_unit():
    return parse_design(corpus.design_path("csr_unit").read_text())


@pytest.fixture()
def golden_map(csr_unit):
    return SignalMap.load(corpus.golden_path("csr_map.json"), netlist=csr_unit)


def _translate_golden(csr_unit, golden_map, **cfg):
    source = parse_assertion(GOLDEN_SOURCE)
    config = TranslationConfig(key=assertion_key(source, 0), **cfg)
    return translate(source, csr_unit, golden_map, config)


def test_golden_translation_matches_reference(csr_unit, golden_map):
    out = _translate_golden(csr_unit, golden_map)
    assert out.translatable
    assert out.verdict.assertion == parse_assertion(GOLDEN_WANT)


def test_golden_link_report(csr_unit, golden_map):
    report = _translate_golden(csr_unit, golden_map).link_report
    entries = report.entries
    assert set(entries) == {"CsrWtAddr", "MstatusAddr", "WriteEn_mstatus", "rst"}
    assert entries["CsrWtAddr"].target == "csr_addr_i"
    assert entries["MstatusAddr"].target == "CSR_MSTATUS"
    assert entries["WriteEn_mstatus"].target == "mstatus_en"
    assert entries["rst"].status == "dropped"
    assert report.disable_dropped
    assert report.clock_target == "clk_i"


def test_golden_testcase_passes_non_vacuously(csr_unit, golden_map):
    out = _translate_golden(csr_unit, golden_map)
    testcase = out.verdict.testcase
    assert testcase is not None
    v = check_assertion(SimKernel(csr_unit).run(testcase),
                        Checker(out.verdict.assertion, csr_unit))
    assert v.failure_count == 0
    assert v.non_vacuous_passes >= 1


def test_link_report_covers_every_signal(corpus_designs, corpus_assertions,
                                         corpus_maps):
    for name in corpus.MODULES:
        target, smap = corpus_designs[name], corpus_maps[name]
        for i, a in enumerate(corpus_assertions[name]):
            out = translate(a, target, smap,
                            TranslationConfig(key=assertion_key(a, i),
                                              generate_testcase=False))
            assert set(out.link_report.entries) == signals_of(a), name


def test_rewrite_lands_on_target_names(corpus_designs, corpus_assertions,
                                       corpus_maps):
    for name in corpus.MODULES:
        target, smap = corpus_designs[name], corpus_maps[name]
        for i, a in enumerate(corpus_assertions[name]):
            out = translate(a, target, smap,
                            TranslationConfig(key=assertion_key(a, i),
                                              generate_testcase=False))
            assert out.translatable, (name, i, out.verdict)
            for signal in signals_of(out.verdict.assertion):
                assert target.resolves(signal), (name, signal)


def test_verdict_dichotomy(corpus_designs, corpus_assertions, corpus_maps):
    for name in corpus.MODULES:
        target, smap = corpus_designs[name], corpus_maps[name]
        for i, a in enumerate(corpus_assertions[name]):
            out = translate(a, target, smap,
                            TranslationConfig(key=assertion_key(a, i),
                                              generate_testcase=False))
            unresolved = out.link_report.unresolved()
            assert isinstance(out.verdict, (Translatable, Untranslatable))
            assert isinstance(out.verdict, Untranslatable) == bool(unresolved)


def test_identity_translation_is_conservative(csr_unit):
    source = parse_assertion(
        "HOLD: assert property (@(posedge clk_i) csr_op_en_i |-> "
        "csr_we_int == 0 || illegal_csr_insn_o == 0);")
    out = translate(source, csr_unit, SignalMap(),
                    TranslationConfig(generate_testcase=False))
    assert out.translatable
    assert out.verdict.assertion == source


def test_negation_restyle_only_touches_bare_negations(csr_unit):
    source = parse_assertion(
        "assert property (@(posedge clk_i) csr_op_en_i |-> "
        "!illegal_csr_insn_o && !(csr_we_int && priv_lvl_i));")
    out = translate(source, csr_unit, SignalMap(),
                    TranslationConfig(generate_testcase=False))
    cons = out.verdict.assertion.consequent.steps[0][1]
    first, second = ex.conjuncts(cons)
    assert first == ex.Binary("==", ex.Ident("illegal_csr_insn_o"), ex.Const(0))
    assert second == ex.Unary("!", ex.Binary(
        "&&", ex.Ident("csr_we_int"), ex.Ident("priv_lvl_i")))


def test_unresolved_signal_is_reported_with_reason(csr_unit):
    source = parse_assertion(
        "assert property (@(posedge clk_i) BogusSig |-> csr_we_int == 0);")
    out = translate(source, csr_unit, SignalMap(),
                    TranslationConfig(generate_testcase=False))
    assert not out.translatable
    assert any("BogusSig" in r for r in out.verdict.reasons)


def test_ambiguous_normalization_lists_candidates():
    # wake_q and wake_o both normalize to "wake"
    target = parse_design(corpus.design_path("irq_unit").read_text())
    source = parse_assertion(
        "assert property (@(posedge clk_i) handle_irq_o |=> wake);")
    out = translate(source, target, SignalMap(),
                    TranslationConfig(generate_testcase=False))
    assert not out.translatable
    reason = " ".join(out.verdict.reasons)
    assert "wake_o" in reason and "wake_q" in reason


NORM_RTL = """\
module norm (
  input  logic       clk_i,
  input  logic [7:0] branch_target_i,
  input  logic       write_en_i,
  output logic       wake_o
);
  logic wake_q;
  always_ff @(posedge clk_i) wake_q <= write_en_i;
  assign wake_o = wake_q;
endmodule
"""


def test_normalization_folds_case_and_strips_one_decoration():
    # branch_target matches branch_target_i once the suffix goes, as in
    # cf_unit; underscores are kept, so WriteEn (writeen) never matches
    # write_en_i (write_en); wake_q and wake_o both become wake
    source = parse_assertion(
        "assert property (@(posedge clk_i) "
        "WriteEn && wake |-> branch_target == 0);")
    report = identify_signals(source, parse_design(NORM_RTL), SignalMap())
    assert {name: (e.status, e.method, e.target)
            for name, e in report.entries.items()} == {
        "branch_target": ("matched", "normalized", "branch_target_i"),
        "WriteEn": ("unresolved", "no exact or normalized counterpart in norm",
                    None),
        "wake": ("unresolved", "ambiguous normalized match: wake_o, wake_q",
                 None),
    }


def test_explicit_mapping_resolves_ambiguity(corpus_designs, corpus_maps):
    target, smap = corpus_designs["irq_unit"], corpus_maps["irq_unit"]
    source = parse_assertion(
        "assert property (@(posedge clk_i) handle_irq_o |=> wake);")
    out = translate(source, target, smap,
                    TranslationConfig(generate_testcase=False))
    assert out.translatable
    assert signals_of(out.verdict.assertion) == {"handle_irq_o", "wake_o"}


def test_removable_conjunct_is_dropped(corpus_designs, corpus_assertions,
                                       corpus_maps):
    # ETI_TIMER_CAUSE carries a conjunct over a signal with no counterpart
    target, smap = corpus_designs["irq_unit"], corpus_maps["irq_unit"]
    a = next(x for x in corpus_assertions["irq_unit"]
             if x.effective_name() == "ETI_TIMER_CAUSE")
    assert "LegacyIrqChk" in signals_of(a)
    out = translate(a, target, smap,
                    TranslationConfig(key=a.effective_name(),
                                      generate_testcase=False))
    assert out.translatable
    assert "LegacyIrqChk" not in signals_of(out.verdict.assertion)
    assert out.link_report.entries["LegacyIrqChk"].status == "dropped"


def test_non_removable_signal_blocks_translation(corpus_designs):
    # the whole consequent hinges on the unknown signal: nothing to drop
    target = corpus_designs["irq_unit"]
    source = parse_assertion(
        "assert property (@(posedge clk_i) irq_nm_i |-> MagicFlag);")
    out = translate(source, target, SignalMap(),
                    TranslationConfig(generate_testcase=False))
    assert not out.translatable
    assert any("MagicFlag" in r for r in out.verdict.reasons)


def test_disable_kept_when_reset_maps(corpus_designs, corpus_assertions,
                                      corpus_maps):
    target, smap = corpus_designs["debug_unit"], corpus_maps["debug_unit"]
    a = corpus_assertions["debug_unit"][0]
    assert a.disable is not None
    out = translate(a, target, smap,
                    TranslationConfig(key=assertion_key(a, 0),
                                      generate_testcase=False))
    assert out.translatable
    translated = out.verdict.assertion
    assert translated.disable is not None
    assert ex.idents_of(translated.disable) == {"rst_ni"}
    assert not out.link_report.disable_dropped


def test_naming_rule_applies_only_to_its_key(csr_unit, golden_map):
    other = parse_assertion(
        "OTHER: assert property (@(posedge clk) CsrWtAddr != MstatusAddr "
        "|-> !(WriteEn_mstatus));")
    out = translate(other, csr_unit, golden_map,
                    TranslationConfig(key=assertion_key(other, 5),
                                      generate_testcase=False))
    assert out.translatable
    got = out.verdict.assertion
    assert got.label == "OTHER" and got.name is None and got.action is None
    # and without the augmentations the sides stay single-conjunct
    assert len(ex.conjuncts(got.antecedent.steps[0][1])) == 1
    assert len(ex.conjuncts(got.consequent.steps[0][1])) == 1


def test_signal_map_schema_errors(csr_unit, tmp_path):
    with pytest.raises(ConfigError, match="signal map: unknown keys"):
        SignalMap.from_dict({"aliases": []})
    with pytest.raises(ConfigError, match="source and target"):
        SignalMap.from_dict({"mappings": [{"source": "A"}]})
    with pytest.raises(ConfigError, match="duplicate mapping"):
        SignalMap.from_dict({"mappings": [
            {"source": "A", "target": "x"}, {"source": "A", "target": "y"}]})
    with pytest.raises(ConfigError, match="attach"):
        SignalMap.from_dict({"augmentations": [
            {"signal": "x", "condition": "x == 0", "attach": "middle"}]})
    with pytest.raises(ConfigError, match="does not appear"):
        SignalMap.from_dict({"augmentations": [
            {"signal": "y", "condition": "x == 0", "attach": "consequent"}]})
    with pytest.raises(ConfigError, match="not a net"):
        SignalMap.from_dict(
            {"mappings": [{"source": "A", "target": "ghost"}]}).validate(csr_unit)
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        SignalMap.load(bad)


def test_every_corpus_assertion_yields_a_testcase(corpus_designs,
                                                  corpus_assertions,
                                                  corpus_maps):
    for name in corpus.MODULES:
        target, smap = corpus_designs[name], corpus_maps[name]
        for i, a in enumerate(corpus_assertions[name]):
            key = assertion_key(a, i)
            out = translate(a, target, smap,
                            TranslationConfig(key=key, seed=5))
            assert out.translatable
            stim = out.verdict.testcase
            assert stim is not None, key
            v = check_assertion(SimKernel(target).run(stim),
                                Checker(out.verdict.assertion, target))
            assert v.failure_count == 0 and v.non_vacuous_passes >= 1, key


WIDE_RTL = """\
module wide (
  input  logic        clk,
  input  logic [39:0] a_i,
  input  logic [39:0] b_i,
  output logic [39:0] x_o
);
  assign x_o = a_i ^ b_i;
endmodule
"""


def test_testcase_search_over_more_than_63_free_bits():
    # 80 free input bits: more than one 63-bit code word per candidate
    target = parse_design(WIDE_RTL)
    a = parse_assertion("W: assert property (@(posedge clk) "
                        "a_i[39] && b_i[39] |-> x_o[39] == 1'b0);")
    stim, _ = generate_testcase(a, target)
    assert stim is not None
    v = check_assertion(SimKernel(target).run(stim), Checker(a, target))
    assert v.failure_count == 0 and v.non_vacuous_passes >= 1


WIT_RTL = """\
module wit (
  input  logic       clk_i,
  input  logic [7:0] x_i,
  input  logic [7:0] y_i,
  output logic       ok_o
);
  assign ok_o = y_i == 8'd31;
endmodule
"""


def test_testcase_search_decides_every_candidate_of_a_batch():
    # the 16-bit space is enumerated in one batch, x_i in the low code bits:
    # half the rows fire the antecedent, and the only witnesses (y_i == 31)
    # sit thousands of rows past the first of them
    target = parse_design(WIT_RTL)
    a = parse_assertion("W: assert property (@(posedge clk_i) "
                        "x_i[0] == 0 |-> ok_o);")
    stim, _ = generate_testcase(a, target)
    assert stim is not None
    assert {(c["x_i"], c["y_i"]) for c in stim.inputs} == {(0, 31)}
    v = check_assertion(SimKernel(target).run(stim), Checker(a, target))
    assert v.failure_count == 0 and v.non_vacuous_passes >= 1


def test_witness_search_drives_the_inputs_of_a_logic_driven_reset():
    # q_o's reset net rst_q is driven by logic of two inputs, which reach
    # q_o only through that reset.  Left at their idle level 0 they hold
    # q_o in reset for the whole run, and the antecedent never holds: the
    # search must vary them
    target = parse_design(GATED_RESET_RTL)
    a = parse_assertion("G: assert property (@(posedge clk) "
                        "q_o |-> $past(d_i));")
    stim, _ = generate_testcase(a, target)
    assert stim is not None
    trace = oracles.simulate_fixpoint(target, stim)
    statuses, failures = oracles.check_reference(trace, a)
    assert not failures and "pass" in statuses


def test_witness_search_drives_a_sampled_clock_that_logic_reads():
    # on a combinational design the sampled clock is an input like any
    # other: the consequent holds only where clk is high, so the search
    # must vary it where logic reads it
    target = parse_design(TOY_RTL.replace(
        "assign flag_o = sum_o == 4'd15;", "assign flag_o = clk & en_i;"))
    a = parse_assertion("F: assert property (@(posedge clk) "
                        "en_i |-> flag_o);")
    stim, _ = generate_testcase(a, target)
    assert stim is not None
    trace = oracles.simulate_fixpoint(target, stim)
    statuses, failures = oracles.check_reference(trace, a)
    assert not failures and "pass" in statuses


def test_testcase_search_compiles_its_assertion_once(monkeypatch):
    # the search's batches and the scalar confirmation of the one winning
    # candidate share one checker
    compiled: list[str] = []
    compile_checker = monitor.Checker.__init__

    def counting_compile(self, assertion, netlist):
        compile_checker(self, assertion, netlist)
        compiled.append(assertion.effective_name())

    monkeypatch.setattr(monitor.Checker, "__init__", counting_compile)
    target = parse_design(WIT_RTL)
    a = parse_assertion("W: assert property (@(posedge clk_i) "
                        "x_i[0] == 0 |-> ok_o);")
    assert generate_testcase(a, target)[0] is not None
    assert compiled == ["W"]


def test_an_antecedent_that_can_never_hold_is_not_searched():
    toy = parse_design(TOY_RTL)
    a = parse_assertion("N: assert property (@(posedge clk) "
                        "a_i == 4'd1 && en_i && !a_i[0] |-> flag_o);")
    out = translate(a, toy, SignalMap())
    assert out.verdict.testcase is None
    assert out.verdict.search.candidates == 0
    assert out.notes == ["the antecedent's first step can never hold: the "
                         "input bits it needs contradict each other"]


def test_a_witness_search_that_finds_nothing_runs_one_pass():
    # the antecedent forces x_i[0] and all of y_i, leaving 7 free bits, and
    # its y_i contradicts ok_o: the guided pass refuses every candidate of
    # its one schedule, and no unforced pass over all 16 bits follows
    target = parse_design(WIT_RTL)
    a = parse_assertion("W: assert property (@(posedge clk_i) "
                        "x_i[0] == 0 && y_i == 8'd30 |-> ok_o);")
    stim, stats = generate_testcase(a, target)
    assert stim is None
    assert stats.candidates == 2 ** 7


def _unguided(a, target, config):
    """generate_testcase with no literals: the one pass forces nothing."""
    # the package exports a function named like the module
    with mock.patch.object(import_module("svaport.translate"),
                           "necessary_literals",
                           lambda term, netlist: {}):
        return generate_testcase(a, target, config)


def test_guided_corpus_witnesses_equal_the_unguided_ones(
        corpus_designs, corpus_assertions, corpus_maps):
    # forcing necessary bits keeps the integer order of the free ones, so
    # an enumerated guided pass meets the unguided witness first
    config = TranslationConfig(horizon=12, seed=2024)
    guided = 0
    for name in corpus.MODULES:
        target = corpus_designs[name]
        for idx, source in enumerate(corpus_assertions[name]):
            key = assertion_key(source, idx)
            out = translate(source, target, corpus_maps[name],
                            TranslationConfig(key=key,
                                              generate_testcase=False))
            a = out.verdict.assertion
            stim, stats = generate_testcase(a, target, config)
            if stats.space != "enumerated":
                continue
            assert stim == _unguided(a, target, config)[0], key
            guided += stats.forced > 0
    # 31 of the 33 guided spaces are enumerated; 3 of those force nothing
    assert guided == 28


@st.composite
def _witness_cases(draw):
    """A design with at most 12 input bits and an assertion over it whose
    antecedent starts with comparisons against constants; half of the
    consequents always hold, so a witness is any run of the antecedent."""
    netlist = draw(gen.designs(max_inputs=3))
    assume(sum(n.width for n in netlist.inputs()) <= 12)
    symbols = {n: net.width for n, net in netlist.nets.items() if n != "clk"}
    a = draw(gen.assertions(symbols, antecedent_past=draw(st.booleans())))
    inputs = {n: w for n, w in symbols.items()
              if netlist.nets[n].kind is NetKind.INPUT}
    first = draw(st.lists(gen.comparisons(symbols) | gen.comparisons(inputs),
                          min_size=1, max_size=3))
    steps = ((0, ex.conjoin(first)),) + a.antecedent.steps[1:]
    a = replace(a, antecedent=SeqExpr(steps))
    if draw(st.booleans()):
        a = replace(a, consequent=SeqExpr(((0, ex.Const(1, 1)),)))
    return netlist, a


@settings(max_examples=50)
@given(_witness_cases())
def test_guided_search_finds_a_witness_whenever_the_unguided_one_does(case):
    netlist, a = case
    config = TranslationConfig(horizon=6)
    guided, _ = generate_testcase(a, netlist, config)
    unguided, plain = _unguided(a, netlist, config)
    if unguided is not None:
        assert guided is not None
    for stim in (guided, unguided):
        if stim is not None:
            trace = oracles.simulate_fixpoint(netlist, stim)
            statuses, failures = oracles.check_reference(trace, a)
            assert not failures and "pass" in statuses
    # the gate for searching one guided pass: every space here is
    # enumerated, so a witness the unguided pass finds under the constant
    # schedule lies in the guided space and is its first as well
    if plain.schedule == "constant":
        assert guided == unguided
