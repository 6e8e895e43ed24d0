"""Candidate enumeration of the stimulus search, its screens' $past, and
the necessary input literals that guide it."""

import hashlib
import json
from collections import Counter
from importlib import import_module
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svaport import corpus
from svaport import expr as ex
from svaport import translate, trojan
from svaport.errors import ActivationNotFoundError, InsufficientSignalsError
from svaport.monitor import Checker
from svaport.netlist import Net, NetKind, Netlist
from svaport.rtl_parser import parse_design
from svaport.search import (_CHUNK, _FIRST_CHUNK, _RANDOM_VECTORS, Schedule,
                            SearchStats, _vectors,
                            necessary_literals, ruled_out, schedules,
                            search_stimulus)
from svaport.sim import BatchExpr, SimKernel, Stimulus, stimulus_text
from svaport.sva import parse_assertions, signals_of
from svaport.translate import (TranslationConfig, assertion_key,
                               generate_testcase)
from svaport.trojan import ForgeParams, TriggerCond, TrojanSpec

from . import gen, oracles
from .test_trojan import clean_kernel

PICK_RTL = """\
module pick (
  input  logic       clk,
  input  logic [1:0] a_i,
  input  logic [1:0] b_i,
  output logic       hit_o
);
  assign hit_o = b_i == 2'd3;
endmodule
"""


def _inputs(*widths: int) -> Netlist:
    nets = {f"in{i}": Net(f"in{i}", w, NetKind.INPUT)
            for i, w in enumerate(widths)}
    return Netlist("vec", tuple(nets), nets, {}, [], [])


def _all_free(netlist: Netlist, names: list[str]) -> list[tuple[str, int]]:
    """Every bit of the inputs *names*, in input order."""
    return [(n, b) for n in names for b in range(netlist.nets[n].width)]


def _first_batch(netlist: Netlist, seed: int) -> dict[str, np.ndarray]:
    names = sorted(netlist.nets)
    return next(_vectors(names, {}, _all_free(netlist, names), True,
                         np.random.default_rng(seed)))


def test_random_codes_up_to_63_bits_are_one_draw_per_candidate():
    # 24 + 24 + 15 = 63 free bits: one masked 63-bit draw per candidate,
    # bit i of the code landing on the i-th free bit in input order
    nl = _inputs(24, 24, 15)
    batch = _first_batch(nl, 7)
    codes = np.random.default_rng(7).integers(0, 1 << 63, size=_FIRST_CHUNK,
                                              dtype=np.uint64)
    mask = np.uint64((1 << 24) - 1)
    assert batch["in0"].shape == (_FIRST_CHUNK,)
    assert (batch["in0"] == codes & mask).all()
    assert (batch["in1"] == (codes >> np.uint64(24)) & mask).all()
    assert (batch["in2"] == codes >> np.uint64(48)).all()


def test_random_codes_beyond_63_bits_use_more_words():
    # each candidate draws its two words in turn: word 0 holds free bits
    # 0..62, word 1 (masked to 17 bits) holds bits 63..79
    nl = _inputs(40, 40)
    batch = _first_batch(nl, 7)
    codes = np.random.default_rng(7).integers(
        0, 1 << 63, size=2 * _FIRST_CHUNK, dtype=np.uint64)
    low, high = codes[0::2], codes[1::2] & np.uint64((1 << 17) - 1)
    mask = np.uint64((1 << 40) - 1)
    assert batch["in0"].shape == (_FIRST_CHUNK,)
    assert (batch["in0"] == low & mask).all()
    # free bits 40..62 come from the first word, 63..79 from the second
    assert (batch["in1"] == ((low >> np.uint64(40))
                             | (high << np.uint64(23)))).all()


@pytest.mark.parametrize("widths", [(24, 24, 15), (40, 40)])
def test_sampled_batches_grow_and_join_to_one_draw(widths):
    # the batches double from _FIRST_CHUNK rows up to _CHUNK, and together
    # they are one draw of _RANDOM_VECTORS candidates however they split
    nl = _inputs(*widths)
    names = sorted(nl.nets)
    batches = list(_vectors(names, {}, _all_free(nl, names), True,
                            np.random.default_rng(3)))
    sizes = [len(b["in0"]) for b in batches]
    assert sizes[0] == _FIRST_CHUNK and sum(sizes) == _RANDOM_VECTORS
    assert all(b == min(2 * a, _CHUNK) for a, b in zip(sizes, sizes[1:-1]))
    assert sizes[-1] <= min(2 * sizes[-2], _CHUNK)
    words = -(-sum(widths) // 63)
    codes = np.random.default_rng(3).integers(
        0, 1 << 63, size=(_RANDOM_VECTORS, words), dtype=np.uint64)
    # free bit i is bit i % 63 of word i // 63, inputs in name order
    i = 0
    for name, width in zip(names, widths):
        expected = np.zeros(_RANDOM_VECTORS, dtype=np.uint64)
        for bit in range(width):
            word, shift = divmod(i, 63)
            expected |= ((codes[:, word] >> np.uint64(shift)) & np.uint64(1)) \
                << np.uint64(bit)
            i += 1
        got = np.concatenate([b[name] for b in batches])
        assert (got == expected).all(), name


@settings(max_examples=60)
@given(st.lists(st.integers(1, 64), min_size=1, max_size=4), st.data())
def test_vectors_fill_free_bits_as_the_per_bit_expansion(widths, data):
    # _vectors copies each run of adjacent free bits of one input and one
    # code word with one shift and mask; the candidates are those of
    # filling free bit i from bit i % 63 of word i // 63, one bit at a time
    nl = _inputs(*widths)
    names = sorted(nl.nets)
    forced = {}
    for name, width in zip(names, widths):
        for bit in data.draw(st.sets(st.integers(0, width - 1))):
            forced[name, bit] = data.draw(st.integers(0, 1))
    free = [(n, b) for n, w in zip(names, widths) for b in range(w)
            if (n, b) not in forced]
    assume(len(free) <= 12 or len(free) > 20)
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    batches = list(_vectors(names, forced, free, len(free) > 12,
                            np.random.default_rng(seed)))
    if len(free) <= 12:
        codes = np.arange(1 << len(free), dtype=np.uint64)[:, None]
    else:
        codes = np.random.default_rng(seed).integers(
            0, 1 << 63, size=(_RANDOM_VECTORS, -(-len(free) // 63)),
            dtype=np.uint64)
    want = {n: np.zeros(codes.shape[0], dtype=np.uint64) for n in names}
    for (name, bit), value in forced.items():
        want[name] |= np.uint64(value << bit)
    for i, (name, bit) in enumerate(free):
        word, shift = divmod(i, 63)
        want[name] |= ((codes[:, word] >> np.uint64(shift)) & np.uint64(1)) \
            << np.uint64(bit)
    for name in names:
        assert np.array_equal(np.concatenate([b[name] for b in batches]),
                              want[name]), name


def test_enumerated_batches_grow_in_integer_order():
    nl = _inputs(7, 6)
    forced = {("in1", 2): 1}
    free = [bit for bit in _all_free(nl, ["in0", "in1"]) if bit not in forced]
    batches = list(_vectors(["in0", "in1"], forced, free, False,
                            np.random.default_rng(0)))
    assert [len(b["in0"]) for b in batches] == [256, 512, 1024, 2048, 256]
    code = np.arange(1 << 12, dtype=np.uint64)
    # in1's bit 2 is forced, its other bits take free bits 7..11
    high = code >> np.uint64(7)
    in1 = (high & np.uint64(3)) | np.uint64(4) | ((high >> np.uint64(2)) << np.uint64(3))
    assert (np.concatenate([b["in0"] for b in batches]) == code & np.uint64(127)).all()
    assert (np.concatenate([b["in1"] for b in batches]) == in1).all()


def _refused(arrays):
    """An ``accept`` decision that takes no row of the batch."""
    return np.zeros(len(next(iter(arrays.values()))), dtype=bool)


def test_search_walks_its_input_set_once_holding_the_forced_bits():
    # b_i[1] is forced high, so a_i and b_i[0] give eight candidates in one
    # batch; only b_i == 3 raises hit_o
    netlist = parse_design(PICK_RTL)
    kernel = SimKernel(netlist)
    searched: list[list[int]] = []

    def search(meets):
        searched.clear()
        forced = {("b_i", 1): 1}

        def accept(batch):
            assert sorted(batch) == ["a_i", "b_i"]
            searched.append(batch["b_i"].tolist())
            return meets(kernel.run_batch(batch, 4))
        return search_stimulus(["a_i", "b_i"], forced, accept,
                               np.random.default_rng(0), 4, netlist,
                               plans=schedules(netlist, forced, 4))

    stim, stats = search(lambda arrays: arrays["hit_o"].any(axis=1))
    assert searched == [[[2] * 4] * 4 + [[3] * 4] * 4]
    assert {(c["a_i"], c["b_i"]) for c in stim.inputs} == {(0, 3)}
    assert stim.cycles == 4
    assert stats.candidates == 8
    assert (stats.schedule, stats.space, stats.forced) == \
        ("constant", "enumerated", 1)
    # refusing every row walks the set once more, and finds nothing
    stim, stats = search(_refused)
    assert stim is None and stats.schedule is None
    assert len(searched) == 1 and stats.candidates == 8


LATCH_RTL = """\
module latch (
  input  logic       clk,
  input  logic [1:0] a_i,
  input  logic [1:0] b_i,
  output logic [1:0] q_o
);
  always_ff @(posedge clk) q_o <= a_i ^ b_i;
endmodule
"""


def test_a_refused_search_runs_each_schedule_once_over_its_space():
    # on a design with registers, a search that forces bits tries the
    # constant and the flipped-prefix schedule; one that forces none tries
    # the constant schedule alone
    netlist = parse_design(LATCH_RTL)

    def refused(forced):
        stim, stats = search_stimulus(
            ["a_i", "b_i"], forced, _refused, np.random.default_rng(0), 6,
            netlist, plans=schedules(netlist, forced, 6))
        assert stim is None and stats.schedule is None
        return stats.candidates

    assert refused({("a_i", 0): 1}) == 2 * 2 ** 3
    assert refused({}) == 2 ** 4


_CLASH = "a forced bit contradicts a bit it needs"


def test_ruled_out_decides_each_schedule_by_the_bits_it_holds():
    # the term needs en low and d high; the trigger holds en high, and the
    # search forces d as the term needs it
    need = {("en", 0): 0, ("d", 0): 1}
    forced = {("en", 0): 1, ("d", 0): 1}
    trigger = {("en", 0): 1}
    constant = Schedule("constant", 0, frozenset())

    def warm_up(flips):
        return Schedule("flipped_prefix", 4, frozenset(flips))

    # held from cycle 0, en contradicts the term in every cycle
    assert ruled_out(need, constant, forced) == _CLASH
    # a warm-up that flips only the trigger's en holds the whole term
    assert ruled_out(need, warm_up(trigger), forced) is None
    # one that flips every forced bit holds d low: the flipped d is
    # needed the other way
    assert ruled_out(need, warm_up(forced), forced) == _CLASH
    # without a clash every schedule may meet the term after the warm-up
    agree = {("en", 0): 0, ("d", 0): 1}
    assert ruled_out(need, constant, agree) is None
    assert ruled_out(need, warm_up(agree), agree) is None
    assert ruled_out(None, constant, {}) == \
        "its requirements contradict each other"


def test_a_search_never_samples_a_schedule_ruled_out_for_its_term(
        monkeypatch):
    # forge hands its search only the schedules ``ruled_out`` leaves for
    # the target's first antecedent term; each search here refuses every
    # witness, so it walks each schedule it is given over its whole space
    netlist = parse_design(LATCH_RTL)
    seen: list[str] = []
    searched: list[SearchStats] = []
    search = trojan.search_stimulus

    def refusing(inputs, forced, accept, *rest, **kwargs):
        def recorded(batch):
            # only the warm-up changes an input after cycle 0
            held = all((v == v[:, :1]).all() for v in batch.values())
            seen.append("constant" if held else "flipped_prefix")
            return accept(batch) & False
        stim, stats = search(inputs, forced, recorded, *rest, **kwargs)
        searched.append(stats)
        return stim, stats

    monkeypatch.setattr(trojan, "search_stimulus", refusing)

    def refused(trigger, ante):
        seen.clear()
        searched.clear()
        spec = TrojanSpec(id="latch_t00", module="latch",
                          module_kind="sequential",
                          trigger=tuple(TriggerCond(s, b, 1)
                                        for s, b in trigger),
                          k=len(trigger), payload_kind="invert_net",
                          payload_net="q_o")
        [target] = parse_assertions(
            f"L: assert property (@(posedge clk) {ante} |=> q_o == 0);")
        skipped: Counter[str] = Counter()
        checkers = [Checker(target, netlist)]
        assert trojan._find_activation(
            spec, clean_kernel(spec, netlist, checkers), checkers, 0, 6,
            np.random.default_rng(0), skipped=skipped) is None
        assert len(searched) == (not skipped)
        return sum(s.candidates for s in searched), sorted(set(seen))

    both = (2 * 2 ** 3, ["constant", "flipped_prefix"])
    assert refused([("a_i", 0)], "a_i[0]") == both
    # a term needing a_i[0] low, which the trigger holds high, is met only
    # by the warm-up
    assert refused([("a_i", 0)], "!a_i[0]") == (2 ** 3, ["flipped_prefix"])
    # one that also needs b_i[1] high is met by a warm-up that flips the
    # clashing a_i[0] alone, and never when b_i[1] is a trigger bit that
    # flips with it: that attempt is skipped unsearched
    term = "!a_i[0] && b_i[1]"
    assert refused([("a_i", 0)], term) == (2 ** 2, ["flipped_prefix"])
    assert refused([("a_i", 0), ("b_i", 1)], term) == (0, [])


def test_a_one_cycle_search_has_no_warm_up_to_give():
    # a one-cycle stimulus leaves no cycle for a warm-up, so a search that
    # forces bits tries the constant schedule alone and decides each of
    # the eight candidates once
    netlist = parse_design(LATCH_RTL)
    rows: list[int] = []

    def refused(batch):
        rows.append(len(batch["a_i"]))
        return _refused(batch)

    forced = {("a_i", 0): 1}
    stim, stats = search_stimulus(
        ["a_i", "b_i"], forced, refused, np.random.default_rng(0), 1,
        netlist, plans=schedules(netlist, forced, 1))
    assert stim is None
    assert rows == [2 ** 3] and stats.candidates == 2 ** 3


# csr_unit's witnesses and forged trojans at the bundled campaign's seed,
# horizon and forge knobs, and the candidates their searches took, as
# searches that gave reset its inactive level in every batch found them
CSR_SEARCH_SHA256 = \
    "77aeb1f796ab66eb9a8908b75547355962b5fc7ae4ce7f5e7d1856040a331361"
CSR_SEARCH_CANDIDATES = 2822


def test_csr_unit_searches_leave_reset_to_the_kernel(
        monkeypatch, corpus_designs, corpus_assertions, corpus_maps):
    # no batch of the witness or activation searches names the active-low
    # rst_ni: the kernel holds it at its idle level, so the searches find
    # what they found when each batch pinned it.  Each search is decided
    # on its batches alone: no scalar run re-checks what they return
    nl = corpus_designs["csr_unit"]
    columns: list[set[str]] = []
    candidates = [0]
    scalar_runs = [0]
    run_batch, run = SimKernel.run_batch, SimKernel.run

    def spy(self, inputs, cycles):
        columns.append(set(inputs))
        return run_batch(self, inputs, cycles)

    def scalar_spy(self, stimulus):
        scalar_runs[0] += 1
        return run(self, stimulus)

    monkeypatch.setattr(SimKernel, "run_batch", spy)
    monkeypatch.setattr(SimKernel, "run", scalar_spy)
    for owner in (import_module("svaport.translate"), trojan):
        def counted(*args, _search=owner.search_stimulus, **kwargs):
            stim, stats = _search(*args, **kwargs)
            candidates[0] += stats.candidates
            return stim, stats
        monkeypatch.setattr(owner, "search_stimulus", counted)
    digest = hashlib.sha256()
    ported = []
    for i, a in enumerate(corpus_assertions["csr_unit"]):
        outcome = translate(a, nl, corpus_maps["csr_unit"], TranslationConfig(
            horizon=12, seed=2024, key=assertion_key(a, i)))
        assert outcome.translatable
        ported.append(outcome.verdict.assertion)
        witness = outcome.verdict.testcase
        digest.update((stimulus_text(witness) if witness is not None
                       else "none\n").encode())
    forged = trojan.forge(nl, ported, ForgeParams(
        count=7, k_min=2, k_max=5, seed=2024, horizon=12))
    for spec, stim in forged:
        digest.update(json.dumps(spec.to_dict(), sort_keys=True).encode()
                      + b"\n" + stimulus_text(stim).encode())
    assert columns and not any("rst_ni" in c for c in columns)
    assert scalar_runs == [0]
    assert (len(ported), len(forged)) == (7, 7)
    assert candidates == [CSR_SEARCH_CANDIDATES]
    assert digest.hexdigest() == CSR_SEARCH_SHA256


@settings(max_examples=60)
@given(gen.designs(max_inputs=3), st.data())
def test_each_search_varies_the_inputs_that_reach_the_nets_it_compares(
        netlist, data):
    # once clock and reset nets are dropped, every search is handed the
    # primary inputs of the oracle's fan-in cone, reset edges followed,
    # over the nets it compares but the clock the assertions sample, which
    # no generated term names.  A search is recorded, not run: the inputs
    # it is handed are the point
    symbols = {n: netlist.width(n) for n in netlist.nets if n != "clk"}
    assertions = data.draw(st.lists(gen.assertions(symbols), min_size=1,
                                    max_size=2))
    outputs = {n.name for n in netlist.nets.values()
               if n.kind is NetKind.OUTPUT}
    handed: list[tuple[list[str], Netlist]] = []

    def recording(inputs, forced, accept, rng, horizon, searched, plans):
        handed.append((inputs, searched))
        return None, SearchStats()

    def check(compared: set[str], sampled: set[str]) -> None:
        for inputs, searched in handed:
            control = searched.control_nets()
            cone = oracles.fanin_cone(searched, compared - sampled,
                                      resets=True)
            assert inputs == sorted(inputs)
            assert set(inputs) - control == {
                n for n in cone - control
                if searched.nets[n].kind is NetKind.INPUT}, compared
        handed.clear()

    with mock.patch.object(import_module("svaport.translate"),
                           "search_stimulus", recording):
        for a in assertions:
            generate_testcase(a, netlist, TranslationConfig(horizon=4))
            check(signals_of(a) & netlist.nets.keys() | {a.clock},
                  {a.clock})
    with mock.patch.object(trojan, "search_stimulus", recording):
        try:
            trojan.forge(netlist, assertions, ForgeParams(
                count=1, k_min=1, k_max=2, tries=4, horizon=4))
        except (InsufficientSignalsError, ActivationNotFoundError):
            pass
        check(outputs.union(*(signals_of(a) & netlist.nets.keys() | {a.clock}
                              for a in assertions)),
              {a.clock for a in assertions})
        net = data.draw(st.sampled_from(sorted(
            n for n in netlist.nets if netlist.driver_of(n) is not None)))
        name = data.draw(st.sampled_from(sorted(
            n.name for n in netlist.inputs() if n.name != "clk"
            and n.name not in netlist.control_nets())))
        spec = TrojanSpec(id="rand_t00", module=netlist.name,
                          module_kind="combinational",
                          trigger=(TriggerCond(name, 0, 1),), k=1,
                          payload_kind="invert_net", payload_net=net)
        with pytest.raises(ActivationNotFoundError):
            trojan.activation_stimulus(spec, netlist, 4)
        assert len(handed) == 1  # an activation search has no pre-filter
        check(outputs | {net}, set())


@pytest.mark.parametrize("cycles", range(2, 7))
def test_schedules_warm_up_all_but_the_last_cycle_up_to_four(cycles):
    netlist = parse_design(LATCH_RTL)
    forced = {("a_i", 0): 1, ("b_i", 1): 0}
    constant, warm = schedules(netlist, forced, cycles)
    assert (constant.name, constant.warmup, constant.flips) == \
        ("constant", 0, frozenset())
    assert (warm.name, warm.warmup) == ("flipped_prefix", min(4, cycles - 1))
    # every forced bit flips, unless the caller names the ones to flip
    assert warm.flips == {("a_i", 0), ("b_i", 1)}
    [_, warm] = schedules(netlist, forced, cycles, [("b_i", 1)])
    assert warm.flips == {("b_i", 1)}
    # with nothing forced, or no register to see a change, the constant
    # schedule is the only one
    assert [s.name for s in schedules(netlist, {}, cycles)] == ["constant"]
    assert [s.name for s in schedules(parse_design(PICK_RTL), forced,
                                      cycles)] == ["constant"]


@st.composite
def _batch_rows(draw):
    """A generated design, a batch over a subset of its inputs (each held
    in a zero-stride view or drawn anew every cycle) and one of its
    rows."""
    nl = draw(gen.designs())
    rows, cycles = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    batch = {}
    for n in nl.inputs():
        if not draw(st.booleans()):
            continue
        value = st.integers(0, (1 << n.width) - 1)
        if draw(st.booleans()):
            held = np.array(draw(st.lists(value, min_size=rows,
                                          max_size=rows)), dtype=np.uint64)
            batch[n.name] = np.broadcast_to(held[:, None], (rows, cycles))
        else:
            batch[n.name] = np.array(draw(st.lists(
                st.lists(value, min_size=cycles, max_size=cycles),
                min_size=rows, max_size=rows)), dtype=np.uint64)
    return nl, batch, draw(st.integers(0, rows - 1)), cycles


@given(_batch_rows())
def test_a_witness_is_its_rows_columns_as_the_design_checks_them(case):
    # a search reads its witness row as a column object
    nl, batch, row, cycles = case
    got = Stimulus.for_design(nl, {
        "cycles": cycles,
        "inputs": {name: arr[row].tolist() for name, arr in batch.items()}})
    # the reference: the row's per-cycle maps, filled in and checked
    want = Stimulus.for_design(nl, [
        {name: int(arr[row, t]) for name, arr in batch.items()}
        for t in range(cycles)])
    assert got.cycles == want.cycles == cycles
    assert list(got.columns.items()) == list(want.columns.items())
    assert all(type(v) is int for col in got.columns.values() for v in col)
    assert stimulus_text(got) == stimulus_text(want)


def test_past_reads_nets_before_cycle_zero_as_zero():
    values = {"a": np.array([[1, 1, 0]], dtype=np.uint64)}
    e = ex.Past(ex.Unary("!", ex.Ident("a")), 1)
    got = BatchExpr(e, lambda n: 1, {})(values)
    # cycle 0 evaluates !a with a at 0; later cycles see !a one cycle back
    assert got.tolist() == [[1, 0, 0]]


# --------------------------------------------------------------------------
# necessary literals


def _bits(name: str, value: int, lsb: int, width: int) -> dict:
    return {(name, lsb + i): (value >> i) & 1 for i in range(width)}


def test_literals_of_the_pmp_write_antecedent():
    pmp = parse_design(corpus.design_path("pmp_unit").read_text())

    def lits(text):
        return necessary_literals(ex.parse_expr_text(text), pmp)

    # ACC_WRITE and REGION_TAG are parameters; == 0 pins a whole net
    got = lits("req_valid_i && acc_type_i == ACC_WRITE && "
               "addr_i[7:4] == REGION_TAG && priv_lvl_i == 0 && "
               "cfg_perm_i[1] == 0")
    assert got == {("req_valid_i", 0): 1, **_bits("acc_type_i", 1, 0, 2),
                   **_bits("addr_i", 0xA, 4, 4), ("priv_lvl_i", 0): 0,
                   ("cfg_perm_i", 1): 0}
    # through assigns: grant_o needs in_region, which is the address tag;
    # the permission | (any one of three) forces nothing
    assert lits("grant_o") == {("req_valid_i", 0): 1,
                               **_bits("addr_i", 0xA, 4, 4)}
    # deny_o = req_valid_i & ~grant_o, and grant_o == 0 forces nothing
    assert lits("deny_o") == {("req_valid_i", 0): 1}
    # || under negation forces both sides; the reset is never a literal
    assert lits("!(priv_lvl_i || cfg_lock_i) && rst_ni") == {
        ("priv_lvl_i", 0): 0, ("cfg_lock_i", 0): 0}
    # a zero | is zero in every bit of both operands; a 1-bit ~ inverts
    # its operand, while a wider ~ that is not zero forces no one bit
    assert lits("!(addr_i | cfg_perm_i)") == {**_bits("addr_i", 0, 0, 8),
                                              **_bits("cfg_perm_i", 0, 0, 3)}
    assert lits("~cfg_lock_i") == {("cfg_lock_i", 0): 0}
    assert lits("req_valid_i != 1'b0") == {("req_valid_i", 0): 1}
    assert lits("~cfg_perm_i && req_valid_i") == {("req_valid_i", 0): 1}
    # a register, a comparison of two nets and + stop the walk
    assert lits("err_pulse_o") == {}
    assert lits("acc_type_i == cfg_perm_i[1:0]") == {}
    assert lits("acc_type_i + 2'd1 == 2'd0") == {}
    # contradictions: one bit both ways (directly, or through two nets
    # that need different access types), a value wider than its select
    assert lits("addr_i[7:4] == REGION_TAG && addr_i[4]") is None
    assert lits("read_req && write_req") is None
    assert lits("addr_i[7:4] == 5'h1a") is None


MUX_RTL = """\
module mux (
  input  logic       s_i,
  input  logic [1:0] a_i,
  input  logic [1:0] b_i,
  output logic [1:0] y_o
);
  assign y_o = s_i ? a_i : b_i;
endmodule
"""


def test_literals_pass_a_mux_only_once_its_condition_is_required():
    mux = parse_design(MUX_RTL)

    def lits(text):
        return necessary_literals(ex.parse_expr_text(text), mux)

    # with s_i free the mux may take either branch: the walk stops there
    assert lits("y_o == 2'd2") == {}
    # once s_i is required, y_o is a_i; with s_i low, it is not
    assert lits("s_i && y_o == 2'd2") == {("s_i", 0): 1,
                                         **_bits("a_i", 2, 0, 2)}
    assert lits("!s_i && y_o == 2'd2") == {("s_i", 0): 0}
    assert lits("s_i && y_o != 2'd0") == {("s_i", 0): 1}
    assert lits("s_i && y_o == 2'd2 && !a_i[1]") is None


@st.composite
def _terms(draw, max_bits: int):
    """A small design (at most *max_bits* input bits) and a conjunction of
    one to three expressions over its nets and constants, led half the
    time by the condition of one of the design's muxes, so that the walk
    takes that mux's then-branch."""
    netlist = draw(gen.designs(max_inputs=3))
    assume(sum(n.width for n in netlist.inputs()) <= max_bits)
    symbols = {n: net.width for n, net in netlist.nets.items()}
    symbols.update({p.name: p.size for p in netlist.params.values()})
    parts = draw(st.lists(gen.comparisons(symbols)
                          | gen.expressions(symbols, max_depth=2),
                          min_size=1, max_size=3))
    conds = [node.cond for a in netlist.assigns for node in ex.walk(a.rhs)
             if isinstance(node, ex.Ternary)]
    if conds and draw(st.booleans()):
        parts.insert(0, draw(st.sampled_from(conds)))
    return netlist, ex.conjoin(parts)


def _constant_vectors(netlist: Netlist):
    """Every assignment of values to the inputs, as one input map each."""
    nets = netlist.inputs()
    total = sum(n.width for n in nets)
    for code in range(1 << total):
        row, shift = {}, 0
        for n in nets:
            row[n.name] = (code >> shift) & ((1 << n.width) - 1)
            shift += n.width
        yield row


@settings(max_examples=60)
@given(_terms(max_bits=9))
def test_literals_hold_under_every_vector_that_makes_the_term_true(case):
    netlist, term = case
    lits = necessary_literals(term, netlist)
    consts = netlist.constants()
    cycles = 3
    for row in _constant_vectors(netlist):
        trace = oracles.simulate_fixpoint(
            netlist, Stimulus.for_design(netlist, [row] * cycles))
        holds = any(
            oracles.eval_expr(term, lambda n, t=t: consts[n] if n in consts
                              else trace.values[n][t], netlist.width)
            for t in range(cycles))
        if holds:
            # None claims no vector makes the term true
            assert lits is not None
            for (name, bit), value in lits.items():
                assert (row[name] >> bit) & 1 == value, (name, bit)
