"""Simulation kernel and expression emitter: oracle agreement, determinism,
batching, stimulus IO."""

import copy
import json
import random
import re
import tempfile
from collections import OrderedDict, defaultdict
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svaport import corpus
from svaport.errors import ConfigError, ElaborationError, UnknownSignalError
from svaport.monitor import Checker
from svaport import expr as ex
from svaport.netlist import Netlist, render_netlist
from svaport.rtl_parser import parse_design
from svaport.sim import (BatchExpr, SimKernel, Stimulus, load_stimulus,
                         stimulus_text)
from svaport.sva import parse_assertions

from . import gen, oracles


EMIT_SYMBOLS = {"a": 1, "b": 4, "c": 13, "w": 64, "P": 3}
EMIT_PARAMS = {"P": 5}


def _random_stimulus(nl: Netlist, cycles: int, seed: int) -> Stimulus:
    rng = random.Random(seed)
    rows = [{n.name: rng.randrange(1 << n.width) for n in nl.inputs()}
            for _ in range(cycles)]
    return Stimulus.for_design(nl, rows)


@pytest.mark.parametrize("name", corpus.MODULES)
def test_kernel_matches_fixpoint_oracle(name, corpus_designs):
    nl = corpus_designs[name]
    for seed in range(5):
        stim = _random_stimulus(nl, 10, seed)
        fast = SimKernel(nl).run(stim)
        slow = oracles.simulate_fixpoint(nl, stim)
        assert fast.values == slow.values, f"{name} seed {seed}"


@given(gen.designs(), st.data())
def test_kernel_matches_oracle_on_generated_designs(nl, data):
    stim = data.draw(gen.stimuli(nl))
    assert SimKernel(nl).run(stim).values \
        == oracles.simulate_fixpoint(nl, stim).values


@settings(max_examples=100)
@given(st.lists(gen.expressions(EMIT_SYMBOLS), min_size=1, max_size=4),
       st.integers(1, 3), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_emitter_matches_reference_interpreter(exprs, rows, cycles, seed):
    # generated expressions, each compiled once and evaluated element by
    # element over random (rows, cycles) arrays; P is a parameter.  A third
    # of the values is cut to two bits, so comparisons hold now and then,
    # and a third is all ones, so sums carry out of their width
    rng = np.random.default_rng(seed)
    values = {}
    for name, w in EMIT_SYMBOLS.items():
        if name in EMIT_PARAMS:
            continue
        v = rng.integers(0, 1 << w, size=(rows, cycles), dtype=np.uint64)
        kind = rng.integers(0, 3, size=(rows, cycles))
        values[name] = np.choose(kind, [v, v & np.uint64(3),
                                        np.full_like(v, (1 << w) - 1)])
    width = EMIT_SYMBOLS.__getitem__
    for e in exprs:
        got = BatchExpr(e, width, EMIT_PARAMS)(values)
        assert got.shape == (rows, cycles)
        for r in range(rows):
            for t in range(cycles):
                def value(name):
                    if name in EMIT_PARAMS:
                        return EMIT_PARAMS[name]
                    return int(values[name][r, t])
                assert int(got[r, t]) == oracles.eval_expr(e, value, width)


def test_identical_runs_identical_traces(corpus_designs):
    nl = corpus_designs["cf_unit"]
    stim = _random_stimulus(nl, 12, 7)
    assert SimKernel(nl).run(stim) == SimKernel(nl).run(stim)


def test_assign_order_is_irrelevant(corpus_designs):
    nl = corpus_designs["pmp_unit"]
    stim = _random_stimulus(nl, 10, 3)
    want = SimKernel(nl).run(stim).values
    rng = random.Random(0)
    for _ in range(5):
        shuffled = Netlist(nl.name, nl.ports, dict(nl.nets), dict(nl.params),
                           rng.sample(nl.assigns, len(nl.assigns)),
                           list(nl.registers))
        assert SimKernel(shuffled).run(stim).values == want


def test_register_update_is_one_cycle_delayed(corpus_designs):
    nl = corpus_designs["csr_unit"]
    write = {"csr_addr_i": 0x300, "csr_op_i": 1, "csr_op_en_i": 1,
             "csr_wdata_i": 0xFF, "priv_lvl_i": 1}
    idle = {"csr_addr_i": 0x300}
    trace = SimKernel(nl).run(Stimulus.for_design(nl, [write, idle, idle]))
    assert trace.values["mstatus_q"][0] == 0       # write lands next cycle
    assert trace.values["mstatus_q"][1] == 0xFF
    assert trace.values["mstatus_q"][2] == 0xFF    # no enable: holds
    assert trace.values["csr_rdata_o"][1] == 0xFF


def test_reset_reloads_registers(corpus_designs):
    nl = corpus_designs["debug_unit"]
    rows = [{"debug_req_i": 1},            # entry next cycle
            {},                            # debug_mode_q == 1 here
            {"rst_ni": 0},                 # reset asserted
            {}]                            # back to reset value
    trace = SimKernel(nl).run(Stimulus.for_design(nl, rows))
    assert trace.values["debug_mode_q"][0] == 0
    assert trace.values["debug_mode_q"][1] == 1
    assert trace.values["debug_mode_q"][2] == 1    # visible until the edge
    assert trace.values["debug_mode_q"][3] == 0


def test_stimulus_defaults_and_validation(corpus_designs):
    nl = corpus_designs["debug_unit"]
    stim = Stimulus.for_design(nl, [{}])
    assert stim.inputs[0]["rst_ni"] == 1          # inactive level, not 0
    assert stim.inputs[0]["debug_req_i"] == 0
    with pytest.raises(ConfigError, match="does not fit"):
        Stimulus.for_design(nl, [{"debug_req_i": 2}])
    with pytest.raises(UnknownSignalError, match="not an input"):
        Stimulus.for_design(nl, [{"debug_mode_q": 1}])


def test_run_batch_rows_match_scalar_runs(corpus_designs):
    nl = corpus_designs["irq_unit"]
    rng = np.random.default_rng(11)
    cycles, rows = 6, 32
    inputs = {n.name: rng.integers(0, 1 << n.width, size=(rows, cycles),
                                   dtype=np.uint64)
              for n in nl.inputs()}
    batch = SimKernel(nl).run_batch(inputs, cycles)
    for r in range(0, rows, 7):
        stim = Stimulus.for_design(nl, [
            {name: int(arr[r, t]) for name, arr in inputs.items()}
            for t in range(cycles)])
        trace = SimKernel(nl).run(stim)
        for net in nl.nets:
            assert batch[net][r].tolist() == trace.values[net], net


@given(gen.designs(), st.data())
def test_run_batch_rows_match_scalar_runs_on_generated_designs(nl, data):
    # the generated twin of the corpus test above: every operator, ?: and
    # a register reset of each polarity.  The batch leaves every reset
    # out, so each row must hold it at its idle level, as the scalar run
    # of the same columns does through Stimulus.for_design
    rows, cycles = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8))
    resets = nl.reset_nets()
    inputs = {n.name: np.array(data.draw(st.lists(
        st.lists(st.integers(0, (1 << n.width) - 1),
                 min_size=cycles, max_size=cycles),
        min_size=rows, max_size=rows)), dtype=np.uint64)
        for n in nl.inputs() if n.name not in resets}
    batch = SimKernel(nl).run_batch(inputs, cycles)
    for r in range(rows):
        stim = Stimulus.for_design(nl, {
            "cycles": cycles,
            "inputs": {name: arr[r].tolist() for name, arr in inputs.items()}})
        trace = SimKernel(nl).run(stim)
        for net in nl.nets:
            assert batch[net][r].tolist() == trace.values[net], net


def _held(values, cycles: int) -> np.ndarray:
    """*values* held for *cycles* cycles: a read-only (rows, cycles) view
    whose cycle stride is 0."""
    column = np.asarray(values, dtype=np.uint64)[:, None]
    return np.broadcast_to(column, (column.shape[0], cycles))


def test_run_batch_broadcasts_constant_rows(corpus_designs):
    nl = corpus_designs["pmp_unit"]
    inputs = {n.name: _held([1 if n.width == 1 else 0xA0] * 4, 3)
              for n in nl.inputs()}
    inputs["addr_i"] = _held([0xA4] * 4, 3)
    out = SimKernel(nl).run_batch(inputs, 3)
    assert out["in_region"].shape == (4, 3)
    assert bool(out["in_region"].all())


@st.composite
def _held_runs(draw):
    """A generated design with registers and a few rows of inputs held
    constant (as views whose cycle stride is 0), held after a prefix with
    some bits inverted, a mix of the two, or drawn anew every cycle."""
    nl = draw(gen.designs(max_registers=3))
    assume(nl.registers)
    rows, cycles = draw(st.integers(1, 4)), draw(st.integers(1, 10))
    shapes = ["constant", "flipped_prefix"]
    run_shape = draw(st.sampled_from(shapes + ["mixed", "random"]))
    prefix = draw(st.integers(0, cycles))
    inputs = {}
    for n in nl.inputs():
        value = st.integers(0, (1 << n.width) - 1)
        held = np.array(draw(st.lists(value, min_size=rows, max_size=rows)),
                        dtype=np.uint64)
        shape = (draw(st.sampled_from(shapes)) if run_shape == "mixed"
                 else run_shape)
        if shape == "constant":
            inputs[n.name] = _held(held, cycles)
        elif shape == "flipped_prefix":
            arr = np.repeat(held[:, None], cycles, axis=1)
            arr[:, :prefix] ^= np.uint64(draw(value))
            inputs[n.name] = arr
        else:
            inputs[n.name] = np.array(draw(st.lists(
                st.lists(value, min_size=cycles, max_size=cycles),
                min_size=rows, max_size=rows)), dtype=np.uint64)
    return nl, inputs, rows, cycles


@given(_held_runs())
def test_run_batch_matches_oracle_when_it_stops_early(run):
    nl, inputs, rows, cycles = run
    out = SimKernel(nl).run_batch(inputs, cycles)
    for r in range(rows):
        stim = Stimulus.for_design(nl, [
            {name: int(arr[r, t]) for name, arr in inputs.items()}
            for t in range(cycles)])
        want = oracles.simulate_fixpoint(nl, stim).values
        for net in nl.nets:
            assert out[net][r].tolist() == want[net], net


COUNTER_RTL = """\
module counter (
  input  logic       clk,
  input  logic       en_i,
  output logic [3:0] cnt_o
);
  always_ff @(posedge clk) cnt_o <= en_i ? cnt_o + 4'd1 : cnt_o;
endmodule
"""

SHIFT_RTL = """\
module shift (
  input  logic       clk,
  input  logic [1:0] a_i,
  output logic [1:0] q_o
);
  logic [1:0] q1;
  always_ff @(posedge clk) q1 <= a_i;
  always_ff @(posedge clk) q_o <= q1;
endmodule
"""


def _counted(kernel: SimKernel) -> list[int]:
    """Count the calls of *kernel*'s generated function: one per cycle of a
    batch run."""
    steps = [0]
    step = kernel._fn

    def counting(*args):
        steps[0] += 1
        return step(*args)

    kernel._fn = counting
    return steps


def test_run_batch_steps_a_free_running_counter_every_cycle():
    kernel = SimKernel(parse_design(COUNTER_RTL))
    steps = _counted(kernel)
    out = kernel.run_batch({"en_i": _held([1, 1], 12)}, 12)
    assert steps == [12]
    assert out["cnt_o"].tolist() == [list(range(12))] * 2
    # one row that counts keeps every row stepping; idle rows never change
    out = kernel.run_batch({"en_i": _held([0, 1], 12)}, 12)
    assert steps == [24]
    assert out["cnt_o"].tolist() == [[0] * 12, list(range(12))]
    # with no row counting, the first step already leaves the state as it was
    kernel.run_batch({"en_i": _held([0, 0], 12)}, 12)
    assert steps == [25]


def test_run_batch_stops_once_inputs_hold_and_registers_settle():
    nl = parse_design(SHIFT_RTL)
    kernel = SimKernel(nl)
    steps = _counted(kernel)
    a = np.arange(4, dtype=np.uint64)
    # q1 takes a at cycle 1 and q_o at cycle 2; the step at cycle 2
    # changes nothing, so cycles 3..11 repeat it
    out = kernel.run_batch({"a_i": _held(a, 12)}, 12)
    assert steps == [3]
    assert out["q_o"].tolist() == [[0, 0] + [v] * 10 for v in range(4)]
    # inputs that change at cycle 4 hold from there: cycles 4..6 step
    held = np.repeat(a[:, None], 12, axis=1)
    held[:, :4] ^= np.uint64(3)
    out = kernel.run_batch({"a_i": held}, 12)
    assert steps == [3 + 7]
    for r in range(4):
        stim = Stimulus.for_design(nl, [{"a_i": int(v)} for v in held[r]])
        assert out["q_o"][r].tolist() == SimKernel(nl).run(stim).values["q_o"]
    # a combinational kernel with constant inputs takes one step
    comb = SimKernel(nl, keep={"a_i"})
    steps = _counted(comb)
    assert comb.run_batch({"a_i": _held(a, 12)}, 12)["a_i"].tolist() == \
        [[v] * 12 for v in range(4)]
    assert steps == [1]


@given(_held_runs())
def test_run_batch_reads_held_views_as_it_reads_copies(run):
    nl, inputs, _, cycles = run
    kernel = SimKernel(nl)
    steps = _counted(kernel)
    on_views = kernel.run_batch(inputs, cycles)
    stepped = steps[0]
    copies = {name: np.array(arr) for name, arr in inputs.items()}
    assert all(arr.strides[1] for arr in copies.values())
    on_copies = kernel.run_batch(copies, cycles)
    # the copies hold from the same cycle, so the run stops at it too
    assert steps == [2 * stepped]
    assert on_views.keys() == on_copies.keys()
    for net in on_views:
        assert np.array_equal(on_views[net], on_copies[net]), net


@st.composite
def _sliced_runs(draw):
    """A generated design, a random set of nets to keep, and random
    per-cycle inputs for a few rows."""
    nl = draw(gen.designs())
    keep = draw(st.sets(st.sampled_from(sorted(nl.nets)), min_size=1))
    rows, cycles = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    inputs = {
        n.name: np.array(
            draw(st.lists(st.lists(st.integers(0, (1 << n.width) - 1),
                                   min_size=cycles, max_size=cycles),
                          min_size=rows, max_size=rows)), dtype=np.uint64)
        for n in nl.inputs()}
    return nl, keep, inputs, cycles


def _cone_inputs(nl: Netlist, keep) -> tuple[str, ...]:
    """The inputs in the fan-in cone of *keep*, in declaration order, by
    the oracle's cone."""
    cone = oracles.fanin_cone(nl, keep)
    return tuple(n.name for n in nl.inputs() if n.name in cone)


@given(_sliced_runs(), st.data())
def test_sliced_batch_kernel_matches_oracle_on_kept_nets(run, data):
    nl, keep, inputs, cycles = run
    kernel = SimKernel(nl, keep)
    # the kernel reads the inputs of its cone alone, and a batch that
    # holds only those runs; each is given as drawn or held at its first
    # cycle's value as a read-only view
    assert kernel.input_names == _cone_inputs(nl, keep)
    given = {n: _held(inputs[n][:, 0], cycles) if data.draw(st.booleans())
             else inputs[n] for n in kernel.input_names}
    # every drawn input, as callers pass them, and the cone's alone
    every = {**inputs, **given}
    out = kernel.run_batch(every, cycles)
    alone = kernel.run_batch(given, cycles)
    assert set(out) == set(alone) == keep
    # a kept input comes back as the very array given for it
    for n in keep & given.keys():
        assert out[n] is given[n], n
        assert alone[n] is given[n], n
    rows = next(iter(every.values())).shape[0] if every else 1
    for r in range(rows):
        stim = Stimulus.for_design(nl, [
            {name: int(arr[r, t]) for name, arr in every.items()}
            for t in range(cycles)])
        want = oracles.simulate_fixpoint(nl, stim).values
        for net in keep:
            assert out[net].shape == (rows, cycles)
            assert out[net][r].tolist() == want[net], net
            # with no input in the cone, the batch alone has one row
            assert alone[net][r if given else 0].tolist() == want[net], net
    # the monitor reads the (rows, cycles) views as it reads C-ordered
    # arrays of the same values
    widths = {n: nl.width(n) for n in keep}
    check = Checker(data.draw(gen.assertions(
        widths, clock=data.draw(st.sampled_from(sorted(keep))))), nl)
    copies = {n: np.ascontiguousarray(v) for n, v in out.items()}
    on_views, on_copies = check(out), check(copies)
    for field in ("status", "fail_cycle", "past_underflows"):
        assert np.array_equal(getattr(on_views, field),
                              getattr(on_copies, field)), field


@pytest.mark.parametrize("name, keep", [
    ("csr_unit", {"mstatus_q"}),
    ("pmp_unit", {"in_region"}),
    ("debug_unit", {"debug_mode_q", "dret_i"}),
])
def test_sliced_kernel_assigns_only_its_cone(corpus_designs, name, keep):
    nl = corpus_designs[name]
    kernel = SimKernel(nl, keep)
    cone = oracles.fanin_cone(nl, keep)
    assert cone < set(nl.nets)                   # the slice drops something
    # v<i> and n<i> name the i-th net of the cone in declaration order.
    # Only the cone's inputs are unpacked, and the single-net lines set
    # each other cone net (v<i>) or a cone register's next value (n<i>),
    # and nothing else
    order = [n for n in nl.nets if n in cone]
    inputs = _cone_inputs(nl, keep)
    assert 0 < len(inputs) < len(nl.inputs())
    unpacked = "".join(f" v{order.index(n)}," for n in inputs)
    assert f"    for{unpacked} in INS:\n" in kernel.source
    lhs = [line.split(" = ")[0].strip()
           for line in kernel.source.splitlines()]
    slots = [name for name in lhs if re.fullmatch(r"[vn]\d+", name)]
    assert len(slots) == len(set(slots))
    assert {order[int(name[1:])] for name in slots} == cone - set(inputs)
    assert {order[int(name[1:])] for name in slots if name[0] == "n"} \
        == {r.target for r in nl.registers} & cone
    # a batch or a stimulus of the cone's inputs alone runs
    zeros = {n: np.zeros((2, 3), dtype=np.uint64) for n in inputs}
    assert set(kernel.run_batch(zeros, 3)) == keep
    alone = Stimulus.of_columns({n: [0] for n in inputs}, 1)
    assert set(kernel.run(alone).values) == keep
    # without keep, the kernel is the whole design
    zeros = {n.name: np.zeros((2, 3), dtype=np.uint64) for n in nl.inputs()}
    assert set(SimKernel(nl).run_batch(zeros, 3)) == set(nl.nets)


INTERNAL_RESET_RTL = """\
module r (input logic clk, input logic a, input logic b,
          input logic [3:0] d, output logic [3:0] q_o);
  logic rst_int;
  logic [3:0] q;
  assign rst_int = a & b;
  assign q_o = q;
  always_ff @(posedge clk) begin
    if (rst_int) q <= 4'h5;
    else q <= d;
  end
endmodule
"""


def test_sliced_kernel_keeps_an_internal_reset_net():
    # q's next value reads only d, but its reset mux reads rst_int, an
    # assign over inputs: the slice must compute it
    nl = parse_design(INTERNAL_RESET_RTL)
    stim = _random_stimulus(nl, 12, 5)
    kernel = SimKernel(nl, {"q"})
    got = kernel.run(stim).values
    assert got == {"q": oracles.simulate_fixpoint(nl, stim).values["q"]}
    # the reset's inputs are read, and rst_int, the cone's net at its
    # place in declaration order, is assigned in every cycle
    assert kernel.input_names == ("a", "b", "d")
    order = [n for n in nl.nets if n in oracles.fanin_cone(nl, {"q"})]
    assert f"\n        v{order.index('rst_int')} = (" in kernel.source


def _renamed(nl: Netlist) -> tuple[Netlist, dict[str, str]]:
    """A copy of *nl* parsed from its rendered text with every net
    renamed, x00, x01, ... in sorted order, so the assigns settle in the
    same order; and the renaming."""
    table = {n: f"x{i:02d}" for i, n in enumerate(sorted(nl.nets))}
    text = re.sub(r"\b\w+\b", lambda m: table.get(m[0], m[0]),
                  render_netlist(nl))
    return parse_design(text), table


# {net} stands for a net of csr_unit, renamed or not
CSR_SVA = """\
A_LOAD: assert property (@(posedge {clk_i}) disable iff (!{rst_ni})
  {mstatus_en} |=> {mstatus_q} == $past({csr_wdata_i}));
A_READ: assert property (@(posedge {clk_i})
  {csr_op_i} == CSR_OP_READ && {csr_op_en_i} |-> !{csr_we_int});
"""


def test_slices_of_the_same_logic_share_one_function(corpus_designs):
    nl = corpus_designs["csr_unit"]
    copy_nl, table = _renamed(nl)
    assert not set(copy_nl.nets) & set(nl.nets)
    assertions = parse_assertions(CSR_SVA.format(**{n: n for n in table}))
    renamed = parse_assertions(CSR_SVA.format(**table))
    for a, b in zip(assertions, renamed):
        checker, again = Checker(a, nl), Checker(b, copy_nl)
        assert again.nets == {table[n] for n in checker.nets}
        terms = [t for _, t, _ in checker._plan] + [checker._disable]
        copies = [t for _, t, _ in again._plan] + [again._disable]
        for term, copied in zip(terms, copies):
            if term is not None:
                assert copied._fn is term._fn
        assert (SimKernel(copy_nl, again.nets)._fn
                is SimKernel(nl, checker.nets)._fn)
    assert SimKernel(copy_nl)._fn is SimKernel(nl)._fn
    for keep in ({"csr_rdata_o"}, {"mie_en", "mstatus_mie_o"}):
        assert (SimKernel(copy_nl, {table[n] for n in keep})._fn
                is SimKernel(nl, keep)._fn)

    def fn(netlist: Netlist, keep: set[str]):
        return SimKernel(netlist, keep)._fn

    # another shape: csr_wr compares, csr_we_int also masks and ands
    assert fn(nl, {"csr_wr"}) is not fn(nl, {"csr_we_int"})
    # the same shape on another constant: CSR_MSTATUS against CSR_MIE
    assert fn(nl, {"mstatus_en"}) is not fn(nl, {"mie_en"})
    assert fn(nl, {"mstatus_q"}) is not fn(nl, {"mie_q"})
    # the same shape on another width: ~illegal_csr_insn_o masks 2 bits
    nets = dict(nl.nets)
    nets["illegal_csr_insn_o"] = replace(nets["illegal_csr_insn_o"], width=2)
    wide = replace(nl, nets=nets)
    assert fn(wide, {"csr_we_int"}) is not fn(nl, {"csr_we_int"})

    def term(text: str, netlist: Netlist = nl) -> BatchExpr:
        return BatchExpr(ex.parse_expr_text(text), netlist.width,
                         netlist.constants())

    negated = "~illegal_csr_insn_o"
    assert term(negated, wide)._fn is not term(negated)._fn
    assert term(f"~{table['illegal_csr_insn_o']}", copy_nl)._fn \
        is term(negated)._fn
    assert term("csr_op_i == CSR_OP_READ")._fn \
        is not term("csr_op_i == CSR_OP_WRITE")._fn
    assert term("csr_op_i == CSR_OP_READ")._fn \
        is not term("csr_op_i != CSR_OP_READ")._fn


def test_sliced_kernel_rejects_unknown_nets(corpus_designs):
    with pytest.raises(UnknownSignalError, match="no_such_net"):
        SimKernel(corpus_designs["cf_unit"], {"no_such_net"})


def test_batch_rejects_wide_nets():
    # batch simulation and the monitor hold values in 64-bit words, so the
    # parser rejects wider nets up front, naming the net
    with pytest.raises(ElaborationError, match="net a .*64"):
        parse_design("module wide (input logic [79:0] a, output logic y);\n"
                     "  assign y = a == 80'h0;\nendmodule\n")


def test_stimulus_file_round_trip(tmp_path, corpus_designs):
    nl = corpus_designs["debug_unit"]
    stim = _random_stimulus(nl, 5, 9)
    path = tmp_path / "stim.json"
    text = stimulus_text(stim)
    path.write_text(text)
    # one line: the cycle count and one column per input, in netlist order
    assert text.count("\n") == 1 and text.endswith("\n")
    doc = json.loads(text)
    assert doc == {"cycles": 5, "inputs": stim.columns}
    assert list(doc["inputs"]) == [n.name for n in nl.inputs()]
    assert load_stimulus(path, nl) == stim
    # either form loads, whatever its layout: indented per-cycle maps, as
    # older versions wrote, and indented columns in any input order
    path.write_text(json.dumps(stim.inputs, indent=2) + "\n")
    assert load_stimulus(path, nl) == stim
    doc["inputs"] = dict(reversed(doc["inputs"].items()))
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert load_stimulus(path, nl) == stim


# each malformed per-cycle array, and its twin in column form
@pytest.mark.parametrize("text, error, needle", [
    pytest.param('5', ConfigError,
                 "expected an array of per-cycle input maps or an object",
                 id="neither-form"),
    pytest.param('{"cycles": 3}', ConfigError,
                 'keys "cycles" and "inputs" alone, not \\[\'cycles\'\\]',
                 id="object"),
    pytest.param('{"inputs": [{}]}', ConfigError,
                 'keys "cycles" and "inputs" alone, not \\[\'inputs\'\\]',
                 id="wrapped"),
    pytest.param('{"cycles": 0, "inputs": {}, "clk_i": []}', ConfigError,
                 "not \\['clk_i', 'cycles', 'inputs'\\]",
                 id="columns-extra-key"),
    pytest.param('{"cycles": true, "inputs": {}}', ConfigError,
                 '"cycles" must be a count, not True', id="columns-bool-count"),
    pytest.param('{"cycles": -1, "inputs": {}}', ConfigError,
                 '"cycles" must be a count, not -1',
                 id="columns-negative-count"),
    pytest.param('{"cycles": 1, "inputs": [{}]}', ConfigError,
                 '"inputs" must be an object of columns, not list',
                 id="columns-wrapped"),
    pytest.param('[{}, 5]', ConfigError,
                 "cycle 1: expected a map of input values, got int",
                 id="cycle-not-an-object"),
    pytest.param('{"cycles": 2, "inputs": {"dret_i": 5}}', ConfigError,
                 "input dret_i must be an array of values, not int",
                 id="columns-column-not-an-array"),
    pytest.param('{"cycles": 2, "inputs": {"dret_i": [0]}}', ConfigError,
                 "input dret_i holds 1 values for 2 cycles",
                 id="columns-short-column"),
    pytest.param('[{"dret_i": "1"}]', ConfigError,
                 "cycle 0: value '1' for input dret_i is not an integer",
                 id="string"),
    pytest.param('{"cycles": 1, "inputs": {"dret_i": ["1"]}}', ConfigError,
                 "cycle 0: value '1' for input dret_i is not an integer",
                 id="columns-string"),
    pytest.param('[{}, {"dret_i": 1.5}]', ConfigError,
                 "cycle 1: value 1.5 for input dret_i is not an integer",
                 id="float"),
    pytest.param('{"cycles": 2, "inputs": {"dret_i": [0, 1.5]}}', ConfigError,
                 "cycle 1: value 1.5 for input dret_i is not an integer",
                 id="columns-float"),
    pytest.param('[{"dret_i": true}]', ConfigError,
                 "cycle 0: value True for input dret_i is not an integer",
                 id="bool"),
    pytest.param('{"cycles": 1, "inputs": {"dret_i": [true]}}', ConfigError,
                 "cycle 0: value True for input dret_i is not an integer",
                 id="columns-bool"),
    pytest.param('[{"dret_i": null}]', ConfigError,
                 "cycle 0: value None for input dret_i is not an integer",
                 id="null"),
    pytest.param('{"cycles": 1, "inputs": {"dret_i": [null]}}', ConfigError,
                 "cycle 0: value None for input dret_i is not an integer",
                 id="columns-null"),
    pytest.param('[{"dret_i": -1}]', ConfigError,
                 r"cycle 0: value -1 does not fit input dret_i\[0:0\]",
                 id="negative"),
    pytest.param('{"cycles": 1, "inputs": {"dret_i": [-1]}}', ConfigError,
                 r"cycle 0: value -1 does not fit input dret_i\[0:0\]",
                 id="columns-negative"),
    # the first bad cycle is named, not the first bad input
    pytest.param('[{}, {"step_en_i": 2}, {"debug_req_i": 2}]', ConfigError,
                 "cycle 1: value 2 does not fit input step_en_i",
                 id="first-bad-cycle"),
    pytest.param('{"cycles": 3, "inputs": {"debug_req_i": [0, 0, 2], '
                 '"step_en_i": [0, 2, 0]}}', ConfigError,
                 "cycle 1: value 2 does not fit input step_en_i",
                 id="columns-first-bad-cycle"),
    # within a cycle, inputs in netlist order, whatever the key order
    pytest.param('[{}, {"step_en_i": "1", "dret_i": 2}]', ConfigError,
                 "cycle 1: value 2 does not fit input dret_i",
                 id="range-before-later-type"),
    pytest.param('{"cycles": 2, "inputs": {"step_en_i": [0, "1"], '
                 '"dret_i": [0, 2]}}', ConfigError,
                 "cycle 1: value 2 does not fit input dret_i",
                 id="columns-range-before-later-type"),
    pytest.param('[{"debug_mode_q": 1}, {"dret_i": 2}]', UnknownSignalError,
                 "debug_mode_q is not an input", id="unknown-input"),
    # a column names its input in every cycle, cycle 0 included
    pytest.param('{"cycles": 2, "inputs": {"debug_mode_q": [1, 1], '
                 '"dret_i": [0, 2]}}', UnknownSignalError,
                 "debug_mode_q is not an input", id="columns-unknown-input"),
    pytest.param('{"cycles": 0, "inputs": {"debug_mode_q": []}}',
                 UnknownSignalError, "debug_mode_q is not an input",
                 id="columns-unknown-input-no-cycles"),
    # a bad value comes before an unknown name in the same cycle
    pytest.param('[{}, {"debug_mode_q": 1, "dret_i": 2}]', ConfigError,
                 "cycle 1: value 2 does not fit input dret_i",
                 id="value-before-unknown-input"),
    pytest.param('{"cycles": 2, "inputs": {"debug_mode_q": [1, 1], '
                 '"dret_i": [2, 0]}}', ConfigError,
                 "cycle 0: value 2 does not fit input dret_i",
                 id="columns-value-before-unknown-input"),
    pytest.param('[{', ConfigError, "bad.json: not valid JSON", id="bad-json"),
    pytest.param('{"cycles": 1, "inputs": {', ConfigError,
                 "bad.json: not valid JSON", id="columns-bad-json"),
])
def test_load_stimulus_rejects_non_array(tmp_path, corpus_designs, text,
                                         error, needle):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(error, match=needle):
        load_stimulus(path, corpus_designs["debug_unit"])


def test_for_design_reads_a_map_subclass_as_a_map(corpus_designs):
    # a defaultdict's __missing__ does not answer for an omitted input
    nl = corpus_designs["debug_unit"]
    cycle = defaultdict(int, dret_i=1)
    stim = Stimulus.for_design(nl, [cycle, {}])
    assert stim.inputs == oracles.stimulus_rows(nl, [cycle, {}])
    assert stim.columns["rst_ni"] == [1, 1] and dict(cycle) == {"dret_i": 1}
    with pytest.raises(ConfigError, match="cycle 1: expected a map"):
        Stimulus.for_design(nl, [cycle, 5])


WIDE_RTL = """\
module wide (input logic clk, input logic [63:0] d_i,
             output logic [63:0] q_o);
  assign q_o = d_i;
endmodule
"""

TOP_64 = 2 ** 64 - 1


def _both_forms(values: list) -> list:
    """The per-cycle maps and the column object of input d_i's values."""
    return [[{"d_i": v} for v in values],
            {"cycles": len(values), "inputs": {"d_i": values}}]


@pytest.mark.parametrize("form", [0, 1], ids=["cycles", "columns"])
def test_64_bit_input_loads_its_widest_value(tmp_path, form):
    nl = parse_design(WIDE_RTL)
    stim = Stimulus.for_design(nl, _both_forms([0, TOP_64, 1])[form])
    assert stim.columns == {"clk": [0, 0, 0], "d_i": [0, TOP_64, 1]}
    path = tmp_path / "stim.json"
    path.write_text(stimulus_text(stim))
    assert load_stimulus(path, nl) == stim
    arrays = SimKernel(nl).run(stim).arrays(["d_i", "q_o"])
    for arr in arrays.values():
        assert arr.dtype == np.uint64
        assert arr.tolist() == [[0, TOP_64, 1]]


@pytest.mark.parametrize("form", [0, 1], ids=["cycles", "columns"])
@pytest.mark.parametrize("value, fault", [
    (2 ** 64, "value 18446744073709551616 does not fit input d_i[63:0]"),
    (-1, "value -1 does not fit input d_i[63:0]"),
    (True, "value True for input d_i is not an integer"),
    (1.5, "value 1.5 for input d_i is not an integer"),
], ids=["2**64", "-1", "True", "1.5"])
def test_64_bit_input_rejects_values_that_do_not_fit(form, value, fault):
    nl = parse_design(WIDE_RTL)
    data = _both_forms([TOP_64, TOP_64, value, 2 ** 64])[form]
    with pytest.raises(ConfigError, match=re.escape(f"cycle 2: {fault}")):
        Stimulus.for_design(nl, data)


NO_INPUT_RTL = """\
module no_in (output logic [3:0] y_o);
  assign y_o = 4'h5;
endmodule
"""

CLOCK_ONLY_RTL = """\
module clk_only (input logic clk, output logic [3:0] q_o);
  logic [3:0] q;
  assign q_o = q;
  always_ff @(posedge clk) q <= q + 4'h1;
endmodule
"""

SMALL_DESIGNS = [parse_design(NO_INPUT_RTL), parse_design(CLOCK_ONLY_RTL),
                 parse_design(corpus.design_path("debug_unit").read_text())]


def _designs():
    """Designs with zero, one and several inputs, one with a reset."""
    return st.sampled_from(SMALL_DESIGNS) | gen.designs()


@st.composite
def _clean_cycles(draw, nl: Netlist):
    """Input maps that name some inputs of *nl*, in any order, with values
    that fit."""
    names = [n.name for n in nl.inputs()]
    cycles = []
    for _ in range(draw(st.integers(0, 6))):
        keys = draw(st.lists(st.sampled_from(names), unique=True)) \
            if names else []
        cycles.append({k: draw(st.integers(0, (1 << nl.width(k)) - 1))
                       for k in keys})
    return cycles


@st.composite
def _raw_cycles(draw, nl: Netlist):
    """Clean cycles, each a dict, OrderedDict or defaultdict(int), with up
    to three faults: a value of the wrong type or range, an unknown name, a
    cycle that is no map, or no list at all.  Half of the time every fault
    goes into one cycle, so faults tie within it."""
    cycles = [draw(st.sampled_from([dict, OrderedDict,
                                    partial(defaultdict, int)]))(c)
              for c in draw(_clean_cycles(nl))]
    names = [n.name for n in nl.inputs()]
    one_cycle = draw(st.booleans())
    i = None
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["type", "range", "name", "cycle",
                                      "whole"]))
        if fault == "whole" or not cycles:
            return draw(st.integers() | st.none() | st.text(max_size=2)
                        | st.just({names[0] if names else "x": 1}))
        if i is None or not one_cycle:
            i = draw(st.integers(0, len(cycles) - 1))
        if fault == "cycle" or not isinstance(cycles[i], dict):
            cycles[i] = draw(st.integers() | st.none()
                             | st.lists(st.integers(0, 1), max_size=1))
        elif fault == "name" or not names:
            cycles[i]["ghost_i"] = draw(st.integers(0, 1))
        elif fault == "type":
            cycles[i][draw(st.sampled_from(names))] = draw(
                st.booleans() | st.floats() | st.text(max_size=2) | st.none())
        else:
            name = draw(st.sampled_from(names))
            cycles[i][name] = draw(st.integers(max_value=-1)
                                   | st.integers(1 << nl.width(name), 2 ** 70))
    return cycles


def _outcome(fn):
    try:
        return "rows", [list(row.items()) for row in fn()]
    except (ConfigError, UnknownSignalError) as err:
        return type(err), str(err)


@settings(max_examples=200)
@given(_designs(), st.data())
def test_for_design_matches_per_cycle_validator(nl, data):
    # the column checks accept what the per-cycle walk accepts, with the
    # same rows in the same key order, and reject the rest with its error
    cycles = data.draw(_raw_cycles(nl))
    want = _outcome(lambda: oracles.stimulus_rows(nl, cycles))
    before = copy.deepcopy(cycles)
    assert _outcome(lambda: Stimulus.for_design(nl, cycles).inputs) == want
    assert cycles == before  # a defaultdict is read, never written


@st.composite
def _raw_columns(draw, nl: Netlist):
    """A column object over some inputs of *nl*, in any order, with up to
    three faults: a value of the wrong type or range, an unknown input, a
    column that is no array or has the wrong length, a bad count, a bad
    key, or no object of columns at all."""
    names = [n.name for n in nl.inputs()]
    cycles = draw(st.integers(0, 6))
    keys = draw(st.lists(st.sampled_from(names), unique=True)) if names else []
    columns = {k: [draw(st.integers(0, (1 << nl.width(k)) - 1))
                   for _ in range(cycles)] for k in keys}
    data = {"cycles": cycles, "inputs": columns}
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["type", "range"] * 3 + [
            "name", "column", "length", "count", "key", "inputs"]))
        # a known input whose column still holds a value per cycle
        held = [k for k in keys if isinstance(columns.get(k), list)
                and len(columns[k]) == cycles]
        if fault in ("type", "range") and held and cycles:
            name = draw(st.sampled_from(held))
            columns[name][draw(st.integers(0, cycles - 1))] = draw(
                st.booleans() | st.floats() | st.text(max_size=2) | st.none()
                if fault == "type" else st.integers(max_value=-1)
                | st.integers(1 << nl.width(name), 2 ** 70))
        elif fault == "name":
            columns["ghost_i"] = [draw(st.integers(0, 1))
                                  for _ in range(cycles)]
        elif fault == "column" and columns:
            columns[draw(st.sampled_from(sorted(columns)))] = draw(
                st.integers() | st.none() | st.just({}))
        elif fault == "length" and held:
            name = draw(st.sampled_from(held))
            columns[name] = columns[name][1:] if cycles and draw(
                st.booleans()) else columns[name] + [0]
        elif fault == "count":
            data["cycles"] = draw(st.integers(max_value=-1) | st.booleans()
                                  | st.just(float(cycles)) | st.none())
        elif fault == "key":
            data.pop(draw(st.sampled_from(sorted(data))), None) \
                if draw(st.booleans()) else data.update(extra=1)
        elif fault == "inputs":
            data["inputs"] = draw(st.just([columns]) | st.none()
                                  | st.integers())
    return data


@settings(max_examples=200)
@given(_designs(), st.data())
def test_column_checks_match_per_cycle_validator(nl, data):
    # a column object is checked as the per-cycle maps it stands for: the
    # same rows, or the same fault at the same cycle
    doc = data.draw(_raw_columns(nl))
    want = _outcome(lambda: oracles.stimulus_rows(nl, doc))
    before = copy.deepcopy(doc)
    assert _outcome(lambda: Stimulus.for_design(nl, doc).inputs) == want
    assert doc == before


@given(_designs(), st.data())
def test_stimulus_text_is_one_json_dumps_of_the_columns(nl, data):
    # text -> load_stimulus gives the same stimulus back, and the text is
    # what one json.dumps writes of the column object
    stim = Stimulus.for_design(nl, data.draw(_clean_cycles(nl)))
    text = stimulus_text(stim)
    assert text == json.dumps(
        {"cycles": stim.cycles, "inputs": stim.columns}) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stim.json"
        path.write_text(text)
        assert load_stimulus(path, nl) == stim
    assert Stimulus(json.loads(text)) == stim


@given(_designs(), st.data())
def test_stimulus_of_full_rows_equals_for_design(nl, data):
    # full per-cycle maps, in any key order, as perfbench's checks and the
    # oracles build stimuli: the same columns as for_design's
    names = data.draw(st.permutations([n.name for n in nl.inputs()]))
    rows = [{k: data.draw(st.integers(0, (1 << nl.width(k)) - 1))
             for k in names} for _ in range(data.draw(st.integers(1, 6)))]
    stim = Stimulus(rows)
    assert stim == Stimulus.for_design(nl, rows)
    assert stim.cycles == len(rows) and stim.inputs == rows
    # and the column object of the same values
    doc = {"cycles": len(rows), "inputs": stim.columns}
    assert Stimulus(doc).inputs == rows
    assert Stimulus.for_design(nl, doc) == Stimulus.for_design(nl, rows)


def test_stimulus_columns_must_hold_one_value_per_cycle():
    with pytest.raises(ValueError, match="one value per cycle"):
        Stimulus({"cycles": 2, "inputs": {"a_i": [1, 0], "b_i": [1]}})


def test_stimulus_rows_must_name_the_same_inputs():
    with pytest.raises(ValueError, match="same inputs"):
        Stimulus([{"a_i": 1}, {"b_i": 1}])


def test_trace_arrays_convert_each_net_once(corpus_designs):
    nl = corpus_designs["csr_unit"]
    trace = SimKernel(nl).run(_random_stimulus(nl, 40, 3))
    first = trace.arrays(nl.nets)
    again = trace.arrays(sorted(nl.nets, reverse=True))
    for n in nl.nets:
        assert again[n] is first[n]
        assert first[n].dtype == np.uint64 and first[n].shape == (1, 40)
        assert not first[n].flags.writeable
        assert np.array_equal(first[n], np.array([trace.values[n]],
                                                 dtype=np.uint64))


def test_scalar_run_stores_ints(corpus_designs):
    # comparisons settle to bools; a scalar run stores them as ints
    nl = corpus_designs["csr_unit"]
    trace = SimKernel(nl).run(_random_stimulus(nl, 20, 4))
    assert {type(v) for col in trace.values.values() for v in col} == {int}


@pytest.mark.parametrize("cycles", [0, 3])
@pytest.mark.parametrize("nl", SMALL_DESIGNS[:2], ids=["no_input", "clock"])
def test_stimulus_without_inputs_or_cycles(tmp_path, nl, cycles):
    stim = Stimulus.for_design(nl, [{}] * cycles)
    assert stim.inputs == oracles.stimulus_rows(nl, [{}] * cycles)
    path = tmp_path / "stim.json"
    path.write_text(stimulus_text(stim))
    assert json.loads(path.read_text()) == {
        "cycles": cycles, "inputs": {n.name: [0] * cycles
                                     for n in nl.inputs()}}
    assert load_stimulus(path, nl) == stim
    trace = SimKernel(nl).run(stim)
    assert trace.cycles == cycles
    assert trace.values == oracles.simulate_fixpoint(nl, stim).values


@settings(max_examples=15)
@given(st.sampled_from(SMALL_DESIGNS[:2]) | gen.designs(), st.data())
def test_long_run_matches_oracle_full_and_sliced(nl, data):
    cycles = data.draw(st.integers(256, 300))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    stim = Stimulus.for_design(nl, [
        {n.name: rng.randrange(1 << n.width) for n in nl.inputs()}
        for _ in range(cycles)])
    want = oracles.simulate_fixpoint(nl, stim).values
    assert SimKernel(nl).run(stim).values == want
    keep = data.draw(st.sets(st.sampled_from(sorted(nl.nets)), min_size=1))
    kernel = SimKernel(nl, keep)
    assert kernel.input_names == _cone_inputs(nl, keep)
    got = kernel.run(stim)
    assert got.cycles == cycles
    assert got.values == {n: want[n] for n in keep}
    # a stimulus of the cone's inputs alone runs the same
    alone = Stimulus.of_columns(
        {n: stim.columns[n] for n in kernel.input_names}, cycles)
    on_alone = kernel.run(alone)
    assert on_alone.values == got.values
    # the batch run steps the same kernel loop one cycle at a time, on
    # every input and on the cone's alone
    every = {n: np.array([col], dtype=np.uint64)
             for n, col in stim.columns.items()}
    given = {n: every[n] for n in kernel.input_names}
    batch = kernel.run_batch(every, cycles)
    assert {n: arr[0].tolist() for n, arr in batch.items()} == got.values
    assert {n: arr[0].tolist()
            for n, arr in kernel.run_batch(given, cycles).items()} \
        == got.values
    # a kept input is handed back as the caller's own column or array
    for n in keep & given.keys():
        assert got.values[n] is stim.columns[n], n
        assert on_alone.values[n] is alone.columns[n], n
        assert batch[n] is given[n], n


@pytest.mark.parametrize("name", corpus.MODULES)
def test_long_run_matches_oracle_on_corpus(name, corpus_designs):
    nl = corpus_designs[name]
    stim = _random_stimulus(nl, 256, 17)
    want = oracles.simulate_fixpoint(nl, stim).values
    assert SimKernel(nl).run(stim).values == want
    keep = set(sorted(nl.nets)[::3])
    assert SimKernel(nl, keep).run(stim).values == {n: want[n] for n in keep}
    # a run of no cycles gives every net an empty list
    assert SimKernel(nl).run(Stimulus.for_design(nl, [])).values \
        == {n: [] for n in nl.nets}
