"""Candidate enumeration of the stimulus search, and its screens' $past."""

import numpy as np

from svaport import expr as ex
from svaport.netlist import Net, NetKind, Netlist
from svaport.rtl_parser import parse_design
from svaport.search import _CHUNK, _vectors, search_stimulus
from svaport.sim import BatchExpr, SimKernel

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


def _first_batch(netlist: Netlist, seed: int) -> dict[str, np.ndarray]:
    return next(_vectors(netlist, sorted(netlist.nets), {},
                         np.random.default_rng(seed)))


def test_random_codes_up_to_63_bits_are_one_draw_per_candidate():
    # 24 + 24 + 15 = 63 free bits: one masked 63-bit draw per candidate,
    # bit i of the code landing on the i-th free bit in input order
    nl = _inputs(24, 24, 15)
    batch = _first_batch(nl, 7)
    codes = np.random.default_rng(7).integers(0, 1 << 63, size=_CHUNK,
                                              dtype=np.uint64)
    mask = np.uint64((1 << 24) - 1)
    assert (batch["in0"] == codes & mask).all()
    assert (batch["in1"] == (codes >> np.uint64(24)) & mask).all()
    assert (batch["in2"] == codes >> np.uint64(48)).all()


def test_random_codes_beyond_63_bits_use_more_words():
    nl = _inputs(40, 40)
    batch = _first_batch(nl, 7)
    rng = np.random.default_rng(7)
    low = rng.integers(0, 1 << 63, size=_CHUNK, dtype=np.uint64)
    high = rng.integers(0, 1 << 63, size=_CHUNK, dtype=np.uint64) \
        & np.uint64((1 << 17) - 1)
    mask = np.uint64((1 << 40) - 1)
    assert (batch["in0"] == low & mask).all()
    # free bits 40..62 come from the first word, 63..79 from the second
    assert (batch["in1"] == ((low >> np.uint64(40))
                             | (high << np.uint64(23)))).all()


def test_search_walks_each_input_set_once_in_order():
    # only freeing b_i can raise hit_o; the repeated a_i set is skipped
    netlist = parse_design(PICK_RTL)
    kernel = SimKernel(netlist)
    searched: list[list[str]] = []

    def objective(arrays, inputs):
        searched.append(sorted(inputs))
        return np.flatnonzero(arrays["hit_o"].any(axis=1))

    def search(accept):
        searched.clear()
        return search_stimulus(netlist, [["a_i"], ["b_i"], ["a_i"]], {},
                               objective, accept, np.random.default_rng(0),
                               4, kernel=kernel)

    stim, stats = search(lambda s: kernel.run(s).value("hit_o", 0) == 1)
    assert searched == [["a_i"], ["b_i"]]
    assert {(c["a_i"], c["b_i"]) for c in stim.inputs} == {(0, 3)}
    assert stim.cycles == 4
    # one SearchStats covers both sets: four candidates each
    assert stats.candidates == 8
    assert stats.schedules_tried == ["constant", "constant"]
    # refusing b_i's witness leaves nothing new to search
    stim, stats = search(lambda s: False)
    assert stim is None
    assert searched == [["a_i"], ["b_i"]] and stats.candidates == 8


def test_past_reads_nets_before_cycle_zero_as_zero():
    values = {"a": np.array([[1, 1, 0]], dtype=np.uint64)}
    e = ex.Past(ex.Unary("!", ex.Ident("a")), 1)
    got = BatchExpr(e, lambda n: 1, {})(values)
    # cycle 0 evaluates !a with a at 0; later cycles see !a one cycle back
    assert got.tolist() == [[1, 0, 0]]
