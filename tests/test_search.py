"""Candidate enumeration of the stimulus search, and its screens' $past."""

import numpy as np

from svaport import expr as ex
from svaport.netlist import Net, NetKind, Netlist
from svaport.search import SearchBudget, _vectors
from svaport.sim import BatchExpr


def _inputs(*widths: int) -> Netlist:
    nets = {f"in{i}": Net(f"in{i}", w, NetKind.INPUT)
            for i, w in enumerate(widths)}
    return Netlist("vec", tuple(nets), nets, {}, [], [])


def _sweep(netlist: Netlist, seed: int) -> list[dict[str, np.ndarray]]:
    budget = SearchBudget(exhaustive_bits=4, random_vectors=100)
    return list(_vectors(netlist, sorted(netlist.nets), {},
                         np.random.default_rng(seed), budget))


def test_random_codes_up_to_63_bits_are_one_draw_per_candidate():
    # 24 + 24 + 15 = 63 free bits: one masked 63-bit draw per candidate,
    # bit i of the code landing on the i-th free bit in input order
    nl = _inputs(24, 24, 15)
    (batch,) = _sweep(nl, 7)
    codes = np.random.default_rng(7).integers(0, 1 << 63, size=100,
                                              dtype=np.uint64)
    mask = np.uint64((1 << 24) - 1)
    assert (batch["in0"] == codes & mask).all()
    assert (batch["in1"] == (codes >> np.uint64(24)) & mask).all()
    assert (batch["in2"] == codes >> np.uint64(48)).all()


def test_random_codes_beyond_63_bits_use_more_words():
    nl = _inputs(40, 40)
    (batch,) = _sweep(nl, 7)
    rng = np.random.default_rng(7)
    low = rng.integers(0, 1 << 63, size=100, dtype=np.uint64)
    high = rng.integers(0, 1 << 63, size=100, dtype=np.uint64) \
        & np.uint64((1 << 17) - 1)
    mask = np.uint64((1 << 40) - 1)
    assert (batch["in0"] == low & mask).all()
    # free bits 40..62 come from the first word, 63..79 from the second
    assert (batch["in1"] == ((low >> np.uint64(40))
                             | (high << np.uint64(23)))).all()


def test_past_reads_nets_before_cycle_zero_as_zero():
    values = {"a": np.array([[1, 1, 0]], dtype=np.uint64)}
    e = ex.Past(ex.Unary("!", ex.Ident("a")), 1)
    got = BatchExpr(e, lambda n: 1, {})(values)
    # cycle 0 evaluates !a with a at 0; later cycles see !a one cycle back
    assert got.tolist() == [[1, 0, 0]]
