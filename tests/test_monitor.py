"""Assertion monitor: timing, statuses, cancellation, $past, oracle parity."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svaport import expr as ex
from svaport.errors import UnknownSignalError
from svaport.monitor import (AssertionVerdict, Checker, Failure,
                             check_assertion, check_assertions)
from svaport.netlist import Param
from svaport.rtl_parser import parse_design
from svaport.sim import BatchExpr, SimKernel, Stimulus, Trace
from svaport.sva import parse_assertion

from . import gen, oracles


def make_trace(cycles: int, **values) -> Trace:
    """1-bit nets unless a (width, values) pair is given; clk always present."""
    nets: dict[str, int] = {"clk": 1}
    cols: dict[str, list[int]] = {"clk": [1] * cycles}
    for name, v in values.items():
        if isinstance(v, tuple):
            width, series = v
        else:
            width, series = 1, v
        assert len(series) == cycles
        nets[name] = width
        cols[name] = list(series)
    return Trace(gen.netlist_of("hand_trace", nets), tuple(nets), cols, cycles)


def prop(text: str):
    return parse_assertion(f"assert property (@(posedge clk) {text});")


def check(trace: Trace, a) -> AssertionVerdict:
    """*a* compiled for the trace's netlist and checked over *trace*."""
    return check_assertion(trace, Checker(a, trace.netlist))


def test_overlapped_checks_same_cycle():
    trace = make_trace(4, a=[1, 0, 1, 0], b=[1, 0, 0, 1])
    v = check(trace, prop("a |-> b"))
    assert v.statuses == ["pass", "vacuous_pass", "fail", "vacuous_pass"]
    assert v.failures == [Failure(attempt_cycle=2, fail_cycle=2)]


def test_non_overlapped_checks_next_cycle():
    trace = make_trace(4, a=[1, 0, 1, 0], b=[0, 1, 0, 0])
    v = check(trace, prop("a |=> b"))
    assert v.statuses == ["pass", "vacuous_pass", "fail", "vacuous_pass"]
    assert v.failures == [Failure(attempt_cycle=2, fail_cycle=3)]


def test_delay_schedules_failure_cycle():
    # antecedent at cycle 1 with ##2 consequent: violation sampled at cycle 3
    trace = make_trace(5, a=[0, 1, 0, 0, 0], b=[0, 0, 0, 0, 0])
    v = check(trace, prop("a |-> ##2 b"))
    assert v.statuses[1] == "fail"
    assert v.failures == [Failure(attempt_cycle=1, fail_cycle=3)]


def test_multi_step_antecedent():
    trace = make_trace(5, a=[1, 0, 0, 0, 0], b=[0, 0, 1, 0, 0],
                       c=[0, 0, 0, 1, 0])
    v = check(trace, prop("a ##2 b |-> ##1 c"))
    assert v.statuses[0] == "pass"
    # antecedent incomplete at cycle 1 (a false) -> vacuous
    assert v.statuses[1] == "vacuous_pass"


def test_pending_when_schedule_runs_out():
    trace = make_trace(3, a=[0, 0, 1], b=[0, 0, 0])
    v = check(trace, prop("a |=> b"))
    assert v.statuses == ["vacuous_pass", "vacuous_pass", "pending"]
    assert v.pending_at_end == 1 and v.failure_count == 0


def test_disable_blocks_attempt_start():
    trace = make_trace(4, a=[1, 1, 1, 1], b=[0, 0, 0, 0],
                       rst=[1, 0, 1, 0])
    v = check(
        trace, parse_assertion(
            "assert property (@(posedge clk) disable iff (rst) a |-> b);"))
    assert v.statuses == ["not_attempted", "fail", "not_attempted", "fail"]


def test_disable_cancels_in_flight_attempt_silently():
    # attempt at cycle 0 needs cycle 2; reset pulses at cycle 1 -> cancelled
    trace = make_trace(4, a=[1, 0, 0, 0], b=[0, 0, 0, 0],
                       rst=[0, 1, 0, 0])
    v = check(
        trace, parse_assertion(
            "assert property (@(posedge clk) disable iff (rst) a |-> ##2 b);"))
    assert v.statuses[0] == "not_attempted"
    assert v.failure_count == 0


def test_past_reads_back_and_underflow_warns():
    # $past before cycle 0 reads as 0: y[0]=1 mismatches it, y[0]=0 would not
    trace = make_trace(4, en=[1, 1, 1, 1], x=(4, [3, 5, 7, 9]),
                       y=(4, [1, 3, 5, 7]))
    v = check(trace, prop("en |-> y == $past(x)"))
    assert v.statuses == ["fail", "pass", "pass", "pass"]
    assert v.past_underflow_warnings == 1  # the cycle-0 read of x[-1]


def test_past_underflows_count_every_read_and_the_disable_term():
    trace = make_trace(3, en=[1, 1, 1], x=[1, 1, 1], rst=[0, 0, 0])
    # both arms of ?: are read (2 at cycle 0), and $past(x, 2) twice more
    # (cycles 0 and 1)
    a = prop("en |-> (en ? $past(x) : $past(x)) == $past(x, 2)")
    assert check(trace, a).past_underflow_warnings == 2 + 2
    # a disable term reads rst one cycle back at every cycle: 1 more (the
    # parser keeps $past out of disable iff, so it is built directly)
    a = replace(a, disable=ex.Past(ex.Ident("rst"), 1))
    assert check(trace, a).past_underflow_warnings == 1 + 2 + 2
    # a vacuous antecedent leaves the consequent unread
    v = check(trace, prop("!en |-> $past(x)"))
    assert v.past_underflow_warnings == 0


def test_past_depth_two():
    trace = make_trace(5, en=[0, 0, 1, 1, 1], x=(4, [2, 4, 6, 8, 10]),
                       y=(4, [0, 0, 2, 4, 6]))
    v = check(trace, prop("en |-> y == $past(x, 2)"))
    assert v.failure_count == 0
    assert v.non_vacuous_passes == 3


def test_verdict_counters_are_consistent():
    trace = make_trace(6, a=[1, 0, 1, 0, 1, 1], b=[1, 1, 0, 0, 0, 0])
    v = check(trace, prop("a |-> b"))
    assert v.attempts == len([s for s in v.statuses if s != "not_attempted"])
    assert (v.non_vacuous_passes + v.vacuous_passes + v.failure_count
            + v.pending_at_end) == v.attempts
    assert v.failed is (v.failure_count > 0)


def test_unknown_signal_rejected():
    trace = make_trace(3, a=[0, 0, 0])
    with pytest.raises(UnknownSignalError, match="ghost"):
        Checker(prop("a |-> ghost"), trace.netlist)
    with pytest.raises(UnknownSignalError, match="clock"):
        Checker(parse_assertion("assert property (@(posedge ck2) a |-> a);"),
                trace.netlist)


def op_trace(param: Param) -> Trace:
    """Three cycles of a 2-bit ``op`` counting 0, 1, 2 beside *param*."""
    nets = {"clk": 1, "op": 2}
    return Trace(gen.netlist_of("t", nets, (param,)), tuple(nets),
                 {"clk": [1, 1, 1], "op": [0, 1, 2]}, 3)


def test_params_resolve_in_assertions():
    trace = op_trace(Param("OP_WRITE", 1))
    v = check(trace, prop("op == OP_WRITE |-> op != 2"))
    assert v.statuses == ["vacuous_pass", "pass", "vacuous_pass"]


SIZED_RTL = """\
module m (input logic clk, input logic [3:0] x_i, output logic [3:0] y_o);
  parameter logic [3:0] P = 4'h1;
  assign y_o = ~P;
endmodule
"""


def test_sized_constant_has_its_declared_width():
    # ~P is 4'he in the design, so the assertion must read it as 4 bits too
    nl = parse_design(SIZED_RTL)
    trace = SimKernel(nl).run(Stimulus.for_design(nl, [{}] * 3))
    assert trace.values["y_o"] == [14, 14, 14]
    a = prop("x_i == 0 |-> y_o == ~P")
    v = check(trace, a)
    assert v.statuses == ["pass"] * 3 and v.failure_count == 0
    assert oracles.check_reference(trace, a) == (["pass"] * 3, [])


def test_check_assertions_preserves_order():
    trace = make_trace(3, a=[1, 1, 1], b=[1, 1, 1])
    named = [parse_assertion(f"P{i}: assert property (@(posedge clk) a |-> b);")
             for i in range(3)]
    verdicts = check_assertions(trace,
                                [Checker(a, trace.netlist) for a in named])
    assert [v.name for v in verdicts] == ["P0", "P1", "P2"]


def test_checking_compiles_nothing(monkeypatch):
    # the caller's checkers are compiled once; checking builds no checker
    # and no term
    trace = make_trace(3, a=[1, 0, 1], b=[1, 1, 0])
    checkers = [Checker(prop(text), trace.netlist)
                for text in ("a |-> b", "a |=> b")]
    built: list[object] = []
    for cls in (Checker, BatchExpr):
        monkeypatch.setattr(cls, "__init__",
                            lambda self, *args: built.append(self))
    v = check_assertion(trace, checkers[0])
    both = check_assertions(trace, checkers)
    assert built == []
    assert v.statuses == both[0].statuses == ["pass", "vacuous_pass", "fail"]
    assert both[1].statuses == ["pass", "vacuous_pass", "pending"]


@given(gen.traces())
def test_nonoverlapped_equals_overlapped_with_delay(trace):
    nb = prop("a |=> c")
    ov = prop("a |-> ##1 c")
    x, y = check(trace, nb), check(trace, ov)
    assert x.statuses == y.statuses
    assert x.failures == y.failures


@given(gen.traces(), st.data())
def test_monitor_matches_reference(trace, data):
    symbols = {"a": 1, "b": 1, "c": 1, "d": 1, "x": 4, "y": 4}
    a = data.draw(gen.assertions(symbols))
    got = check(trace, a)
    statuses, failures = oracles.check_reference(trace, a)
    assert got.statuses == statuses
    assert [(f.attempt_cycle, f.fail_cycle) for f in got.failures] == failures


# --------------------------------------------------------------------------
# batched checker

def batch_of(traces: list[Trace]) -> dict[str, np.ndarray]:
    """Stack equal-length traces into (rows, cycles) net arrays."""
    return {name: np.array([t.values[name] for t in traces], dtype=np.uint64)
            for name in traces[0].nets}


def check_rows(traces: list[Trace], a):
    return Checker(a, traces[0].netlist)(batch_of(traces))


@pytest.mark.parametrize("text,values,failed,passed", [
    # disable blocks the start of the attempt that would fail
    ("disable iff (rst) a |-> b", dict(a=[1, 1], b=[1, 0], rst=[0, 1]),
     False, True),
    # and cancels an attempt in flight before its consequent is read
    ("disable iff (rst) a |-> ##2 b",
     dict(a=[1, 0, 0, 0], b=[0, 0, 0, 0], rst=[0, 1, 0, 0]), False, False),
    # |=> reads the consequent one cycle later
    ("a |=> b", dict(a=[1, 0, 1], b=[0, 0, 0]), True, False),
    # an attempt still running at the end is pending, neither verdict
    ("a |=> b", dict(a=[0, 0, 1], b=[0, 0, 0]), False, False),
    # $past before cycle 0 reads nets as 0, so $past(!b) holds at cycle 0
    ("a |-> $past(!b)", dict(a=[1, 0], b=[1, 1]), False, True),
])
def test_batch_matches_scalar_on_hand_traces(text, values, failed, passed):
    trace = make_trace(len(values["a"]), **values)
    a = prop(text)
    verdict = check_rows([trace], a)
    assert (verdict.failed[0], verdict.passed[0]) == (failed, passed)
    v = check(trace, a)
    assert (v.failed, v.non_vacuous_passes >= 1) == (failed, passed)


def test_batch_resolves_params_like_the_monitor():
    for param, consequent in [
            # an unsized constant is as wide as its value: ~1 is 0
            (Param("OP_WRITE", 1), "~OP_WRITE == 0"),
            # a sized one has its declared width: ~4'h1 is 4'he
            (Param("OP_WRITE", 1, 4), "~OP_WRITE == 14")]:
        trace = op_trace(param)
        a = prop(f"op == OP_WRITE |-> {consequent}")
        verdict = check_rows([trace], a)
        v = check(trace, a)
        assert (verdict.failed[0], verdict.passed[0]) == (False, True)
        assert (v.failed, v.non_vacuous_passes >= 1) == (False, True)
        assert oracles.check_reference(trace, a)[1] == []


def test_batch_rejects_unknown_signals():
    trace = make_trace(3, a=[0, 0, 0])
    with pytest.raises(UnknownSignalError, match="ghost"):
        check_rows([trace], prop("a |-> ghost"))


def test_checker_reads_its_nets_and_clock_but_no_constant():
    trace = op_trace(Param("OP_WRITE", 1))
    checker = Checker(prop("op == OP_WRITE |=> op != 0"), trace.netlist)
    assert checker.nets == {"clk", "op"}
    assert checker.assertion.implication == "|->"


@given(st.data())
def test_batch_matches_reference(data):
    symbols = {"a": 1, "b": 1, "c": 1, "d": 1, "x": 4, "y": 4}
    cycles = data.draw(st.integers(1, 12))
    traces = data.draw(st.lists(
        gen.traces(min_cycles=cycles, max_cycles=cycles), min_size=1,
        max_size=4))
    a = data.draw(gen.assertions(symbols, antecedent_past=True))
    verdict = check_rows(traces, a)
    for i, trace in enumerate(traces):
        statuses, failures = oracles.check_reference(trace, a)
        assert verdict.failed[i] == bool(failures)
        assert verdict.passed[i] == ("pass" in statuses)
        single = check_rows([trace], a)
        v = check(trace, a)
        assert single.failed[0] == v.failed
        assert single.passed[0] == (v.non_vacuous_passes >= 1)
