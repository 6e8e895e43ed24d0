"""Assertion checking over simulation traces.

Every cycle with a false disable expression starts one attempt.  The
attempt's antecedent terms are read at their scheduled cycles; if any term
is false the attempt is a vacuous pass, and once the antecedent matches, the
consequent terms are read at theirs (|-> starting at the match-end cycle,
|=> one later).  An attempt whose schedule runs past the end of the trace is
pending; a cycle where the disable expression is true starts no attempt and
silently cancels any attempt whose window it falls into.

Statuses are recorded per attempt-start cycle.  Failures additionally record
the cycle at which the violated term was sampled, so `a |-> ##2 b` with the
antecedent at cycle 1 reports its failure at cycle 3.

$past(e, d) reads the trace d cycles back.  Reads that would land before
cycle 0 yield 0 and are counted in ``past_underflow_warnings`` — visible,
never a silent pass.

``check_batch`` applies the same semantics to many traces at once (the
rows of batch-simulated arrays) and reports per row only whether some
attempt failed and whether some attempt passed non-vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Mapping

import numpy as np

from . import expr as ex
from .errors import UnknownSignalError
from .search import batch_eval
from .sim import Trace
from .sva import Assertion, SeqExpr, normalize_overlapped

NOT_ATTEMPTED = "not_attempted"
VACUOUS_PASS = "vacuous_pass"
PASS = "pass"
FAIL = "fail"
PENDING = "pending"


@dataclass(eq=True)
class Failure:
    attempt_cycle: int
    fail_cycle: int


@dataclass
class AssertionVerdict:
    name: str
    statuses: list[str]
    failures: list[Failure] = field(default_factory=list)
    past_underflow_warnings: int = 0

    @property
    def attempts(self) -> int:
        return sum(1 for s in self.statuses if s != NOT_ATTEMPTED)

    @property
    def vacuous_passes(self) -> int:
        return self.statuses.count(VACUOUS_PASS)

    @property
    def non_vacuous_passes(self) -> int:
        return self.statuses.count(PASS)

    @property
    def failure_count(self) -> int:
        return self.statuses.count(FAIL)

    @property
    def pending_at_end(self) -> int:
        return self.statuses.count(PENDING)

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    def summary(self) -> dict:
        return {
            "name": self.name,
            "attempts": self.attempts,
            "vacuous_passes": self.vacuous_passes,
            "non_vacuous_passes": self.non_vacuous_passes,
            "failures": self.failure_count,
            "pending_at_end": self.pending_at_end,
            "past_underflow_warnings": self.past_underflow_warnings,
        }


class _TraceCtx(ex.EvalContext):
    """Evaluates expressions against one cycle of a trace."""

    def __init__(self, trace: Trace, cycle: int, monitor: "_Monitor"):
        self.trace = trace
        self.cycle = cycle
        self.monitor = monitor

    def value(self, name: str) -> int:
        if name in self.trace.params:
            return self.trace.params[name]
        if self.cycle < 0:
            self.monitor.underflows += 1
            return 0
        return self.trace.value(name, self.cycle)

    def width(self, name: str) -> int:
        if name in self.trace.widths:
            return self.trace.widths[name]
        if name in self.trace.params:
            v = self.trace.params[name]
            return max(1, v.bit_length())
        raise UnknownSignalError(f"{name} is not a net of {self.trace.design}")

    def shifted(self, depth: int) -> "_TraceCtx":
        return _TraceCtx(self.trace, self.cycle - depth, self.monitor)


def _validate(a: Assertion, nets: Collection[str], params: Mapping[str, int],
              design: str) -> None:
    names = ex.idents_of(a.disable) if a.disable is not None else set()
    for term in a.antecedent.terms() + a.consequent.terms():
        names |= ex.idents_of(term)
    for name in sorted(names):
        if name not in nets and name not in params:
            raise UnknownSignalError(
                f"assertion {a.effective_name()} references {name}, which "
                f"is not a net or constant of {design}")
    if a.clock not in nets:
        raise UnknownSignalError(
            f"assertion {a.effective_name()} samples clock {a.clock}, "
            f"which is not a net of {design}")


class _Monitor:
    def __init__(self, trace: Trace, assertion: Assertion):
        self.trace = trace
        self.assertion = normalize_overlapped(assertion)
        self.underflows = 0
        _validate(self.assertion, trace.values, trace.params, trace.design)
        self.disable = [self._eval_bool(self.assertion.disable, t)
                        if self.assertion.disable is not None else False
                        for t in range(trace.cycles)]

    def _eval_bool(self, e: ex.Expr, cycle: int) -> bool:
        return ex.evaluate(e, _TraceCtx(self.trace, cycle, self)) != 0

    def _cancelled(self, start: int, upto: int) -> bool:
        return any(self.disable[start + 1: upto + 1])

    def _walk(self, seq: SeqExpr, base: int, start: int):
        """Yield ('pending'|'cancelled'|'false'|'done', cycle).

        Terms are examined in order; the first one that cannot be read
        (beyond the trace) or is false decides the outcome.
        """
        cycle = base
        for delay, term in seq.steps:
            cycle += delay
            # cancellation strikes in real time, before a term that is still
            # in the future could ever be read
            if self._cancelled(start, min(cycle, self.trace.cycles - 1)):
                return ("cancelled", cycle)
            if cycle >= self.trace.cycles:
                return ("pending", cycle)
            if not self._eval_bool(term, cycle):
                return ("false", cycle)
        return ("done", cycle)

    def run(self) -> AssertionVerdict:
        a = self.assertion
        statuses: list[str] = []
        failures: list[Failure] = []
        for t in range(self.trace.cycles):
            if self.disable[t]:
                statuses.append(NOT_ATTEMPTED)
                continue
            kind, cycle = self._walk(a.antecedent, t, t)
            if kind == "cancelled":
                statuses.append(NOT_ATTEMPTED)
                continue
            if kind == "pending":
                statuses.append(PENDING)
                continue
            if kind == "false":
                statuses.append(VACUOUS_PASS)
                continue
            kind, ccycle = self._walk(a.consequent, cycle, t)
            if kind == "cancelled":
                statuses.append(NOT_ATTEMPTED)
            elif kind == "pending":
                statuses.append(PENDING)
            elif kind == "false":
                statuses.append(FAIL)
                failures.append(Failure(t, ccycle))
            else:
                statuses.append(PASS)
        return AssertionVerdict(a.effective_name(), statuses, failures,
                                self.underflows)


def check_assertion(trace: Trace, assertion: Assertion) -> AssertionVerdict:
    return _Monitor(trace, assertion).run()


def check_assertions(trace: Trace, assertions: list[Assertion]) -> list[AssertionVerdict]:
    """Evaluate every assertion over the same trace (one verdict each,
    same order)."""
    return [check_assertion(trace, a) for a in assertions]


# --------------------------------------------------------------------------
# batched checking

@dataclass
class BatchVerdict:
    """Per-row outcome of one assertion over a batch of traces."""

    failed: np.ndarray   # bool (rows,): some attempt fails
    passed: np.ndarray   # bool (rows,): some attempt passes non-vacuously


def check_batch(assertion: Assertion, values: Mapping[str, np.ndarray],
                widths: Mapping[str, int], params: Mapping[str, int],
                design: str) -> BatchVerdict:
    """Check *assertion* over every row of (rows, cycles) net arrays.

    Same semantics as ``check_assertion`` row by row: all attempts advance
    in lockstep through the steps of the normalized sequence, and an
    attempt leaves at the first step that cancels it (a disable cycle
    after its start, up to the step's cycle or the trace end), runs past
    the trace (pending) or reads a false term (vacuous in the antecedent,
    a failure in the consequent).  Attempts that survive every step pass.
    """
    a = normalize_overlapped(assertion)
    _validate(a, values, params, design)
    rows, cycles = values[a.clock].shape

    def env(name: str):
        if name in params:
            return np.uint64(params[name])
        return values[name]

    def width(name: str) -> int:
        if name in widths:
            return widths[name]
        return max(1, params[name].bit_length())

    def holds(e: ex.Expr) -> np.ndarray:
        return np.broadcast_to(batch_eval(e, env, width) != 0, (rows, cycles))

    disable = (holds(a.disable) if a.disable is not None
               else np.zeros((rows, cycles), dtype=bool))
    # seen[:, i] counts the disable cycles before cycle i
    seen = np.zeros((rows, cycles + 1), dtype=np.int64)
    np.cumsum(disable, axis=1, out=seen[:, 1:])
    start = np.arange(cycles)
    alive = ~disable
    failed = np.zeros((rows, cycles), dtype=bool)
    offset = 0
    plan = [(d, t, False) for d, t in a.antecedent.steps] + \
        [(d, t, True) for d, t in a.consequent.steps]
    for delay, term, in_consequent in plan:
        offset += delay
        reach = np.minimum(start + offset, cycles - 1)
        alive &= seen[:, reach + 1] <= seen[:, start + 1]   # not cancelled
        alive &= start + offset < cycles                    # not pending
        if not alive.any():
            break
        sampled = np.zeros((rows, cycles), dtype=bool)
        sampled[:, :cycles - offset] = holds(term)[:, offset:]
        if in_consequent:
            failed |= alive & ~sampled
        alive &= sampled
    return BatchVerdict(failed.any(axis=1), alive.any(axis=1))
