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

$past(e, d) reads the trace d cycles back.  Nets read before cycle 0 yield
0 (constants keep their values) and are counted in
``past_underflow_warnings`` — visible, never a silent pass.  The count has
one entry per net read before cycle 0 in each term that a live attempt
samples (every read of the term, both arms of a ``?:`` included), and in
the disable expression at every cycle.

``Checker`` compiles one assertion against one design, once: it rejects
names the design lacks, records the nets the assertion reads and compiles
every term with the design's widths and constants, so a constant has its
declared width (``parameter logic [3:0] P = 4'h1`` is 4 bits wide, an
unsized constant as wide as its value).  Calling it decides every row of
batch-simulated arrays, advancing every attempt of every row in lockstep.
``check_assertion`` and ``check_assertions`` compile nothing: they run
checkers their caller built once, on one trace as a batch of one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import UnknownSignalError
from .netlist import Netlist
from .sim import BatchExpr, Trace
from .sva import Assertion, normalize_overlapped, signals_of

NOT_ATTEMPTED = "not_attempted"
VACUOUS_PASS = "vacuous_pass"
PASS = "pass"
FAIL = "fail"
PENDING = "pending"

#: attempt statuses, indexed by the codes of ``BatchVerdict.status``
STATUSES = (NOT_ATTEMPTED, VACUOUS_PASS, PASS, FAIL, PENDING)
_NOT_ATTEMPTED, _VACUOUS_PASS, _PASS, _FAIL, _PENDING = range(len(STATUSES))


@dataclass(eq=True)
class Failure:
    attempt_cycle: int
    fail_cycle: int


@dataclass(eq=False)
class AssertionVerdict:
    """One assertion's outcome over one trace.  *codes* holds the status
    code of the attempt started at each cycle, an index into
    ``STATUSES``; the counts are taken from the codes."""

    name: str
    codes: np.ndarray  # int8 (cycles,)
    failures: list[Failure] = field(default_factory=list)
    past_underflow_warnings: int = 0

    @property
    def statuses(self) -> list[str]:
        """The status of the attempt started at each cycle."""
        return [STATUSES[c] for c in self.codes.tolist()]

    def _count(self, code: int) -> int:
        return int(np.count_nonzero(self.codes == code))

    @property
    def attempts(self) -> int:
        return self.codes.size - self._count(_NOT_ATTEMPTED)

    @property
    def vacuous_passes(self) -> int:
        return self._count(_VACUOUS_PASS)

    @property
    def non_vacuous_passes(self) -> int:
        return self._count(_PASS)

    @property
    def failure_count(self) -> int:
        return self._count(_FAIL)

    @property
    def pending_at_end(self) -> int:
        return self._count(_PENDING)

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def check_assertion(trace: Trace, checker: Checker) -> AssertionVerdict:
    """Run *checker* on *trace*, a run of the design it was compiled
    for, as a batch of one row, converting only the nets it reads."""
    verdict = checker(trace.arrays(checker.nets))
    status = verdict.status[0]
    failures = [Failure(int(t), int(verdict.fail_cycle[0, t]))
                for t in np.flatnonzero(status == _FAIL)]
    return AssertionVerdict(checker.assertion.effective_name(), status,
                            failures, int(verdict.past_underflows[0]))


def check_assertions(trace: Trace, checkers: list[Checker]) -> list[AssertionVerdict]:
    """One verdict per compiled assertion over *trace*, in order."""
    return [check_assertion(trace, c) for c in checkers]


# --------------------------------------------------------------------------
# the checker

@dataclass
class BatchVerdict:
    """Per-attempt outcome of one assertion over a batch of traces."""

    status: np.ndarray           # int8 (rows, cycles): STATUSES code per attempt start
    fail_cycle: np.ndarray       # int64 (rows, cycles): where status is FAIL, the
                                 # cycle at which the violated term was sampled
    past_underflows: np.ndarray  # int64 (rows,): nets read before cycle 0

    @property
    def failed(self) -> np.ndarray:
        """bool (rows,): some attempt fails."""
        return (self.status == _FAIL).any(axis=1)

    @property
    def passed(self) -> np.ndarray:
        """bool (rows,): some attempt passes non-vacuously."""
        return (self.status == _PASS).any(axis=1)


class Checker:
    """One assertion compiled against one design.

    Construction normalizes ``|=>``, rejects names that *netlist* lacks,
    and compiles the disable term and every step term once, with the
    netlist's widths and constants.  The checker then decides any batch of
    net arrays that holds ``nets``.
    """

    def __init__(self, assertion: Assertion, netlist: Netlist):
        a = normalize_overlapped(assertion)
        names = signals_of(a)
        for name in sorted(names):
            if not netlist.resolves(name):
                raise UnknownSignalError(
                    f"assertion {a.effective_name()} references {name}, "
                    f"which is not a net or constant of {netlist.name}")
        if a.clock not in netlist.nets:
            raise UnknownSignalError(
                f"assertion {a.effective_name()} samples clock {a.clock}, "
                f"which is not a net of {netlist.name}")
        self.assertion = a
        #: the nets the assertion reads, its clock included
        self.nets = (names - netlist.params.keys()) | {a.clock}
        consts = netlist.constants()

        def compiled(e) -> BatchExpr:
            return BatchExpr(e, netlist.width, consts)

        self._disable = compiled(a.disable) if a.disable is not None else None
        # (delay, term, in consequent) per step of the normalized sequence
        self._plan = ([(d, compiled(t), False) for d, t in a.antecedent.steps]
                      + [(d, compiled(t), True) for d, t in a.consequent.steps])

    def __call__(self, values: Mapping[str, np.ndarray]) -> BatchVerdict:
        """Decide every row of (rows, cycles) net arrays.

        All attempts advance in lockstep through the steps of the
        normalized sequence, and an attempt leaves at the first step that
        cancels it (a disable cycle after its start, up to the step's
        cycle or the trace end), runs past the trace (pending) or reads a
        false term (vacuous in the antecedent, a failure in the
        consequent).  Attempts that survive every step pass.
        """
        rows, cycles = values[self.assertion.clock].shape
        underflows = np.zeros(rows, dtype=np.int64)
        status = np.full((rows, cycles), _PASS, dtype=np.int8)
        alive = np.ones((rows, cycles), dtype=bool)
        cancels = False
        if self._disable is not None:
            disable = self._disable(values) != 0
            underflows += sum(min(d, cycles)
                              for d in self._disable.past_depths)
            status[disable] = _NOT_ATTEMPTED
            alive &= ~disable
            cancels = bool(disable.any())
            # seen[:, i] counts the disable cycles before cycle i
            seen = np.zeros((rows, cycles + 1), dtype=np.int64)
            np.cumsum(disable, axis=1, out=seen[:, 1:])
        start = np.arange(cycles)
        fail_cycle = np.zeros((rows, cycles), dtype=np.int64)
        offset = 0
        for delay, term, in_consequent in self._plan:
            offset += delay
            if cancels:
                reach = np.minimum(start + offset, cycles - 1)
                left = alive & (seen[:, reach + 1] > seen[:, start + 1])
                status[left] = _NOT_ATTEMPTED
                alive &= ~left
            late = max(cycles - offset, 0)  # attempts from here run past the end
            status[:, late:][alive[:, late:]] = _PENDING
            alive[:, late:] = False
            if not alive.any():
                break
            sampled = np.zeros((rows, cycles), dtype=bool)
            sampled[:, :late] = (term(values) != 0)[:, offset:]
            for d in term.past_depths:
                underflows += np.count_nonzero(alive[:, :max(d - offset, 0)],
                                               axis=1)
            left = alive & ~sampled
            if in_consequent:
                status[left] = _FAIL
                fail_cycle[left] = offset
            else:
                status[left] = _VACUOUS_PASS
            alive &= sampled
        return BatchVerdict(status, fail_cycle + start, underflows)
