"""Stimulus search shared by test-case generation and trojan activation.

The strategy is deliberately simple and fully deterministic: a candidate
is a vector of input values, held constant apart from the warm-up its
schedule gives it (``schedules`` says what a warm-up is).  A search is
one pass: a set of free inputs and the input bits it forces.  Its free
bits are enumerated exhaustively when they are few enough, otherwise
sampled from a seeded stream.  Candidates are simulated in numpy
batches, one (rows, cycles) array per input, a caller-supplied objective
decides every batch with arrays, and a scalar check confirms the winner.
Batches grow from 256 rows, doubling up to 8,192, so a witness near the
start costs a small batch; the candidates and their order do not depend
on the batch sizes, so every search meets the same first witness
whatever they are.

``necessary_literals`` guides a search: it backtraces a term through the
combinational logic to the input bits every candidate that makes the term
true must have (PODEM's backtrace, Goel 1981).  Every constant-schedule
witness has those bits, so forcing them loses none.  An enumerated
search holds every such witness, and since forcing keeps the integer
order of the remaining free bits, it meets them in the order an unforced
one would.  A sampled search draws from a smaller space than an unforced
one, and every witness of the larger space lies in it.

The same literals decide which schedules can meet a term at all:
``ruled_out`` says why no candidate of a schedule can make the term
true, and a term whose literals contradict each other is never true.
The caller picks the plans a search tries: forge passes on only those
``ruled_out`` leaves, and skips an attempt unsearched when none is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable, Iterator

import numpy as np

from . import expr as ex
from .graph import DependencyGraph
from .netlist import Netlist, NetKind
from .sim import SimKernel, Stimulus

_FIRST_CHUNK = 256  # rows of a search's first batch; each next one doubles,
_CHUNK = 8192       # up to this many
_WORD = 63  # random bits per drawn code word (the draw keeps the sign bit clear)
_EXHAUSTIVE_BITS = 20    # enumerate the free bits when they fit
_RANDOM_VECTORS = 10000  # otherwise draw this many candidates
_WARMUP = 4              # warm-up cycles at most (``schedules``)


#: input bits a search holds fixed: (input, bit) -> 0 or 1
Literals = dict[tuple[str, int], int]


@dataclass
class SearchStats:
    """What a search cost, and how its witness was found: the winning
    schedule, whether the free bits were ``enumerated`` or
    ``sampled``, and how many bits it forced (each None when no witness
    was found)."""

    candidates: int = 0
    schedule: str | None = None
    space: str | None = None
    forced: int | None = None


def input_cone(netlist: Netlist, graph: DependencyGraph,
               signals: set[str]) -> list[str]:
    """Primary inputs that can influence any of *signals* over the graph's
    edges, which leave out reset edges (clock excluded, an input signal is
    its own cone, names that are not nets ignored)."""
    cone: set[str] = set()
    todo = [s for s in signals if s in netlist.nets]
    while todo:
        name = todo.pop()
        if name not in cone:
            cone.add(name)
            todo.extend(graph.reads_of(name))
    clocks = netlist.clock_nets()
    return sorted(n for n in cone if n not in clocks
                  and netlist.nets[n].kind is NetKind.INPUT)


_LOGIC = ("!", "&&", "||", "==", "!=")  # operators whose value is 0 or 1


class _Conflict(Exception):
    """Two requirements of a term disagree on one bit."""


def necessary_literals(term: ex.Expr, netlist: Netlist) -> Literals | None:
    """The primary-input bits, clock and reset excluded, that hold
    whenever *term* is true; None when no input values make it true,
    because two of its requirements disagree.

    A requirement on a node (not zero, or given bits) becomes requirements
    on its operands wherever it implies them: through ``&&``, ``&``,
    ``!``, ``~``, ``||`` and ``|`` required false, ``==`` and ``!=``
    against a constant or parameter, bit and part selects, each net's
    combinational ``assign``, and the then-branch of a ``?:`` whose
    condition is already required true.  The walk stops at registers,
    ``$past``, any other ``?:``, ``+``, ``^`` and comparisons of two
    non-constant values, so every returned bit is necessary, and None
    means a real contradiction.
    """
    consts = netlist.constants()
    drivers = {a.lhs: a.rhs for a in netlist.assigns}
    off_limits = netlist.clock_nets() | netlist.reset_nets()
    width = netlist.width
    out: Literals = {}
    # the requirements on nets already walked, so that reconverging
    # fan-out is walked once
    walked: set[tuple[str, tuple | None]] = set()
    held: list[ex.Expr] = []  # the nodes required not zero so far

    def const(e: ex.Expr) -> int | None:
        if isinstance(e, ex.Const):
            return e.value
        if isinstance(e, ex.Ident) and e.name in consts:
            return consts[e.name]
        return None

    def first(name: str, bits: tuple | None) -> bool:
        """Whether *bits* (None: not zero) are required of net *name* for
        the first time."""
        if (name, bits) in walked:
            return False
        walked.add((name, bits))
        return True

    def taken(e: ex.Expr) -> bool:
        """Whether *e* is a ``?:`` whose condition is required true, so
        that it takes its then-branch."""
        return isinstance(e, ex.Ternary) and any(e.cond == h for h in held)

    def true(e: ex.Expr) -> None:
        """*e* is not zero."""
        held.append(e)
        c = const(e)
        if c is not None:
            if not c:
                raise _Conflict
        elif isinstance(e, ex.Ident) and e.name in drivers:
            if first(e.name, None):
                true(drivers[e.name])
        elif isinstance(e, ex.Binary) and e.op == "&":
            true(e.left)
            true(e.right)
        elif taken(e):
            true(e.then)
        elif ex.width_of(e, width) == 1:
            need(e, {0: 1})

    def zero(e: ex.Expr) -> None:
        need(e, dict.fromkeys(range(ex.width_of(e, width) or 1), 0))

    def need(e: ex.Expr, bits: dict[int, int]) -> None:
        """Bit i of *e*'s value is bits[i]."""
        c = const(e)
        if c is not None:
            if any((c >> i) & 1 != b for i, b in bits.items()):
                raise _Conflict
        elif isinstance(e, ex.Select):
            span = e.msb - e.lsb + 1
            if any(b for i, b in bits.items() if i >= span):
                raise _Conflict
            need(ex.Ident(e.base), {i + e.lsb: b for i, b in bits.items()
                                    if i < span})
        elif isinstance(e, ex.Ident) and e.name in drivers:
            if first(e.name, tuple(sorted(bits.items()))):
                need(drivers[e.name], bits)
        elif taken(e):
            need(e.then, bits)
        elif isinstance(e, ex.Ident):
            net = netlist.nets[e.name]
            if net.kind is not NetKind.INPUT:
                return  # a register
            for i, b in bits.items():
                if i >= net.width:
                    if b:
                        raise _Conflict
                elif e.name not in off_limits and \
                        out.setdefault((e.name, i), b) != b:
                    raise _Conflict
        elif isinstance(e, ex.Unary) and e.op == "~":
            span = ex.width_of(e.operand, width)
            if span is None:
                return  # ~ of an unsized literal does not compile
            if any(b for i, b in bits.items() if i >= span):
                raise _Conflict
            need(e.operand, {i: 1 - b for i, b in bits.items() if i < span})
        elif isinstance(e, (ex.Unary, ex.Binary)) and e.op in _LOGIC:
            if any(b for i, b in bits.items() if i >= 1):
                raise _Conflict
            if 0 in bits:
                logic(e, bits[0])
        elif isinstance(e, ex.Binary) and e.op in ("&", "|"):
            # a bit of & that is 1, or of | that is 0, is so in both operands
            keep = {i: b for i, b in bits.items() if b == (e.op == "&")}
            need(e.left, keep)
            need(e.right, keep)

    def logic(e: ex.Unary | ex.Binary, value: int) -> None:
        """The 0/1 node *e* has *value*."""
        if e.op == "!":
            (zero if value else true)(e.operand)
        elif e.op == "&&" and value:
            true(e.left)
            true(e.right)
        elif e.op == "||" and not value:
            zero(e.left)
            zero(e.right)
        elif e.op in ("==", "!="):
            equal = bool(value) == (e.op == "==")
            for x, y in ((e.left, e.right), (e.right, e.left)):
                c = const(y)
                if c is None:
                    continue
                if equal:
                    span = max(c.bit_length(), ex.width_of(x, width) or 1)
                    need(x, {i: (c >> i) & 1 for i in range(span)})
                elif c == 0:
                    true(x)
                return

    try:
        true(term)
    except _Conflict:
        return None
    return out


def _free(netlist: Netlist, inputs: list[str],
          forced: Literals) -> list[tuple[str, int]]:
    """The bits of *inputs* that *forced* leaves free, in input order."""
    return [(name, bit) for name in inputs
            for bit in range(netlist.nets[name].width)
            if (name, bit) not in forced]


def _runs(free: list[tuple[str, int]]) -> list[tuple]:
    """Free bit i is bit i % _WORD of code word i // _WORD.  Consecutive
    free bits of one input that lie in one word and fill adjacent bits of
    the input, so that bit - i stays the same, form a run, copied with
    one shift and mask: (input, word, shift, mask, lowest bit)."""
    runs = []
    for (name, word, _), group in groupby(
            enumerate(free), key=lambda e: (e[1][0], e[0] // _WORD,
                                            e[1][1] - e[0])):
        (i, (_, bit)), *rest = group
        runs.append((name, word, np.uint64(i % _WORD),
                     np.uint64(ex.mask(1 + len(rest))), np.uint64(bit)))
    return runs


def _vectors(netlist: Netlist, inputs: list[str],
             forced: Literals,
             rng: np.random.Generator) -> Iterator[dict[str, np.ndarray]]:
    """Yield batches of constant input vectors (dict name -> (rows,) uint64)
    honoring the forced bits.  Exhaustive in integer order when the free
    space fits, else seeded random.  The first batch has _FIRST_CHUNK rows
    and each next one twice as many, up to _CHUNK; the candidates and
    their order do not depend on the batch sizes."""
    free = _free(netlist, inputs, forced)
    base = {name: np.uint64(0) for name in inputs}
    for (name, bit), val in forced.items():
        if name in base and val:
            base[name] |= np.uint64(1 << bit)
    runs = _runs(free)

    def expand(codes: np.ndarray) -> dict[str, np.ndarray]:
        """The inputs of the (rows, words) *codes*, run by run."""
        rows = codes.shape[0]
        out = {name: np.full(rows, base[name], dtype=np.uint64) for name in inputs}
        for name, word, shift, mask, bit in runs:
            out[name] |= ((codes[:, word] >> shift) & mask) << bit
        return out

    n = len(free)
    sampled = n > _EXHAUSTIVE_BITS
    total = _RANDOM_VECTORS if sampled else 1 << n
    # one word per _WORD free bits, the last masked to the bits left
    masks = np.array([ex.mask(min(_WORD, n - lo)) for lo in range(0, n, _WORD)],
                     dtype=np.uint64)
    start, size = 0, _FIRST_CHUNK
    while start < total:
        stop = min(start + size, total)
        if sampled:
            # each row draws its words in turn, so the stream does not
            # depend on how the rows are split into batches
            codes = rng.integers(0, 1 << 63, size=(stop - start, masks.size),
                                 dtype=np.uint64) & masks
        else:
            codes = np.arange(start, stop, dtype=np.uint64)[:, None]
        yield expand(codes)
        start, size = stop, min(2 * size, _CHUNK)


@dataclass(frozen=True)
class Schedule:
    """A plan for laying candidate vectors out in time (``schedules``):
    for the first *warmup* cycles the forced bits in *flips* are held
    inverted, then the vector applies to the end."""

    name: str
    warmup: int
    flips: frozenset[tuple[str, int]]

    def phases(self, forced: Literals) -> list[Literals]:
        """The *forced* bits as a candidate holds them after the warm-up,
        and during it if there is one."""
        warm = {bit: value ^ (bit in self.flips)
                for bit, value in forced.items()}
        return [forced, warm] if self.warmup else [forced]


def schedules(netlist: Netlist, forced: Literals, cycles: int,
              flips: Iterable[tuple[str, int]] | None = None,
              ) -> list[Schedule]:
    """The schedules of a *cycles*-cycle search that forces the *forced*
    bits, in order: the one place that decides the warm-up.

    'constant' holds each vector from cycle 0.  On a design with
    registers, 'flipped_prefix' first holds the flipped bits (*flips*, by
    default every forced bit) inverted for a warm-up of _WARMUP cycles,
    never the last, so sequential state sees them change; a one-cycle
    search has no warm-up to give.  Flipping only the forced bits that
    overrule bits a term needs (forge's trigger against its target's
    term) lets the term hold in the warm-up, as sequential ATPG justifies
    a value in an earlier time frame (Niermann and Patel, HITEC, 1991).
    """
    plans = [Schedule("constant", 0, frozenset())]
    warmup = min(_WARMUP, cycles - 1)
    flipped = frozenset(forced if flips is None else flips)
    if netlist.registers and flipped and warmup > 0:
        plans.append(Schedule("flipped_prefix", warmup, flipped))
    return plans


def _apply(schedule: Schedule, values: dict[str, np.ndarray],
           cycles: int) -> dict[str, np.ndarray]:
    """The (rows, cycles) stimulus batch of *schedule* for a batch of
    constant vectors: each input a read-only view of its vector with
    cycle stride 0, or a copy where the warm-up flips some of its bits."""
    batch = {name: np.broadcast_to(v[:, None], (v.size, cycles))
             for name, v in values.items()}
    masks: dict[str, int] = {}
    for name, bit in schedule.flips:
        masks[name] = masks.get(name, 0) | 1 << bit
    for name, flip in masks.items():
        if name in batch:
            arr = batch[name].copy()
            arr[:, :schedule.warmup] ^= np.uint64(flip)
            batch[name] = arr
    return batch


def ruled_out(need: Literals | None, schedule: Schedule,
              forced: Literals) -> str | None:
    """Why no candidate of *schedule*, in a search that forces the
    *forced* bits, makes a term true at any cycle; None when one may.
    *need* is the term's ``necessary_literals``, None when its
    requirements contradict.

    The term holds only in a cycle whose inputs have its necessary
    literals.  A phase of the schedule (``Schedule.phases``) that holds a
    bit the term needs the other way never meets it, and a schedule none
    of whose phases can is ruled out.
    """
    if need is None:
        return "its requirements contradict each other"
    if all(any(held.get(bit, value) != value for bit, value in need.items())
           for held in schedule.phases(forced)):
        return "a forced bit contradicts a bit it needs"
    return None


def search_stimulus(
    netlist: Netlist,
    inputs: list[str],
    forced: Literals,
    objective: Callable[[dict[str, np.ndarray], dict[str, np.ndarray]],
                        np.ndarray],
    accept: Callable[[Stimulus], bool],
    rng: np.random.Generator,
    horizon: int,
    kernel: SimKernel,
    plans: list[Schedule],
) -> tuple[Stimulus | None, SearchStats]:
    """Find a *horizon*-cycle stimulus that meets the caller's objective.

    The search holds the *forced* bits and frees every other bit of
    *inputs*; the rest of the inputs stay at zero, and resets at their
    idle level.  It tries each of *plans* in turn, exactly the plans the
    caller picked (``schedules`` lists them).

    *objective* receives the net arrays batch-simulated on *kernel*
    (rows x cycles), which must keep every net it reads, and the
    (rows x cycles) input arrays that produced them, so that it can run
    another kernel on the same candidates (forge runs the clean design).
    It decides the full objective with arrays over every row of the
    batch, and returns a mask: one bool per row, true where the row
    meets it.  *accept* only confirms: the first true row is materialized
    and re-checked with a scalar run (single-run semantics, monitors,
    ...); should it disagree, the next true row is tried.  With an
    exhaustive enumeration, every candidate that meets the objective is
    therefore reached.  Deterministic: candidate order is fixed by the
    plans, the enumeration and the seeded stream.
    """
    stats = SearchStats()
    resets = netlist.idle_resets()
    # reset is pinned inactive below, never enumerated
    relevant = [n for n in inputs if n not in resets]
    free = len(_free(netlist, relevant, forced))
    space = "enumerated" if free <= _EXHAUSTIVE_BITS else "sampled"
    for plan in plans:
        for values in _vectors(netlist, relevant, forced, rng):
            rows = next(iter(values.values())).shape[0] if values else 1
            stats.candidates += rows
            batch = _apply(plan, values, horizon)
            # searches never toggle reset: pin it at the inactive level
            for name, lvl in resets.items():
                batch[name] = np.broadcast_to(np.uint64(lvl), (rows, horizon))
            arrays = kernel.run_batch(batch, horizon)
            for row in np.flatnonzero(objective(arrays, batch)):
                stim = _materialize(netlist, batch, int(row), horizon)
                if accept(stim):
                    stats.schedule, stats.space = plan.name, space
                    stats.forced = len(forced)
                    return stim, stats
    return None, stats


def _materialize(netlist: Netlist, batch: dict[str, np.ndarray], row: int,
                 cycles: int) -> Stimulus:
    """Row *row* of a stimulus batch, its columns in the netlist's input
    order; an input the batch leaves out holds its idle level, or 0."""
    idle = netlist.idle_resets()
    return Stimulus.of_columns(
        {n.name: batch[n.name][row].tolist() if n.name in batch
         else [idle.get(n.name, 0)] * cycles for n in netlist.inputs()},
        cycles)
