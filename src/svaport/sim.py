"""Cycle-accurate two-phase simulator.

Each cycle: primary inputs are applied, continuous assigns settle in
dependency order, the settled values are recorded (this is the snapshot
assertions sample), and then every register captures its next value
simultaneously — the update becomes visible in the following cycle.
Registers start at their reset value, or 0 when no reset is declared, and a
register whose reset net is active at the clock edge reloads its reset value
for the next cycle.

A kernel is one generated Python function that loops over a sequence
of cycles, settling and updating in each.  Generated code names nets by
position, never by name: a kernel's nets by their place in its cone, a
``BatchExpr``'s arguments by the order it first reads them.  It compiles
once per distinct source (``_compiled``), so every slice of the same
logic, in one design or in renamed copies, shares one function.  A kernel
runs in two flavors: scalar (plain ints), handed the whole stimulus in
one call, and batch (numpy uint64 arrays, many independent stimuli at
once; the RTL parser rejects nets wider than 64 bits), handed one cycle
per call so that it can stop early.  ``emit`` is the one expression
evaluator: it writes the kernel's code, and ``BatchExpr`` compiles
assertion terms and trigger conditions with it.

A stimulus holds one column of values per input (``Stimulus``).  One
checked reader takes it in either of its two forms, per-cycle maps or a
column object (``Stimulus.for_design``), and it is written to disk as the
column object (``stimulus_text``).  A kernel may be sliced to the nets a
caller reads (``SimKernel``); it reads only the inputs of that slice's
fan-in cone, and records only the nets it computes.  A scalar run returns
a ``Trace``.  A batch run takes each input as one (rows, cycles) array and
returns each net the same way.  In every run, an input it is not given
holds its idle level (``Netlist.idle_levels``).  Either run hands a kept
input back as the caller's own column or array, not a copy, so what a
run returns must be treated as read-only.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from operator import itemgetter, pos
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from . import expr as ex
from .errors import ConfigError, ElaborationError, UnknownSignalError
from .netlist import Netlist
from .records import read_json


# --------------------------------------------------------------------------
# stimulus

@dataclass(init=False)
class Stimulus:
    """Values for every primary input, held as one column per input.

    ``columns`` maps each input to its values, one per cycle; ``cycles``
    counts the cycles, which a design without inputs has too.
    ``Stimulus(data)`` takes either form of ``docs/file_formats.md`` as it
    is: full per-cycle maps that all name the same inputs, or the column
    object ``{"cycles": N, "inputs": {name: [N values]}}``.
    ``for_design`` also fills in the inputs the data omits and checks the
    values; ``of_columns`` takes columns as they are, unchecked.
    ``inputs``, the per-cycle maps, is built on demand.
    """

    columns: dict[str, list[int]]
    cycles: int

    def __init__(self, data: list[dict[str, int]] | dict):
        if isinstance(data, dict):
            self.columns, self.cycles = dict(data["inputs"]), data["cycles"]
            if any(len(col) != self.cycles for col in self.columns.values()):
                raise ValueError("every input of a stimulus must hold one "
                                 "value per cycle")
            return
        rows = data
        names = list(rows[0]) if rows else []
        if any(row.keys() != rows[0].keys() for row in rows):
            raise ValueError("every cycle of a stimulus must name the same "
                             "inputs")
        self.columns = {name: [row[name] for row in rows] for name in names}
        self.cycles = len(rows)

    @classmethod
    def of_columns(cls, columns: dict[str, list[int]],
                   cycles: int) -> "Stimulus":
        stim = cls.__new__(cls)
        stim.columns, stim.cycles = columns, cycles
        return stim

    def rows(self, names: Iterable[str]) -> Iterable[tuple]:
        """Each cycle's values of the inputs *names*, in that order: their
        columns zipped."""
        columns = [self.columns[name] for name in names]
        return zip(*columns) if columns else repeat((), self.cycles)

    @property
    def inputs(self) -> list[dict[str, int]]:
        """One map of every input's value per cycle, built on each read."""
        return [dict(zip(self.columns, values))
                for values in self.rows(self.columns)]

    @staticmethod
    def for_design(netlist: Netlist,
                   data: list[dict[str, int]] | dict) -> "Stimulus":
        """Fill in the defaults and check the values by the stimulus rules
        of ``docs/file_formats.md``; a fault raises, naming the earliest
        cycle at fault.

        One reader takes both forms.  A front end turns *data* into one
        column per input, in netlist order and an omitted input at its
        idle level, and lists the faults only it sees, each with its cycle
        (``_cycle_columns`` for per-cycle maps, ``_object_columns`` for a
        column object).  Each column is then checked whole, all integers
        that fit the input's width, and searched for its first bad value
        only if it fails.  The earliest fault raises; within its cycle the
        bad values come first, in netlist order, then the front end's.
        """
        nets = netlist.inputs()
        idle = netlist.idle_levels()
        if isinstance(data, dict):
            columns, cycles, faults = _object_columns(netlist, idle, data)
        elif isinstance(data, list):
            columns, cycles, faults = _cycle_columns(netlist, idle, data)
        else:
            raise ConfigError("expected an array of per-cycle input maps or "
                              "an object of \"cycles\" and \"inputs\"")
        values = []
        for n in _bad_columns(nets, columns):
            i, v = next((i, v) for i, v in enumerate(columns[n.name])
                        if type(v) is not int or v >> n.width)
            fault = (f"value {v!r} for input {n.name} is not an integer"
                     if type(v) is not int else f"value {v} does not fit "
                     f"input {n.name}[{n.width - 1}:0]")
            values.append((i, ConfigError(f"cycle {i}: {fault}")))
        faults = values + faults
        if faults:
            raise min(faults, key=itemgetter(0))[1]
        return Stimulus.of_columns(columns, cycles)


def _cycle_columns(netlist: Netlist, idle: dict, cycles: list) -> tuple:
    """The per-cycle front end: each input's column by one ``dict.get``
    pass over the maps, which reads an omitted input at its *idle* level
    and never asks a map subclass's ``__missing__``.  The maps end at the
    first entry that is not one, a fault at its cycle; the first name, by
    cycle, that is no input is a fault at its cycle too."""
    faults = []
    maps = cycles
    if not all(map(isinstance, cycles, repeat(dict))):
        at = next(i for i, c in enumerate(cycles) if not isinstance(c, dict))
        maps = cycles[:at]
        faults.append((at, ConfigError(
            f"cycle {at}: expected a map of input values, got "
            f"{type(cycles[at]).__name__}")))
    columns = {name: list(map(dict.get, maps, repeat(name), repeat(level)))
               for name, level in idle.items()}
    if not idle.keys() >= set().union(*maps):
        at, name = next((i, name) for i, m in enumerate(maps) for name in m
                        if name not in idle)
        faults.append((at, UnknownSignalError(
            f"{name} is not an input of {netlist.name}")))
    return columns, len(maps), faults


def _object_columns(netlist: Netlist, idle: dict, data: dict) -> tuple:
    """The column front end.  The object's shape is checked first: exactly
    the keys ``cycles``, a count, and ``inputs``, an object holding one
    array of ``cycles`` values per input.  An input the object leaves out
    holds its *idle* level.  A column names its input in every cycle, so
    the first input the design lacks is a fault at cycle 0, in an object
    of no cycles too."""
    if data.keys() != {"cycles", "inputs"}:
        raise ConfigError(f"a column stimulus has the keys \"cycles\" and "
                          f"\"inputs\" alone, not {sorted(map(str, data))}")
    cycles, given = data["cycles"], data["inputs"]
    if type(cycles) is not int or cycles < 0:
        raise ConfigError(f"\"cycles\" must be a count, not {cycles!r}")
    if not isinstance(given, dict):
        raise ConfigError("\"inputs\" must be an object of columns, not "
                          + type(given).__name__)
    for name, col in given.items():
        if not isinstance(col, list):
            raise ConfigError(f"input {name} must be an array of values, "
                              f"not {type(col).__name__}")
        if len(col) != cycles:
            raise ConfigError(f"input {name} holds {len(col)} values for "
                              f"{cycles} cycles")
    columns = {name: given[name] if name in given else [level] * cycles
               for name, level in idle.items()}
    return columns, cycles, [
        (0, UnknownSignalError(f"{name} is not an input of {netlist.name}"))
        for name in given if name not in idle][:1]


def _bad_columns(nets: list, columns: dict[str, list]) -> list:
    """The inputs whose column holds a value that is no int fitting them."""
    return [n for n, col in zip(nets, columns.values())
            if not (set(map(type, col)) <= {int} and _fits(col, n.width))]


def _fits(col: list[int], width: int) -> bool:
    """Whether every int of *col* fits *width* bits: packing them as
    uint64 fails on a negative value or one wider than 64 bits."""
    try:
        packed = array("Q", col)
    except OverflowError:
        return False
    return not col or int(np.frombuffer(packed, np.uint64).max()) >> width == 0


def stimulus_text(stim: Stimulus) -> str:
    """The one on-disk form of a stimulus: the column object of
    ``Stimulus``, as one ``json.dumps`` on one line.

    The inputs come in the order of ``columns``: the netlist's input
    order for every stimulus the pipeline writes.
    """
    return json.dumps({"cycles": stim.cycles, "inputs": stim.columns}) + "\n"


def load_stimulus(path: str | Path, netlist: Netlist) -> Stimulus:
    """Read a stimulus file of either form, checked by ``for_design``."""
    return Stimulus.for_design(netlist, read_json(path))


# --------------------------------------------------------------------------
# traces

@dataclass
class Trace:
    """Settled per-cycle values of the simulated nets of *netlist*, which
    gives their widths and the design's constants.

    ``values`` holds each net's values as a list.  ``arrays`` converts a
    net to uint64 on its first request and hands out that same read-only
    array after, so a trace read by many assertions converts each net
    once.  uint64 holds every net: the RTL parser rejects nets wider than
    64 bits.
    """

    netlist: Netlist
    nets: tuple[str, ...]
    values: dict[str, list[int]]
    cycles: int
    _arrays: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def arrays(self, nets: Iterable[str]) -> dict[str, np.ndarray]:
        """The given nets as read-only (1, cycles) uint64 arrays: the trace
        as a batch of one row."""
        out = {}
        for n in nets:
            arr = self._arrays.get(n)
            if arr is None:
                arr = self._arrays[n] = np.frombuffer(
                    array("Q", self.values[n]), np.uint64)[None]
                arr.flags.writeable = False
            out[n] = arr
        return out


# --------------------------------------------------------------------------
# expression emitter

def _scalar_mux(c, a, b):
    return a if c else b


def _batch_mux(c, a, b):
    return np.where(c, a, b).astype(np.uint64)


def _batch_bit(x):
    return np.asarray(x).astype(np.uint64)


def emit(e: ex.Expr, width: Callable[[str], int], params: Mapping[str, int],
         read: Callable[[str, int], str], *, past: bool = False,
         depth: int = 0) -> str:
    """Python source computing *e*: the one evaluator of the expression AST.

    The source runs on plain ints (any width) and on numpy uint64 arrays
    alike, given that flavor's ``_b`` (truth value to 0/1) and ``_mux``.
    Parameters are inlined as literals, and a net read *depth* cycles back
    is the variable ``read(name, depth)``, so the caller names every net.
    ``$past`` is allowed only with *past*: it is not synthesizable.
    """
    def net(name: str) -> str:
        return read(name, depth)

    def sub(x: ex.Expr) -> str:
        return emit(x, width, params, read, past=past, depth=depth)

    if isinstance(e, ex.Const):
        return str(e.value)
    if isinstance(e, ex.Ident):
        return str(params[e.name]) if e.name in params else net(e.name)
    if isinstance(e, ex.Select):
        w = e.msb - e.lsb + 1
        base = str(params[e.base]) if e.base in params else net(e.base)
        if e.lsb == 0:
            return f"({base} & {ex.mask(w)})"
        return f"(({base} >> {e.lsb}) & {ex.mask(w)})"
    if isinstance(e, ex.Unary):
        inner = sub(e.operand)
        if e.op == "!":
            return f"_b({inner} == 0)"
        w = ex.width_of(e.operand, width)
        if w is None:
            raise ElaborationError("cannot apply ~ to an unsized literal")
        return f"(~{inner} & {ex.mask(w)})"
    if isinstance(e, ex.Binary):
        lhs, rhs = sub(e.left), sub(e.right)
        if e.op == "&&":
            return f"_b(({lhs} != 0) & ({rhs} != 0))"
        if e.op == "||":
            return f"_b(({lhs} != 0) | ({rhs} != 0))"
        if e.op in ("==", "!="):
            return f"_b({lhs} {e.op} {rhs})"
        if e.op == "+":
            w = ex.width_of(e, width)
            if w is None:
                return f"({lhs} + {rhs})"
            return f"(({lhs} + {rhs}) & {ex.mask(w)})"
        return f"({lhs} {e.op} {rhs})"
    if isinstance(e, ex.Ternary):
        return f"_mux({sub(e.cond)} != 0, {sub(e.then)}, {sub(e.other)})"
    if isinstance(e, ex.Past):
        if not past:
            raise ElaborationError("$past cannot appear in synthesizable logic")
        return emit(e.expr, width, params, read, past=True,
                    depth=depth + e.depth)
    raise TypeError(f"not an expression node: {e!r}")


@contextmanager
def _compiling(what: str) -> Iterator[None]:
    """Turn the errors Python raises on code nested too deeply for it,
    in ``emit`` or in ``_compiled``, into an ``ElaborationError`` that
    names *what* was being compiled."""
    try:
        yield
    except (RecursionError, SyntaxError):
        raise ElaborationError(f"{what} nests too deeply to compile") \
            from None


@lru_cache(maxsize=4096)
def _compiled(source: str, name: str) -> Callable:
    """The function *name* that *source* defines, compiled once per
    distinct source: the one compile cache of generated code."""
    scope: dict = {"_b": _batch_bit, "_mux": _batch_mux}
    exec(compile(source, "<generated>", "exec"), scope)
    return scope[name]


def _past(v: np.ndarray, depth: int) -> np.ndarray:
    """*v* shifted *depth* cycles later along the cycle axis, zero-filled."""
    out = np.zeros_like(v)
    if depth < v.shape[1]:
        out[:, depth:] = v[:, :-depth]
    return out


class BatchExpr:
    """An expression compiled to a function of (rows, cycles) net arrays.

    ``$past(e, d)`` reads every net of *e* shifted d cycles along the
    cycle axis and zero-filled: nets read 0 before cycle 0, parameters keep
    their values.
    """

    def __init__(self, e: ex.Expr, width: Callable[[str], int],
                 params: Mapping[str, int]):
        # each (net, depth) read is the argument a<i>, numbered in the
        # order of first read
        slots: dict[tuple[str, int], str] = {}
        depths: list[int] = []

        def read(name: str, depth: int) -> str:
            if depth:
                depths.append(depth)
            return slots.setdefault((name, depth), f"a{len(slots)}")

        with _compiling("an expression"):
            body = emit(e, width, params, read, past=True)
            self._fn = _compiled(
                f"def _expr({', '.join(slots.values())}):\n"
                f"    return {body}\n", "_expr")
        self.args = tuple(slots)
        #: the $past depth of every net read under $past, one per read
        self.past_depths = tuple(depths)

    @property
    def nets(self) -> set[str]:
        return {name for name, _ in self.args}

    def __call__(self, values: Mapping[str, np.ndarray]) -> np.ndarray:
        """Values of the expression, shaped like the arrays of *values*."""
        shape = next(iter(values.values())).shape
        out = self._fn(*(values[n] if d == 0 else _past(values[n], d)
                         for n, d in self.args))
        return out if np.shape(out) == shape else np.broadcast_to(out, shape)


# --------------------------------------------------------------------------
# compiled kernel

def fanin_cone(netlist: Netlist, keep: Iterable[str]) -> set[str]:
    """*keep* and every net that can reach it over the netlist's read
    edges, reset edges included: a register's reset mux reads its net."""
    cone: set[str] = set()
    todo = list(keep)
    while todo:
        name = todo.pop()
        if name in cone:
            continue
        if name not in netlist.nets:
            raise UnknownSignalError(f"{name} is not a net of {netlist.name}")
        cone.add(name)
        todo.extend(n for n, _ in netlist.edges.get(name, ()))
    return cone


class SimKernel:
    """One netlist compiled into a reusable settle+update loop over
    cycles.

    With *keep*, a set of nets, the kernel is sliced to their fan-in cone
    (cone-of-influence reduction): it computes only the assigns and
    registers that can reach a kept net, and ``run`` and ``run_batch``
    return the kept nets alone.  Without *keep* the cone is the whole
    design and every net is returned.  Either way the kernel unpacks and
    steps only the inputs of its cone, ``input_names``, so a reset mux in
    the cone sees its net and a caller need give no other input.

    The loop records only the nets it computes.  A kept input comes back
    as the caller's own values: the stimulus's column from ``run``, the
    given (rows, cycles) array from ``run_batch``.  They are not copies,
    and must be treated as read-only.

    The generated ``source`` names each net by its position in the cone,
    in declaration order (``v<i>``, its next value ``n<i>``), never by its
    name.  Slices of the same logic, in one design or in renamed copies,
    therefore have one source and share one compiled function.
    """

    def __init__(self, netlist: Netlist, keep: Iterable[str] | None = None):
        self.netlist = netlist
        cone = set(netlist.nets) if keep is None else fanin_cone(netlist, keep)
        kept = cone if keep is None else set(keep)
        self._cone = tuple(n for n in netlist.nets if n in cone)
        #: each cone input's idle level, held where a batch leaves it out
        self._idle = {n: level for n, level in netlist.idle_levels().items()
                      if n in cone}
        self.input_names = tuple(self._idle)
        self._registers = [r for r in netlist.registers if r.target in cone]
        self._assigns = [a for a in netlist.assign_order if a.lhs in cone]
        self.reg_names = tuple(r.target for r in self._registers)
        #: the nets ``run`` and ``run_batch`` return, in declaration order
        self.net_order = tuple(n for n in self._cone if n in kept)
        # the returned nets the loop computes and records: all but inputs
        self._recorded = tuple(n for n in self.net_order
                               if n not in self.input_names)
        self.reg_init = tuple(
            (r.reset.value if r.reset is not None else 0)
            for r in self._registers)
        with _compiling(f"the logic of module {netlist.name}"):
            self._source = self._generate()
            self._fn = _compiled(self._source, "_run")

    # -- code generation ---------------------------------------------------

    def _generate(self) -> str:
        """The source of ``_run(INS, REG, _zero, _b, _mux)``: it steps
        through the cycles of *INS*, each a tuple of input values in
        ``input_names`` order, from the register values *REG*, and returns
        one list per net of ``_recorded``, holding its value in each
        cycle, and the registers after the last cycle."""
        nl = self.netlist
        params = nl.constants()
        slot = {n: str(i) for i, n in enumerate(self._cone)}

        def read(name: str, depth: int) -> str:
            return f"v{slot[name]}"

        def items(xs: Iterable[str]) -> str:
            # a tuple's items, or nothing for none: "v0, v3,"
            return "".join(f" {x}," for x in xs)[1:]

        def names(prefix: str, nets: Iterable[str]) -> str:
            return items(prefix + slot[n] for n in nets)

        regs = names("v", self.reg_names)
        lines = ["def _run(INS, REG, _zero, _b, _mux):"]
        if regs:
            lines.append(f"    {regs} = REG")
        driven = ({a.lhs for a in self._assigns} | set(self.reg_names)
                  | set(self.input_names))
        for net in self._cone:
            if net not in driven:
                lines.append(f"    v{slot[net]} = _zero")
        # one list per recorded net, appended to through its bound method
        # p<i>
        puts = [f"p{i}" for i in range(len(self._recorded))]
        lines.append(f"    OUT = ({items(['[]'] * len(puts))})")
        if puts:
            lines.append(f"    {items(puts)} = [o.append for o in OUT]")
        lines.append(f"    for {names('v', self.input_names) or '_'} in INS:")
        step = [f"v{slot[a.lhs]} = {emit(a.rhs, nl.width, params, read)}"
                for a in self._assigns]
        for r in self._registers:
            nxt = emit(r.next, nl.width, params, read)
            if r.reset is not None:
                cmp = "==" if r.reset.active_level == 1 else "!="
                nxt = (f"_mux(v{slot[r.reset.net]} {cmp} 1, "
                       f"{r.reset.value}, {nxt})")
            step.append(f"n{slot[r.target]} = {nxt}")
        step += [f"{put}(v{slot[n]})" for put, n in zip(puts, self._recorded)]
        if regs:
            step.append(f"{regs} = {names('n', self.reg_names)}")
        # a kernel that computes nothing, its kept nets all inputs
        lines += [f"        {line}" for line in step or ["pass"]]
        lines.append(f"    return OUT, ({regs})")
        return "\n".join(lines) + "\n"

    @property
    def source(self) -> str:
        return self._source

    # -- execution -----------------------------------------------------------

    def run(self, stimulus: Stimulus) -> Trace:
        """Simulate *stimulus*, which must hold a column for each of
        ``input_names``.  A kept input's values in the trace are that
        column itself, not a copy, and must be treated as read-only."""
        # operator.pos turns a comparison's bool into an int, as int()
        # does, at a third of the cost
        out, _ = self._fn(stimulus.rows(self.input_names), self.reg_init, 0,
                          pos, _scalar_mux)
        computed = dict(zip(self._recorded, out))
        columns = stimulus.columns
        return Trace(self.netlist, self.net_order,
                     {n: computed[n] if n in computed else columns[n]
                      for n in self.net_order}, stimulus.cycles)

    def run_batch(self, inputs: dict[str, np.ndarray],
                  cycles: int) -> dict[str, np.ndarray]:
        """Simulate many stimuli at once.

        *inputs* maps input names to uint64 arrays of shape (rows, cycles);
        an input held constant may be a read-only view whose cycle stride
        is 0 (``np.broadcast_to`` of its values), and an input of
        ``input_names`` left out holds its idle level, as in
        ``Stimulus.for_design``: a reset at its inactive level, any other
        input 0 (``Netlist.idle_levels``).  Only ``input_names`` are read.
        Returns each net of ``net_order`` as an array of shape (rows,
        cycles).  A kept input is the array given for it, not a copy, or
        a read-only view of its idle level where it was left out; it must
        be treated as read-only.  Every other net is the transposed view of
        a cycle-major (cycles, rows) array, so every cycle's step stores
        one contiguous row per net.

        The run stops stepping at the first cycle from which every input
        of ``input_names`` holds its value and whose step leaves every
        register of every row as it was: each later cycle would repeat
        that one, so it is copied into the rest.  An input whose cycle
        stride is 0 holds its value by construction, so only the others
        are scanned for that cycle.  Constant inputs on a combinational
        kernel take one step.
        """
        rows = next(iter(inputs.values())).shape[0] if inputs else 1
        zero = np.zeros(rows, dtype=np.uint64)
        # each input as a (rows, cycles) array, at its idle level where
        # left out
        given = {n: inputs[n] if n in inputs else np.broadcast_to(
                     np.uint64(level), (rows, cycles))
                 for n, level in self._idle.items()}
        columns = [arr.T for arr in given.values()]
        # the first cycle from which every input holds its value
        steady = 0
        for arr in given.values():
            if arr.strides[1]:
                moved = np.flatnonzero((arr[:, 1:] != arr[:, :-1]).any(axis=0))
                if moved.size:
                    steady = max(steady, int(moved[-1]) + 1)
        regs = tuple(np.full(rows, init, dtype=np.uint64) for init in self.reg_init)
        out = [np.empty((cycles, rows), dtype=np.uint64)
               for _ in self._recorded]
        for t in range(cycles):
            ins = tuple(col[t] for col in columns)
            values, nxt = self._fn((ins,), regs, zero, _batch_bit, _batch_mux)
            for arr, value in zip(out, values):
                arr[t] = value[0]
            if t >= steady and all(map(np.array_equal, nxt, regs)):
                for arr in out:
                    arr[t + 1:] = arr[t]
                break
            regs = nxt
        computed = {n: arr.T for n, arr in zip(self._recorded, out)}
        return {n: computed[n] if n in computed else given[n]
                for n in self.net_order}
