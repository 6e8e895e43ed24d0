"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms than the
shipped code: the expression walker is a plain recursive interpreter, the
simulator settles combinational logic by fixpoint iteration instead of
topological scheduling, reachability is computed by relaxation over an
explicit edge list, the assertion checker re-derives attempt schedules
from scratch, and a stimulus is validated one cycle and one input at a time
where the package checks whole input columns.  Agreement between these and the package is what the property
tests assert.
"""

from __future__ import annotations

from fractions import Fraction

from svaport import expr as ex
from svaport.errors import ConfigError, UnknownSignalError
from svaport.netlist import Netlist
from svaport.sim import Stimulus, Trace
from svaport.sva import Assertion


# --------------------------------------------------------------------------
# expression evaluation

def eval_expr(e, value, width):
    """Evaluate *e* with ``value(name) -> int`` and ``width(name) -> int``.

    Two-state semantics: comparisons and logical operators yield 0/1,
    addition wraps at the result width, ~ masks at the operand width.
    """
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Ident):
        return value(e.name)
    if isinstance(e, ex.Select):
        span = e.msb - e.lsb + 1
        return (value(e.base) >> e.lsb) % (1 << span)
    if isinstance(e, ex.Unary):
        v = eval_expr(e.operand, value, width)
        if e.op == "!":
            return 0 if v else 1
        w = ex.width_of(e.operand, width)
        return (~v) % (1 << w)
    if isinstance(e, ex.Binary):
        a = eval_expr(e.left, value, width)
        b = eval_expr(e.right, value, width)
        if e.op == "&&":
            return 1 if (a and b) else 0
        if e.op == "||":
            return 1 if (a or b) else 0
        if e.op == "==":
            return 1 if a == b else 0
        if e.op == "!=":
            return 1 if a != b else 0
        if e.op == "&":
            return a & b
        if e.op == "|":
            return a | b
        if e.op == "^":
            return a ^ b
        if e.op == "+":
            w = ex.width_of(e, width)
            return (a + b) if w is None else (a + b) % (1 << w)
        raise ValueError(e.op)
    if isinstance(e, ex.Ternary):
        pick = e.then if eval_expr(e.cond, value, width) else e.other
        return eval_expr(pick, value, width)
    raise TypeError(f"unexpected node {e!r}")


# --------------------------------------------------------------------------
# stimulus validation, one cycle and one input at a time

def column_cycles(netlist: Netlist, data: dict) -> list[dict]:
    """The per-cycle maps a column object stands for: cycle t maps every
    input the object names to its t-th value.  The object's shape is
    checked field by field first.  No cycle names an input of an object
    of no cycles, so an unknown input there is reported here."""
    if set(data) != {"cycles", "inputs"}:
        raise ConfigError('a column stimulus has the keys "cycles" and '
                          f'"inputs" alone, not {sorted(map(str, data))}')
    count, inputs = data["cycles"], data["inputs"]
    if type(count) is not int or count < 0:
        raise ConfigError(f'"cycles" must be a count, not {count!r}')
    if not isinstance(inputs, dict):
        raise ConfigError('"inputs" must be an object of columns, not '
                          + type(inputs).__name__)
    for name, column in inputs.items():
        if not isinstance(column, list):
            raise ConfigError(f"input {name} must be an array of values, "
                              f"not {type(column).__name__}")
        if len(column) != count:
            raise ConfigError(f"input {name} holds {len(column)} values "
                              f"for {count} cycles")
    known = {n.name for n in netlist.inputs()}
    for name in inputs:
        if count == 0 and name not in known:
            raise UnknownSignalError(f"{name} is not an input of {netlist.name}")
    return [{name: column[t] for name, column in inputs.items()}
            for t in range(count)]


def stimulus_rows(netlist: Netlist, cycles) -> list[dict[str, int]]:
    """Reference for ``Stimulus.for_design``: each cycle's full input map,
    in the netlist's input order, or the first bad cycle or value raised.
    A column object is read as the per-cycle maps it stands for."""
    names = {n.name: n for n in netlist.inputs()}
    inactive = {r.reset.net: 1 - r.reset.active_level
                for r in netlist.registers if r.reset is not None}
    if isinstance(cycles, dict):
        cycles = column_cycles(netlist, cycles)
    if not isinstance(cycles, list):
        raise ConfigError("expected an array of per-cycle input maps or an "
                          'object of "cycles" and "inputs"')
    rows: list[dict[str, int]] = []
    for i, cycle in enumerate(cycles):
        if not isinstance(cycle, dict):
            raise ConfigError(f"cycle {i}: expected a map of input "
                              f"values, got {type(cycle).__name__}")
        row: dict[str, int] = {}
        for name, net in names.items():
            value = cycle.get(name, inactive.get(name, 0))
            if type(value) is not int:
                raise ConfigError(f"cycle {i}: value {value!r} for input "
                                  f"{name} is not an integer")
            if not 0 <= value < (1 << net.width):
                raise ConfigError(
                    f"cycle {i}: value {value} does not fit input "
                    f"{name}[{net.width - 1}:0]")
            row[name] = value
        for name in cycle:
            if name not in names:
                raise UnknownSignalError(f"{name} is not an input of {netlist.name}")
        rows.append(row)
    return rows


# --------------------------------------------------------------------------
# simulation by fixpoint iteration

def simulate_fixpoint(netlist: Netlist, stimulus: Stimulus) -> Trace:
    """Reference simulator: re-evaluate every assign in declaration order
    until no value changes, then update registers all at once."""
    consts = netlist.constants()

    def width(name: str) -> int:
        return netlist.width(name)

    state = {name: 0 for name in netlist.nets}
    for r in netlist.registers:
        state[r.target] = r.reset.value if r.reset is not None else 0

    values: dict[str, list[int]] = {name: [] for name in netlist.nets}
    for row in stimulus.inputs:
        state.update(row)

        def read(name: str, env=state) -> int:
            return consts[name] if name in consts else env[name]

        for _ in range(len(netlist.assigns) + 1):
            changed = False
            for a in netlist.assigns:
                v = eval_expr(a.rhs, read, width)
                if state[a.lhs] != v:
                    state[a.lhs] = v
                    changed = True
            if not changed:
                break
        else:
            raise AssertionError("no combinational fixpoint")

        for name in netlist.nets:
            values[name].append(state[name])

        nxt = {}
        for r in netlist.registers:
            if r.reset is not None and state[r.reset.net] == r.reset.active_level:
                nxt[r.target] = r.reset.value
            else:
                nxt[r.target] = eval_expr(r.next, read, width)
        state.update(nxt)

    return Trace(netlist, tuple(netlist.nets), values, stimulus.cycles)


# --------------------------------------------------------------------------
# reachability by relaxation

def edge_list(netlist: Netlist) -> set[tuple[str, str]]:
    """(reader, read) pairs over nets, straight off the driver expressions."""
    edges: set[tuple[str, str]] = set()
    for a in netlist.assigns:
        for name in ex.idents_of(a.rhs):
            if name in netlist.nets:
                edges.add((a.lhs, name))
    for r in netlist.registers:
        for name in ex.idents_of(r.next):
            if name in netlist.nets:
                edges.add((r.target, name))
    return edges


def fanin_cone(netlist: Netlist, keep, *, resets: bool = True) -> set[str]:
    """*keep* and every net that reaches it over ``edge_list``'s edges,
    plus, with *resets*, each register's edge to its reset net, grown to a
    fixpoint."""
    edges = edge_list(netlist)
    if resets:
        edges |= {(r.target, r.reset.net) for r in netlist.registers
                  if r.reset is not None}
    cone = set(keep)
    while True:
        grown = cone | {b for a, b in edges if a in cone}
        if grown == cone:
            return cone
        cone = grown


def assign_order(netlist: Netlist) -> tuple[list[str], list[str] | None]:
    """The assigns' nets, scheduled by rescanning every assign each round
    and taking the smallest-named one whose assign-driven reads are all
    scheduled, and the loop that stops the schedule short (None when it
    does not): the path from the smallest unscheduled net, stepping to the
    smallest unscheduled net each one reads, from its first repeat on."""
    driven = {a.lhs for a in netlist.assigns}
    reads = {a.lhs: ex.idents_of(a.rhs) & driven for a in netlist.assigns}
    order: list[str] = []
    while len(order) < len(reads):
        ready = [n for n, r in reads.items()
                 if n not in order and r <= set(order)]
        if not ready:
            stuck = set(reads) - set(order)
            path = [min(stuck)]
            while path.count(path[-1]) < 2:
                path.append(min(reads[path[-1]] & stuck))
            return order, path[path.index(path[-1]):]
        order.append(min(ready))
    return order, None


def shortest_distances(netlist: Netlist) -> dict[tuple[str, str], int]:
    """All-pairs shortest edge counts by Bellman-Ford-style relaxation.

    Distances of 0 (a node to itself) are not recorded; a pair is absent
    when no path exists.
    """
    edges = edge_list(netlist)
    nodes = list(netlist.nets)
    dist: dict[tuple[str, str], int] = {e: 1 for e in edges}
    for _ in range(len(nodes)):
        changed = False
        for a, b in edges:
            for c in nodes:
                via = dist.get((b, c))
                if via is None:
                    continue
                cand = 1 + via
                if cand < dist.get((a, c), cand + 1):
                    dist[(a, c)] = cand
                    changed = True
        if not changed:
            break
    return dist


def reachable_from(netlist: Netlist, signal: str) -> dict[str, int]:
    """Fan-in with depths, phrased through the all-pairs table."""
    dist = shortest_distances(netlist)
    return {b: d for (a, b), d in dist.items() if a == signal}


# --------------------------------------------------------------------------
# assertion checking

def check_reference(trace: Trace, assertion: Assertion) -> tuple[list[str], list[tuple[int, int]]]:
    """Re-derive per-cycle attempt statuses and (attempt, fail) cycle pairs.

    Semantics: an attempt starts at every cycle whose disable value is
    false.  Antecedent terms are read at start + cumulative delay; the
    consequent schedule begins at the last antecedent cycle, one later for
    |=>.  A disable-true cycle inside (start, current term's cycle] cancels
    the attempt.  A schedule running past the trace is pending.  $past
    reads d cycles back and yields 0 before cycle 0.
    """
    consts = trace.netlist.constants()
    width = trace.netlist.width

    def value_at(name: str, t: int) -> int:
        if name in consts:
            return consts[name]
        if t < 0:
            return 0
        return trace.values[name][t]

    def sample(e, t: int) -> int:
        """Evaluate at cycle *t*; subterms under $past shift their own t."""
        if isinstance(e, ex.Past):
            return sample(e.expr, t - e.depth)
        if isinstance(e, ex.Const):
            return e.value
        if isinstance(e, ex.Ident):
            return value_at(e.name, t)
        if isinstance(e, ex.Select):
            span = e.msb - e.lsb + 1
            return (value_at(e.base, t) >> e.lsb) % (1 << span)
        if isinstance(e, ex.Unary):
            v = sample(e.operand, t)
            if e.op == "!":
                return 0 if v else 1
            return (~v) % (1 << ex.width_of(e.operand, width))
        if isinstance(e, ex.Binary):
            a, b = sample(e.left, t), sample(e.right, t)
            if e.op == "&&":
                return 1 if (a and b) else 0
            if e.op == "||":
                return 1 if (a or b) else 0
            if e.op == "==":
                return 1 if a == b else 0
            if e.op == "!=":
                return 1 if a != b else 0
            if e.op == "&":
                return a & b
            if e.op == "|":
                return a | b
            if e.op == "^":
                return a ^ b
            w = ex.width_of(e, width)
            return (a + b) if w is None else (a + b) % (1 << w)
        if isinstance(e, ex.Ternary):
            return sample(e.then if sample(e.cond, t) else e.other, t)
        raise TypeError(f"unexpected node {e!r}")

    disable = [
        bool(sample(assertion.disable, t)) if assertion.disable is not None else False
        for t in range(trace.cycles)
    ]

    def schedule(seq, base: int) -> list[tuple[int, object]]:
        out, cycle = [], base
        for delay, term in seq.steps:
            cycle += delay
            out.append((cycle, term))
        return out

    offset = 1 if assertion.implication == "|=>" else 0
    statuses: list[str] = []
    failures: list[tuple[int, int]] = []
    for t in range(trace.cycles):
        if disable[t]:
            statuses.append("not_attempted")
            continue
        status = None
        plan = schedule(assertion.antecedent, t)
        for cycle, term in plan:
            horizon = min(cycle, trace.cycles - 1)
            if any(disable[t + 1: horizon + 1]):
                status = "not_attempted"
                break
            if cycle >= trace.cycles:
                status = "pending"
                break
            if not sample(term, cycle):
                status = "vacuous_pass"
                break
        if status is not None:
            statuses.append(status)
            continue
        end = plan[-1][0]
        cons_plan = schedule(assertion.consequent, end + offset)
        for cycle, term in cons_plan:
            horizon = min(cycle, trace.cycles - 1)
            if any(disable[t + 1: horizon + 1]):
                status = "not_attempted"
                break
            if cycle >= trace.cycles:
                status = "pending"
                break
            if not sample(term, cycle):
                status = "fail"
                failures.append((t, cycle))
                break
        statuses.append(status or "pass")
    return statuses, failures


# --------------------------------------------------------------------------
# trojan triggers

def trigger_holds(spec, trace: Trace, cycle: int) -> bool:
    """Whether *spec*'s trigger cube holds at *cycle*: each condition is
    read straight off the trace as one bit, or as the whole signal."""
    def observed(c) -> int:
        v = trace.values[c.signal][cycle]
        return v if c.bit is None else (v >> c.bit) % 2
    return all(observed(c) == c.value for c in spec.trigger)


# --------------------------------------------------------------------------
# probabilities

def count_trigger_states(netlist: Netlist, spec, input_names: list[str]) -> Fraction:
    """Exact trigger probability by explicit enumeration of the named
    inputs, one scalar simulation per assignment."""
    from itertools import product

    from svaport.sim import SimKernel

    kernel = SimKernel(netlist)
    widths = [netlist.width(n) for n in input_names]
    hits = total = 0
    for combo in product(*(range(1 << w) for w in widths)):
        stim = Stimulus.for_design(netlist, [dict(zip(input_names, combo))])
        trace = kernel.run(stim)
        total += 1
        hits += int(trigger_holds(spec, trace, 0))
    return Fraction(hits, total)
