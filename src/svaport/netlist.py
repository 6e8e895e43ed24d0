"""Elaborated design model: nets, continuous assigns, and registers.

A Netlist is what the RTL parser produces and what every later stage consumes.
It is a flat, single-module view: named constants are kept in ``params``,
every other identifier is a Net, and each net has at most one driver (an
assign or a register).

``Netlist.edges``, the dependency map, is the one place read edges are
taken from driver expressions; every dependency walk is derived from it.
``Netlist.assign_order``, the order a simulator settles the assigns in, is
derived from it once per netlist.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from functools import cached_property

from . import expr as ex
from .errors import CombinationalLoopError


class NetKind(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    INTERNAL = "internal"
    REGISTER = "register"
    CONSTANT = "constant"


@dataclass(eq=True)
class Net:
    name: str
    width: int
    kind: NetKind


@dataclass(eq=True)
class Assign:
    lhs: str
    rhs: ex.Expr


@dataclass(eq=True)
class Reset:
    net: str
    active_level: int  # 0 = active low, 1 = active high
    value: int         # value loaded into the register while in reset


@dataclass(eq=True)
class Register:
    target: str
    next: ex.Expr
    clock: str
    reset: Reset | None = None


@dataclass(eq=True)
class Param:
    name: str
    value: int
    size: int | None = None

    @property
    def width(self) -> int:
        """The declared size, or else the fewest bits that hold the value."""
        return self.size if self.size is not None else max(
            1, self.value.bit_length())


@dataclass(eq=True)
class Netlist:
    name: str
    ports: tuple[str, ...]                       # declaration order
    nets: dict[str, Net] = field(default_factory=dict)
    params: dict[str, Param] = field(default_factory=dict)
    assigns: list[Assign] = field(default_factory=list)
    registers: list[Register] = field(default_factory=list)

    # -- lookups ----------------------------------------------------------

    def width(self, name: str) -> int:
        if name in self.nets:
            return self.nets[name].width
        if name in self.params:
            return self.params[name].width
        raise KeyError(name)

    def resolves(self, name: str) -> bool:
        return name in self.nets or name in self.params

    def constants(self) -> dict[str, int]:
        """The value of each named constant."""
        return {name: p.value for name, p in self.params.items()}

    def inputs(self) -> list[Net]:
        return [n for n in self.nets.values() if n.kind is NetKind.INPUT]

    def driver_of(self, name: str) -> Assign | Register | None:
        for a in self.assigns:
            if a.lhs == name:
                return a
        for r in self.registers:
            if r.target == name:
                return r
        return None

    def clock_nets(self) -> set[str]:
        return {r.clock for r in self.registers}

    def reset_nets(self) -> set[str]:
        return {r.reset.net for r in self.registers if r.reset is not None}

    def control_nets(self) -> set[str]:
        """The clock and reset nets: no search enumerates, forces or
        triggers on them."""
        return self.clock_nets().union(self.reset_nets())

    def idle_levels(self) -> dict[str, int]:
        """Each input at its idle level, which a run holds it at wherever
        it is not given: a reset net at its inactive level, which lets the
        design run, and every other input at 0."""
        resets = {r.reset.net: 1 - r.reset.active_level
                  for r in self.registers if r.reset is not None}
        return {n.name: resets.get(n.name, 0) for n in self.inputs()}

    @cached_property
    def edges(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """Each driven net -> its sorted ``(read net, label)`` edges:
        ``assign`` or ``register`` for a net its driver's expression reads,
        ``reset`` for a register's reset net.  Built once, on first use:
        nothing mutates a netlist after ``parse_design`` or
        ``trojan.inject`` returns it."""
        return _read_edges(self)

    @cached_property
    def assign_order(self) -> tuple[Assign, ...]:
        """The continuous assigns in ``combinational_closure``'s order,
        derived once from ``edges``; a combinational loop raises
        ``CombinationalLoopError`` on every read."""
        return tuple(combinational_closure(self))


def _read_edges(nl: Netlist) -> dict[str, tuple[tuple[str, str], ...]]:
    edges: dict[str, tuple[tuple[str, str], ...]] = {}
    for a in nl.assigns:
        edges[a.lhs] = tuple(sorted(
            (n, "assign") for n in ex.idents_of(a.rhs) if n in nl.nets))
    for r in nl.registers:
        reads = {(n, "register") for n in ex.idents_of(r.next) if n in nl.nets}
        if r.reset is not None and r.reset.net in nl.nets:
            reads.add((r.reset.net, "reset"))
        edges[r.target] = tuple(sorted(reads))
    return edges


def combinational_closure(netlist: Netlist) -> list[Assign]:
    """Order the continuous assigns so every read net is computed first,
    the smallest ready net first (Kahn's algorithm with a heap).

    Registers break cycles: a register's target counts as available from the
    start of the cycle.  A cycle through assigns alone raises
    CombinationalLoopError naming the nets on the loop.
    """
    by_lhs = {a.lhs: a for a in netlist.assigns}
    # edges between assign-driven nets only; each set loses a net once it
    # is placed, so a net is ready when its set is empty
    deps = {lhs: {n for n, _ in netlist.edges[lhs] if n in by_lhs}
            for lhs in by_lhs}
    readers: dict[str, list[str]] = {lhs: [] for lhs in by_lhs}
    for lhs, ds in deps.items():
        for d in ds:
            readers[d].append(lhs)
    ready = [lhs for lhs, ds in deps.items() if not ds]
    heapq.heapify(ready)
    ordered: list[Assign] = []
    while ready:
        lhs = heapq.heappop(ready)
        ordered.append(by_lhs[lhs])
        for other in readers[lhs]:
            deps[other].discard(lhs)
            if not deps[other]:
                heapq.heappush(ready, other)

    stuck = [lhs for lhs, ds in deps.items() if ds]
    if stuck:
        # walk the unplaced nets, which read only each other, to surface
        # one concrete cycle
        seen: list[str] = []
        node = min(stuck)
        while node not in seen:
            seen.append(node)
            node = min(deps[node])
        cycle = seen[seen.index(node):] + [node]
        raise CombinationalLoopError(cycle)
    return ordered


# --------------------------------------------------------------------------
# rendering back to source text

def _decl(net: Net) -> str:
    rng = f" [{net.width - 1}:0]" if net.width > 1 else ""
    return f"logic{rng} {net.name}"


def render_netlist(nl: Netlist) -> str:
    """Pretty-print the netlist as compilable subset SystemVerilog.

    The output is canonical: re-parsing it yields a structurally identical
    Netlist.
    """
    lines: list[str] = [f"module {nl.name} ("]
    for i, pname in enumerate(nl.ports):
        net = nl.nets[pname]
        direction = "input " if net.kind is NetKind.INPUT else "output"
        comma = "," if i < len(nl.ports) - 1 else ""
        lines.append(f"  {direction} {_decl(net)}{comma}")
    lines.append(");")

    for p in nl.params.values():
        if p.size is not None:
            rng = f" [{p.size - 1}:0]" if p.size > 1 else ""
            digits = max(1, (p.size + 3) // 4)
            lines.append(f"  parameter logic{rng} {p.name} = {p.size}'h{p.value:0{digits}x};")
        else:
            lines.append(f"  parameter {p.name} = {p.value};")

    internal = [n for n in nl.nets.values()
                if n.kind in (NetKind.INTERNAL, NetKind.REGISTER) and n.name not in nl.ports]
    if internal:
        lines.append("")
        for net in internal:
            lines.append(f"  {_decl(net)};")

    if nl.assigns:
        lines.append("")
        for a in nl.assigns:
            lines.append(f"  assign {a.lhs} = {ex.render_expr(a.rhs)};")

    for r in nl.registers:
        lines.append("")
        lines.append(f"  always_ff @(posedge {r.clock}) begin")
        if r.reset is not None:
            cond = f"!{r.reset.net}" if r.reset.active_level == 0 else r.reset.net
            w = nl.nets[r.target].width
            digits = max(1, (w + 3) // 4)
            lines.append(f"    if ({cond}) begin")
            lines.append(f"      {r.target} <= {w}'h{r.reset.value:0{digits}x};")
            lines.append("    end else begin")
            lines.append(f"      {r.target} <= {ex.render_expr(r.next)};")
            lines.append("    end")
        else:
            lines.append(f"    {r.target} <= {ex.render_expr(r.next)};")
        lines.append("  end")

    lines.append("endmodule")
    return "\n".join(lines) + "\n"
