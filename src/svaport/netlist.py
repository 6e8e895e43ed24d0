"""Elaborated design model: nets, continuous assigns, and registers.

A Netlist is what the RTL parser produces and what every later stage consumes.
It is a flat, single-module view: named constants are kept in ``params``,
every other identifier is a Net, and each net has at most one driver (an
assign or a register).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

from . import expr as ex
from .errors import CombinationalLoopError, ElaborationError


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
            p = self.params[name]
            return p.size if p.size is not None else max(1, p.value.bit_length())
        raise KeyError(name)

    def resolves(self, name: str) -> bool:
        return name in self.nets or name in self.params

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

    def fingerprint(self) -> str:
        """Stable content hash of the elaborated design."""
        return hashlib.sha256(render_netlist(self).encode()).hexdigest()


def combinational_closure(netlist: Netlist) -> list[Assign]:
    """Order the continuous assigns so every read net is computed first.

    Registers break cycles: a register's target counts as available from the
    start of the cycle.  A cycle through assigns alone raises
    CombinationalLoopError naming the nets on the loop.
    """
    by_lhs = {a.lhs: a for a in netlist.assigns}
    # edges between assign-driven nets only
    deps: dict[str, set[str]] = {}
    for a in netlist.assigns:
        deps[a.lhs] = {n for n in ex.idents_of(a.rhs) if n in by_lhs}

    ordered: list[Assign] = []
    ready = sorted(lhs for lhs, ds in deps.items() if not ds)
    remaining = {lhs: set(ds) for lhs, ds in deps.items() if ds}
    done: set[str] = set()
    while ready:
        lhs = ready.pop(0)
        done.add(lhs)
        ordered.append(by_lhs[lhs])
        newly = []
        for other, ds in remaining.items():
            ds.discard(lhs)
            if not ds:
                newly.append(other)
        for other in newly:
            del remaining[other]
        ready = sorted(ready + newly)

    if remaining:
        # walk the leftover subgraph to surface one concrete cycle
        stuck = sorted(remaining)
        start = stuck[0]
        seen: list[str] = []
        node = start
        while node not in seen:
            seen.append(node)
            node = sorted(d for d in deps[node] if d in remaining)[0]
        cycle = seen[seen.index(node):] + [node]
        raise CombinationalLoopError(cycle)
    return ordered


def validate(netlist: Netlist) -> None:
    """Re-check the structural invariants (single driver per net, every
    referenced identifier declared, widths consistent)."""
    drivers: dict[str, str] = {}
    for a in netlist.assigns:
        if a.lhs in drivers:
            raise ElaborationError(f"net {a.lhs} has multiple drivers")
        drivers[a.lhs] = "assign"
    for r in netlist.registers:
        if r.target in drivers:
            raise ElaborationError(f"net {r.target} has multiple drivers")
        drivers[r.target] = "register"
    for a in netlist.assigns:
        for name in ex.idents_of(a.rhs):
            if not netlist.resolves(name):
                raise ElaborationError(f"undeclared identifier {name} in assign {a.lhs}")
    for r in netlist.registers:
        for name in ex.idents_of(r.next):
            if not netlist.resolves(name):
                raise ElaborationError(f"undeclared identifier {name} in register {r.target}")
    for net in netlist.nets.values():
        if net.kind is NetKind.INPUT and net.name in drivers:
            raise ElaborationError(f"input {net.name} must not be driven internally")
    combinational_closure(netlist)


# --------------------------------------------------------------------------
# rendering back to source text

def _decl(net: Net) -> str:
    rng = f" [{net.width - 1}:0]" if net.width > 1 else ""
    return f"logic{rng} {net.name}"


def render_netlist(nl: Netlist) -> str:
    """Pretty-print the netlist as compilable subset SystemVerilog.

    The output is canonical: re-parsing it yields a structurally identical
    Netlist, which is also what makes fingerprints meaningful.
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
