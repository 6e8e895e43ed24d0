"""Hypothesis strategies shared across the test modules.

Designs are generated bottom-up so combinational logic is acyclic by
construction: each new assign may only read nets declared before it.
Expressions are built over a caller-supplied symbol table, constants are
always sized so ~ has a defined width everywhere.
"""

from __future__ import annotations

from hypothesis import strategies as st

from svaport import expr as ex
from svaport.netlist import Assign, Net, NetKind, Netlist, Param, Register, Reset
from svaport.sim import Stimulus, Trace
from svaport.sva import Assertion, SeqExpr

_NAMES = [f"sig_{chr(ord('a') + i)}" for i in range(12)]


def expressions(symbols: dict[str, int], *, allow_past: bool = False,
                max_depth: int = 3) -> st.SearchStrategy[ex.Expr]:
    """Expressions over *symbols* (name -> width)."""
    names = sorted(symbols)

    def leaf():
        consts = st.integers(1, 6).flatmap(
            lambda w: st.builds(ex.Const, st.integers(0, (1 << w) - 1), st.just(w)))
        idents = st.sampled_from(names).map(ex.Ident)
        selects = st.sampled_from(names).flatmap(
            lambda n: st.integers(0, symbols[n] - 1).flatmap(
                lambda lsb: st.integers(lsb, symbols[n] - 1).map(
                    lambda msb: ex.Select(n, msb, lsb))))
        return st.one_of(consts, idents, selects)

    def extend(children):
        unary = st.builds(ex.Unary, st.sampled_from(["~", "!"]), children)
        binary = st.builds(
            ex.Binary,
            st.sampled_from(["&", "|", "^", "&&", "||", "==", "!=", "+"]),
            children, children)
        ternary = st.builds(ex.Ternary, children, children, children)
        options = [unary, binary, ternary]
        if allow_past:
            options.append(st.builds(ex.Past, children, st.integers(1, 3)))
        return st.one_of(*options)

    return st.recursive(leaf(), extend, max_leaves=2 ** max_depth)


@st.composite
def comparisons(draw, symbols: dict[str, int]) -> ex.Expr:
    """A shallow expression over *symbols* compared with a constant of its
    width: the usual shape of an antecedent conjunct."""
    e = draw(expressions(symbols, max_depth=draw(st.integers(0, 1))))
    w = ex.width_of(e, symbols.__getitem__)
    value = draw(st.integers(0, (1 << w) - 1))
    op = draw(st.sampled_from(["==", "!="]))
    return ex.Binary(op, e, ex.Const(value, w))


@st.composite
def designs(draw, *, max_inputs: int = 4, max_assigns: int = 5,
            max_registers: int = 2) -> Netlist:
    """Small random netlists with inputs, an assign chain, registers, and a
    one-bit output reading the last net.  Each register has no reset, the
    active-low ``rst_n`` or the active-high ``rst``."""
    n_inputs = draw(st.integers(1, max_inputs))
    widths = [draw(st.integers(1, 6)) for _ in range(n_inputs)]
    nets: dict[str, Net] = {}
    ports: list[str] = ["clk"]
    nets["clk"] = Net("clk", 1, NetKind.INPUT)
    symbols: dict[str, int] = {}
    for i, w in enumerate(widths):
        name = f"in_{_NAMES[i]}"
        nets[name] = Net(name, w, NetKind.INPUT)
        ports.append(name)
        symbols[name] = w

    params: dict[str, Param] = {}
    if draw(st.booleans()):
        params["MAGIC"] = Param("MAGIC", draw(st.integers(0, 15)), 4)

    assigns: list[Assign] = []
    n_assigns = draw(st.integers(1, max_assigns))
    for i in range(n_assigns):
        name = f"mid_{_NAMES[i]}"
        rhs = draw(expressions(symbols, max_depth=2))
        # elaboration rejects an RHS wider than its net, so size the net
        # to the expression (every generated leaf is sized)
        w = ex.width_of(rhs, symbols.__getitem__)
        nets[name] = Net(name, w, NetKind.INTERNAL)
        assigns.append(Assign(name, rhs))
        symbols[name] = w

    registers: list[Register] = []
    n_regs = draw(st.integers(0, max_registers))
    reg_width = 6  # >= any generated expression width
    for i in range(n_regs):
        name = f"reg_{_NAMES[i]}"
        nets[name] = Net(name, reg_width, NetKind.REGISTER)
        symbols[name] = reg_width
    # register next-value logic may read anything, including other registers
    for i in range(n_regs):
        name = f"reg_{_NAMES[i]}"
        nxt = draw(expressions(symbols, max_depth=2))
        reset = None
        level = draw(st.sampled_from([None, 0, 1]))  # the active level
        if level is not None:
            net = "rst_n" if level == 0 else "rst"
            if net not in ports:
                nets[net] = Net(net, 1, NetKind.INPUT)
                ports.append(net)
            reset = Reset(net, level, draw(st.integers(0, (1 << reg_width) - 1)))
        registers.append(Register(name, nxt, "clk", reset))

    out_src = sorted(symbols)[-1]
    nets["out_y"] = Net("out_y", 1, NetKind.OUTPUT)
    assigns.append(Assign("out_y", ex.Unary("!", ex.Ident(out_src))))
    ports.append("out_y")
    return Netlist("rand_mod", tuple(ports), nets, params, assigns, registers)


@st.composite
def stimuli(draw, netlist: Netlist, *, max_cycles: int = 8) -> Stimulus:
    cycles = draw(st.integers(1, max_cycles))
    rows = []
    for _ in range(cycles):
        row = {}
        for net in netlist.inputs():
            row[net.name] = draw(st.integers(0, (1 << net.width) - 1))
        rows.append(row)
    return Stimulus.for_design(netlist, rows)


@st.composite
def traces(draw, *, nets: dict[str, int] | None = None,
           min_cycles: int = 3, max_cycles: int = 12) -> Trace:
    """Random traces for monitor tests (no simulation behind them)."""
    nets = nets or {"clk": 1, "a": 1, "b": 1, "c": 1, "d": 1, "x": 4, "y": 4}
    cycles = draw(st.integers(min_cycles, max_cycles))
    values = {
        name: [draw(st.integers(0, (1 << w) - 1)) for _ in range(cycles)]
        for name, w in nets.items()
    }
    return Trace(netlist_of("rand_trace", nets), tuple(nets), values, cycles)


def netlist_of(name: str, widths: dict[str, int],
               params: tuple[Param, ...] = ()) -> Netlist:
    """A netlist that only declares nets of the given widths (as inputs)
    and the given constants: enough for a hand-made trace."""
    return Netlist(name, tuple(widths),
                   {n: Net(n, w, NetKind.INPUT) for n, w in widths.items()},
                   {p.name: p for p in params})


@st.composite
def assertions(draw, symbols: dict[str, int], *, clock: str = "clk",
               antecedent_past: bool = False) -> Assertion:
    """Random implication properties over *symbols* ($past in the
    consequent, and in the antecedent too with *antecedent_past*)."""
    def seq(allow_past: bool):
        n_steps = draw(st.integers(1, 2))
        steps = []
        for i in range(n_steps):
            delay = 0 if i == 0 else draw(st.integers(1, 2))
            steps.append((delay,
                          draw(expressions(symbols, allow_past=allow_past,
                                           max_depth=2))))
        return SeqExpr(tuple(steps))

    disable = draw(st.none() | expressions(symbols, max_depth=1))
    return Assertion(
        antecedent=seq(antecedent_past),
        implication=draw(st.sampled_from(["|->", "|=>"])),
        consequent=seq(True),
        clock=clock,
        disable=disable,
        label=draw(st.none() | st.just("RAND_PROP")),
    )
