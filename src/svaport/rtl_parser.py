"""Parser + elaborator for the supported SystemVerilog subset.

Accepted shape, roughly:

    module name ( input logic [W-1:0] a, ..., output logic y, ... );
      parameter logic [11:0] NAME = 12'h300;
      logic [W-1:0] n1, n2;
      assign net = expr;
      always_ff @(posedge clk) begin
        if (!rst_ni) q <= 1'b0;
        else if (en) q <= d;
      end
    endmodule

Elaboration turns each always_ff block into one Register per written target
by folding the if/else tree into a mux chain (last write wins, a target that
is not written keeps its value).  When the block leads with a recognizable
reset arm — a bare/negated 1-bit net guarding constant loads — that arm is
split off into the register's Reset record instead of staying in the mux.
An ``@(posedge clk or negedge rst)`` sensitivity is accepted and requires
such an arm; both styles elaborate to the same model and are simulated with
reset sampled at the clock edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from .errors import ElaborationError, UnsupportedConstructError
from .lexer import Token, TokenStream, tokenize
from .netlist import Assign, Net, NetKind, Netlist, Param, Register, Reset


# ------------------------------------------------------------------ statements

@dataclass
class _NbAssign:
    target: str
    rhs: ex.Expr
    tok: Token


@dataclass
class _If:
    cond: ex.Expr
    then: list
    other: list
    tok: Token


@dataclass
class _AlwaysBlock:
    clock: str
    reset_sense: tuple[str, int] | None  # (net, active level) from sensitivity
    body: list
    tok: Token


def parse_design(text: str) -> Netlist:
    """Parse and elaborate a single module.  Every elaboration rule is
    checked during the parse, at its token; a combinational loop, which
    has no single token, raises ``CombinationalLoopError`` last."""
    nl = _Parser(TokenStream(tokenize(text), text)).module()
    nl.assign_order  # ordered now, so a combinational loop raises here
    return nl


class _Parser:
    def __init__(self, ts: TokenStream):
        self.ts = ts
        self.nets: dict[str, Net] = {}
        self.params: dict[str, Param] = {}
        self.ports: list[str] = []
        self.assigns: list[Assign] = []
        self.blocks: list[_AlwaysBlock] = []

    # -- declarations -----------------------------------------------------

    def module(self) -> Netlist:
        ts = self.ts
        ts.expect("kw", "module")
        name = ts.expect("id").text
        if ts.at("#"):
            ts.error("parameter ports are not supported; declare parameters "
                     "in the module body", cls=UnsupportedConstructError)
        ts.expect("(")
        if not ts.at(")"):
            while True:
                self.port()
                if not ts.accept(","):
                    break
        ts.expect(")")
        ts.expect(";")
        while not ts.at("kw", "endmodule"):
            self.item()
        ts.expect("kw", "endmodule")
        if not ts.at("eof"):
            ts.error("only one module per file is supported")
        nl = Netlist(name, tuple(self.ports), self.nets, self.params,
                     self.assigns, [])
        self._elaborate_registers(nl)
        return nl

    def port(self) -> None:
        ts = self.ts
        if ts.at("kw", "inout"):
            ts.error("inout ports are not supported", cls=UnsupportedConstructError)
        tok = ts.peek()
        direction = ts.expect("kw").text
        if direction not in ("input", "output"):
            ts.error("expected 'input' or 'output'", tok)
        ts.accept("kw", "logic") or ts.accept("kw", "wire") or ts.accept("kw", "reg")
        width = self.range_width()
        name_tok = ts.expect("id")
        kind = NetKind.INPUT if direction == "input" else NetKind.OUTPUT
        self.declare(name_tok, width, kind)
        self.ports.append(name_tok.text)

    def range_width(self) -> int:
        ts = self.ts
        if not ts.accept("["):
            return 1
        msb = ts.expect("num").value
        ts.expect(":")
        lsb = ts.expect("num").value
        ts.expect("]")
        if lsb != 0:
            ts.error("ranges must be [msb:0]", cls=UnsupportedConstructError)
        return msb + 1

    def declare(self, tok: Token, width: int, kind: NetKind) -> None:
        if tok.text in self.nets or tok.text in self.params:
            self.ts.error(f"duplicate declaration of {tok.text}", tok, ElaborationError)
        if width > 64:
            self.ts.error(f"net {tok.text} is {width} bits wide; nets are "
                          "limited to 64 bits", tok, ElaborationError)
        self.nets[tok.text] = Net(tok.text, width, kind)

    def item(self) -> None:
        ts = self.ts
        if ts.at("kw", "parameter") or ts.at("kw", "localparam"):
            self.param_decl()
        elif ts.at("kw", "logic") or ts.at("kw", "wire") or ts.at("kw", "reg"):
            self.net_decl()
        elif ts.at("kw", "assign"):
            self.assign_stmt()
        elif ts.at("kw", "always_ff"):
            self.always_block()
        elif ts.at("kw", "always") or ts.at("kw", "always_comb"):
            ts.error("only always_ff blocks are supported",
                     cls=UnsupportedConstructError)
        else:
            ts.error(f"unexpected token {ts.peek().text!r} in module body")

    def param_decl(self) -> None:
        ts = self.ts
        ts.next()  # parameter/localparam — both elaborate identically
        ts.accept("kw", "logic")
        size = None
        if ts.at("["):
            size = self.range_width()
        name_tok = ts.expect("id")
        ts.expect("=")
        val_tok = ts.expect("num")
        ts.expect(";")
        if name_tok.text in self.nets or name_tok.text in self.params:
            ts.error(f"duplicate declaration of {name_tok.text}", name_tok, ElaborationError)
        size = size if size is not None else val_tok.size
        if size is not None and val_tok.value >= (1 << size):
            ts.error(f"parameter value does not fit in {size} bits", val_tok, ElaborationError)
        self.params[name_tok.text] = Param(name_tok.text, val_tok.value, size)

    def net_decl(self) -> None:
        ts = self.ts
        ts.next()
        width = self.range_width()
        while True:
            self.declare(ts.expect("id"), width, NetKind.INTERNAL)
            if not ts.accept(","):
                break
        ts.expect(";")

    # -- behavior ----------------------------------------------------------

    def assign_stmt(self) -> None:
        ts = self.ts
        ts.expect("kw", "assign")
        lhs = ts.expect("id")
        if ts.at("["):
            ts.error("bit/part selects on the left-hand side are not supported",
                     lhs, UnsupportedConstructError)
        ts.expect("=")
        rhs = ex.parse_expr(ts)
        ts.expect(";")
        self._check_readable(rhs, lhs, f"assign {lhs.text}")
        if self.nets[self._net(lhs)].kind is NetKind.INPUT:
            self._err(f"input {lhs.text} must not be driven internally", lhs)
        self._check_width(lhs.text, "net", rhs, lhs)
        if any(a.lhs == lhs.text for a in self.assigns):
            ts.error(f"net {lhs.text} has multiple drivers", lhs, ElaborationError)
        self.assigns.append(Assign(lhs.text, rhs))

    def always_block(self) -> None:
        ts = self.ts
        tok = ts.expect("kw", "always_ff")
        ts.expect("@")
        ts.expect("(")
        ts.expect("kw", "posedge")
        clock = self._net(ts.expect("id"))
        reset_sense = None
        if ts.accept("kw", "or"):
            edge = ts.next()
            if edge.text not in ("posedge", "negedge"):
                ts.error("expected posedge/negedge in sensitivity list", edge)
            rnet = self._net(ts.expect("id"))
            reset_sense = (rnet, 1 if edge.text == "posedge" else 0)
        if ts.at("kw", "or"):
            ts.error("at most one clock and one reset in a sensitivity list",
                     cls=UnsupportedConstructError)
        ts.expect(")")
        body = self.statement_list()
        self.blocks.append(_AlwaysBlock(clock, reset_sense, body, tok))

    def statement_list(self) -> list:
        ts = self.ts
        if ts.accept("kw", "begin"):
            out = []
            while not ts.at("kw", "end"):
                out.extend(self.statement_list())
            ts.expect("kw", "end")
            return out
        return [self.statement()]

    def statement(self):
        ts = self.ts
        if ts.at("kw", "if"):
            tok = ts.next()
            ts.expect("(")
            cond = ex.parse_expr(ts)
            ts.expect(")")
            then = self.statement_list()
            other = []
            if ts.accept("kw", "else"):
                other = self.statement_list()
            return _If(cond, then, other, tok)
        tok = ts.expect("id")
        if ts.at("="):
            ts.error("blocking assignment inside always_ff is not supported",
                     tok, UnsupportedConstructError)
        ts.expect("<=")
        rhs = ex.parse_expr(ts)
        ts.expect(";")
        return _NbAssign(tok.text, rhs, tok)

    # -- elaboration --------------------------------------------------------

    def _err(self, message: str, tok: Token) -> None:
        self.ts.error(message, tok, ElaborationError)

    def _net(self, tok: Token) -> str:
        """The name *tok* gives, which must be a declared net."""
        if tok.text in self.params:
            self._err(f"{tok.text} is a parameter, not a net", tok)
        if tok.text not in self.nets:
            self._err(f"undeclared identifier {tok.text}", tok)
        return tok.text

    def _width_fn(self, name: str) -> int:
        if name in self.nets:
            return self.nets[name].width
        return self.params[name].width

    def _check_readable(self, e: ex.Expr, at: Token, where: str) -> None:
        for node in ex.walk(e):
            if isinstance(node, ex.Ident):
                if node.name not in self.nets and node.name not in self.params:
                    self._err(f"undeclared identifier {node.name}", at)
            elif isinstance(node, ex.Select):
                if node.base not in self.nets:
                    self._err(f"bit select on undeclared net {node.base}", at)
                elif node.msb >= self.nets[node.base].width:
                    self._err(
                        f"select {node.base}[{node.msb}] exceeds width "
                        f"{self.nets[node.base].width}", at)
            elif isinstance(node, ex.Past):
                self._err("$past is not allowed in RTL", at)
        # a second walk: widths are known once every name is declared
        for node in ex.walk(e):
            if (isinstance(node, ex.Unary) and node.op == "~"
                    and ex.width_of(node.operand, self._width_fn) is None):
                self._err(f"cannot apply ~ to an unsized literal in {where}", at)

    def _check_width(self, target: str, what: str, rhs: ex.Expr,
                     at: Token) -> None:
        tw = self.nets[target].width
        rw = ex.width_of(rhs, self._width_fn)
        # unsized literals stretch to fit; anything wider than the target is
        # a real mismatch, never a silent truncation
        if rw is not None and rw > tw:
            self._err(f"cannot assign {rw}-bit value to {tw}-bit {what} "
                      f"{target}", at)
        if self._most(rhs) >> tw:
            self._err(f"an unsized literal does not fit {tw}-bit {what} "
                      f"{target}", at)

    def _most(self, e: ex.Expr) -> int:
        """The largest value *e* takes in simulation, which masks neither
        an unsized literal nor the sum of two."""
        if isinstance(e, ex.Ternary):
            return max(self._most(e.then), self._most(e.other))
        w = ex.width_of(e, self._width_fn)
        if not isinstance(e, ex.Binary) or e.op not in ("&", "|", "^", "+") \
                or e.op == "+" and w is not None:
            return e.value if isinstance(e, ex.Const) else ex.mask(w)
        a, b = self._most(e.left), self._most(e.right)
        if e.op == "&":
            return min(a, b)
        return a + b if e.op == "+" else ex.mask(max(a, b).bit_length())

    def _elaborate_registers(self, nl: Netlist) -> None:
        for block in self.blocks:
            if block.clock != self.blocks[0].clock:
                self._err("multiple clock nets: " + ", ".join(
                    sorted({b.clock for b in self.blocks})), block.tok)
        for block in self.blocks:
            self._elaborate_block(nl, block)
        for r in nl.registers:
            if r.target not in self.ports:
                nl.nets[r.target] = Net(r.target, nl.nets[r.target].width,
                                        NetKind.REGISTER)

    def _reset_cond(self, cond: ex.Expr) -> tuple[str, int] | None:
        """Recognize `rst`, `!rst`, `~rst`, `rst == 0/1` over a 1-bit net."""
        if isinstance(cond, ex.Ident):
            return (cond.name, 1)
        if isinstance(cond, ex.Unary) and isinstance(cond.operand, ex.Ident):
            return (cond.operand.name, 0)
        if (isinstance(cond, ex.Binary) and cond.op == "=="
                and isinstance(cond.left, ex.Ident)
                and isinstance(cond.right, ex.Const)
                and cond.right.value in (0, 1)):
            return (cond.left.name, cond.right.value)
        return None

    def _const_loads(self, stmts: list) -> dict[str, int] | None:
        loads: dict[str, int] = {}
        for s in stmts:
            if not isinstance(s, _NbAssign) or not isinstance(s.rhs, ex.Const):
                return None
            loads[s.target] = s.rhs.value
        return loads or None

    def _elaborate_block(self, nl: Netlist, block: _AlwaysBlock) -> None:
        body = block.body
        reset: Reset | None = None
        reset_loads: dict[str, int] = {}
        reset_arm: list = []

        head = body[0] if len(body) == 1 and isinstance(body[0], _If) else None
        probe = self._reset_cond(head.cond) if head is not None else None
        if probe is not None and probe[0] in self.nets \
                and self.nets[probe[0]].width == 1:
            loads = self._const_loads(head.then)
            if loads is not None:
                rnet, level = probe
                if block.reset_sense is not None and block.reset_sense != (rnet, level):
                    self._err("reset arm does not match the sensitivity list",
                              head.tok)
                reset = Reset(rnet, level, 0)
                reset_loads, reset_arm = loads, head.then
                body = head.other
        if block.reset_sense is not None and reset is None:
            self._err("async-reset sensitivity requires a leading reset arm "
                      "with constant loads", block.tok)

        targets = sorted({s.target for s in _flat(body, _NbAssign)}
                         | set(reset_loads))
        for tname in targets:
            if tname in self.params:
                self._err(f"{tname} is a parameter, not a net", block.tok)
            if tname not in self.nets:
                self._err(f"undeclared register target {tname}", block.tok)
            if self.nets[tname].kind is NetKind.INPUT:
                self._err(f"input {tname} must not be driven internally", block.tok)
        for s in reset_arm + _flat(body, _NbAssign):
            self._check_readable(s.rhs, s.tok, f"register {s.target}")
            self._check_width(s.target, "register", s.rhs, s.tok)
        for s in _flat(body, _If):
            written = [a.target for a in _flat([s], _NbAssign)]
            self._check_readable(s.cond, s.tok, f"register {min(written)}"
                                 if written else "always_ff block")

        for tname in targets:
            nxt = _fold_next(body, tname, ex.Ident(tname))
            tgt_reset = None
            if reset is not None:
                value = reset_loads.get(tname)
                if value is None:
                    self._err(f"register {tname} is not loaded in the reset arm",
                              block.tok)
                tgt_reset = Reset(reset.net, reset.active_level, value)
            if nl.driver_of(tname) is not None:
                self._err(f"net {tname} has multiple drivers", block.tok)
            nl.registers.append(Register(tname, nxt, block.clock, tgt_reset))


def _flat(stmts: list, kind: type) -> list:
    """Every statement of *kind* in *stmts*, nested ones included, in
    source order."""
    out = []
    for s in stmts:
        if isinstance(s, kind):
            out.append(s)
        if isinstance(s, _If):
            out += _flat(s.then, kind) + _flat(s.other, kind)
    return out


def _fold_next(stmts: list, target: str, current: ex.Expr) -> ex.Expr:
    """Sequential fold of a statement list into the next-value expression for
    *target*: later writes win, if/else becomes a mux."""
    for s in stmts:
        if isinstance(s, _NbAssign):
            if s.target == target:
                current = s.rhs
        else:
            then_v = _fold_next(s.then, target, current)
            else_v = _fold_next(s.other, target, current)
            if then_v != else_v:
                current = ex.Ternary(s.cond, then_v, else_v)
    return current
