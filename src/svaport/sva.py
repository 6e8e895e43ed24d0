"""Assertion layer: parse, inspect, and render the supported SVA subset.

Two source shapes are accepted and produce the same model:

  concise directive
      LABEL: assert property (@(posedge clk) disable iff (rst)
          ante |-> cons) else $error("msg");

  named property
      property my_prop;
        @(posedge clk) ante |=> cons;
      endproperty
      LABEL: assert property (my_prop) else $error("msg");

Antecedent and consequent are delay sequences: boolean terms chained with
##N (a constant).  ##0 binds the term to the same cycle, so `a |-> ##0 b`
and `a |-> b` build the identical structure, and `a |=> b` is equivalent to
`a |-> ##1 b` (see normalize_overlapped).  Boolean terms may use $past with
a constant depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import expr as ex
from .errors import ParseError, UnsupportedConstructError
from .lexer import TokenStream, tokenize

_SEQ_KEYWORDS = {"throughout", "intersect", "within", "until", "s_until",
                 "first_match", "and", "not"}


@dataclass(eq=True)
class SeqExpr:
    """Delay sequence: ((d0, t0), (d1, t1), ...) means t0 holds d0 cycles
    after the sequence starts, t1 holds d1 cycles after t0, and so on."""

    steps: tuple[tuple[int, ex.Expr], ...]

    def terms(self):
        return [t for _, t in self.steps]


@dataclass(eq=True)
class Assertion:
    antecedent: SeqExpr
    implication: str  # '|->' or '|=>'
    consequent: SeqExpr
    clock: str
    clock_edge: str = "posedge"
    disable: ex.Expr | None = None
    name: str | None = None    # property name (named form)
    label: str | None = None   # directive label
    action: str | None = None  # $error message text

    def effective_name(self) -> str:
        return self.name or self.label or "<anonymous>"


def signals_of(a: Assertion) -> set[str]:
    """Identifiers appearing in the antecedent, consequent, or disable
    expression.  The clock is sampling infrastructure and is excluded;
    named constants are identifiers at this level (resolution happens
    against a concrete design later)."""
    out: set[str] = set()
    for term in a.antecedent.terms() + a.consequent.terms():
        out |= ex.idents_of(term)
    if a.disable is not None:
        out |= ex.idents_of(a.disable)
    return out


def normalize_overlapped(a: Assertion) -> Assertion:
    """Rewrite |=> as |-> with one extra leading cycle of delay."""
    if a.implication == "|->":
        return a
    (d0, t0), *rest = a.consequent.steps
    cons = SeqExpr(((d0 + 1, t0), *rest))
    return replace(a, implication="|->", consequent=cons)


# --------------------------------------------------------------------------
# parsing

def parse_assertions(text: str) -> list[Assertion]:
    """Parse a file's worth of assertions; names must be unique."""
    ts = TokenStream(tokenize(text), text)
    out: list[Assertion] = []
    properties: dict[str, Assertion] = {}
    while not ts.at("eof"):
        item = _parse_item(ts, properties)
        if item is not None:
            out.append(item)
    seen: set[str] = set()
    for a in out:
        name = a.effective_name()
        if name != "<anonymous>":
            if name in seen:
                raise ParseError(f"duplicate assertion name {name}")
            seen.add(name)
    return out


def parse_assertion(text: str) -> Assertion:
    """Parse text containing exactly one assertion."""
    items = parse_assertions(text)
    if len(items) != 1:
        raise ParseError(f"expected exactly one assertion, found {len(items)}")
    return items[0]


def _parse_item(ts: TokenStream, properties: dict[str, Assertion]) -> Assertion | None:
    if ts.at("kw", "property"):
        _parse_property(ts, properties)
        return None
    label = None
    if ts.at("id") and ts.peek(1).kind == ":":
        label = ts.next().text
        ts.next()
    ts.expect("kw", "assert")
    tok = ts.expect("kw", "property")
    ts.expect("(")
    if ts.at("id") and ts.peek(1).kind == ")":
        # reference to a previously declared named property
        ref = ts.next().text
        if ref not in properties:
            ts.error(f"assert references undeclared property {ref}", tok)
        body = properties[ref]
    else:
        body = _parse_property_body(ts)
    ts.expect(")")
    action = _parse_action(ts)
    ts.expect(";")
    return replace(body, label=label, action=action)


def _parse_property(ts: TokenStream, properties: dict[str, Assertion]) -> None:
    ts.expect("kw", "property")
    name_tok = ts.expect("id")
    ts.expect(";")
    body = _parse_property_body(ts)
    ts.expect(";")
    # the standard spells it `endproperty`; `end property` also appears in
    # the wild and is accepted
    if ts.accept("kw", "endproperty") is None:
        ts.expect("kw", "end")
        ts.expect("kw", "property")
    if name_tok.text in properties:
        ts.error(f"duplicate property name {name_tok.text}", name_tok)
    properties[name_tok.text] = replace(body, name=name_tok.text)


def _parse_property_body(ts: TokenStream) -> Assertion:
    ts.expect("@")
    ts.expect("(")
    edge_tok = ts.next()
    if edge_tok.text not in ("posedge", "negedge"):
        ts.error("expected posedge or negedge", edge_tok)
    clock = ts.expect("id").text
    if ts.at("kw", "or"):
        ts.error("one clocking event per assertion", cls=UnsupportedConstructError)
    ts.expect(")")
    disable = None
    if ts.accept("kw", "disable"):
        ts.expect("kw", "iff")
        ts.expect("(")
        disable = ex.parse_expr(ts, allow_past=False)
        ts.expect(")")
    antecedent = _parse_sequence(ts, leading_delay=False)
    impl_tok = ts.next()
    if impl_tok.text not in ("|->", "|=>"):
        ts.error("expected |-> or |=>", impl_tok)
    consequent = _parse_sequence(ts, leading_delay=True)
    return Assertion(antecedent, impl_tok.text, consequent, clock, edge_tok.text,
                     disable)


def _parse_sequence(ts: TokenStream, leading_delay: bool) -> SeqExpr:
    steps: list[tuple[int, ex.Expr]] = []
    delay = 0
    if leading_delay and ts.at("##"):
        delay = _parse_delay(ts)
    while True:
        if ts.at("id") and ts.peek().text in _SEQ_KEYWORDS:
            ts.error(f"sequence operator {ts.peek().text!r} is outside the "
                     "supported subset", cls=UnsupportedConstructError)
        term = ex.parse_expr(ts, allow_past=True)
        steps.append((delay, term))
        if ts.at("["):
            ts.error("repetition is outside the supported subset",
                     cls=UnsupportedConstructError)
        if not ts.at("##"):
            break
        delay = _parse_delay(ts)
    return SeqExpr(tuple(steps))


def _parse_delay(ts: TokenStream) -> int:
    ts.expect("##")
    if ts.at("["):
        ts.error("delay ranges are outside the supported subset",
                 cls=UnsupportedConstructError)
    return ts.expect("num").value


def _parse_action(ts: TokenStream) -> str | None:
    if not ts.accept("kw", "else"):
        return None
    tok = ts.peek()
    if tok.kind != "sysid" or tok.text != "$error":
        ts.error("only an else $error(...) action is supported", tok,
                 UnsupportedConstructError)
    ts.next()
    ts.expect("(")
    msg = ts.expect("string").text
    ts.expect(")")
    return msg


# --------------------------------------------------------------------------
# rendering

def _render_sequence(s: SeqExpr) -> str:
    parts: list[str] = []
    for i, (delay, term) in enumerate(s.steps):
        txt = ex.render_expr(term)
        if isinstance(term, (ex.Binary, ex.Ternary)):
            txt = f"({txt})"
        if i == 0 and delay == 0:
            parts.append(txt)
        else:
            parts.append(f"##{delay} {txt}")
    return " ".join(parts)


def render_assertion(a: Assertion) -> str:
    """Format an assertion as source text.

    Assertions carrying a property name render in the named form; anonymous
    ones render as a one-line directive.  parse(render(a)) rebuilds an equal
    structure.
    """
    clocking = f"@({a.clock_edge} {a.clock})"
    disable = f" disable iff ({ex.render_expr(a.disable)})" if a.disable is not None else ""
    body = (f"{_render_sequence(a.antecedent)} {a.implication} "
            f"{_render_sequence(a.consequent)}")
    action = f" else $error(\"{a.action}\")" if a.action is not None else ""
    if a.name is None:
        label = f"{a.label}: " if a.label else ""
        return f"{label}assert property ({clocking}{disable}\n    {body}){action};\n"
    label = f"{a.label}: " if a.label else ""
    return (
        f"property {a.name};\n"
        f"  {clocking}{disable}\n"
        f"  {body};\n"
        f"endproperty\n"
        f"{label}assert property ({a.name}){action};\n"
    )
