"""Boolean/bit-vector expression AST shared by the RTL and assertion layers.

The operator set is deliberately small: identifiers, bit and part selects,
integer literals, unary ~ and !, binary & | ^ && || == != +, and the ternary
mux.  The assertion layer additionally allows $past(expr, depth) leaves; the
RTL parser rejects them.

Values are two-state.  Addition wraps at the result width, comparisons and
the logical operators produce the integers 0/1, and unsized literals adapt to
whatever width the context requires.  ``sim.emit`` computes values: it
compiles expressions to Python code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import UnsupportedConstructError
from .lexer import TokenStream


class Expr:
    """Base class; concrete nodes are the dataclasses below."""

    __slots__ = ()


@dataclass(eq=True)
class Const(Expr):
    value: int
    size: int | None = None  # written width (12 for 12'h300), None if unsized


@dataclass(eq=True)
class Ident(Expr):
    name: str


@dataclass(eq=True)
class Select(Expr):
    """Bit or part select on a named net; a bit select has msb == lsb."""

    base: str
    msb: int
    lsb: int


@dataclass(eq=True)
class Unary(Expr):
    op: str  # '~' or '!'
    operand: Expr


@dataclass(eq=True)
class Binary(Expr):
    op: str  # '&' '|' '^' '&&' '||' '==' '!=' '+'
    left: Expr
    right: Expr


@dataclass(eq=True)
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass(eq=True)
class Past(Expr):
    """$past(expr, depth) — value of *expr* sampled *depth* cycles earlier."""

    expr: Expr
    depth: int = 1


# --------------------------------------------------------------------------
# parsing

# Binding strength of each operator, loosest first, shared by the parser and
# ``render_expr``.
_PREC = {"?:": 0, "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5, "==": 6, "!=": 6, "+": 7}


def parse_expr(ts: TokenStream, allow_past: bool = False) -> Expr:
    """Parse one expression from *ts* (used by both front ends)."""
    return _parse_ternary(ts, allow_past)


def _parse_ternary(ts: TokenStream, allow_past: bool) -> Expr:
    cond = _parse_binary(ts, 1, allow_past)
    if ts.accept("?"):
        then = _parse_ternary(ts, allow_past)
        ts.expect(":")
        other = _parse_ternary(ts, allow_past)
        return Ternary(cond, then, other)
    return cond


def _parse_binary(ts: TokenStream, floor: int, allow_past: bool) -> Expr:
    """A chain of binary operators that bind at least as tightly as
    *floor*, by precedence climbing over ``_PREC``: every operator is
    left-associative, and the conditional operator sits below all of
    them and associates to the right."""
    left = _parse_unary(ts, allow_past)
    while True:
        op = ts.peek().kind
        prec = _PREC.get(op, 0)
        if prec < floor:
            return left
        ts.next()
        left = Binary(op, left, _parse_binary(ts, prec + 1, allow_past))


def _parse_unary(ts: TokenStream, allow_past: bool) -> Expr:
    if ts.at("~") or ts.at("!"):
        op = ts.next().text
        return Unary(op, _parse_unary(ts, allow_past))
    return _parse_primary(ts, allow_past)


def _parse_primary(ts: TokenStream, allow_past: bool) -> Expr:
    tok = ts.peek()
    if ts.accept("("):
        inner = _parse_ternary(ts, allow_past)
        ts.expect(")")
        return inner
    if tok.kind == "num":
        ts.next()
        return Const(tok.value, tok.size)
    if tok.kind == "sysid":
        if tok.text != "$past":
            ts.error(f"unsupported system function {tok.text}", tok, UnsupportedConstructError)
        if not allow_past:
            ts.error("$past is only allowed in assertions", tok)
        ts.next()
        ts.expect("(")
        inner = _parse_ternary(ts, allow_past)
        depth = 1
        if ts.accept(","):
            d = ts.expect("num")
            if d.value < 1:
                ts.error("$past depth must be >= 1", d)
            depth = d.value
        ts.expect(")")
        return Past(inner, depth)
    if tok.kind == "id":
        ts.next()
        if ts.accept("["):
            if ts.at("*"):
                ts.error("repetition is outside the supported subset",
                         ts.peek(), UnsupportedConstructError)
            msb = ts.expect("num").value
            lsb = msb
            if ts.accept(":"):
                lsb = ts.expect("num").value
            ts.expect("]")
            if msb < lsb:
                ts.error(f"part select [{msb}:{lsb}] is reversed", tok)
            return Select(tok.text, msb, lsb)
        return Ident(tok.text)
    if tok.kind == "{":
        ts.error("concatenation is outside the supported subset", tok,
                 UnsupportedConstructError)
    ts.error(f"expected an expression, found {tok.text or tok.kind!r}", tok)
    raise AssertionError("unreachable")


def parse_expr_text(text: str, allow_past: bool = False) -> Expr:
    """Parse a standalone expression string (used for map/config files)."""
    from .lexer import tokenize

    ts = TokenStream(tokenize(text), text)
    e = parse_expr(ts, allow_past)
    if not ts.at("eof"):
        ts.error("trailing text after expression")
    return e


# --------------------------------------------------------------------------
# traversal helpers

def walk(e: Expr) -> Iterator[Expr]:
    yield e
    if isinstance(e, Unary):
        yield from walk(e.operand)
    elif isinstance(e, Binary):
        yield from walk(e.left)
        yield from walk(e.right)
    elif isinstance(e, Ternary):
        yield from walk(e.cond)
        yield from walk(e.then)
        yield from walk(e.other)
    elif isinstance(e, Past):
        yield from walk(e.expr)


def idents_of(e: Expr) -> set[str]:
    """Every identifier referenced, including bases of selects and the
    arguments of $past.  Literals contribute nothing."""
    out: set[str] = set()
    for node in walk(e):
        if isinstance(node, Ident):
            out.add(node.name)
        elif isinstance(node, Select):
            out.add(node.base)
    return out


def rename(e: Expr, table: dict[str, str]) -> Expr:
    """Return a copy of *e* with identifiers renamed through *table*."""
    if isinstance(e, Const):
        return Const(e.value, e.size)
    if isinstance(e, Ident):
        return Ident(table.get(e.name, e.name))
    if isinstance(e, Select):
        return Select(table.get(e.base, e.base), e.msb, e.lsb)
    if isinstance(e, Unary):
        return Unary(e.op, rename(e.operand, table))
    if isinstance(e, Binary):
        return Binary(e.op, rename(e.left, table), rename(e.right, table))
    if isinstance(e, Ternary):
        return Ternary(rename(e.cond, table), rename(e.then, table), rename(e.other, table))
    if isinstance(e, Past):
        return Past(rename(e.expr, table), e.depth)
    raise TypeError(f"not an expression node: {e!r}")


# --------------------------------------------------------------------------
# widths

def width_of(e: Expr, net_width: Callable[[str], int]) -> int | None:
    """Width of *e* given a resolver for identifier widths.

    Returns None for unsized literals (they adapt to context).  Comparison
    and logical operators are 1 bit wide; & | ^ + take the wider operand.
    """
    if isinstance(e, Const):
        return e.size
    if isinstance(e, Ident):
        return net_width(e.name)
    if isinstance(e, Select):
        return e.msb - e.lsb + 1
    if isinstance(e, Unary):
        if e.op == "!":
            return 1
        return width_of(e.operand, net_width)
    if isinstance(e, Binary):
        if e.op in ("==", "!=", "&&", "||"):
            return 1
        lw = width_of(e.left, net_width)
        rw = width_of(e.right, net_width)
        if lw is None:
            return rw
        if rw is None:
            return lw
        return max(lw, rw)
    if isinstance(e, Ternary):
        tw = width_of(e.then, net_width)
        ow = width_of(e.other, net_width)
        if tw is None:
            return ow
        if ow is None:
            return tw
        return max(tw, ow)
    if isinstance(e, Past):
        return width_of(e.expr, net_width)
    raise TypeError(f"not an expression node: {e!r}")


def mask(width: int) -> int:
    return (1 << width) - 1


# --------------------------------------------------------------------------
# rendering

_UNARY_PREC = 8


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Ternary):
        return _PREC["?:"]
    if isinstance(e, Unary):
        return _UNARY_PREC
    return 9


def render_expr(e: Expr) -> str:
    """Format *e* as source text.  Parentheses are inserted exactly where the
    precedence requires them, so parse(render(x)) == x."""
    if isinstance(e, Const):
        if e.size is None:
            return str(e.value)
        digits = max(1, (e.size + 3) // 4)
        return f"{e.size}'h{e.value:0{digits}x}"
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, Select):
        if e.msb == e.lsb:
            return f"{e.base}[{e.msb}]"
        return f"{e.base}[{e.msb}:{e.lsb}]"
    if isinstance(e, Unary):
        inner = render_expr(e.operand)
        if _prec(e.operand) < _UNARY_PREC:
            inner = f"({inner})"
        return e.op + inner
    if isinstance(e, Binary):
        p = _PREC[e.op]
        left = render_expr(e.left)
        right = render_expr(e.right)
        if _prec(e.left) < p:
            left = f"({left})"
        # left-associative: same-precedence right operands need parens
        if _prec(e.right) <= p:
            right = f"({right})"
        return f"{left} {e.op} {right}"
    if isinstance(e, Ternary):
        cond = render_expr(e.cond)
        if _prec(e.cond) <= _PREC["?:"]:
            cond = f"({cond})"
        return f"{cond} ? {render_expr(e.then)} : {render_expr(e.other)}"
    if isinstance(e, Past):
        if e.depth == 1:
            return f"$past({render_expr(e.expr)})"
        return f"$past({render_expr(e.expr)}, {e.depth})"
    raise TypeError(f"not an expression node: {e!r}")


def conjuncts(e: Expr) -> list[Expr]:
    """Flatten a chain of && into its top-level conjuncts."""
    if isinstance(e, Binary) and e.op == "&&":
        return conjuncts(e.left) + conjuncts(e.right)
    return [e]


def conjoin(terms: list[Expr]) -> Expr:
    """Left-fold a non-empty conjunct list back into an && chain."""
    if not terms:
        raise ValueError("cannot conjoin an empty list")
    out = terms[0]
    for t in terms[1:]:
        out = Binary("&&", out, t)
    return out
