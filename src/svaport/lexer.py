"""Tokenizer shared by the RTL and assertion parsers."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError

# Multi-character operators must come before their prefixes.
_PUNCT = [
    "##", "&&", "||", "==", "!=", "<=", "|->", "|=>",
    "(", ")", "[", "]", "{", "}", ":", ";", ",", "=", "?",
    "~", "!", "&", "|", "^", "+", "@", "#", "*", ".",
]

KEYWORDS = {
    "module", "endmodule", "input", "output", "inout", "logic", "wire", "reg",
    "parameter", "localparam", "assign", "always_ff", "always", "always_comb",
    "posedge", "negedge", "or", "begin", "end", "if", "else",
    "property", "endproperty", "assert", "disable", "iff",
}

# One alternative per token kind, tried in order at each offset.  ``space``
# covers whitespace and comments; ``bad`` is what no other kind matches: an
# unclosed ``/*``, an unclosed string, or any other character.
_TOKEN_RE = re.compile("|".join([
    r"(?P<space>[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)",
    r'(?P<string>"(?:[^"\\]|\\.)*")',
    r"(?P<sysid>\$[A-Za-z_][A-Za-z0-9_]*)",
    r"(?P<num>(?P<size>\d[\d_]*)?'(?P<base>[bodhBODH])(?P<digits>[0-9a-fA-FxXzZ_?]+)"
    r"|\d[\d_]*)",
    r"(?P<word>[A-Za-z_][A-Za-z0-9_$]*)",
    "(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + ")",
    r'(?P<bad>/\*|"|.)',
]))

_BAD = {"/*": "unterminated block comment", '"': "unterminated string literal"}

_BASES = {"b": 2, "o": 8, "d": 10, "h": 16}


@dataclass
class Token:
    kind: str          # 'id', 'kw', 'num', 'sysid', 'string', punct literal, 'eof'
    text: str
    line: int
    col: int
    value: int = 0     # numeric value for 'num'
    size: int | None = None  # written width for sized literals, None if unsized


def _decode_number(m: re.Match, line: int, col: int) -> tuple[int, int | None]:
    if m.group("base") is None:
        return int(m.group("num").replace("_", "")), None
    size = int(m.group("size").replace("_", "")) if m.group("size") else None
    base = _BASES[m.group("base").lower()]
    digits = m.group("digits").replace("_", "")
    if re.search(r"[xXzZ?]", digits):
        raise ParseError("x/z digits are not supported (two-state values only)", line, col)
    try:
        value = int(digits, base)
    except ValueError:
        raise ParseError(f"{digits!r} is not a valid base-{base} number",
                         line, col) from None
    if size is not None and value >= (1 << size):
        raise ParseError(f"literal value {value} does not fit in {size} bits", line, col)
    return value, size


def _line_text(text: str, line: int) -> str:
    """Line *line* (1-based) of *text*, counted as the tokenizer counts
    them, at each newline; "" past its end."""
    lines = text.split("\n")
    return lines[line - 1].rstrip("\r") if 0 < line <= len(lines) else ""


def tokenize(text: str) -> list[Token]:
    """Split *text* into tokens, each with the line and column it starts at."""
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: offset just past the last newline
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "word":
            tokens.append(Token("kw" if lexeme in KEYWORDS else "id", lexeme, line, col))
        elif kind == "punct":
            tokens.append(Token(lexeme, lexeme, line, col))
        elif kind == "num":
            value, size = _decode_number(m, line, col)
            tokens.append(Token("num", lexeme, line, col, value=value, size=size))
        elif kind == "sysid":
            tokens.append(Token("sysid", lexeme, line, col))
        elif kind == "bad":
            raise ParseError(_BAD.get(lexeme, f"unexpected character {lexeme!r}"),
                             line, col, _line_text(text, line))
        elif kind == "string":
            tokens.append(Token("string", lexeme[1:-1], line, col))
        if (kind == "space" or kind == "string") and "\n" in lexeme:
            line += lexeme.count("\n")
            line_start = m.start() + lexeme.rfind("\n") + 1
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/accept/expect helpers."""

    def __init__(self, tokens: list[Token], source: str = ""):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self, ahead: int = 0) -> Token:
        if not ahead:
            return self.tokens[self.pos]  # next() never moves past eof
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            tok = self.peek()
            self.error(f"expected {text or kind!r}, found {tok.text or tok.kind!r}")
        return self.next()

    def error(self, message: str, tok: Token | None = None, cls=ParseError):
        tok = tok or self.peek()
        raise cls(message, tok.line, tok.col, _line_text(self.source, tok.line))
