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

_NUMBER_RE = re.compile(r"(?:(\d[\d_]*)?'([bodhBODH])([0-9a-fA-FxXzZ_?]+))|(\d[\d_]*)")
_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_SYSID_RE = re.compile(r"\$[A-Za-z_][A-Za-z0-9_]*")
_STRING_RE = re.compile(r'"([^"\\]|\\.)*"')

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
    if m.group(4) is not None:
        return int(m.group(4).replace("_", "")), None
    size = int(m.group(1).replace("_", "")) if m.group(1) else None
    base = _BASES[m.group(2).lower()]
    digits = m.group(3).replace("_", "")
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


def tokenize(text: str) -> list[Token]:
    """Split *text* into tokens, tracking line/column for diagnostics."""
    tokens: list[Token] = []
    lines = text.splitlines()
    i, line, col = 0, 1, 1
    n = len(text)

    def excerpt() -> str:
        return lines[line - 1] if 0 <= line - 1 < len(lines) else ""

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i)
            if j < 0:
                raise ParseError("unterminated block comment", line, col, excerpt())
            skipped = text[i:j + 2]
            nl = skipped.count("\n")
            if nl:
                line += nl
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = j + 2
            continue
        if ch == '"':
            m = _STRING_RE.match(text, i)
            if not m:
                raise ParseError("unterminated string literal", line, col, excerpt())
            raw = m.group(0)
            tokens.append(Token("string", raw[1:-1], line, col))
            i = m.end()
            col += len(raw)
            continue
        if ch == "$":
            m = _SYSID_RE.match(text, i)
            if m:
                tokens.append(Token("sysid", m.group(0), line, col))
                col += len(m.group(0))
                i = m.end()
                continue
        if ch.isdigit() or (ch == "'" and i + 1 < n):
            m = _NUMBER_RE.match(text, i)
            if m:
                value, size = _decode_number(m, line, col)
                tokens.append(Token("num", m.group(0), line, col, value=value, size=size))
                col += len(m.group(0))
                i = m.end()
                continue
        m = _ID_RE.match(text, i)
        if m:
            word = m.group(0)
            kind = "kw" if word in KEYWORDS else "id"
            tokens.append(Token(kind, word, line, col))
            col += len(word)
            i = m.end()
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token(p, p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col, excerpt())
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/accept/expect helpers."""

    def __init__(self, tokens: list[Token], source: str = ""):
        self.tokens = tokens
        self.pos = 0
        self._lines = source.splitlines()

    def peek(self, ahead: int = 0) -> Token:
        idx = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[idx]

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
        tok = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise ParseError(
                f"expected {want!r}, found {tok.text or tok.kind!r}",
                tok.line, tok.col, self.line_text(tok.line),
            )
        return self.next()

    def line_text(self, line: int) -> str:
        if 0 < line <= len(self._lines):
            return self._lines[line - 1]
        return ""

    def error(self, message: str, tok: Token | None = None, cls=ParseError):
        tok = tok or self.peek()
        raise cls(message, tok.line, tok.col, self.line_text(tok.line))
