"""The tokenizer: comment and string edges, and every token's position."""

import pytest
from hypothesis import given, settings

from svaport.errors import ParseError
from svaport.lexer import tokenize
from svaport.rtl_parser import parse_design

from .test_parser_mutations import ASSERTIONS, DESIGNS, mutants


def test_star_of_the_opening_does_not_close_a_comment():
    with pytest.raises(ParseError, match="unterminated block comment") as err:
        tokenize("a /*/ b")
    assert (err.value.line, err.value.col) == (1, 3)
    assert [t.text for t in tokenize("a /*/ b */ c")] == ["a", "c", ""]


def test_token_after_a_string_spanning_lines_is_on_the_next_line():
    toks = tokenize('$error("x\ny") z')
    assert toks[2].kind == "string" and toks[2].text == "x\ny"
    assert (toks[-2].text, toks[-2].line, toks[-2].col) == ("z", 2, 5)


def test_eof_after_a_trailing_line_comment_is_past_it():
    eof = tokenize("a // note")[-1]
    assert (eof.kind, eof.line, eof.col) == ("eof", 1, 10)


def test_diagnostic_shows_the_line_it_counts():
    # a lone carriage return is whitespace, not a line break
    with pytest.raises(ParseError) as err:
        parse_design("module m (input logic a,\r output logic y);\n"
                     "  assign y = a %;\nendmodule\r\n")
    assert (err.value.line, err.value.excerpt) == (2, "  assign y = a %;")


# the corpus holds no string; these texts add an action message that spans
# lines, with tokens after it
ACTION = ('A_MSG: assert property (@(posedge clk_i) a |-> b) else\n'
          '  $error("first line\n  second line");\n')


@settings(max_examples=150)
@given(mutants(DESIGNS + ASSERTIONS + [a + ACTION for a in ASSERTIONS]))
def test_each_token_sits_at_its_line_and_column(text):
    try:
        toks = tokenize(text)
    except ParseError:
        return
    lines = text.split("\n")
    for t in toks:
        if t.kind in ("id", "kw", "num", "sysid") or t.kind == t.text:
            line = lines[t.line - 1]
            assert line[t.col - 1:t.col - 1 + len(t.text)] == t.text, t
