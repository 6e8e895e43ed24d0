"""Mutated corpus text: both parsers return a result or raise SvaportError."""

from hypothesis import given, settings
from hypothesis import strategies as st

from svaport import corpus
from svaport.errors import SvaportError
from svaport.netlist import Netlist
from svaport.rtl_parser import parse_design
from svaport.sva import parse_assertions

DESIGNS = [corpus.design_path(m).read_text() for m in corpus.MODULES]
ASSERTIONS = [corpus.assertions_path(m).read_text() for m in corpus.MODULES]
SNIPPET = st.text(alphabet="abxyz_019'hdb ()[]{}:;,.=!&|^~?<>+-*@#$/\n",
                  max_size=8)


@st.composite
def mutants(draw, texts: list[str]) -> str:
    """A corpus text after a few random insertions, deletions and splices
    (a slice of another corpus text pasted in)."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("insert", "delete", "splice")))
        if kind == "insert":
            text = text[:at] + draw(SNIPPET) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 16)):]
        else:
            donor = draw(st.sampled_from(DESIGNS + ASSERTIONS))
            lo = draw(st.integers(0, len(donor)))
            text = text[:at] + donor[lo:lo + draw(st.integers(1, 40))] + text[at:]
    return text


@settings(max_examples=150)
@given(mutants(DESIGNS))
def test_mutated_designs_parse_or_raise_svaport_errors(text):
    try:
        assert isinstance(parse_design(text), Netlist)
    except SvaportError:
        pass


@settings(max_examples=150)
@given(mutants(ASSERTIONS))
def test_mutated_assertions_parse_or_raise_svaport_errors(text):
    try:
        assert isinstance(parse_assertions(text), list)
    except SvaportError:
        pass
