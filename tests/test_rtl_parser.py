"""Parser and elaboration: structure, round-trips, and rejection paths."""

import pytest
from hypothesis import given

from svaport import corpus
from svaport import expr as ex
from svaport.errors import (CombinationalLoopError, ElaborationError,
                            ParseError, UnsupportedConstructError)
from svaport.netlist import NetKind, render_netlist
from svaport.rtl_parser import parse_design
from svaport.sim import SimKernel, Stimulus

from . import gen

IRQ_LOGIC = corpus.golden_path("irq_ctrl.sv").read_text()


def test_irq_logic_structure():
    nl = parse_design(IRQ_LOGIC)
    assert nl.name == "irq_ctrl"
    by_lhs = {a.lhs: a for a in nl.assigns}
    assert set(by_lhs) == {"handle_irq", "irq_enabled"}
    assert ex.idents_of(by_lhs["handle_irq"].rhs) == {
        "debug_mode_q", "debug_single_step_i", "nmi_mode_q",
        "irq_nm", "irq_pending_i", "irq_enabled"}
    assert ex.idents_of(by_lhs["irq_enabled"].rhs) == {
        "csr_mstatus_mie_i", "priv_mode_i", "PRIV_LVL_U"}
    assert "PRIV_LVL_U" in nl.params and "PRIV_LVL_U" not in nl.nets
    assert nl.nets["priv_mode_i"].width == 2
    assert nl.nets["handle_irq"].kind is NetKind.OUTPUT


def test_ports_keep_declaration_order():
    nl = parse_design(IRQ_LOGIC)
    assert nl.ports[:3] == ("clk_i", "rst_ni", "debug_mode_q")
    assert nl.ports[-2:] == ("handle_irq", "irq_enabled")


def test_every_identifier_resolves_in_corpus():
    for name in corpus.MODULES:
        nl = parse_design(corpus.design_path(name).read_text())
        for a in nl.assigns:
            for ident in ex.idents_of(a.rhs):
                assert nl.resolves(ident), f"{name}: {ident}"
        for r in nl.registers:
            for ident in ex.idents_of(r.next):
                assert nl.resolves(ident), f"{name}: {ident}"


def test_corpus_round_trip():
    for name in corpus.MODULES:
        first = parse_design(corpus.design_path(name).read_text())
        again = parse_design(render_netlist(first))
        assert again == first, name


def test_parse_is_deterministic():
    text = corpus.design_path("csr_unit").read_text()
    a, b = parse_design(text), parse_design(text)
    assert a == b
    assert render_netlist(a) == render_netlist(b)


def test_register_elaboration_with_enables():
    nl = parse_design(corpus.design_path("csr_unit").read_text())
    regs = {r.target: r for r in nl.registers}
    assert set(regs) == {"mstatus_q", "mie_q", "mepc_q"}
    r = regs["mstatus_q"]
    assert r.clock == "clk_i"
    assert r.reset is not None
    assert (r.reset.net, r.reset.active_level, r.reset.value) == ("rst_ni", 0, 0)
    # enable-guarded load folds to mux(en, data, hold)
    assert r.next == ex.Ternary(ex.Ident("mstatus_en"),
                                ex.Ident("csr_wdata_i"), ex.Ident("mstatus_q"))


def test_sized_literal_params():
    nl = parse_design(corpus.design_path("csr_unit").read_text())
    p = nl.params["CSR_MSTATUS"]
    assert (p.value, p.size) == (0x300, 12)
    assert nl.width("CSR_MSTATUS") == 12


def test_unknown_identifier_rejected():
    with pytest.raises(ElaborationError, match="ghost"):
        parse_design("module m (input logic a, output logic y);\n"
                     "  assign y = a & ghost;\nendmodule\n")


def test_multiple_drivers_rejected():
    with pytest.raises(ElaborationError, match="multiple drivers"):
        parse_design("module m (input logic a, output logic y);\n"
                     "  assign y = a;\n  assign y = !a;\nendmodule\n")


@pytest.mark.parametrize("other", [
    "  assign q = a;\n",
    "  always_ff @(posedge clk) q <= a;\n",
])
def test_register_with_a_second_driver_rejected_at_its_block(other):
    text = ("module m (input logic clk, input logic a, output logic y);\n"
            "  logic q;\n  assign y = q;\n" + other
            + "  always_ff @(posedge clk) q <= !a;\nendmodule\n")
    with pytest.raises(ElaborationError, match="net q has multiple "
                       "drivers") as err:
        parse_design(text)
    assert (err.value.line, err.value.col) == (5, 3)


def test_second_clock_rejected_at_its_block():
    text = ("module m (input logic c1, input logic c2, output logic y);\n"
            "  logic p, q;\n  assign y = p & q;\n"
            "  always_ff @(posedge c1) p <= !p;\n"
            "  always_ff @(posedge c2) q <= !q;\nendmodule\n")
    with pytest.raises(ElaborationError, match="multiple clock nets: "
                       "c1, c2") as err:
        parse_design(text)
    assert (err.value.line, err.value.col) == (5, 3)


@pytest.mark.parametrize("sense, at", [
    ("posedge ghost", (3, 23)),
    ("posedge clk or negedge ghost", (3, 38)),
], ids=["clock", "reset"])
def test_undeclared_sensitivity_net_rejected_at_its_token(sense, at):
    text = ("module m (input logic clk, input logic rst_n, input logic a,\n"
            "           output logic q);\n  always_ff @(" + sense
            + ") begin\n    if (!rst_n) q <= 1'b0;\n    else q <= a;\n"
            "  end\nendmodule\n")
    with pytest.raises(ElaborationError,
                       match="^undeclared identifier ghost") as err:
        parse_design(text)
    assert (err.value.line, err.value.col) == at


@pytest.mark.parametrize("item, at", [
    ("  assign P = a;\n", (3, 10)),
    ("  always_ff @(posedge P) q <= a;\n", (3, 23)),
    ("  always_ff @(posedge clk or negedge P) begin\n"
     "    if (!P) q <= 1'b0;\n    else q <= a;\n  end\n", (3, 38)),
    ("  always_ff @(posedge clk) P <= a;\n", (3, 3)),
], ids=["assign", "clock", "reset", "register"])
def test_parameter_used_as_a_net_named_as_a_parameter(item, at):
    text = ("module m (input logic clk, input logic a, output logic q);\n"
            "  parameter P = 1;\n" + item + "endmodule\n")
    with pytest.raises(ElaborationError,
                       match="^P is a parameter, not a net") as err:
        parse_design(text)
    assert (err.value.line, err.value.col) == at


def test_driven_input_rejected():
    with pytest.raises(ElaborationError, match="input"):
        parse_design("module m (input logic a, output logic y);\n"
                     "  assign a = 1'b1;\n  assign y = a;\nendmodule\n")


_UNSIZED_NOT_CASES = [
    ("  assign y = ~4;\n", "assign y", (4, 10)),
    ("  assign y = q & ~(2 + 1);\n", "assign y", (4, 10)),
    ("  assign y = q;\n  always_ff @(posedge clk) begin\n"
     "    q <= a ? ~1 : q;\n  end\n", "register q", (6, 5)),
    ("  assign y = q;\n  always_ff @(posedge clk) begin\n"
     "    if (~1) q <= a;\n  end\n", "register q", (6, 5)),
]


# a case is named by its driver and where, not by its expected position
@pytest.mark.parametrize("driver, where, at", _UNSIZED_NOT_CASES,
                         ids=[f"{d}-{w}" for d, w, _ in _UNSIZED_NOT_CASES])
def test_not_of_an_unsized_literal_rejected(driver, where, at):
    # an unsized literal has no width for ~ to invert; the parse rejects
    # it wherever it is, not only when a kernel compiles that driver, at
    # the token of the statement that holds it
    text = ("module m (input logic clk, input logic a,\n"
            "          output logic [3:0] y);\n"
            "  logic [3:0] q;\n" + driver + "endmodule\n")
    with pytest.raises(ElaborationError, match=f"unsized literal in {where}") as err:
        parse_design(text)
    assert (err.value.line, err.value.col) == at
    parse_design(text.replace("~4", "~4'd4").replace("~(2 + 1)", "~4'd3")
                 .replace("~1", "~4'd1"))


@pytest.mark.parametrize("load", ["3'd5", "5"])
def test_a_reset_load_wider_than_its_register_rejected(load):
    # a reset arm's constant loads are width-checked like every other
    # write, at their statement: a 2-bit register cannot hold 5
    text = ("module m (input logic clk, input logic rst_ni,\n"
            "          input logic [1:0] d_i, output logic [1:0] q_o);\n"
            "  always_ff @(posedge clk) begin\n"
            f"    if (!rst_ni) q_o <= {load};\n"
            "    else q_o <= d_i;\n  end\nendmodule\n")
    with pytest.raises(ElaborationError,
                       match="-bit register q_o") as err:
        parse_design(text)
    assert (err.value.line, err.value.col) == (4, 18)
    [reg] = parse_design(text.replace(load, "2'd3")).registers
    assert reg.reset.value == 3


_UNFIT_CASES = [
    ("  assign x_o = 5;\n", "net x_o", (4, 10)),
    ("  assign x_o = c_i ? 6 : q;\n", "net x_o", (4, 10)),
    ("  assign x_o = q | 4;\n", "net x_o", (4, 10)),
    ("  always_ff @(posedge clk) q <= q | 4;\n", "register q", (4, 28)),
]


@pytest.mark.parametrize("driver, where, at", _UNFIT_CASES,
                         ids=[d.strip() for d, _, _ in _UNFIT_CASES])
def test_an_unsized_literal_wider_than_its_net_rejected(driver, where, at):
    # an unsized literal stretches to its net's width but must fit it:
    # the simulator would otherwise hold 5, 6 or 7 in a 2-bit net
    text = ("module m (input logic clk, input logic c_i,\n"
            "          output logic [1:0] x_o, output logic y_o);\n"
            "  logic [1:0] q;\n" + driver + "endmodule\n")
    with pytest.raises(ElaborationError,
                       match=f"unsized literal does not fit 2-bit {where} "
                       ) as err:
        parse_design(text)
    assert (err.value.line, err.value.col) == at
    # a compared literal is not stored, and a sum is masked to its width
    fine = parse_design(text.replace(driver, "  assign x_o = q + 5;\n"
                                     "  assign y_o = x_o == 5;\n"))
    run = SimKernel(fine).run(Stimulus.for_design(fine, [{}]))
    assert (run.values["x_o"], run.values["y_o"]) == ([1], [0])


def test_combinational_loop_names_the_cycle():
    text = ("module m (input logic a, output logic y);\n"
            "  logic p;\n  logic q;\n"
            "  assign p = q & a;\n  assign q = p | a;\n  assign y = q;\n"
            "endmodule\n")
    with pytest.raises(CombinationalLoopError) as err:
        parse_design(text)
    assert set(err.value.cycle) >= {"p", "q"}


def test_register_breaks_apparent_loop():
    text = ("module m (input logic clk, input logic a, output logic y);\n"
            "  logic q;\n"
            "  assign y = q ^ a;\n"
            "  always_ff @(posedge clk) begin\n    q <= y;\n  end\n"
            "endmodule\n")
    nl = parse_design(text)
    assert [r.target for r in nl.registers] == ["q"]


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_design("module m (input logic a output logic y);\nendmodule\n")
    assert err.value.line == 1
    assert err.value.col > 0


@pytest.mark.parametrize("literal", ["2'b0a", "8'oFE"])
def test_malformed_literal_is_a_parse_error(literal):
    text = ("module m (input logic [1:0] a, output logic y);\n"
            f"  assign y = a == {literal};\nendmodule\n")
    with pytest.raises(ParseError, match="not a valid base") as err:
        parse_design(text)
    assert (err.value.line, err.value.col) == (2, 19)


@pytest.mark.parametrize("snippet,needle", [
    ("module m (inout logic a);\nendmodule\n", "inout"),
    ("module m #(parameter W = 4) (input logic a);\nendmodule\n", "parameter"),
    ("module m (input logic a, output logic y);\n"
     "  assign y = {a, a};\nendmodule\n", "concatenation"),
])
def test_unsupported_constructs(snippet, needle):
    with pytest.raises(UnsupportedConstructError, match=needle):
        parse_design(snippet)


def test_past_rejected_in_rtl():
    with pytest.raises(ParseError, match=r"\$past"):
        parse_design("module m (input logic a, output logic y);\n"
                     "  assign y = $past(a);\nendmodule\n")


def test_one_module_per_file():
    text = ("module m1 (input logic a);\nendmodule\n"
            "module m2 (input logic b);\nendmodule\n")
    with pytest.raises(ParseError, match="one module"):
        parse_design(text)


@given(gen.designs())
def test_generated_designs_round_trip(nl):
    reparsed = parse_design(render_netlist(nl))
    assert reparsed.name == nl.name
    assert reparsed.ports == nl.ports
    assert reparsed.nets == nl.nets
    assert reparsed.params == nl.params
    assert reparsed.assigns == nl.assigns
    assert reparsed.registers == nl.registers
