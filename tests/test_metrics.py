"""Trigger-probability arithmetic, detection ratios, and report rendering."""

import csv
import io
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from svaport import corpus
from svaport.errors import ConeTooLargeError, ConfigError, DomainError
from svaport.metrics import (MAX_BRUTE_FORCE_BITS, MetricsReport, ModuleRow,
                             MonteCarloEstimate, TrojanRow,
                             analytic_probability, brute_force_probability,
                             emit_report, monte_carlo_probability, tpi)
from svaport.rtl_parser import parse_design
from svaport.sim import BatchExpr, SimKernel
from svaport.trojan import TriggerCond, TrojanSpec

from . import oracles
from .test_trojan import TOY_RTL

TABLE_ROWS = json.loads(
    (Path(__file__).parent / "data" / "table2.json").read_text())

WIDE_RTL = """\
module wide (
  input  logic        clk,
  input  logic [15:0] hi_i,
  input  logic [15:0] lo_i,
  output logic        eq_o
);
  assign eq_o = hi_i == lo_i;
endmodule
"""


# an 18-bit trigger cone: more rows than one enumeration chunk of 2^16
EQ9_RTL = """\
module eq9 (
  input  logic       clk,
  input  logic [8:0] x_i,
  input  logic [8:0] y_i,
  output logic       eq_o
);
  assign eq_o = x_i == y_i;
endmodule
"""


@pytest.fixture(scope="module")
def toy():
    return parse_design(TOY_RTL)


def _toy_spec(trigger, k, ident="toy_t50"):
    return TrojanSpec(id=ident, module="toy", module_kind="combinational",
                      trigger=trigger, k=k, payload_kind="invert_net",
                      payload_net="sum_o")


# ---------------------------------------------------------------------------
# scalar metrics


def test_tpi_closed_form_is_exact_for_every_power_of_two():
    for k in range(1, 81):
        assert tpi(Fraction(1, 1 << k)) == k * math.log10(2)
        assert tpi(analytic_probability(k)) == k * math.log10(2)


def test_tpi_accepts_floats_and_certainty():
    assert tpi(1) == 0.0
    assert tpi(0.25) == pytest.approx(2 * math.log10(2))
    assert tpi(Fraction(1, 1000)) == pytest.approx(3.0)


def test_tpi_domain_errors():
    for bad in (0, -1, 2, Fraction(3, 2)):
        with pytest.raises(DomainError, match="lie in"):
            tpi(bad)
    with pytest.raises(DomainError, match="not a probability"):
        tpi("half of the time")


def test_table_of_published_trigger_probabilities():
    assert len(TABLE_ROWS) == 33
    by_module = {}
    for row in TABLE_ROWS:
        by_module[row["module"]] = by_module.get(row["module"], 0) + 1
        got = round(tpi(Fraction(row["p"])), 2)
        tol = 0.02 if row["p"] == "1.2e-1" else 0.01
        assert abs(got - row["tpi"]) <= tol + 1e-12, row
    assert by_module == {"PMP": 7, "CSR": 7, "DO": 4, "ETI": 6, "CF": 9}


# ---------------------------------------------------------------------------
# trigger probability, three ways


def test_analytic_probability_forms():
    assert analytic_probability(3) == Fraction(1, 8)
    assert analytic_probability(_toy_spec((TriggerCond("en_i", None, 1),), 1)) \
        == Fraction(1, 2)
    with pytest.raises(DomainError, match="at least one bit"):
        analytic_probability(0)


def test_brute_force_matches_analytic_on_input_bit_triggers(toy):
    cases = [
        ((TriggerCond("a_i", 0, 1), TriggerCond("en_i", None, 1)), 2),
        ((TriggerCond("a_i", None, 5),), 4),
        ((TriggerCond("b_i", 3, 0), TriggerCond("b_i", 1, 1),
          TriggerCond("a_i", 2, 1)), 3),
    ]
    for trigger, k in cases:
        spec = _toy_spec(trigger, k)
        assert brute_force_probability(toy, spec) == analytic_probability(spec)


def test_brute_force_agrees_with_scalar_enumeration(toy):
    # an internal-net trigger, where the closed form is only a model
    spec = _toy_spec((TriggerCond("flag_o", None, 1),), 1)
    got = brute_force_probability(toy, spec)
    assert got == Fraction(1, 32)  # en_i high and a_i ^ b_i == 15
    assert got == oracles.count_trigger_states(toy, spec, ["a_i", "b_i", "en_i"])
    assert got != analytic_probability(spec)


def test_brute_force_rejects_wide_cones():
    # eq_o's cone has 32 input bits, more than MAX_BRUTE_FORCE_BITS
    wide = parse_design(WIDE_RTL)
    spec = TrojanSpec(id="wide_t00", module="wide", module_kind="combinational",
                      trigger=(TriggerCond("eq_o", None, 1),), k=1,
                      payload_kind="invert_net", payload_net="eq_o")
    assert 32 > MAX_BRUTE_FORCE_BITS
    with pytest.raises(ConeTooLargeError, match="monte_carlo"):
        brute_force_probability(wide, spec)


def test_each_probability_runs_one_kernel_sliced_to_the_trigger(monkeypatch):
    # csr_unit's mstatus_en holds for one value of its 16-bit input cone;
    # each oracle simulates the trigger's net alone, on one kernel
    design = parse_design(corpus.design_path("csr_unit").read_text())
    spec = TrojanSpec(id="csr_unit_t99", module="csr_unit",
                      module_kind="sequential",
                      trigger=(TriggerCond("mstatus_en", None, 1),), k=1,
                      payload_kind="invert_net", payload_net="mstatus_en")
    built: list[SimKernel] = []
    build = SimKernel.__init__

    def counting_build(self, *args, **kwargs):
        build(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SimKernel, "__init__", counting_build)
    assert brute_force_probability(design, spec) == Fraction(1, 65536)
    [kernel] = built
    assert kernel.net_order == ("mstatus_en",)
    built.clear()
    sampled = monte_carlo_probability(design, spec, samples=100_000)
    assert (sampled.hits, sampled.samples) == (2, 100_000)
    [kernel] = built
    assert kernel.net_order == ("mstatus_en",)


def test_each_probability_compiles_its_trigger_once(monkeypatch):
    # the 18-bit cone is enumerated in four chunks and 70,000 samples are
    # drawn in two; every chunk reuses the one compiled trigger
    design = parse_design(EQ9_RTL)
    spec = TrojanSpec(id="eq9_t00", module="eq9", module_kind="combinational",
                      trigger=(TriggerCond("eq_o", None, 1),), k=1,
                      payload_kind="invert_net", payload_net="eq_o")
    built: list[BatchExpr] = []
    compile_expr = BatchExpr.__init__

    def counting_compile(self, *args):
        compile_expr(self, *args)
        built.append(self)

    monkeypatch.setattr(BatchExpr, "__init__", counting_compile)
    assert brute_force_probability(design, spec) == Fraction(1, 512)
    assert len(built) == 1
    assert monte_carlo_probability(design, spec, samples=70_000).samples \
        == 70_000
    assert len(built) == 2


def test_a_cone_too_wide_to_enumerate_is_sampled():
    wide = parse_design(WIDE_RTL)
    spec = TrojanSpec(id="wide_t00", module="wide", module_kind="combinational",
                      trigger=(TriggerCond("eq_o", None, 1),), k=1,
                      payload_kind="invert_net", payload_net="eq_o")
    # 32 input bits exceed the default enumeration limit
    with pytest.raises(ConeTooLargeError):
        brute_force_probability(wide, spec)
    assert monte_carlo_probability(wide, spec, samples=2000, seed=3).samples \
        == 2000


CONST_RTL = """\
module const1 (
  input  logic clk,
  input  logic a_i,
  output logic y,
  output logic z
);
  assign y = 1'b1;
  assign z = a_i;
endmodule
"""


def test_a_trigger_with_no_input_in_its_cone_holds_in_every_sample():
    # no input reaches y, so each chunk of samples runs one row, which
    # stands for every sample of the chunk
    design = parse_design(CONST_RTL)
    spec = TrojanSpec(id="const1_t00", module="const1",
                      module_kind="combinational",
                      trigger=(TriggerCond("y", None, 1),), k=1,
                      payload_kind="invert_net", payload_net="y")
    assert brute_force_probability(design, spec) == 1
    sampled = monte_carlo_probability(design, spec, samples=100_000)
    assert (sampled.hits, sampled.samples, sampled.estimate) == \
        (100_000, 100_000, 1.0)
    never = replace(spec, trigger=(TriggerCond("y", None, 0),))
    assert brute_force_probability(design, never) == 0
    assert monte_carlo_probability(design, never, samples=100_000).hits == 0


def test_monte_carlo_is_deterministic_and_calibrated(toy):
    spec = _toy_spec((TriggerCond("flag_o", None, 1),), 1)
    first = monte_carlo_probability(toy, spec, samples=20_000, seed=9)
    again = monte_carlo_probability(toy, spec, samples=20_000, seed=9)
    assert first == again
    other = monte_carlo_probability(toy, spec, samples=20_000, seed=10)
    assert other.hits != first.hits or other is not first
    assert first.low <= 1 / 32 <= first.high
    assert first.hits == round(first.estimate * first.samples)
    assert first.to_dict()["interval95"] == [first.low, first.high]
    with pytest.raises(DomainError, match="at least 1000"):
        monte_carlo_probability(toy, spec, samples=10)
    # an input-bit trigger: the interval covers the closed form
    spec = _toy_spec((TriggerCond("a_i", 0, 1), TriggerCond("en_i", None, 1)), 2)
    quarter = monte_carlo_probability(toy, spec, samples=4000, seed=1)
    assert quarter.low <= 0.25 <= quarter.high


def test_monte_carlo_interval_boundaries():
    design = parse_design(
        "module sat (input logic clk, input logic a,\n"
        "            output logic y);\n"
        "  assign y = a || !a;\n"
        "endmodule\n")
    always = TrojanSpec(id="sat_t00", module="sat", module_kind="combinational",
                        trigger=(TriggerCond("y", None, 1),), k=1,
                        payload_kind="invert_net", payload_net="y")
    never = TrojanSpec(id="sat_t01", module="sat", module_kind="combinational",
                       trigger=(TriggerCond("y", None, 0),), k=1,
                       payload_kind="invert_net", payload_net="y")
    top = monte_carlo_probability(design, always, samples=1000, seed=0)
    assert (top.hits, top.estimate, top.high) == (1000, 1.0, 1.0)
    assert top.low < 1.0
    bottom = monte_carlo_probability(design, never, samples=1000, seed=0)
    assert (bottom.hits, bottom.estimate, bottom.low) == (0, 0.0, 0.0)
    assert bottom.high > 0.0


# ---------------------------------------------------------------------------
# report model and rendering


def _sample_report():
    return MetricsReport(
        modules=[
            ModuleRow("alpha", source_assertions=8, translated=7,
                      generated=4, detected=4),
            ModuleRow("beta", source_assertions=5, translated=5,
                      generated=0, detected=0),
        ],
        trojans=[
            TrojanRow("alpha_t00", "alpha", Fraction(1, 8)),
            TrojanRow("alpha_t01", "alpha", Fraction(1, 1 << 40)),
        ],
        seed=7,
    )


def test_row_validation():
    with pytest.raises(DomainError, match="exceeds"):
        ModuleRow("m", source_assertions=3, translated=4, generated=0,
                  detected=0)
    with pytest.raises(DomainError, match="exceeds"):
        ModuleRow("m", source_assertions=3, translated=3, generated=1,
                  detected=2)
    with pytest.raises(DomainError, match="negative"):
        ModuleRow("m", source_assertions=-1, translated=0, generated=0,
                  detected=0)
    with pytest.raises(DomainError, match="outside"):
        TrojanRow("t", "m", Fraction(0))


def test_report_text_layout():
    text = emit_report(_sample_report(), "table")
    lines = text.splitlines()
    assert lines[0] == "seed: 7"
    assert any("87.5%" in l and "100%" in l for l in lines)  # alpha row
    assert any("n/a" in l for l in lines)                    # beta, 0 trojans
    assert any("1.250e-01" in l and "0.90" in l for l in lines)
    assert any("9.095e-13" in l and "12.04" in l for l in lines)


def test_report_formats_carry_identical_values():
    report = _sample_report()
    doc = json.loads(emit_report(report, "json"))
    assert doc["seed"] == 7
    assert doc["modules"][0] == {
        "module": "alpha", "source_assertions": "8", "translated": "7",
        "translation_pct": "87.5%", "generated": "4", "detected": "4",
        "detection_pct": "100%"}
    rows = [r for r in csv.reader(io.StringIO(emit_report(report, "csv"))) if r]
    assert rows[0] == ["seed", "7"]
    by_id = {r[0]: r for r in rows}
    for t in doc["trojans"]:
        assert by_id[t["id"]][2:] == [t["p"], t["tpi"]]
    table_rows = {cells[0]: cells for cells in
                  (l.split() for l in emit_report(report, "table").splitlines())
                  if cells}
    for t in doc["trojans"]:
        assert table_rows[t["id"]][2:] == [t["p"], t["tpi"]]


def test_report_format_selection():
    report = _sample_report()
    assert emit_report(report, "TABLE") == emit_report(report, "table")
    with pytest.raises(ConfigError, match="unknown report format"):
        emit_report(report, "yaml")


def test_empty_report_renders():
    text = emit_report(MetricsReport())
    assert text.startswith("Assertion translation")
    assert "seed" not in text
