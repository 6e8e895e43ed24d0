"""Smoke runs of the example scripts under ``scripts/``, each on a small
input, so that a change to the API they call shows here."""

import importlib.util
import re
from pathlib import Path

from .test_cli import make_campaign

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trigger_sweep_prints_a_row_per_k(capsys):
    main = _script("trigger_sweep").main
    assert main(["--k-min", "2", "--k-max", "3", "--samples", "1000"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["k", "target", "analytic"]
    assert [row.split()[0] for row in rows] == ["2", "3"]
    for row in rows:
        # a forged trigger holds input bits only, so enumeration is exact
        analytic, exact = row.split()[2:4]
        assert exact == analytic


def test_port_demo_replays_a_passing_test_case(capsys):
    assert _script("port_demo").main([]) == 0
    out = capsys.readouterr().out
    found = re.search(r"^test case: \d+ cycles, (\d+) real pass", out,
                      re.MULTILINE)
    assert found and int(found.group(1)) >= 1


def test_run_campaign_writes_metrics(tmp_path):
    config = make_campaign(tmp_path)
    assert _script("run_campaign").main(["--config", str(config),
                                         "--format", "csv"]) == 0
    assert (tmp_path / "out" / "metrics.json").is_file()
    assert (tmp_path / "out" / "report.csv").is_file()
