"""The benchmark's output checks catch a wrong verdict.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

A replay round runs for real; its ``metrics.json`` is then given a wrong
``detected`` flag for a trojan the reference replay covers, and the run
must report ``correct: false`` and exit non-zero.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, run  # noqa: E402


def test_wrong_verdict_fails_the_run(monkeypatch, capsys):
    seed = 3
    real_child = run._run_child
    planted: list[str] = []

    def child_then_plant(*args, **kwargs):
        result = real_child(*args, **kwargs)
        if kwargs.get("setup_only") or planted:
            return result
        out = Path(result["out"])
        # find a trojan the reference replay will look at, flip its verdict
        sampled: list[str] = []
        check_detection = checks._check_detection
        checks._check_detection = lambda row, *rest: sampled.append(row["id"])
        try:
            problems, _ = checks.check("replay", seed,
                                       Path(result["config"]), out)
        finally:
            checks._check_detection = check_detection
        assert problems == [] and sampled
        doc = json.loads((out / "metrics.json").read_text())
        for row in doc["trojans"]:
            if row["id"] == sampled[0]:
                row["detected"] = not row["detected"]
        (out / "metrics.json").write_text(json.dumps(doc))
        planted.append(sampled[0])
        return result

    monkeypatch.setattr(run, "_run_child", child_then_plant)
    try:
        code = run.main(["--workload", "replay", "--seed", str(seed),
                         "--seconds", "1", "--trace", "0"])
    finally:  # a failed run keeps its outputs for inspection
        shutil.rmtree(ROOT / "perfbench" / "out" / f"replay-{seed}",
                      ignore_errors=True)
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert planted and f"{planted[0]}: detected=" in captured.err


def test_p_and_k_are_checked():
    netlist = checks.parse_design(
        (ROOT / "src/svaport/corpus/csr_unit.sv").read_text())
    spec = {"id": "t", "k": 2, "trigger": [
        {"signal": "csr_op_i", "bit": 0, "value": 1},
        {"signal": "priv_lvl_i", "bit": None, "value": 1}]}
    module = type("M", (), {"netlist": netlist})()
    problems: list[str] = []
    checks._check_row({"id": "t", "k": 2, "p": "1/4"}, spec, module, problems)
    assert problems == []
    checks._check_row({"id": "t", "k": 2, "p": "1/8"}, spec, module, problems)
    assert problems == ["t: p=1/8, expected 2^-2"]
