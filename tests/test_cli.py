"""Campaign configuration and the four-stage command-line driver."""

import json
from pathlib import Path

import pytest

from svaport import cli
from svaport.cli import main
from svaport.config import ForgeDefaults, ModuleJob, ProjectConfig
from svaport.errors import ConfigError

from .test_trojan import TOY_RTL, TOY_SVA

BAD_SVA = 'BOGUS: assert property (@(posedge clk) BogusSig |-> flag_o == 0);\n'


def make_campaign(root: Path, *, sva=TOY_SVA, trojans=2, **top) -> Path:
    (root / "toy.sv").write_text(TOY_RTL)
    (root / "toy.sva").write_text(sva)
    doc = {
        "out_dir": "out",
        "seed": 3,
        "horizon": 8,
        "modules": [{
            "name": "toy",
            "target_design": "toy.sv",
            "assertions": "toy.sva",
            "trojans": trojans,
        }],
        "forge": {"k_min": 2, "k_max": 3},
    }
    doc.update(top)
    path = root / "campaign.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


# ---------------------------------------------------------------------------
# configuration


def test_config_loads_and_resolves_paths(tmp_path):
    cfg = ProjectConfig.load(make_campaign(tmp_path))
    assert cfg.out_dir == tmp_path / "out"
    assert cfg.seed == 3 and cfg.jobs == 1 and cfg.format == "table"
    job = cfg.module("toy")
    assert job.target_design == tmp_path / "toy.sv"
    assert job.trojans == 2 and job.signal_map is None
    with pytest.raises(ConfigError, match="no module named"):
        cfg.module("ghost")


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="no such config file"):
        ProjectConfig.load(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ProjectConfig.load(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="expected a JSON object"):
        ProjectConfig.load(bad)


def test_config_schema_errors(tmp_path):
    base = tmp_path
    (base / "toy.sv").write_text(TOY_RTL)
    (base / "toy.sva").write_text(TOY_SVA)
    module = {"name": "toy", "target_design": "toy.sv",
              "assertions": "toy.sva"}
    cases = [
        ({"modules": [module], "mystery": 1}, "unknown keys"),
        ({"modules": []}, "non-empty array"),
        ({"modules": "toy"}, "non-empty array"),
        ({"modules": [{**module, "extra": 1}]}, "unknown keys"),
        ({"modules": [{**module, "source_design": "toy.sv"}]}, "unknown keys"),
        ({"modules": [dict(target_design="toy.sv")]}, "missing 'name'"),
        ({"modules": [{"name": "toy"}]}, "missing 'target_design'"),
        ({"modules": [{**module, "assertions": "absent.sva"}]},
         "no such file"),
        ({"modules": [{**module, "trojans": -1}]}, "must be >= 0"),
        ({"modules": [{**module, "trojans": 2, "k_values": [2]}]},
         "k_values lists 1"),
        ({"modules": [module, module]}, "duplicate module name"),
        ({"modules": [module], "format": "xml"}, "format must be one of"),
        ({"modules": [module], "horizon": 1}, "at least 2"),
        ({"modules": [module], "jobs": 0}, "at least 1"),
        ({"modules": [module], "seed": -4}, "non-negative"),
        ({"modules": [module], "forge": {"k_min": 0}}, "k_min <= k_max"),
        ({"modules": [module], "forge": {"tries": 0}}, "tries"),
        ({"modules": [module], "forge": {"payloads": ["melt"]}},
         "unknown payload kind"),
        ({"modules": [module], "forge": {"mystery": 1}}, "unknown keys"),
    ]
    for doc, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            ProjectConfig.from_dict(doc, base)


def test_config_overrides(tmp_path):
    cfg = ProjectConfig.load(make_campaign(tmp_path))
    assert cfg.override() is cfg
    new = cfg.override(seed=9, format="csv", out_dir=tmp_path / "o2", jobs=2)
    assert (new.seed, new.format, new.jobs) == (9, "csv", 2)
    assert new.out_dir == tmp_path / "o2"
    assert new.modules == cfg.modules
    with pytest.raises(ConfigError, match="format"):
        cfg.override(format="xml")


def test_forge_defaults_round_trip():
    got = ForgeDefaults.from_dict(
        {"k_min": 3, "k_max": 5, "payloads": ["invert_net"]})
    assert got == ForgeDefaults(k_min=3, k_max=5, payloads=("invert_net",))


# ---------------------------------------------------------------------------
# argument handling


def test_usage_errors_exit_2(tmp_path):
    for argv in ([], ["translate"], ["polish", "--config", "x"],
                 ["report", "--config", "x", "--format", "yaml"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_pipeline_errors_exit_1(tmp_path, capsys):
    assert main(["translate", "--config", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_literal_exits_1_without_traceback(tmp_path, capsys):
    cfg = make_campaign(tmp_path)
    (tmp_path / "toy.sv").write_text(
        TOY_RTL.replace("4'd15", "4'b0a"))
    # a raw exception would escape main instead of returning 1
    assert main(["translate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "not a valid base-2 number" in err


def test_unexpected_exception_exits_1_with_one_line(tmp_path, capsys,
                                                    monkeypatch):
    cfg = make_campaign(tmp_path)

    def broken(config):
        raise RuntimeError("kernel exploded")

    monkeypatch.setitem(cli._COMMANDS, "translate", broken)
    assert main(["translate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "RuntimeError: kernel exploded" in err and "please report" in err


# ---------------------------------------------------------------------------
# stages


def test_translate_stage_writes_links_and_assertions(tmp_path, capsys):
    cfg = make_campaign(tmp_path)
    assert main(["translate", "--config", str(cfg)]) == 0
    out = tmp_path / "out" / "toy"
    links = sorted(p.name for p in (out / "links").glob("*.json"))
    assert links == ["a00_A_SUM.json", "a01_A_FLAG.json"]
    assert sorted(p.name for p in (out / "translated").glob("*.sva")) \
        == ["a00_A_SUM.sva", "a01_A_FLAG.sva"]
    doc = json.loads((out / "links" / "a00_A_SUM.json").read_text())
    assert doc["module"] == "toy" and doc["translatable"] is True
    assert doc["seed"] == 3 and "link" in doc
    # the shipped testcase replays through the simulator
    for stim in (out / "testcases").glob("*.json"):
        assert isinstance(json.loads(stim.read_text()), list)


def test_untranslatable_assertion_exits_2(tmp_path, capsys):
    cfg = make_campaign(tmp_path, sva=TOY_SVA + BAD_SVA, trojans=0)
    assert main(["translate", "--config", str(cfg)]) == 2
    assert "untranslatable" in capsys.readouterr().err
    out = tmp_path / "out" / "toy"
    doc = json.loads((out / "links" / "a02_BOGUS.json").read_text())
    assert doc["translatable"] is False
    assert any("BogusSig" in r for r in doc["reasons"])
    assert not (out / "translated" / "a02_BOGUS.sva").exists()
    # the two clean assertions still landed
    assert len(list((out / "translated").glob("*.sva"))) == 2


def test_inject_stage_materializes_trojans(tmp_path, capsys):
    cfg = make_campaign(tmp_path)
    assert main(["translate", "--config", str(cfg)]) == 0
    assert main(["inject", "--config", str(cfg)]) == 0
    tdir = tmp_path / "out" / "toy" / "trojans"
    assert sorted(p.name for p in tdir.iterdir()) == [
        "toy_t00.json", "toy_t00.stim.json", "toy_t00.sv",
        "toy_t01.json", "toy_t01.stim.json", "toy_t01.sv"]
    spec = json.loads((tdir / "toy_t00.json").read_text())
    assert spec["k"] == 2 and spec["meta"]["seed"] == 3
    assert "module toy" in (tdir / "toy_t00.sv").read_text()


def test_inject_before_translate_fails(tmp_path, capsys):
    cfg = make_campaign(tmp_path)
    assert main(["inject", "--config", str(cfg)]) == 1
    assert "run the translate stage first" in capsys.readouterr().err


def test_zero_trojan_campaign_reports_na(tmp_path, capsys):
    cfg = make_campaign(tmp_path, trojans=0)
    assert main(["translate", "--config", str(cfg)]) == 0
    assert main(["inject", "--config", str(cfg)]) == 0
    assert not (tmp_path / "out" / "toy" / "trojans").exists()
    assert main(["evaluate", "--config", str(cfg)]) == 0
    stdout = capsys.readouterr().out
    assert "n/a" in stdout
    raw = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert raw["modules"][0]["generated"] == 0


def test_evaluate_with_missing_stimulus_fails(tmp_path, capsys):
    cfg = make_campaign(tmp_path)
    for stage in ("translate", "inject"):
        assert main([stage, "--config", str(cfg)]) == 0
    (tmp_path / "out" / "toy" / "trojans" / "toy_t01.stim.json").unlink()
    assert main(["evaluate", "--config", str(cfg)]) == 1
    assert "run the inject stage first" in capsys.readouterr().err


def test_full_run_detects_and_reproduces(tmp_path, capsys):
    cfg = make_campaign(tmp_path)
    for stage in ("translate", "inject", "evaluate"):
        assert main([stage, "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    raw = json.loads((out / "metrics.json").read_text())
    assert raw["modules"][0] == {"module": "toy", "source_assertions": 2,
                                 "translated": 2, "generated": 2,
                                 "detected": 2}
    assert all(t["detected"] and t["error"] is None for t in raw["trojans"])
    first = (out / "report.txt").read_bytes(), (out / "metrics.json").read_bytes()
    assert main(["evaluate", "--config", str(cfg)]) == 0
    again = (out / "report.txt").read_bytes(), (out / "metrics.json").read_bytes()
    assert again == first


def test_parallel_evaluation_matches_serial(tmp_path, capsys):
    cfg = make_campaign(tmp_path)
    for stage in ("translate", "inject"):
        assert main([stage, "--config", str(cfg)]) == 0
    assert main(["evaluate", "--config", str(cfg), "--jobs", "1"]) == 0
    serial = (tmp_path / "out" / "report.txt").read_bytes()
    assert main(["evaluate", "--config", str(cfg), "--jobs", "2"]) == 0
    parallel = (tmp_path / "out" / "report.txt").read_bytes()
    assert parallel == serial


def test_evaluate_keeps_verdicts_apart_when_modules_share_trojan_ids(
        tmp_path, capsys):
    # both modules port the same design, so both forge toy_t00 and toy_t01
    toy = {"target_design": "toy.sv", "assertions": "toy.sva", "trojans": 2}
    cfg = make_campaign(tmp_path, modules=[dict(toy, name="a"),
                                           dict(toy, name="b")])
    for stage in ("translate", "inject"):
        assert main([stage, "--config", str(cfg)]) == 0
    (tmp_path / "out" / "a" / "trojans" / "toy_t00.sv").write_text("module")
    for jobs in ("1", "2"):
        assert main(["evaluate", "--config", str(cfg), "--jobs", jobs]) == 0
        raw = json.loads((tmp_path / "out" / "metrics.json").read_text())
        verdicts = [(t["module"], t["id"], t["detected"], t["error"] is None)
                    for t in raw["trojans"]]
        assert verdicts == [("a", "toy_t00", False, False),
                            ("a", "toy_t01", True, True),
                            ("b", "toy_t00", True, True),
                            ("b", "toy_t01", True, True)]
        assert "module a, trojan toy_t00: ParseError" in capsys.readouterr().err


def test_report_rerenders_existing_metrics(tmp_path, capsys):
    cfg = make_campaign(tmp_path)
    for stage in ("translate", "inject", "evaluate"):
        assert main([stage, "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(cfg), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 3
    assert [t["id"] for t in doc["trojans"]] == ["toy_t00", "toy_t01"]
    assert main(["report", "--config", str(cfg), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("seed,3")


def test_report_before_evaluate_fails(tmp_path, capsys):
    cfg = make_campaign(tmp_path)
    assert main(["report", "--config", str(cfg)]) == 1
    assert "run the evaluate stage first" in capsys.readouterr().err


def test_seed_and_out_overrides(tmp_path, capsys):
    cfg = make_campaign(tmp_path)
    alt = tmp_path / "alt"
    argv = ["--config", str(cfg), "--seed", "4", "--out", str(alt)]
    assert main(["translate", *argv]) == 0
    assert main(["inject", *argv]) == 0
    assert not (tmp_path / "out").exists()
    doc = json.loads((alt / "toy" / "links" / "a00_A_SUM.json").read_text())
    assert doc["seed"] == 4
    spec = json.loads((alt / "toy" / "trojans" / "toy_t00.json").read_text())
    assert spec["meta"]["seed"] == 4
