"""Campaign configuration and the four-stage command-line driver."""

import json
from pathlib import Path

import pytest

from svaport import cli
from svaport.cli import main
from svaport.config import ForgeDefaults, ModuleJob, ProjectConfig
from svaport.errors import ConfigError
from svaport.rtl_parser import parse_design
from svaport.sim import Stimulus, load_stimulus

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
    with pytest.raises(ConfigError, match="campaign config must be an object"):
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
        ({"modules": "toy"}, "field 'modules' must be of type list"),
        ({"modules": [{**module, "extra": 1}]}, "unknown keys"),
        ({"modules": [{**module, "source_design": "toy.sv"}]}, "unknown keys"),
        ({"modules": [dict(target_design="toy.sv")]}, "missing field 'name'"),
        ({"modules": [{"name": "toy"}]}, "missing field 'target_design'"),
        ({"modules": [{**module, "assertions": "absent.sva"}]},
         "no such file"),
        ({"modules": [{**module, "trojans": -1}]}, "must be >= 0"),
        ({"modules": [{**module, "trojans": 2, "k_values": [2]}]},
         "k_values lists 1"),
        ({"modules": [{**module, "trojans": 2, "k_values": [-1, 2]}]},
         "k_values entry must be at least 1"),
        ({"modules": [{**module, "trojans": 2, "k_values": [0, 2]}]},
         "k_values entry must be at least 1"),
        # a module name names its output directory
        ({"modules": [{**module, "name": "../escaped"}]},
         "module name '../escaped' is not a plain file name"),
        ({"modules": [{**module, "name": ""}]}, "not a plain file name"),
        ({"modules": [{**module, "name": ".hidden"}]}, "not a plain file name"),
        ({"modules": [{**module, "name": "a/b"}]}, "not a plain file name"),
        ({"modules": [{**module, "name": "a\\b"}]}, "not a plain file name"),
        ({"modules": [{**module, "name": ["a"]}]},
         "field 'name' must be of type str"),
        ({"modules": [{**module, "target_design": ["toy.sv"]}]},
         "field 'target_design' must be of type str"),
        ({"modules": [{**module, "assertions": 5}]},
         "field 'assertions' must be of type str"),
        ({"modules": [{**module, "signal_map": {}}]},
         "field 'signal_map' must be of type str"),
        ({"modules": [{**module, "imported_trojans": True}]},
         "field 'imported_trojans' must be of type str"),
        ({"modules": [module], "out_dir": ["out"]},
         "field 'out_dir' must be of type str"),
        # a NUL character names no file
        ({"modules": [{**module, "name": "to\0y"}]}, "not a plain file name"),
        ({"modules": [{**module, "target_design": "toy\0.sv"}]},
         "no such file"),
        ({"modules": [module], "out_dir": "o\0ut"}, "out_dir .* is not a path"),
        ({"modules": [module, module]}, "duplicate module name"),
        ({"modules": [module], "format": "xml"}, "format must be one of"),
        ({"modules": [module], "horizon": 1}, "at least 2"),
        ({"modules": [module], "jobs": 0}, "at least 1"),
        ({"modules": [module], "seed": -4}, "non-negative"),
        ({"modules": [module], "forge": {"k_min": 0}}, "k_min <= k_max"),
        ({"modules": [module], "forge": {"tries": 0}}, "tries"),
        ({"modules": [module], "forge": {"payloads": ["melt"]}},
         "unknown payload kind"),
        ({"modules": [module], "forge": {"payloads": []}},
         "payloads must name at least one kind"),
        ({"modules": [module], "forge": {"mystery": 1}}, "unknown keys"),
    ]
    for doc, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            ProjectConfig.from_dict(doc, base)


@pytest.mark.parametrize("where, key, value", [
    ("top", "seed", "x"),
    ("top", "seed", True),
    ("top", "horizon", "8"),
    ("top", "jobs", 1.5),
    ("top", "format", 3),
    ("top", "forge", 5),
    ("module", "trojans", "2"),
    ("module", "k_values", ["2", "3"]),
    ("module", "k_values", 2),
    ("forge", "k_min", "2"),
    ("forge", "k_max", 3.0),
    ("forge", "tries", True),
    ("forge", "unique_failure", 1),
    ("forge", "payloads", 7),
])
def test_config_value_of_wrong_type_exits_1(tmp_path, capsys, where, key,
                                            value):
    path = make_campaign(tmp_path)
    doc = json.loads(path.read_text())
    {"top": doc, "module": doc["modules"][0],
     "forge": doc["forge"]}[where][key] = value
    path.write_text(json.dumps(doc))
    assert main(["translate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("smap", [
    {"mappings": "x"},
    {"mappings": [1]},
    {"mappings": [{"source": ["a"], "target": "flag_o"}]},
    {"augmentations": {"attach": "antecedent"}},
    {"augmentations": [{"attach": "antecedent", "signal": "en_i"}]},
    {"naming": ["x"]},
    {"normalize": ["_i"]},
    {"normalize": {"suffixes": [1]}},
    {"normalize": {"prefixes": "u_"}},
    {"augmentations": [{"attach": "antecedent", "signal": "en_i",
                        "condition": "en_i == 1", "applies_to": "#0"}]},
    {"naming": [{"applies_to": "A_SUM", "label": 5, "property": 7}]},
    {"naming": [{"applies_to": "A_SUM", "property": 7}]},
    {"naming": [{"applies_to": "A_SUM", "error": ["failed"]}]},
    {"naming": [{"applies_to": 0, "label": "L"}]},
    {"naming": [{"applies_to": "A_SUM", "label": "FIRST"},
                {"applies_to": "A_SUM", "label": "SECOND"}]},
    # rows and normalize reject keys they do not know, as the top level does
    {"augmentations": [{"attach": "antecedent", "signal": "en_i",
                        "condition": "en_i == 1", "positon": "first"}]},
    {"normalize": {"sufixes": ["_i"]}},
    {"mappings": [{"source": "A", "target": "flag_o", "traget": "sum_o"}]},
    {"naming": [{"applies_to": "A_SUM", "lable": "L"}]},
    {"augmentations": [{"attach": "antecedent", "signal": "en_i",
                        "condition": "en_i == 1", "note": 5}]},
])
def test_malformed_signal_map_exits_1(tmp_path, capsys, smap):
    path = make_campaign(tmp_path)
    doc = json.loads(path.read_text())
    doc["modules"][0]["signal_map"] = "toy_map.json"
    (tmp_path / "toy_map.json").write_text(json.dumps(smap))
    path.write_text(json.dumps(doc))
    assert main(["translate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    for typo in ("positon", "sufixes", "traget", "lable"):
        if typo in json.dumps(smap):
            assert f"unknown keys ['{typo}']" in err


@pytest.mark.parametrize("key, smap", [
    ("A_FLGA", {"augmentations": [{"attach": "antecedent", "signal": "en_i",
                                   "condition": "en_i == 1",
                                   "applies_to": ["A_SUM", "A_FLGA"]}]}),
    ("A_SMU", {"naming": [{"applies_to": "A_SMU", "label": "L"}]}),
], ids=["augmentation", "naming"])
def test_applies_to_naming_no_assertion_exits_1(tmp_path, capsys, key, smap):
    path = make_campaign(tmp_path)
    doc = json.loads(path.read_text())
    doc["modules"][0]["signal_map"] = "toy_map.json"
    (tmp_path / "toy_map.json").write_text(json.dumps(smap))
    path.write_text(json.dumps(doc))
    assert main(["translate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"applies_to '{key}'" in err
    assert not (tmp_path / "out" / "toy").exists()


@pytest.mark.parametrize("name", ["toy.sv", "toy.sva"])
def test_source_that_is_not_utf8_exits_1(tmp_path, capsys, name):
    cfg = make_campaign(tmp_path)
    source = tmp_path / name
    source.write_bytes(source.read_bytes() + b"// \xff\n")
    assert main(["translate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source}: not valid UTF-8")


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
    # en_i is the one input bit A_SUM's antecedent needs; A_FLAG compares
    # two inputs, which forces none
    assert doc["search"] == {"candidates": 256, "schedule": "constant",
                             "space": "enumerated", "forced": 1}
    doc = json.loads((out / "links" / "a01_A_FLAG.json").read_text())
    assert doc["search"]["forced"] == 0
    # the shipped testcase replays through the simulator
    for stim in (out / "testcases").glob("*.json"):
        assert isinstance(json.loads(stim.read_text()), list)


def test_untranslatable_assertion_exits_2(tmp_path, capsys):
    cfg = make_campaign(tmp_path, sva=TOY_SVA + BAD_SVA, trojans=0)
    assert main(["translate", "--config", str(cfg)]) == 2
    assert "untranslatable" in capsys.readouterr().err
    out = tmp_path / "out" / "toy"
    doc = json.loads((out / "links" / "a02_BOGUS.json").read_text())
    assert doc["translatable"] is False and "search" not in doc
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
    assert "activation" not in spec["meta"]  # it lives in toy_t00.stim.json
    assert "module toy" in (tdir / "toy_t00.sv").read_text()


def test_translate_rerun_replaces_its_module_files(tmp_path, capsys):
    cfg = make_campaign(tmp_path)
    assert main(["translate", "--config", str(cfg)]) == 0
    out = tmp_path / "out" / "toy"
    assert (out / "translated" / "a01_A_FLAG.sva").is_file()
    # drop A_FLAG from the source: its files of the first run must go
    (tmp_path / "toy.sva").write_text(TOY_SVA.splitlines()[0] + "\n")
    assert main(["translate", "--config", str(cfg)]) == 0
    for sub in ("links", "translated", "testcases"):
        assert not [p for p in (out / sub).iterdir() if "A_FLAG" in p.name]
    assert sorted(p.name for p in (out / "translated").iterdir()) \
        == ["a00_A_SUM.sva"]
    for stage in ("inject", "evaluate"):
        assert main([stage, "--config", str(cfg)]) == 0
    raw = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert (raw["modules"][0]["source_assertions"],
            raw["modules"][0]["translated"]) == (1, 1)


def test_inject_rerun_replaces_its_trojans(tmp_path, capsys):
    cfg = make_campaign(tmp_path, trojans=4)
    for stage in ("translate", "inject"):
        assert main([stage, "--config", str(cfg)]) == 0
    tdir = tmp_path / "out" / "toy" / "trojans"
    assert len(list(tdir.glob("*.sv"))) == 4
    cfg = make_campaign(tmp_path, trojans=2)
    for stage in ("inject", "evaluate"):
        assert main([stage, "--config", str(cfg)]) == 0
    assert sorted(p.name for p in tdir.glob("*.sv")) \
        == ["toy_t00.sv", "toy_t01.sv"]
    raw = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert raw["modules"][0]["generated"] == 2
    assert [t["id"] for t in raw["trojans"]] == ["toy_t00", "toy_t01"]
    # a campaign without trojans leaves none behind
    cfg = make_campaign(tmp_path, trojans=0)
    assert main(["inject", "--config", str(cfg)]) == 0
    assert not tdir.exists()


def test_inject_cycles_k_without_listing_a_huge_span(tmp_path, capsys):
    # k runs k_min, k_min + 1, ... up to k_max; a k_max far past any trigger
    # pool must not be expanded into a list
    cfg = make_campaign(tmp_path, forge={"k_min": 2, "k_max": 2 ** 80})
    for stage in ("translate", "inject"):
        assert main([stage, "--config", str(cfg)]) == 0
    tdir = tmp_path / "out" / "toy" / "trojans"
    assert [json.loads((tdir / f"toy_t0{j}.json").read_text())["k"]
            for j in range(2)] == [2, 3]


IMPORTED = {"id": "toy_imp", "module": "toy", "module_kind": "combinational",
            "k": 2, "trigger": [{"signal": "a_i", "bit": 0, "value": 1},
                                {"signal": "en_i", "bit": None, "value": 1}],
            "payload": {"kind": "invert_net", "net": "sum_o"}}


def _imported_campaign(root: Path, records) -> Path:
    text = records if isinstance(records, str) else json.dumps(records)
    (root / "imported.json").write_text(text)
    return make_campaign(root, modules=[{
        "name": "toy", "target_design": "toy.sv", "assertions": "toy.sva",
        "trojans": 0, "imported_trojans": "imported.json"}])


def test_imported_activation_is_written_once(tmp_path, capsys):
    rows = [{"a_i": 1, "b_i": 0, "en_i": 1}, {"a_i": 2, "en_i": 1}, {}]
    cfg = _imported_campaign(
        tmp_path, [dict(IMPORTED, meta={"origin": "test", "activation": rows})])
    for stage in ("translate", "inject"):
        assert main([stage, "--config", str(cfg)]) == 0
    tdir = tmp_path / "out" / "toy" / "trojans"
    spec = json.loads((tdir / "toy_imp.json").read_text())
    assert spec["meta"] == {"origin": "test", "seed": 3}
    # the stimulus file holds the activation, one cycle per line
    stim_path = tdir / "toy_imp.stim.json"
    want = Stimulus.for_design(parse_design(TOY_RTL), rows).inputs
    lines = stim_path.read_text().splitlines()
    assert lines[0] == "[" and lines[-1] == "]"
    assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == want
    assert load_stimulus(stim_path, parse_design(TOY_RTL)).inputs == want
    # evaluate scores it, and a hand-written indented file alike
    for text in (None, json.dumps(want, indent=2) + "\n"):
        if text is not None:
            stim_path.write_text(text)
        assert main(["evaluate", "--config", str(cfg)]) == 0
        raw = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert [(t["id"], t["detected"], t["error"]) for t in raw["trojans"]] \
            == [("toy_imp", True, None)]


@pytest.mark.parametrize("records, needle", [
    pytest.param([5], "trojan record must be an object, got int",
                 id="record-not-an-object"),
    pytest.param([dict(IMPORTED, trigger=["a"])],
                 "trigger entry must be an object, got str",
                 id="trigger-entry-not-an-object"),
    pytest.param([dict(IMPORTED, k="2")],
                 "trojan record field 'k' must be of type int, got '2'",
                 id="string-k"),
    pytest.param([dict(IMPORTED, trigger=[{"signal": "a_i", "value": True}])],
                 "trigger entry field 'value' must be of type int",
                 id="bool-trigger-value"),
    pytest.param([dict(IMPORTED, meta=[])],
                 "trojan record field 'meta' must be of type dict",
                 id="meta-not-an-object"),
    pytest.param([dict(IMPORTED, meta={"activation": [{"a_i": "1"}]})],
                 "cycle 0: value '1' for input a_i is not an integer",
                 id="string-activation-value"),
    pytest.param([dict(IMPORTED, meta={"activation": [{}, {"en_i": 1.5}]})],
                 "cycle 1: value 1.5 for input en_i is not an integer",
                 id="float-activation-value"),
    pytest.param([dict(IMPORTED, meta={"activation": [{"a_i": 1}, 7]})],
                 "cycle 1: expected a map of input values, got int",
                 id="activation-cycle-not-an-object"),
    pytest.param([dict(IMPORTED, meta={"activation": {"a_i": 1}})],
                 "expected an array of per-cycle input maps",
                 id="activation-not-an-array"),
    pytest.param("[{", "not valid JSON", id="bad-json"),
    pytest.param([dict(IMPORTED, k=5, trigger=[
        {"signal": "a_i", "bit": None, "value": 3},
        {"signal": "a_i", "bit": 0, "value": 0}])],
                 "duplicate trigger condition on a_i", id="bit-constrained-twice"),
])
def test_malformed_imported_trojan_exits_1(tmp_path, capsys, records, needle):
    cfg = _imported_campaign(tmp_path, records)
    assert main(["translate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["inject", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    if "activation" in str(records):
        # a rejected activation names its module and trojan
        assert "module toy, trojan toy_imp: " in err


@pytest.mark.parametrize("records", [
    pytest.param([dict(IMPORTED, id="")], id="empty"),
    pytest.param([dict(IMPORTED, id=".hidden")], id="leading-dot"),
    pytest.param([dict(IMPORTED, id="../../escaped")], id="parent-path"),
    pytest.param([dict(IMPORTED, id="sub/dir")], id="slash"),
    pytest.param([dict(IMPORTED, id="sub\\dir")], id="backslash"),
    pytest.param([dict(IMPORTED, id="toy_t00")], id="forged-id"),
    pytest.param([IMPORTED, IMPORTED], id="repeated-import"),
])
def test_trojan_id_must_be_a_file_name_unique_in_its_module(tmp_path, capsys,
                                                            records):
    (tmp_path / "imported.json").write_text(json.dumps(records))
    cfg = make_campaign(tmp_path, modules=[{
        "name": "toy", "target_design": "toy.sv", "assertions": "toy.sva",
        "trojans": 1, "imported_trojans": "imported.json"}])
    assert main(["translate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["inject", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trojan id" in err
    # nothing is written, inside the trojan directory or out of it
    assert not (tmp_path / "out" / "toy" / "trojans").exists()
    assert not list(tmp_path.glob("**/escaped*"))


@pytest.mark.parametrize("stage, name, text", [
    pytest.param("evaluate", "toy/trojans/toy_t00.json", "[]",
                 id="no-spec"),
    pytest.param("evaluate", "toy/trojans/toy_t00.json",
                 json.dumps([IMPORTED, IMPORTED]), id="two-specs"),
    pytest.param("report", "metrics.json", "[1, 2]",
                 id="metrics-not-an-object"),
    pytest.param("report", "metrics.json", json.dumps({"modules": [
        {"module": "toy", "translated": 2, "generated": 2, "detected": 2}]}),
                 id="module-row-without-source-assertions"),
    pytest.param("report", "metrics.json", "{", id="metrics-not-json"),
    pytest.param("report", "metrics.json", json.dumps({"trojans": [
        {"id": "toy_t00", "module": "toy", "p": "half"}]}),
                 id="probability-not-a-fraction"),
])
def test_malformed_stage_file_exits_1(tmp_path, capsys, stage, name, text):
    cfg = make_campaign(tmp_path)
    if stage == "evaluate":
        for before in ("translate", "inject"):
            assert main([before, "--config", str(cfg)]) == 0
    path = tmp_path / "out" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    capsys.readouterr()
    assert main([stage, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("meta", [
    pytest.param({}, id="plain"),
    # a backslash makes evaluate decode the imported file to count its specs
    pytest.param({"note": "C:\\tmp"}, id="escaped"),
])
def test_evaluate_warns_when_trojan_files_are_missing(tmp_path, capsys, meta):
    records = [dict(IMPORTED, meta=meta),
               dict(IMPORTED, id="toy_imp2", meta=meta)]
    (tmp_path / "imported.json").write_text(json.dumps(records))
    cfg = make_campaign(tmp_path, modules=[{
        "name": "toy", "target_design": "toy.sv", "assertions": "toy.sva",
        "trojans": 1, "imported_trojans": "imported.json"}])
    for stage in ("translate", "inject", "evaluate"):
        assert main([stage, "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    for path in (tmp_path / "out" / "toy" / "trojans").glob("toy_imp2*"):
        path.unlink()
    assert main(["evaluate", "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    assert err == ("warning: module toy: 2 trojan files, but the config asks "
                   "for 3; run the inject stage first\n")
    # the files that are there are scored and reported as before
    raw = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert raw["modules"][0]["generated"] == 2
    assert [t["id"] for t in raw["trojans"]] == ["toy_imp", "toy_t00"]
    assert out == (tmp_path / "out" / "report.txt").read_text()


def test_evaluate_warns_for_a_module_inject_did_not_reach(tmp_path, capsys):
    # module b needs a 10-bit trigger, but toy's cone offers 9 bits, so
    # inject stops after writing module a
    toy = {"target_design": "toy.sv", "assertions": "toy.sva"}
    cfg = make_campaign(tmp_path, modules=[
        dict(toy, name="a", trojans=2),
        dict(toy, name="b", trojans=1, k_values=[10])])
    assert main(["translate", "--config", str(cfg)]) == 0
    assert main(["inject", "--config", str(cfg)]) == 1
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == (
        "warning: module b: 0 trojan files, but the config asks for 1; "
        "run the inject stage first\n")
    raw = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert [(m["module"], m["generated"]) for m in raw["modules"]] \
        == [("a", 2), ("b", 0)]


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
