"""Every JSON example of ``docs/file_formats.md`` loads through the reader
of the section that shows it."""

import re
import shutil
from pathlib import Path

import pytest

from svaport import corpus
from svaport.config import ProjectConfig
from svaport.rtl_parser import parse_design
from svaport.sim import load_stimulus
from svaport.translate import SignalMap
from svaport.trojan import load_trojans, validate_spec

DOC = Path(__file__).resolve().parents[1] / "docs" / "file_formats.md"


def _examples() -> list[tuple[str, str]]:
    """(section title, JSON text) of every ```json block, in order."""
    found, section = [], None
    blocks = re.finditer(r"^## ([^\n]+)$|^```json\n(.*?)^```$",
                         DOC.read_text(), re.MULTILINE | re.DOTALL)
    for m in blocks:
        if m.group(1) is not None:
            section = m.group(1)
        else:
            found.append((section, m.group(2)))
    return found


def _csr_unit():
    return parse_design(corpus.design_path("csr_unit").read_text())


def _campaign(path: Path):
    # the example names csr_unit's corpus files beside the config
    for name in ("csr_unit.sv", "csr.sva", "csr_map.json"):
        shutil.copy(corpus.root() / name, path.parent / name)
    return ProjectConfig.load(path)


def _signal_map(path: Path):
    return SignalMap.load(path, netlist=_csr_unit())


def _trojan_spec(path: Path):
    specs = load_trojans(path)
    for spec in specs:
        validate_spec(spec, _csr_unit())
    return specs


def _stimulus(path: Path):
    return load_stimulus(path, _csr_unit())


READERS = {"Campaign config": _campaign, "Signal map": _signal_map,
           "Trojan spec": _trojan_spec, "Stimulus": _stimulus}
EXAMPLES = _examples()


def test_every_example_has_a_reader():
    assert {section for section, _ in EXAMPLES} == set(READERS)


@pytest.mark.parametrize("section, text", EXAMPLES,
                         ids=[f"{s}-{i}" for i, (s, _) in enumerate(EXAMPLES)])
def test_example_loads_through_its_reader(tmp_path, section, text):
    path = tmp_path / "example.json"
    path.write_text(text)
    assert READERS[section](path)


def test_stimulus_examples_show_both_forms_of_one_stimulus(tmp_path):
    texts = [text for section, text in EXAMPLES if section == "Stimulus"]
    assert [t.lstrip()[0] for t in texts] == ["{", "["]
    loaded = []
    for i, text in enumerate(texts):
        path = tmp_path / f"stim{i}.json"
        path.write_text(text)
        loaded.append(_stimulus(path))
    assert loaded[0] == loaded[1] and loaded[0].cycles == 2
