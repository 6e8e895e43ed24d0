"""Mutated JSON inputs: every stage exits 0 or 1, never with an internal error.

One value of the toy campaign's config, signal map or imported trojan spec
is deleted or replaced by a value from a small pool, and translate, inject
and evaluate run on the result.  The pool holds no large count, so no
mutation can ask for huge arrays or many worker processes.  An imported
activation in column form is mutated the same way: inject exits 1 exactly
when the reference validator rejects the mutant.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from svaport import errors
from svaport.cli import main
from svaport.rtl_parser import parse_design

from . import oracles
from .test_trojan import TOY_RTL, TOY_SVA

POOL = [None, True, 0, -1, 1.5, "x", "", [], [0], {}]
DELETE = object()

CONFIG = {
    "out_dir": "out", "seed": 3, "horizon": 8, "format": "table", "jobs": 1,
    "forge": {"k_min": 2, "k_max": 3, "tries": 8,
              "payloads": ["invert_net", "force_constant"]},
    "modules": [{"name": "toy", "target_design": "toy.sv",
                 "assertions": "toy.sva", "signal_map": "map.json",
                 "trojans": 1, "k_values": [2],
                 "imported_trojans": "imported.json"}],
}
SIGNAL_MAP = {
    "mappings": [{"source": "en_i", "target": "en_i"}],
    "normalize": {"suffixes": ["_i", "_o"], "prefixes": ["u_"]},
    "augmentations": [{"signal": "en_i", "condition": "en_i == 1",
                       "attach": "antecedent", "position": "last",
                       "applies_to": ["A_FLAG"], "note": "gate"}],
    "naming": [{"applies_to": "A_SUM", "property": "p_sum",
                "label": "L_SUM", "error": "sum_failed"}],
}
SPECS = [{
    "id": "toy_imp", "module": "toy", "module_kind": "combinational", "k": 2,
    "trigger": [{"signal": "a_i", "bit": 0, "value": 1},
                {"signal": "en_i", "bit": None, "value": 1}],
    "payload": {"kind": "force_constant", "net": "sum_o", "value": 3},
    "meta": {"origin": "test",
             "activation": [{"a_i": 1, "b_i": 0, "en_i": 1}, {}]},
}]
DOCS = {"campaign.json": CONFIG, "map.json": SIGNAL_MAP,
        "imported.json": SPECS}
SVAPORT_ERRORS = {name for name in dir(errors) if name.endswith("Error")}
COLUMNS = {"cycles": 2, "inputs": {"a_i": [1, 0], "b_i": [0, 0],
                                   "en_i": [1, 0]}}


def _paths(value, at=()):
    """The path of every value inside *value*, itself included."""
    yield at
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _paths(inner, at + (key,))


def _mutated(draw, doc):
    """A copy of *doc* with one value deleted or replaced from the pool."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    new = draw(st.sampled_from([DELETE] + POOL))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


@st.composite
def mutants(draw):
    """The three documents, one of them with one value deleted or replaced."""
    name = draw(st.sampled_from(sorted(DOCS)))
    return {**DOCS, name: _mutated(draw, DOCS[name])}


def _run(root: Path, stage: str) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([stage, "--config", str(root / "campaign.json")])
    return code, err.getvalue()


@settings(max_examples=60)
@given(mutants())
def test_malformed_inputs_exit_0_or_1_without_internal_errors(docs):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "toy.sv").write_text(TOY_RTL)
        (root / "toy.sva").write_text(TOY_SVA)
        for name, doc in docs.items():
            (root / name).write_text(json.dumps(doc))
        for stage in ("translate", "inject", "evaluate"):
            code, err = _run(root, stage)
            assert code in (0, 1), (stage, err)
            lines = err.splitlines()
            assert not [line for line in lines
                        if line.startswith("internal error")], lines
            # evaluate reports a trojan's failure as a warning; it too must
            # be an input error, not a Python one
            for name in re.findall(r": (\w+Error): ", err):
                assert name in SVAPORT_ERRORS, lines


@settings(max_examples=40)
@given(st.data())
def test_column_activation_mutants_exit_1_without_internal_errors(data):
    activation = _mutated(data.draw, COLUMNS)
    try:
        oracles.stimulus_rows(parse_design(TOY_RTL), activation)
        want = 0
    except (errors.ConfigError, errors.UnknownSignalError):
        want = 1
    config = copy.deepcopy(CONFIG)
    config["modules"][0].update(trojans=0, k_values=None)
    spec = dict(SPECS[0], meta={"activation": activation})
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "toy.sv").write_text(TOY_RTL)
        (root / "toy.sva").write_text(TOY_SVA)
        for name, doc in {**DOCS, "campaign.json": config,
                          "imported.json": [spec]}.items():
            (root / name).write_text(json.dumps(doc))
        assert _run(root, "translate")[0] == 0
        code, err = _run(root, "inject")
        assert code == want, err
        if want:
            assert err.startswith("error: module toy, trojan toy_imp: "), err
        else:
            assert _run(root, "evaluate")[0] == 0
