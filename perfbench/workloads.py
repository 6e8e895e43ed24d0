"""Inputs for the three benchmark workloads, generated from a seed.

Each ``write_*`` function writes a campaign directory (config plus every
file the config names) and returns the config path.  The program only ever
sees these files.

* ``campaign``: the bundled campaign, unchanged.  The seed is not used.
* ``port``: every corpus module becomes a design holding ``PORT_COPIES``
  renamed copies of itself in parallel, sharing clock and reset, with the
  assertion file and signal map renamed to match and no trojans.
* ``replay``: the bundled modules with seeded, externally authored trojan
  specs (``imported_trojans``, ``trojans: 0``), each carrying a long seeded
  activation stimulus, so no search runs in inject.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from svaport import corpus
from svaport import expr as ex
from svaport.graph import build_graph
from svaport.rtl_parser import parse_design
from svaport.search import input_cone
from svaport.sva import parse_assertions, signals_of
from svaport.translate import (SignalMap, TranslationConfig, assertion_key,
                               translate)

# port: copies of each corpus module per generated design
PORT_COPIES = 3
# replay: imported trojans per module and cycles per activation stimulus
REPLAY_TROJANS = 20
REPLAY_CYCLES = 2000
# probability that reset is asserted in a replay cycle after cycle 0
REPLAY_RESET_RATE = 1 / 256

PAYLOAD_KINDS = ("invert_net", "force_constant", "xor_into_assign")

# sized literals first, so that e.g. the ``h80`` of ``8'h80`` is never
# mistaken for an identifier; string literals are skipped the same way
_TOKEN = re.compile(r"\"[^\"]*\"|\d*'[sS]?[bBoOdDhH][0-9a-fA-F_xXzZ]+"
                    r"|[A-Za-z_][A-Za-z0-9_$]*")


def rename_text(text: str, table: dict[str, str]) -> str:
    """Replace every identifier found in *table*, leaving literals alone."""
    return _TOKEN.sub(lambda m: table.get(m.group(0), m.group(0)), text)


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("//", 1)[0].rstrip()
                     for line in text.splitlines())


def bundled_config() -> dict:
    return json.loads(corpus.campaign_path().read_text())


def _write_config(dest: Path, modules: list[dict]) -> Path:
    base = bundled_config()
    config = {key: base[key] for key in ("seed", "horizon", "format", "jobs",
                                         "forge")}
    config.update(out_dir="out", modules=modules)
    path = dest / "campaign.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


def write_campaign(dest: Path, seed: int) -> Path:
    """The bundled campaign with absolute paths, output under *dest*."""
    del seed  # the bundled campaign is fixed
    dest.mkdir(parents=True, exist_ok=True)
    modules = []
    for entry in bundled_config()["modules"]:
        entry = dict(entry)
        for key in ("target_design", "assertions", "signal_map"):
            entry[key] = str(corpus.root() / entry[key])
        modules.append(entry)
    return _write_config(dest, modules)


# --------------------------------------------------------------------------
# port


class CopyNames:
    """How copy *index* of a corpus module is renamed.

    Nets get a seeded tag; labels and property names get a fixed one.  The
    witness search draws its random vectors from a stream keyed by the
    assertion's name and enumerates input bits in sorted name order, so a
    uniform net prefix and a seed-free label prefix leave every search
    exactly as it is for the single module, whatever the seed.
    """

    def __init__(self, index: int, net_tag: str):
        self.net_prefix = f"{net_tag}_"
        self.label_prefix = f"c{index}_"

    def net_table(self, nets) -> dict[str, str]:
        return {n: self.net_prefix + n for n in nets}

    def label(self, name: str | None) -> str | None:
        return None if name is None else self.label_prefix + name


def port_module_name(module: str) -> str:
    return f"{module}_x{PORT_COPIES}"


def port_layout(seed: int) -> dict[str, list[CopyNames]]:
    """Per module, its copies in file order (seeded tags and order)."""
    rng = np.random.default_rng([seed, 1])
    out: dict[str, list[CopyNames]] = {}
    for module in corpus.MODULES:
        tags: list[str] = []
        while len(tags) < PORT_COPIES:
            tag = "u" + "".join(rng.choice(list("abcdefghjkmnpqrstvwxyz"), 3))
            if tag not in tags:
                tags.append(tag)
        order = rng.permutation(PORT_COPIES)
        out[module] = [CopyNames(int(i), tags[i]) for i in order]
    return out


def shared_nets(netlist) -> set[str]:
    return netlist.clock_nets() | netlist.reset_nets()


def _copy_design(module: str, text: str, netlist,
                 copies: list[CopyNames]) -> str:
    """N renamed copies of *text* in one module, one clock, one reset."""
    text = _strip_comments(text)
    ports, body = text.split("(", 1)[1].split(");", 1)
    body = body.rsplit("endmodule", 1)[0]
    renamable = set(netlist.nets) - shared_nets(netlist)
    port_lines = [p.strip() for p in ports.split(",") if p.strip()]
    shared_ports = [p for p in port_lines
                    if p.split()[-1] in shared_nets(netlist)]
    own_ports = [p for p in port_lines if p not in shared_ports]
    params = [line for line in body.splitlines()
              if line.strip().startswith(("localparam", "parameter"))]
    logic = "\n".join(line for line in body.splitlines()
                      if line not in params)
    out_ports = list(shared_ports)
    bodies = []
    for c in copies:
        table = c.net_table(renamable)
        out_ports += [rename_text(p, table) for p in own_ports]
        bodies.append(rename_text(logic, table))
    return (f"module {port_module_name(module)} (\n  "
            + ",\n  ".join(out_ports) + "\n);\n"
            + "\n".join(params) + "\n" + "\n".join(bodies) + "\nendmodule\n")


def _source_renames(assertions, netlist, copy: CopyNames) -> dict[str, str]:
    """Source-assertion identifiers of one copy.  Clock, disable-clause
    and constant names stay shared; every other signal gets the prefix."""
    table: dict[str, str] = {}
    for a in assertions:
        shared = {a.clock} | set(netlist.params)
        if a.disable is not None:
            shared |= ex.idents_of(a.disable)
        for name in signals_of(a) - shared:
            table[name] = copy.net_prefix + name
    return table


def _copy_key(key: str, position: int, count: int, copy: CopyNames) -> str:
    """Augmentation/naming selectors: '#i' keys move with the file
    position; labels follow the label prefix."""
    if key.startswith("#"):
        return f"#{position * count + int(key[1:])}"
    return copy.label(key)


def _copy_sva(text: str, assertions, netlist,
              copies: list[CopyNames]) -> str:
    text = _strip_comments(text)
    labels = {a.label for a in assertions if a.label} | \
        {a.name for a in assertions if a.name}
    parts = []
    for c in copies:
        table = _source_renames(assertions, netlist, c)
        table.update({name: c.label(name) for name in labels})
        parts.append(rename_text(text, table))
    return "\n".join(parts)


def _copy_map(data: dict, assertions, netlist,
              copies: list[CopyNames]) -> dict:
    renamable = set(netlist.nets) - shared_nets(netlist)
    out: dict = {"mappings": [], "augmentations": [], "naming": []}
    if "normalize" in data:
        out["normalize"] = data["normalize"]
    seen_sources: set[str] = set()
    for pos, c in enumerate(copies):
        nets = c.net_table(renamable)
        sources = _source_renames(assertions, netlist, c)
        for row in data.get("mappings", []):
            src = sources.get(row["source"], row["source"])
            if src in seen_sources:
                continue  # a shared name maps once
            seen_sources.add(src)
            out["mappings"].append({"source": src,
                                    "target": nets.get(row["target"],
                                                       row["target"])})
        for row in data.get("augmentations", []):
            row = dict(row)
            row["signal"] = nets.get(row["signal"], row["signal"])
            row["condition"] = rename_text(row["condition"], nets)
            row["applies_to"] = [_copy_key(k, pos, len(assertions), c)
                                 for k in row.get("applies_to", [])]
            out["augmentations"].append(row)
        for row in data.get("naming", []):
            row = dict(row)
            row["applies_to"] = _copy_key(row["applies_to"], pos,
                                          len(assertions), c)
            for key in ("property", "label"):
                if key in row:
                    row[key] = c.label(row[key])
            out["naming"].append(row)
    return out


def write_port(dest: Path, seed: int) -> Path:
    dest.mkdir(parents=True, exist_ok=True)
    layout = port_layout(seed)
    modules = []
    for module in corpus.MODULES:
        text = corpus.design_path(module).read_text()
        netlist = parse_design(text)
        sva_text = corpus.assertions_path(module).read_text()
        assertions = parse_assertions(sva_text)
        smap = json.loads(corpus.signal_map_path(module).read_text())
        copies = layout[module]
        name = port_module_name(module)
        (dest / f"{name}.sv").write_text(
            _copy_design(module, text, netlist, copies))
        (dest / f"{name}.sva").write_text(
            _copy_sva(sva_text, assertions, netlist, copies))
        (dest / f"{name}_map.json").write_text(json.dumps(
            _copy_map(smap, assertions, netlist, copies), indent=2) + "\n")
        modules.append({"name": name, "target_design": f"{name}.sv",
                        "assertions": f"{name}.sva",
                        "signal_map": f"{name}_map.json", "trojans": 0})
    return _write_config(dest, modules)


# --------------------------------------------------------------------------
# replay


def _ported_signals(module: str, netlist) -> set[str]:
    """Nets the module's ported assertions read (the program's port, made
    without witness search)."""
    assertions = parse_assertions(corpus.assertions_path(module).read_text())
    smap = SignalMap.load(corpus.signal_map_path(module), netlist=netlist)
    graph = build_graph(netlist)
    out: set[str] = set()
    for idx, a in enumerate(assertions):
        conf = TranslationConfig(key=assertion_key(a, idx),
                                 generate_testcase=False)
        outcome = translate(a, netlist, smap, conf, graph=graph)
        if outcome.translatable:
            out |= signals_of(outcome.verdict.assertion) & set(netlist.nets)
    return out


def replay_specs(module: str, seed: int) -> list[dict]:
    """Seeded trojan specs for one module: trigger bits are input bits in
    the assertions' cones, payloads sit on driven nets the assertions read,
    and every spec carries a random activation stimulus."""
    netlist = parse_design(corpus.design_path(module).read_text())
    checked = _ported_signals(module, netlist)
    shared = shared_nets(netlist)
    cone = [n for n in input_cone(netlist, build_graph(netlist), checked)
            if n not in shared]
    pool = [(n, bit) for n in cone for bit in range(netlist.width(n))]
    payload_nets = sorted(n for n in checked
                          if netlist.driver_of(n) is not None)
    inputs = [n.name for n in netlist.inputs() if n.name not in shared]
    resets = {r.reset.net: r.reset.active_level
              for r in netlist.registers if r.reset is not None}
    rng = np.random.default_rng([seed, corpus.MODULES.index(module)])
    kind = "sequential" if netlist.registers else "combinational"
    specs = []
    for j in range(REPLAY_TROJANS):
        k = int(rng.integers(2, min(5, len(pool)) + 1))
        picks = sorted(int(i) for i in rng.choice(len(pool), k,
                                                  replace=False))
        trigger = [{"signal": pool[i][0], "bit": pool[i][1],
                    "value": int(rng.integers(0, 2))} for i in picks]
        payload_kind = PAYLOAD_KINDS[j % len(PAYLOAD_KINDS)]
        net = payload_nets[int(rng.integers(0, len(payload_nets)))]
        payload: dict = {"kind": payload_kind, "net": net}
        if payload_kind == "force_constant":
            payload["value"] = int(rng.integers(0, 1 << netlist.width(net),
                                                dtype=np.uint64))
        columns = {n: rng.integers(0, 1 << netlist.width(n),
                                   size=REPLAY_CYCLES,
                                   dtype=np.uint64).tolist()
                   for n in inputs}
        reset_on = rng.random(REPLAY_CYCLES) < REPLAY_RESET_RATE
        reset_on[0] = True
        for net_name, level in resets.items():
            columns[net_name] = np.where(reset_on, level, 1 - level).tolist()
        rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
        specs.append({"id": f"{module}_r{j:02d}", "module": module,
                      "module_kind": kind, "k": k, "trigger": trigger,
                      "payload": payload,
                      "meta": {"origin": "replay workload", "seed": seed,
                               "activation": rows}})
    return specs


def write_replay(dest: Path, seed: int) -> Path:
    dest.mkdir(parents=True, exist_ok=True)
    modules = []
    for entry in bundled_config()["modules"]:
        module = entry["name"]
        spec_path = dest / f"{module}_trojans.json"
        spec_path.write_text(json.dumps(replay_specs(module, seed)) + "\n")
        modules.append({
            "name": module,
            "target_design": str(corpus.root() / entry["target_design"]),
            "assertions": str(corpus.root() / entry["assertions"]),
            "signal_map": str(corpus.root() / entry["signal_map"]),
            "trojans": 0,
            "imported_trojans": spec_path.name,
        })
    return _write_config(dest, modules)


WRITERS = {"campaign": write_campaign, "port": write_port,
           "replay": write_replay}
