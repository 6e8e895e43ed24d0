"""Command-line pipeline driver.

Four subcommands walk the campaign through its stages, each reading the
previous stage's files and writing its own under the output directory:

* ``translate`` - port every source assertion onto its target design,
  writing one ``.sva`` per success and a link report per attempt,
* ``inject`` - forge trojans against the translated assertions (and adopt
  any imported specs), writing mutated ``.sv``, spec JSON, and activation
  stimulus per trojan,
* ``evaluate`` - replay every activation stimulus on its mutated design,
  score detection, and render the campaign report,
* ``report`` - re-render a finished evaluation in another format.

Stages communicate only through these files, so any stage can be re-run
or inspected in isolation.  All randomness derives from the config seed;
identical config and seed give byte-identical artifacts.

Exit codes: 0 on success, 2 when translation left assertions behind,
1 for configuration, parse, forge, or simulation errors.

Output layout::

    <out_dir>/
      <module>/links/a00_<key>.json       one per source assertion
      <module>/translated/a00_<key>.sva   one per translatable assertion
      <module>/testcases/a00_<key>.json   passing stimulus, when found
      <module>/trojans/<id>.sv            design with the trojan inside
      <module>/trojans/<id>.json          trojan spec
      <module>/trojans/<id>.stim.json     activation stimulus
      metrics.json                        raw evaluation results
      report.txt|json|csv                 rendered summary
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent import futures
from fractions import Fraction
from pathlib import Path

from .config import REPORT_FORMATS, ModuleJob, ProjectConfig
from .errors import ConfigError, SvaportError
from .graph import build_graph
from .metrics import (MetricsReport, ModuleRow, TrojanRow,
                      analytic_probability, emit_report)
from .monitor import check_assertions
from .netlist import Netlist, render_netlist
from .rtl_parser import parse_design
from .search import SearchBudget
from .sim import SimKernel, Stimulus, simulate
from .sva import Assertion, parse_assertions, render_assertion
from .translate import SignalMap, TranslationConfig, assertion_key, translate
from .trojan import (ForgeParams, TrojanSpec, activation_stimulus, forge,
                     inject, load_trojans, validate_spec)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _atomic_write(path: Path, text: str) -> None:
    """Write via a sibling temp file so readers never see a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _slug(key: str) -> str:
    """Assertion keys may contain characters unfit for filenames."""
    return "".join(c if c.isalnum() or c in "_-" else "_" for c in key)


def _load_design(path: Path) -> Netlist:
    return parse_design(path.read_text())


def _module_dir(config: ProjectConfig, job: ModuleJob) -> Path:
    return config.out_dir / job.name


def _translated_assertions(config: ProjectConfig,
                           job: ModuleJob) -> list[Assertion]:
    tdir = _module_dir(config, job) / "translated"
    files = sorted(tdir.glob("*.sva")) if tdir.is_dir() else []
    if not files:
        raise ConfigError(
            f"module {job.name}: no translated assertions under {tdir}; "
            "run the translate stage first")
    out: list[Assertion] = []
    for f in files:
        out.extend(parse_assertions(f.read_text()))
    return out


# ---------------------------------------------------------------------------
# translate


def cmd_translate(config: ProjectConfig) -> int:
    """Port each module's assertions; 0 if all landed, 2 if any did not."""
    status = 0
    for job in config.modules:
        target = _load_design(job.target_design)
        assertions = parse_assertions(job.assertions.read_text())
        if not assertions:
            _warn(f"{job.assertions}: no assertions found; "
                  f"nothing to translate for module {job.name}")
            continue
        smap = (SignalMap.load(job.signal_map, netlist=target)
                if job.signal_map else SignalMap())
        graph = build_graph(target)
        kernel = SimKernel(target)
        base = _module_dir(config, job)
        for idx, assertion in enumerate(assertions):
            key = assertion_key(assertion, idx)
            stem = f"a{idx:02d}_{_slug(key)}"
            tconf = TranslationConfig(
                budget=SearchBudget(horizon=config.horizon),
                seed=config.seed, key=key)
            outcome = translate(assertion, target, smap, tconf,
                                graph=graph, kernel=kernel)
            doc = {
                "seed": config.seed,
                "module": job.name,
                "assertion": key,
                "translatable": outcome.translatable,
                "notes": list(outcome.notes),
                "link": outcome.link_report.to_dict(),
            }
            if outcome.translatable:
                _atomic_write(base / "translated" / f"{stem}.sva",
                              render_assertion(outcome.verdict.assertion) + "\n")
                if outcome.verdict.testcase is not None:
                    _atomic_write(base / "testcases" / f"{stem}.json",
                                  _json_text(outcome.verdict.testcase.inputs))
            else:
                doc["reasons"] = list(outcome.verdict.reasons)
                _warn(f"module {job.name}: assertion {key} is untranslatable")
                status = 2
            _atomic_write(base / "links" / f"{stem}.json", _json_text(doc))
    return status


# ---------------------------------------------------------------------------
# inject


def cmd_inject(config: ProjectConfig) -> int:
    """Forge and materialize this campaign's trojans."""
    for job in config.modules:
        specs: list[TrojanSpec] = []
        target = _load_design(job.target_design)
        if job.trojans:
            assertions = _translated_assertions(config, job)
            params = ForgeParams(
                count=job.trojans,
                k_min=config.forge.k_min,
                k_max=config.forge.k_max,
                k_values=job.k_values,
                payloads=config.forge.payloads,
                seed=config.seed,
                tries=config.forge.tries,
                horizon=config.horizon,
                unique_failure=config.forge.unique_failure,
            )
            specs.extend(forge(target, assertions, params))
        if job.imported_trojans:
            for spec in load_trojans(job.imported_trojans):
                validate_spec(spec, target)
                spec.meta.setdefault("seed", config.seed)
                specs.append(spec)
        tdir = _module_dir(config, job) / "trojans"
        for spec in specs:
            injected = inject(target, spec)
            if "activation" not in spec.meta:
                stim = activation_stimulus(spec, target, config.horizon,
                                           seed=config.seed)
                spec.meta["activation"] = stim.inputs
            stimulus = Stimulus.for_design(target, spec.meta["activation"])
            _atomic_write(tdir / f"{spec.id}.sv",
                          render_netlist(injected))
            _atomic_write(tdir / f"{spec.id}.json", _json_text(spec.to_dict()))
            _atomic_write(tdir / f"{spec.id}.stim.json",
                          _json_text(stimulus.inputs))
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _evaluate_one(sv_text: str, stim_rows: list,
                  sva_texts: tuple[str, ...]) -> tuple[bool, str | None]:
    """Score one trojan: does any translated assertion fail on its
    activation run?  Self-contained and picklable so a process pool can
    run it; any error is reported, never raised, to keep one bad trojan
    from sinking the batch."""
    try:
        netlist = parse_design(sv_text)
        assertions: list[Assertion] = []
        for text in sva_texts:
            assertions.extend(parse_assertions(text))
        stimulus = Stimulus.for_design(netlist, stim_rows)
        trace = simulate(netlist, stimulus)
        verdicts = check_assertions(trace, assertions)
        detected = any(v.failure_count >= 1 for v in verdicts)
        return detected, None
    except Exception as err:  # noqa: BLE001 - isolation boundary
        return False, f"{type(err).__name__}: {err}"


def _trojan_files(config: ProjectConfig, job: ModuleJob) -> list[Path]:
    tdir = _module_dir(config, job) / "trojans"
    if not tdir.is_dir():
        return []
    return sorted(p for p in tdir.glob("*.json")
                  if not p.name.endswith(".stim.json"))


def cmd_evaluate(config: ProjectConfig) -> int:
    """Replay every activation stimulus and render the campaign report."""
    module_rows: list[ModuleRow] = []
    trojan_rows: list[TrojanRow] = []
    raw: dict = {"seed": config.seed, "modules": [], "trojans": []}
    tasks: list[tuple[ModuleJob, TrojanSpec, tuple]] = []
    per_module: dict[str, dict] = {}

    for job in config.modules:
        source_count = len(parse_assertions(job.assertions.read_text()))
        tdir = _module_dir(config, job) / "translated"
        sva_files = sorted(tdir.glob("*.sva")) if tdir.is_dir() else []
        sva_texts = tuple(f.read_text() for f in sva_files)
        translated_count = sum(
            len(parse_assertions(text)) for text in sva_texts)
        per_module[job.name] = {
            "source": source_count,
            "translated": translated_count,
            "scored": [],
        }
        for spec_path in _trojan_files(config, job):
            spec = load_trojans(spec_path)[0]
            sv_path = spec_path.with_suffix(".sv")
            stim_path = spec_path.with_name(spec_path.stem + ".stim.json")
            if not sv_path.is_file() or not stim_path.is_file():
                raise ConfigError(
                    f"trojan {spec.id}: missing {sv_path.name} or "
                    f"{stim_path.name}; run the inject stage first")
            args = (sv_path.read_text(), json.loads(stim_path.read_text()),
                    sva_texts)
            tasks.append((job, spec, args))

    if config.jobs > 1 and len(tasks) > 1:
        with futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_evaluate_one,
                                    *zip(*(t[2] for t in tasks))))
    else:
        results = [_evaluate_one(*args) for _, _, args in tasks]
    # results pair with tasks by position, not by trojan id: imported specs
    # choose their own ids, so two modules may share one
    for (job, spec, _), (detected, error) in zip(tasks, results):
        per_module[job.name]["scored"].append((spec, detected, error))

    for job in config.modules:
        info = per_module[job.name]
        detected_count = 0
        for spec, detected, error in info["scored"]:
            if error is not None:
                _warn(f"module {job.name}, trojan {spec.id}: {error}")
            detected_count += bool(detected)
            probability = analytic_probability(spec)
            trojan_rows.append(TrojanRow(spec.id, job.name, probability))
            raw["trojans"].append({
                "id": spec.id,
                "module": job.name,
                "k": spec.k,
                "p": str(probability),
                "detected": bool(detected),
                "error": error,
            })
        module_rows.append(ModuleRow(
            module=job.name,
            source_assertions=info["source"],
            translated=info["translated"],
            generated=len(info["scored"]),
            detected=detected_count,
        ))
        raw["modules"].append({
            "module": job.name,
            "source_assertions": info["source"],
            "translated": info["translated"],
            "generated": len(info["scored"]),
            "detected": detected_count,
        })

    report = MetricsReport(modules=module_rows, trojans=trojan_rows,
                           seed=config.seed)
    rendered = emit_report(report, config.format)
    ext = {"table": "txt", "json": "json", "csv": "csv"}[config.format]
    _atomic_write(config.out_dir / "metrics.json", _json_text(raw))
    _atomic_write(config.out_dir / f"report.{ext}", rendered)
    sys.stdout.write(rendered)
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(config: ProjectConfig) -> int:
    """Re-render a finished evaluation (possibly in another format)."""
    path = config.out_dir / "metrics.json"
    if not path.is_file():
        raise ConfigError(f"{path}: not found; run the evaluate stage first")
    raw = json.loads(path.read_text())
    modules = [ModuleRow(d["module"], d["source_assertions"], d["translated"],
                         d["generated"], d["detected"])
               for d in raw.get("modules", [])]
    trojans = [TrojanRow(d["id"], d["module"], Fraction(d["p"]))
               for d in raw.get("trojans", [])]
    report = MetricsReport(modules=modules, trojans=trojans,
                           seed=raw.get("seed"))
    sys.stdout.write(emit_report(report, config.format))
    return 0


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "translate": cmd_translate,
    "inject": cmd_inject,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, metavar="PATH",
                        help="campaign config (JSON)")
    shared.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the config seed")
    shared.add_argument("--format", choices=REPORT_FORMATS, default=None,
                        help="override the report format")
    shared.add_argument("--out", default=None, metavar="DIR",
                        help="override the output directory")
    shared.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="parallel workers for evaluation")
    parser = argparse.ArgumentParser(
        prog="svaport",
        description="Port assertions between designs, plant trojans "
                    "against them, and score the detection rate.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("translate", parents=[shared],
                   help="port source assertions onto the target designs")
    sub.add_parser("inject", parents=[shared],
                   help="forge trojans and write the mutated designs")
    sub.add_parser("evaluate", parents=[shared],
                   help="replay activations and score detection")
    sub.add_parser("report", parents=[shared],
                   help="re-render an existing evaluation")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ProjectConfig.load(args.config).override(
            seed=args.seed, format=args.format, out_dir=args.out,
            jobs=args.jobs)
        return _COMMANDS[args.command](config)
    except SvaportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - any other exception is a bug
        print(f"internal error: {type(err).__name__}: {err} (please report "
              "this as a bug)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
