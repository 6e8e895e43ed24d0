"""Command-line pipeline driver.

Four subcommands walk the campaign through its stages, each reading the
previous stage's files and writing its own under the output directory:

* ``translate`` - port every source assertion onto its target design,
  writing one ``.sva`` per success and a link report per attempt,
* ``inject`` - forge trojans against the translated assertions (and adopt
  any imported specs), writing mutated ``.sv``, spec JSON, and activation
  stimulus per trojan; ``forge`` hands each activation back beside its
  spec, and inject keeps it only in the stimulus file, never in the spec.
  A trojan id names these files, so it must be a plain file name that no
  other trojan of the module uses,
* ``evaluate`` - replay every activation stimulus on its mutated design,
  score detection, and render the campaign report; it warns about a
  module with fewer trojans than its config asks for,
* ``report`` - re-render a finished evaluation in another format.

Stages communicate only through these files, so any stage can be re-run
or inspected in isolation; translate and inject remove the subdirectories
they write from every module before they read any, so a rerun, even one
that fails, leaves no file of an earlier one.
Testcases and activations share the one stimulus format of
:func:`svaport.sim.stimulus_text`, and evaluate reads them back with
:func:`svaport.sim.load_stimulus`.  All randomness derives from the config
seed; identical config and seed give byte-identical artifacts.

Exit codes: 0 on success, 2 when translation left assertions behind,
1 for configuration, parse, forge, or simulation errors.  The output
layout is the one ``docs/file_formats.md`` shows.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from concurrent import futures
from contextlib import contextmanager
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from .config import REPORT_FILES, REPORT_FORMATS, ModuleJob, ProjectConfig
from .errors import (ConfigError, ElaborationError, SourceError,
                     SvaportError, UnknownSignalError)
from .graph import build_graph
from .metrics import (MetricsReport, ModuleRow, TrojanRow,
                      analytic_probability, emit_report)
from .monitor import AssertionVerdict, Checker, check_assertions
from .netlist import Netlist, render_netlist
from .records import field, file_name, read_json, read_text, record
from .rtl_parser import parse_design
from .sim import SimKernel, Stimulus, load_stimulus, stimulus_text
from .sva import Assertion, parse_assertions, render_assertion
from .translate import SignalMap, TranslationConfig, assertion_key, translate
from .trojan import (TrojanSpec, activation_stimulus, forge, inject,
                     load_trojans, validate_spec)

T = TypeVar("T")


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


@contextmanager
def _named(where: str, *kinds: type[SvaportError]) -> Iterator[None]:
    """Prefix *where* to the message of an error of *kinds* raised inside,
    which keeps its class."""
    try:
        yield
    except kinds as err:
        err.args = (f"{where}: {err.args[0]}",)
        raise


def _parsed(parse: Callable[[str], T], path: Path) -> T:
    """*parse* of the text of *path*; a fault in the text names the file."""
    with _named(str(path), SourceError):
        return parse(read_text(path))


def _load_design(path: Path) -> Netlist:
    return _parsed(parse_design, path)


def _module_dir(config: ProjectConfig, job: ModuleJob) -> Path:
    return config.out_dir / job.name


def _clear(config: ProjectConfig, *subdirs: str) -> None:
    """Remove the subdirectories a stage owns from every module before
    the stage reads any, so that no file of an earlier run outlives it."""
    for job in config.modules:
        for path in (_module_dir(config, job) / sub for sub in subdirs):
            if path.is_dir():
                shutil.rmtree(path)


def _translated_assertions(config: ProjectConfig,
                           job: ModuleJob) -> list[Assertion]:
    """The module's ported assertions in file order; empty if it has none."""
    tdir = _module_dir(config, job) / "translated"
    files = sorted(tdir.glob("*.sva")) if tdir.is_dir() else []
    return [a for f in files for a in _parsed(parse_assertions, f)]


# ---------------------------------------------------------------------------
# translate


def cmd_translate(config: ProjectConfig) -> int:
    """Port each module's assertions; 0 if all landed, 2 if any did not."""
    status = 0
    _clear(config, "links", "translated", "testcases")
    for job in config.modules:
        target = _load_design(job.target_design)
        assertions = _parsed(parse_assertions, job.assertions)
        smap = (SignalMap.load(job.signal_map, netlist=target)
                if job.signal_map else SignalMap())
        keys = [assertion_key(a, idx) for idx, a in enumerate(assertions)]
        smap.check_keys(set(keys), str(job.signal_map))
        base = _module_dir(config, job)
        if not assertions:
            _warn(f"{job.assertions}: no assertions found; "
                  f"nothing to translate for module {job.name}")
            continue
        graph = build_graph(target)
        for idx, (assertion, key) in enumerate(zip(assertions, keys)):
            stem = f"a{idx:02d}_{_slug(key)}"
            tconf = TranslationConfig(horizon=config.horizon,
                                      seed=config.seed, key=key)
            outcome = translate(assertion, target, smap, tconf, graph=graph)
            doc = {
                "seed": config.seed,
                "module": job.name,
                "assertion": key,
                "translatable": outcome.translatable,
                "notes": list(outcome.notes),
                "link": outcome.link_report.to_dict(),
            }
            if outcome.translatable:
                doc["search"] = asdict(outcome.verdict.search)
                _atomic_write(base / "translated" / f"{stem}.sva",
                              render_assertion(outcome.verdict.assertion) + "\n")
                if outcome.verdict.testcase is not None:
                    _atomic_write(base / "testcases" / f"{stem}.json",
                                  stimulus_text(outcome.verdict.testcase))
            else:
                doc["reasons"] = list(outcome.verdict.reasons)
                _warn(f"module {job.name}: assertion {key} is untranslatable")
                status = 2
            _atomic_write(base / "links" / f"{stem}.json", _json_text(doc))
    return status


# ---------------------------------------------------------------------------
# inject


def _check_ids(job: ModuleJob, specs: list[TrojanSpec]) -> None:
    """Each trojan id names its files, so it must be a plain file name
    that no other trojan of the module uses, and must not end in
    ``.stim``: ``<id>.stim.json`` is the stimulus file of trojan *id*."""
    seen: set[str] = set()
    for spec in specs:
        file_name(spec.id, f"module {job.name}: trojan id")
        if spec.id.endswith(".stim"):
            raise ConfigError(f"module {job.name}: trojan id {spec.id!r} "
                              "ends in .stim, which names stimulus files")
        if spec.id in seen:
            raise ConfigError(f"module {job.name}: trojan id {spec.id!r} "
                              "is used twice")
        seen.add(spec.id)


def cmd_inject(config: ProjectConfig) -> int:
    """Forge and materialize this campaign's trojans."""
    _clear(config, "trojans")
    for job in config.modules:
        trojans: list[tuple[TrojanSpec, Stimulus]] = []
        # a module with no trojans to forge or import needs no design
        if job.trojans or job.imported_trojans:
            target = _load_design(job.target_design)
        if job.trojans:
            assertions = _translated_assertions(config, job)
            if not assertions:
                raise ConfigError(
                    f"module {job.name}: no translated assertions under "
                    f"{_module_dir(config, job) / 'translated'}; "
                    "run the translate stage first")
            trojans.extend(forge(target, assertions, replace(
                config.forge, count=job.trojans, k_values=job.k_values,
                seed=config.seed, horizon=config.horizon)))
        if job.imported_trojans:
            for spec in load_trojans(job.imported_trojans):
                validate_spec(spec, target)
                spec.meta.setdefault("seed", config.seed)
                # the activation is written once, to its own stimulus file
                rows = spec.meta.pop("activation", None)
                with _named(f"module {job.name}, trojan {spec.id}",
                            ConfigError, UnknownSignalError, ElaborationError):
                    stimulus = (Stimulus.for_design(target, rows) if rows
                                is not None else activation_stimulus(
                                    spec, target, config.horizon,
                                    seed=config.seed))
                trojans.append((spec, stimulus))
        _check_ids(job, [spec for spec, _ in trojans])
        tdir = _module_dir(config, job) / "trojans"
        for spec, stimulus in trojans:
            _atomic_write(tdir / f"{spec.id}.sv",
                          render_netlist(inject(target, spec)))
            _atomic_write(tdir / f"{spec.id}.json", _json_text(spec.to_dict()))
            _atomic_write(tdir / f"{spec.id}.stim.json",
                          stimulus_text(stimulus))
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _replay(netlist: Netlist, stimulus: Stimulus,
            assertions: list[Assertion]) -> list[AssertionVerdict]:
    """Each assertion's verdict on *stimulus*, compiled once for *netlist*
    and checked on a kernel sliced to the nets the assertions read."""
    checkers = [Checker(a, netlist) for a in assertions]
    keep = set().union(*(c.nets for c in checkers))
    return check_assertions(SimKernel(netlist, keep).run(stimulus), checkers)


def _evaluate_one(sv_path: Path, stim_path: Path,
                  assertions: list[Assertion]) -> tuple[bool, str | None]:
    """Score one trojan: does any translated assertion fail on its
    activation run?  Self-contained and picklable so a process pool can
    run it; any error is reported, never raised, to keep one bad trojan
    from sinking the batch."""
    try:
        netlist = parse_design(read_text(sv_path))
        verdicts = _replay(netlist, load_stimulus(stim_path, netlist),
                           assertions)
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


def _imported_count(path: Path, room: int) -> int:
    """The number of specs in the imported file *path*, or an upper bound
    on it when that bound is at most *room*.

    Imported specs may carry long activations, and decoding them costs
    about as much as scoring them, so the file is decoded only when it may
    hold more than *room* specs.  Each spec has one ``"module_kind"`` key,
    so a file without escapes holds at most as many specs as that key
    appears.
    """
    raw = path.read_bytes()
    bound = raw.count(b'"module_kind"')
    if b"\\" not in raw and bound <= room:
        return bound
    return len(load_trojans(path))


def cmd_evaluate(config: ProjectConfig) -> int:
    """Replay every activation stimulus and render the campaign report.

    A module with fewer trojan files than its config asks for (its
    ``trojans`` count plus its imported specs) is scored as it is, with a
    warning: inject stopped before it, or its files were removed.
    """
    raw: dict = {"seed": config.seed, "modules": [], "trojans": []}
    # each trojan's module row, spec and scoring arguments
    tasks: list[tuple[dict, TrojanSpec, tuple]] = []
    for job in config.modules:
        source_count = len(_parsed(parse_assertions, job.assertions))
        assertions = _translated_assertions(config, job)
        spec_paths = _trojan_files(config, job)
        row = {"module": job.name, "source_assertions": source_count,
               "translated": len(assertions), "generated": len(spec_paths),
               "detected": 0}
        raw["modules"].append(row)
        asked = job.trojans
        if job.imported_trojans is not None:
            asked += _imported_count(job.imported_trojans,
                                     len(spec_paths) - asked)
        if len(spec_paths) < asked:
            _warn(f"module {job.name}: {len(spec_paths)} trojan files, but "
                  f"the config asks for {asked}; run the inject stage first")
        for spec_path in spec_paths:
            specs = load_trojans(spec_path)
            if len(specs) != 1:
                raise ConfigError(f"{spec_path}: expected one trojan spec, "
                                  f"found {len(specs)}")
            spec = specs[0]
            sv_path = spec_path.with_suffix(".sv")
            stim_path = spec_path.with_name(spec_path.stem + ".stim.json")
            if not sv_path.is_file() or not stim_path.is_file():
                raise ConfigError(
                    f"trojan {spec.id}: missing {sv_path.name} or "
                    f"{stim_path.name}; run the inject stage first")
            tasks.append((row, spec, (sv_path, stim_path, assertions)))

    if config.jobs > 1 and len(tasks) > 1:
        with futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_evaluate_one,
                                    *zip(*(t[2] for t in tasks))))
    else:
        results = [_evaluate_one(*args) for _, _, args in tasks]
    # results pair with tasks by position, not by trojan id: imported specs
    # choose their own ids, so two modules may share one
    for (row, spec, _), (detected, error) in zip(tasks, results):
        if error is not None:
            _warn(f"module {row['module']}, trojan {spec.id}: {error}")
        row["detected"] += bool(detected)
        raw["trojans"].append({
            "id": spec.id,
            "module": row["module"],
            "k": spec.k,
            "p": str(analytic_probability(spec)),
            "detected": bool(detected),
            "error": error,
        })

    rendered = emit_report(_metrics_report(raw), config.format)
    _atomic_write(config.out_dir / "metrics.json", _json_text(raw))
    _atomic_write(config.out_dir / REPORT_FILES[config.format], rendered)
    sys.stdout.write(rendered)
    return 0


# ---------------------------------------------------------------------------
# report


def _metrics_report(raw: dict) -> MetricsReport:
    """The report of the rows in a ``metrics.json`` object."""
    where = "metrics.json"

    def rows(key: str, **kinds: type) -> list[list]:
        at = f"{where} {key} row"
        return [[field(record(row, at), name, kind, at)
                 for name, kind in kinds.items()]
                for row in field(record(raw, where), key, list, where)]

    modules = rows("modules", module=str, source_assertions=int,
                   translated=int, generated=int, detected=int)
    trojans = rows("trojans", id=str, module=str, p=str)
    try:
        return MetricsReport(
            modules=[ModuleRow(*row) for row in modules],
            trojans=[TrojanRow(tid, module, Fraction(p))
                     for tid, module, p in trojans],
            seed=field(raw, "seed", int, where))
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"{where}: a trojan row's p is not a fraction "
                          f"({err})") from None


def cmd_report(config: ProjectConfig) -> int:
    """Re-render a finished evaluation (possibly in another format)."""
    path = config.out_dir / "metrics.json"
    if not path.is_file():
        raise ConfigError(f"{path}: not found; run the evaluate stage first")
    report = _metrics_report(read_json(path))
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
