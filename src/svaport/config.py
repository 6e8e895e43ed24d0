"""Campaign configuration: one JSON file drives the whole pipeline.

A campaign names the design modules under test and, per module, where the
target RTL, the source assertion file, and the signal map live, plus how
many trojans to forge against it.  Global knobs (seed, horizon, report
format, parallelism) sit at the top level and can be overridden from the
command line.

All relative paths in the file resolve against the directory containing
the config, so a campaign directory can be checked in and run from
anywhere.  Every referenced input must exist at load time; catching a
typo here beats a traceback three pipeline stages later.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError
from .trojan import PAYLOAD_KINDS

REPORT_FORMATS = ("table", "json", "csv")


def _require_keys(data: dict, allowed: set[str], context: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected an object, got {data!r}")
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


_KINDS = {int: "an integer", str: "a string"}


def _typed(value, kind: type, what: str):
    """*value*, which must be exactly of *kind*: a bool is not an int."""
    if type(value) is not kind:
        raise ConfigError(f"{what} must be {_KINDS[kind]}, got {value!r}")
    return value


def _path(base: Path, value, context: str, *, required: bool) -> Path | None:
    if value is None:
        return None
    p = (base / str(value)).resolve()
    if required and not p.is_file():
        raise ConfigError(f"{context}: no such file: {value}")
    return p


@dataclass(frozen=True)
class ForgeDefaults:
    """Campaign-wide trojan generation knobs (per-module count lives on
    the module entry)."""

    k_min: int = 2
    k_max: int = 6
    tries: int = 64
    payloads: tuple[str, ...] = PAYLOAD_KINDS

    @staticmethod
    def from_dict(data: dict) -> "ForgeDefaults":
        _require_keys(data, {"k_min", "k_max", "tries", "payloads"}, "forge")
        kwargs = dict(data)
        for key in ("k_min", "k_max", "tries"):
            if key in data:
                _typed(data[key], int, f"forge: {key}")
        if "payloads" in kwargs:
            if not isinstance(kwargs["payloads"], list):
                raise ConfigError("forge: payloads must be an array")
            payloads = tuple(kwargs["payloads"])
            for kind in payloads:
                if kind not in PAYLOAD_KINDS:
                    raise ConfigError(f"forge: unknown payload kind {kind!r}")
            kwargs["payloads"] = payloads
        out = ForgeDefaults(**kwargs)
        if not 1 <= out.k_min <= out.k_max:
            raise ConfigError(
                f"forge: need 1 <= k_min <= k_max, got [{out.k_min}, {out.k_max}]")
        if out.tries < 1:
            raise ConfigError("forge: tries must be positive")
        return out


@dataclass(frozen=True)
class ModuleJob:
    """One design module's slice of the campaign."""

    name: str
    target_design: Path
    assertions: Path
    signal_map: Path | None = None
    trojans: int = 0
    k_values: tuple[int, ...] | None = None
    imported_trojans: Path | None = None

    @staticmethod
    def from_dict(data: dict, base: Path) -> "ModuleJob":
        _require_keys(data, {"name", "target_design", "assertions",
                             "signal_map", "trojans", "k_values",
                             "imported_trojans"}, "module entry")
        try:
            name = data["name"]
        except KeyError:
            raise ConfigError("module entry: missing 'name'") from None
        for key in ("target_design", "assertions"):
            if key not in data:
                raise ConfigError(f"module {name}: missing '{key}'")
        trojans = _typed(data.get("trojans", 0), int,
                         f"module {name}: trojans")
        if trojans < 0:
            raise ConfigError(f"module {name}: trojans must be >= 0")
        k_values = data.get("k_values")
        if k_values is not None:
            if not (isinstance(k_values, list)
                    and all(type(k) is int for k in k_values)):
                raise ConfigError(f"module {name}: k_values must be an array "
                                  f"of integers, got {k_values!r}")
            k_values = tuple(k_values)
            if len(k_values) != trojans:
                raise ConfigError(
                    f"module {name}: k_values lists {len(k_values)} widths "
                    f"for {trojans} trojans")
        return ModuleJob(
            name=str(name),
            target_design=_path(base, data["target_design"],
                                f"module {name}", required=True),
            assertions=_path(base, data["assertions"],
                             f"module {name}", required=True),
            signal_map=_path(base, data.get("signal_map"),
                             f"module {name}", required=True),
            trojans=trojans,
            k_values=k_values,
            imported_trojans=_path(base, data.get("imported_trojans"),
                                   f"module {name}", required=True),
        )


@dataclass(frozen=True)
class ProjectConfig:
    """Fully resolved campaign description."""

    modules: tuple[ModuleJob, ...]
    out_dir: Path
    seed: int = 0
    horizon: int = 16
    format: str = "table"
    jobs: int = 1
    forge: ForgeDefaults = field(default_factory=ForgeDefaults)

    def __post_init__(self) -> None:
        if self.format not in REPORT_FORMATS:
            raise ConfigError(
                f"format must be one of {list(REPORT_FORMATS)}, "
                f"got {self.format!r}")
        if self.horizon < 2:
            raise ConfigError("horizon must be at least 2 cycles")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        seen = set()
        for job in self.modules:
            if job.name in seen:
                raise ConfigError(f"duplicate module name {job.name!r}")
            seen.add(job.name)

    def module(self, name: str) -> ModuleJob:
        for job in self.modules:
            if job.name == name:
                return job
        raise ConfigError(f"no module named {name!r} in the campaign")

    def override(self, *, seed: int | None = None, format: str | None = None,
                 out_dir: Path | None = None, jobs: int | None = None,
                 ) -> "ProjectConfig":
        """Apply command-line overrides, keeping everything else."""
        changes = {}
        if seed is not None:
            changes["seed"] = seed
        if format is not None:
            changes["format"] = format
        if out_dir is not None:
            changes["out_dir"] = Path(out_dir).resolve()
        if jobs is not None:
            changes["jobs"] = jobs
        return replace(self, **changes) if changes else self

    @staticmethod
    def from_dict(data: dict, base: Path) -> "ProjectConfig":
        _require_keys(data, {"modules", "out_dir", "seed", "horizon",
                             "format", "jobs", "forge"}, "campaign config")
        entries = data.get("modules")
        if not isinstance(entries, list) or not entries:
            raise ConfigError("campaign config: 'modules' must be a "
                              "non-empty array")
        modules = tuple(ModuleJob.from_dict(entry, base) for entry in entries)
        out_dir = (base / str(data.get("out_dir", "out"))).resolve()
        forge = ForgeDefaults.from_dict(data.get("forge", {}))

        def entry(key: str, default, kind: type):
            return _typed(data.get(key, default), kind,
                          f"campaign config: {key}")

        return ProjectConfig(
            modules=modules,
            out_dir=out_dir,
            seed=entry("seed", 0, int),
            horizon=entry("horizon", 16, int),
            format=entry("format", "table", str),
            jobs=entry("jobs", 1, int),
            forge=forge,
        )

    @staticmethod
    def load(path: str | Path) -> "ProjectConfig":
        path = Path(path).resolve()
        if not path.is_file():
            raise ConfigError(f"no such config file: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: not valid JSON: {err}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        return ProjectConfig.from_dict(data, path.parent)
