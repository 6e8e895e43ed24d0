"""Campaign configuration: one JSON file drives the whole pipeline.

A campaign names the design modules under test and, per module, where the
target RTL, the source assertion file, and the signal map live, plus how
many trojans to forge against it.  Global knobs (seed, horizon, report
format, parallelism) sit at the top level and can be overridden from the
command line.  The ``forge`` section is a ``trojan.ForgeParams``.

All relative paths in the file resolve against the directory containing
the config, so a campaign directory can be checked in and run from
anywhere.  Every referenced input must exist at load time; catching a
typo here beats a traceback three pipeline stages later.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError
from .records import field, file_name, read_json, record
from .trojan import ForgeParams

#: each report format's file, written to the output directory
REPORT_FILES = {"table": "report.txt", "json": "report.json",
                "csv": "report.csv"}
REPORT_FORMATS = tuple(REPORT_FILES)


def _file(base: Path, value: str | None, where: str) -> Path | None:
    """The input file *value* names, which must exist; None stays None."""
    if value is None:
        return None
    if not (base / value).is_file():  # also false for a NUL in the path
        raise ConfigError(f"{where}: no such file: {value}")
    return (base / value).resolve()


def _forge(data: dict) -> ForgeParams:
    """The ``forge`` section: the knobs of ``ForgeParams`` that apply to
    every module, which checks them.  Inject fills in the rest."""
    kinds = {"k_min": int, "k_max": int, "tries": int, "payloads": (list, str)}
    record(data, "forge", set(kinds))
    return ForgeParams(**{key: field(data, key, kind, "forge",
                                     default=getattr(ForgeParams, key))
                          for key, kind in kinds.items()})


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
        record(data, "module entry", {
            "name", "target_design", "assertions", "signal_map", "trojans",
            "k_values", "imported_trojans"})
        name = file_name(field(data, "name", str, "module entry"),
                         "module name")
        if name in ("metrics.json", *REPORT_FILES.values()):
            raise ConfigError(f"module name {name!r} is the name of an "
                              "output file")
        where = f"module {name}"
        trojans = field(data, "trojans", int, where, default=0)
        if trojans < 0:
            raise ConfigError(f"{where}: trojans must be >= 0")
        k_values = field(data, "k_values", (list, int), where, default=None)
        if k_values is not None and len(k_values) != trojans:
            raise ConfigError(f"{where}: k_values lists {len(k_values)} "
                              f"widths for {trojans} trojans")
        if k_values and min(k_values) < 1:
            raise ConfigError(f"{where}: every k_values entry must be at "
                              f"least 1, got {list(k_values)}")

        def path(key: str, **default) -> Path | None:
            return _file(base, field(data, key, str, where, **default), where)

        return ModuleJob(
            name=name,
            target_design=path("target_design"),
            assertions=path("assertions"),
            signal_map=path("signal_map", default=None),
            trojans=trojans,
            k_values=k_values,
            imported_trojans=path("imported_trojans", default=None),
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
    forge: ForgeParams = ForgeParams()

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
        where = "campaign config"
        record(data, where, {"modules", "out_dir", "seed", "horizon", "format",
                             "jobs", "forge"})
        entries = field(data, "modules", list, where)
        if not entries:
            raise ConfigError(f"{where}: 'modules' must be a non-empty array")
        out_dir = field(data, "out_dir", str, where, default="out")
        if "\0" in out_dir:
            raise ConfigError(f"{where}: out_dir {out_dir!r} is not a path")
        return ProjectConfig(
            modules=tuple(ModuleJob.from_dict(entry, base) for entry in entries),
            out_dir=(base / out_dir).resolve(),
            seed=field(data, "seed", int, where, default=0),
            horizon=field(data, "horizon", int, where, default=16),
            format=field(data, "format", str, where, default="table"),
            jobs=field(data, "jobs", int, where, default=1),
            forge=_forge(field(data, "forge", dict, where, default={})),
        )

    @staticmethod
    def load(path: str | Path) -> "ProjectConfig":
        path = Path(path).resolve()
        if not path.is_file():
            raise ConfigError(f"no such config file: {path}")
        return ProjectConfig.from_dict(read_json(path), path.parent)
