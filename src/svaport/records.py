"""Reading inputs: designs and assertion files are read as UTF-8 text
here, and configs, signal maps, trojan specs, stimuli and metrics files
decode here, each value with exactly the JSON type its reader expects (a
bool is not an integer).  Every fault is a ``ConfigError`` that names the
file, record or field.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError

_REQUIRED = object()


def read_text(path: str | Path) -> str:
    """The contents of the UTF-8 text file *path*."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not valid UTF-8: {err}") from None


def read_json(path: str | Path):
    """The decoded contents of the JSON file *path*."""
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as err:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ConfigError(f"{path}: not valid JSON: {err}") from None


def record(value, where: str, keys: set[str] | None = None) -> dict:
    """*value*, which must be an object with no key outside *keys*."""
    if type(value) is not dict:
        raise ConfigError(f"{where} must be an object, "
                          f"got {type(value).__name__}")
    if keys is not None and not value.keys() <= keys:
        raise ConfigError(f"{where}: unknown keys {sorted(value.keys() - keys)}")
    return value


def field(rec: dict, key: str, kind, where: str, default=_REQUIRED):
    """``rec[key]``, exactly of type *kind*; ``(list, item)`` is an array
    of *item* values, read as a tuple.  An absent or null field gives
    *default*, and is missing when there is none."""
    value = rec.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing field {key!r}")
        return default
    outer, item = kind if type(kind) is tuple else (kind, None)
    if type(value) is not outer or (
            item is not None and any(type(v) is not item for v in value)):
        name = outer.__name__ + (f" of {item.__name__}" if item else "")
        raise ConfigError(f"{where} field {key!r} must be of type {name}, "
                          f"got {value!r}")
    return value if item is None else tuple(value)


def file_name(value: str, what: str) -> str:
    """*value*, which names a file or directory of its own: not empty, not
    starting with ``.``, and without ``/``, ``\\`` or a NUL character."""
    if not value or value[0] == "." or any(c in value for c in "/\\\0"):
        raise ConfigError(f"{what} {value!r} is not a plain file name")
    return value
