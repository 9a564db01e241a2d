"""Strict line-oriented run configuration.

Grammar: `[section]` headers followed by `key = value` lines; `#` or `;`
starts a comment, on a line of its own or after a header or value; blank
lines and a leading UTF-8 byte-order mark are ignored.  Sections are
`[model]`, `[grid]`, `[units]`, `[run]`; each key is a field of the class its
section builds, and a key left out takes the field's default.  Complex values
are written `a+bi` / `a-bi` (also plain `a` or `bi`), each number in ASCII
decimal digits with no blank, digit separator or bracket inside it; blanks
may stand only beside a sign and before the `i`.  Integers are ASCII digits
with an optional sign.  Unknown sections,
unknown keys, duplicate keys, and malformed values are all hard errors --
nothing is computed from a config that does not parse cleanly.
"""
from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, fields, replace
from typing import Optional

from .errors import ConfigError
from .grids import Grid, ScanAxis
from .hierarchy import Mode
from .potentials import FAMILIES, PotentialModel
from .units import UnitSystem

# grid size when the config has no [grid] n_points
DEFAULT_POINTS = 4000


# a real number in ASCII decimal digits, as in 2, .5, 2.5e-3 or inf (which
# is then refused as not finite), with no blank, separator or bracket inside it
_REAL = r"(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|(?i:inf(?:inity)?|nan))"
# numbers and signs and a last i, with blanks only beside a sign or before the
# i; of these, complex() takes only the forms `a`, `bi`, `a+bi` and `a-bi`
_COMPLEX_LITERAL = re.compile(rf"[+-]?\s*{_REAL}?(?:\s*[+-]\s*{_REAL}?)?\s*i?", re.ASCII)
_INT_LITERAL = re.compile(r"[+-]?\d+", re.ASCII)


def parse_complex_literal(text: str, where: str = "value") -> complex:
    """Parse `a+bi` / `a-bi` / `a` / `bi` into a finite complex number."""
    s = text.strip()
    if not s:
        raise ConfigError(f"{where}: empty value")
    if "j" in s or "J" in s:
        raise ConfigError(f"{where}: imaginary unit is written 'i', got {text!r}")
    s = "".join(s.split()) if _COMPLEX_LITERAL.fullmatch(s) else ""
    if s.endswith("i"):
        s = s[:-1] + "j"
    try:
        z = complex(s)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {text!r} as a number") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ConfigError(f"{where}: value must be finite, got {text!r}")
    return z


def _parse_real(text: str, where: str) -> float:
    z = parse_complex_literal(text, where)
    if z.imag != 0.0:
        raise ConfigError(f"{where}: expected a real number, got {text!r}")
    return float(z.real)


def _parse_int(text: str, where: str) -> int:
    if not _INT_LITERAL.fullmatch(text.strip()):
        raise ConfigError(f"{where}: expected an integer, got {text!r}")
    return int(text)


def _parse_mode(text: str, where: str) -> Mode:
    try:
        return Mode(text.replace("-", "_"))
    except ValueError:
        section, key = where.split(" ", 1)
        raise ConfigError(f"{section}: {key} must be "
                          f"{' or '.join(m.value for m in Mode)}, got {text!r}") from None


# a section's keys are the fields of the class it builds, and a field's
# annotation picks the parser of its value (a str is kept as written); [run]
# also sets `<axis>_<field>` for each scan axis and each field of ScanAxis
_PARSERS = {"complex": parse_complex_literal, "float": _parse_real, "int": _parse_int,
            "str": lambda text, where: text, "Mode": _parse_mode}


@dataclass(frozen=True)
class RunConfig:
    model: PotentialModel
    grid: Grid
    units: UnitSystem
    grid_given: bool
    mode: Mode = Mode.PAPER_LITERAL
    l: int = 0
    l_max: int = 0
    n_max: int = 8
    tol_abs: float = 1e-3
    tol_imag: float = 1e-6
    scan1: Optional[ScanAxis] = None
    scan2: Optional[ScanAxis] = None


# built once, at import: a parse that called fields() would pay for it per config
_GRID_KINDS, _UNITS_KINDS, _RUN_KINDS, _SCAN_KINDS = (
    {f.name: f.type for f in fields(cls) if f.type in _PARSERS}
    for cls in (Grid, UnitSystem, RunConfig, ScanAxis))
_AXES = {f.name: [f"{f.name}_{key}" for key in _SCAN_KINDS]
         for f in fields(RunConfig) if f.type == "Optional[ScanAxis]"}
_RUN_KINDS.update((f"{axis}_{key}", kind) for axis in _AXES for key, kind in _SCAN_KINDS.items())


def default_grid(model: PotentialModel) -> Grid:
    """Family-appropriate evaluation window when the config has no [grid]."""
    return Grid(*model.window, DEFAULT_POINTS)


def _raw_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # no value contains '#' or ';', so either one ends the line's content
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in ("model", "grid", "units", "run"):
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = value
    return sections


def _build_model(items: dict[str, str]) -> PotentialModel:
    if "family" not in items:
        raise ConfigError("[model]: missing required key 'family'")
    family = items["family"]
    if family not in FAMILIES:
        raise ConfigError(f"[model]: unknown family {family!r} "
                          f"(choose from {', '.join(sorted(FAMILIES))})")
    # a field with a default may be left out
    allowed = {f.name: f for f in fields(FAMILIES[family])}
    kwargs = {}
    for key, value in items.items():
        if key == "family":
            continue
        if key not in allowed:
            raise ConfigError(f"[model]: key {key!r} is not valid for family {family!r}")
        where = f"[model] {key}"
        kwargs[key] = _PARSERS[allowed[key].type](value, where)
    missing = {k for k, f in allowed.items() if f.default is MISSING} - set(kwargs)
    if missing:
        raise ConfigError(f"[model]: family {family!r} requires "
                          f"{', '.join(sorted(missing))}")
    return FAMILIES[family](**kwargs)


def _field_values(section: str, items: dict[str, str], kinds: dict[str, str]) -> dict:
    """The keys of `kinds` that the section sets, parsed; any other key is an error."""
    for key in items:
        if key not in kinds:
            raise ConfigError(f"[{section}]: unknown key {key!r}")
    return {key: _PARSERS[kind](items[key], f"[{section}] {key}")
            for key, kind in kinds.items() if key in items}


def _scan_axis(run: dict, keys: list[str]) -> Optional[ScanAxis]:
    """The axis that `keys` set in the parsed [run] values, which it takes out of `run`."""
    missing = [key for key in keys if key not in run]
    if len(missing) == len(keys):
        return None
    if missing:
        raise ConfigError(f"[run]: incomplete scan axis, missing {', '.join(missing)}")
    values = [run.pop(key) for key in keys]
    try:
        return ScanAxis(*values)
    except ValueError as exc:  # ScanAxis invariant violations
        raise ConfigError(f"[run]: {exc}") from None


def parse_config(text: str) -> RunConfig:
    sections = _raw_sections(text)
    if "model" not in sections:
        raise ConfigError("config must contain a [model] section")
    model = _build_model(sections["model"])

    grid_items = sections.get("grid", {})
    grid = replace(default_grid(model), **_field_values("grid", grid_items, _GRID_KINDS))
    units = UnitSystem(**_field_values("units", sections.get("units", {}), _UNITS_KINDS))

    run = _field_values("run", sections.get("run", {}), _RUN_KINDS)
    axes = {axis: _scan_axis(run, keys) for axis, keys in _AXES.items()}
    cfg = RunConfig(model=model, grid=grid, units=units, grid_given="n_points" in grid_items,
                    **run, **axes)
    if cfg.l < 0 or cfg.l_max < 0 or cfg.n_max < 0:
        raise ConfigError("[run]: l, l_max and n_max must be non-negative")
    if cfg.tol_abs <= 0 or cfg.tol_imag <= 0:
        raise ConfigError("[run]: tolerances must be positive")
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)
