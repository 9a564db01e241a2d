"""Strict line-oriented run configuration.

Grammar: `[section]` headers followed by `key = value` lines; `#` or `;`
starts a comment, on a line of its own or after a header or value; blank
lines are ignored.  Sections are `[model]`, `[grid]`, `[units]`, `[run]`.
Complex values are written `a+bi` / `a-bi` (also plain `a` or `bi`).  Unknown
sections, unknown keys, duplicate keys, and malformed values are all hard
errors -- nothing is computed from a config that does not parse cleanly.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from typing import Container, Optional

from .errors import ConfigError
from .grids import Grid, ScanAxis
from .hierarchy import Mode
from .potentials import FAMILIES, PotentialModel
from .units import UnitSystem

_SCAN_FIELDS = ("param", "component", "start", "stop", "count")
_RUN_KEYS = ({"mode", "l", "l_max", "n_max", "tol_abs", "tol_imag", "workers"}
             | {f"scan{i}_{f}" for i in (1, 2) for f in _SCAN_FIELDS})

_MODES = {m.value: m for m in Mode}
# grid size when the config has no [grid] n_points
DEFAULT_POINTS = 4000


def parse_complex_literal(text: str, where: str = "value") -> complex:
    """Parse `a+bi` / `a-bi` / `a` / `bi` into a finite complex number."""
    s = "".join(text.split())
    if not s:
        raise ConfigError(f"{where}: empty value")
    if "j" in s or "J" in s:
        raise ConfigError(f"{where}: imaginary unit is written 'i', got {text!r}")
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
    try:
        return int(text.strip(), 10)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {text!r}") from None


# [model], [grid] and [units] keys are the fields of the class they build;
# a field's annotation picks the parser of its value
_PARSERS = {"complex": parse_complex_literal, "float": _parse_real, "int": _parse_int}


@dataclass(frozen=True)
class RunConfig:
    model: PotentialModel
    grid: Grid
    units: UnitSystem
    mode: Mode
    l: int
    l_max: int
    n_max: int
    tol_abs: float
    tol_imag: float
    workers: int
    scan1: Optional[ScanAxis]
    scan2: Optional[ScanAxis]
    grid_given: bool


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


def _check_keys(section: str, items: dict[str, str], allowed: Container[str]):
    for key in items:
        if key not in allowed:
            raise ConfigError(f"[{section}]: unknown key {key!r}")


def _field_values(section: str, items: dict[str, str], cls) -> dict:
    """The fields of dataclass `cls` that the section sets, parsed."""
    kinds = {f.name: f.type for f in fields(cls)}
    _check_keys(section, items, kinds)
    return {key: _PARSERS[kind](items[key], f"[{section}] {key}")
            for key, kind in kinds.items() if key in items}


def _scan_axis(items: dict[str, str], prefix: str) -> Optional[ScanAxis]:
    present = [f for f in _SCAN_FIELDS if f"{prefix}_{f}" in items]
    if not present:
        return None
    missing = [f"{prefix}_{f}" for f in _SCAN_FIELDS if f"{prefix}_{f}" not in items]
    if missing:
        raise ConfigError(f"[run]: incomplete scan axis, missing {', '.join(missing)}")
    return ScanAxis(param=items[f"{prefix}_param"],
                    component=items[f"{prefix}_component"],
                    start=_parse_real(items[f"{prefix}_start"], f"[run] {prefix}_start"),
                    stop=_parse_real(items[f"{prefix}_stop"], f"[run] {prefix}_stop"),
                    count=_parse_int(items[f"{prefix}_count"], f"[run] {prefix}_count"))


def parse_config(text: str) -> RunConfig:
    sections = _raw_sections(text)
    if "model" not in sections:
        raise ConfigError("config must contain a [model] section")
    model = _build_model(sections["model"])

    grid_items = sections.get("grid", {})
    grid = replace(default_grid(model), **_field_values("grid", grid_items, Grid))
    units = UnitSystem(**_field_values("units", sections.get("units", {}), UnitSystem))

    run_items = sections.get("run", {})
    _check_keys("run", run_items, _RUN_KEYS)
    mode_token = run_items.get("mode", "paper_literal").replace("-", "_")
    if mode_token not in _MODES:
        raise ConfigError(f"[run]: mode must be {' or '.join(_MODES)}, "
                          f"got {run_items.get('mode')!r}")

    def run_int(key, default):
        return _parse_int(run_items[key], f"[run] {key}") if key in run_items else default

    def run_real(key, default):
        return _parse_real(run_items[key], f"[run] {key}") if key in run_items else default

    l = run_int("l", 0)
    l_max = run_int("l_max", 0)
    n_max = run_int("n_max", 8)
    workers = run_int("workers", 1)
    if l < 0 or l_max < 0 or n_max < 0:
        raise ConfigError("[run]: l, l_max and n_max must be non-negative")
    if workers < 1:
        raise ConfigError("[run]: workers must be >= 1")
    tol_abs = run_real("tol_abs", 1e-3)
    tol_imag = run_real("tol_imag", 1e-6)
    if tol_abs <= 0 or tol_imag <= 0:
        raise ConfigError("[run]: tolerances must be positive")

    try:
        scan1 = _scan_axis(run_items, "scan1")
        scan2 = _scan_axis(run_items, "scan2")
    except ConfigError:
        raise
    except ValueError as exc:  # ScanAxis invariant violations
        raise ConfigError(f"[run]: {exc}") from None

    return RunConfig(model=model, grid=grid, units=units, mode=_MODES[mode_token],
                     l=l, l_max=l_max, n_max=n_max, tol_abs=tol_abs,
                     tol_imag=tol_imag, workers=workers, scan1=scan1, scan2=scan2,
                     grid_given="n_points" in grid_items)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)
