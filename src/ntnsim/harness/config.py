"""Line-oriented config files: `key = value` with [section] headers.

Grammar (documented in data/FORMATS.md): blank lines and '#' comments
are ignored; a line is either `[section]` or `key = value`. Section
headers are organisational only; keys must be unique across the whole
file and are validated against a whitelist. Unknown keys are errors,
not warnings. PARAMETERS checks and types every value, here as in sweep
specs and CLI flags.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from ..channel import Scenario, _data_text
from ..errors import ConfigError
from ..linkbudget import DEFAULT_G_TX_DBI, RadioConfig
from ..relay import RelayMode

DEFAULT_EXCESS_MODE = "expected"


def parse_sections(
    text: str, name: str, error_cls: type[Exception] = ConfigError
) -> dict[str, dict[str, tuple[str, int]]]:
    """Parse sectioned `key = value` text.

    Returns {section: {key: (value, line_number)}}; keys before any
    section header land in section "". Keys must be unique within a
    section.
    """
    out: dict[str, dict[str, tuple[str, int]]] = {"": {}}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise error_cls(f"{name}:{lineno}: empty section header")
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise error_cls(f"{name}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise error_cls(f"{name}:{lineno}: empty key or value in {raw!r}")
        if key in out[section]:
            raise error_cls(f"{name}:{lineno}: duplicate key {key!r}")
        out[section][key] = (value, lineno)
    return out


def parse_kv_lines(text: str, name: str) -> dict[str, tuple[str, int]]:
    """Parse `key = value` lines, flattening sections into one namespace."""
    sections = parse_sections(text, name)
    out: dict[str, tuple[str, int]] = {}
    for keys in sections.values():
        for key, (value, lineno) in keys.items():
            if key in out:
                raise ConfigError(f"{name}:{lineno}: duplicate key {key!r}")
            out[key] = (value, lineno)
    return out


def finite_number(value: object) -> float:
    """A finite float from text or a number; ValueError otherwise."""
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _auto_or_number(value: object) -> float | None:
    if value is None or str(value).strip().lower() == "auto":
        return None  # Auto
    return finite_number(value)


def _integer(value: object) -> int:
    try:
        return int(str(value))  # through str, so that 2.5 is not truncated
    except ValueError:
        raise ValueError(f"expected an integer, got {value!r}") from None


def _word(*choices: str):
    def parse(value: object) -> str:
        word = str(value).strip().lower()
        if word not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
        return word

    return parse


_relay_word = _word(*(mode.value for mode in RelayMode))

# Every parameter of config files, sweep specs and CLI flags, with the
# parser that checks and types its value; a parser raises ValueError.
PARAMETERS = {
    **dict.fromkeys(("altitude_km", "elevation_deg", "hap_altitude_km"), finite_number),
    **dict.fromkeys(RadioConfig._fields, finite_number),
    "bandwidth_hz": _auto_or_number,  # in place of the RadioConfig entry
    "scenario": lambda v: v if isinstance(v, Scenario) else Scenario.from_name(str(v)),
    "mode": _word("direct", "relay"),
    "relay_mode": lambda v: v if isinstance(v, RelayMode) else RelayMode(_relay_word(v)),
    "excess_mode": _word("expected", "sampled"),
    "seed": _integer,
}


def parse_value(key: str, value: object, error_cls: type, where: str = "") -> object:
    """Check and type one value of a known key; where prefixes the error."""
    try:
        return PARAMETERS[key](value)
    except ValueError as exc:
        raise error_cls(f"{where}{key}: {exc}") from None


class ResolvedParams(NamedTuple):
    """A config file with defaults applied."""

    tx_power_dbm: float
    g_tx_dbi: float = DEFAULT_G_TX_DBI
    g_rx_dbi: float | None = None
    g_over_t_dbi_per_k: float | None = None
    noise_temperature_k: float | None = None
    bandwidth_hz: float | None = None  # None = Auto
    excess_mode: str = DEFAULT_EXCESS_MODE
    seed: int | None = None


_CONFIG_KEYS = frozenset(ResolvedParams._fields)


def resolve_params(kv: dict[str, tuple[str, int]], name: str) -> ResolvedParams:
    """Validate parsed key/value pairs and apply defaults."""
    values: dict[str, object] = {}
    for key, (value, lineno) in kv.items():
        where = f"{name}:{lineno}: "
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{where}unknown key {key!r}")
        values[key] = parse_value(key, value, ConfigError, where)
    if "tx_power_dbm" not in values:
        raise ConfigError(f"{name}: missing required key 'tx_power_dbm'")
    return ResolvedParams(**values)  # type: ignore[arg-type]


def load_config(path: str | Path) -> ResolvedParams:
    """Load and resolve a config file from disk."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return resolve_params(parse_kv_lines(text, p.name), p.name)


def load_fig_defaults() -> ResolvedParams:
    """The packaged fig-defaults calibration fixture used by the presets."""
    text = _data_text("fig_defaults.cfg")
    return resolve_params(parse_kv_lines(text, "fig_defaults.cfg"), "fig_defaults.cfg")

