"""Line-oriented config files: `key = value` with [section] headers.

Grammar (documented in data/FORMATS.md): blank lines and '#' comments
are ignored; a line is either `[section]` or `key = value`. Section
headers are organisational only; keys must be unique across the whole
file and are validated against a whitelist. Unknown keys are errors,
not warnings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ..errors import ConfigError
from ..linkbudget import RadioConfig

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


def parse_kv_lines(
    text: str, name: str, error_cls: type[Exception] = ConfigError
) -> dict[str, tuple[str, int]]:
    """Parse `key = value` lines, flattening sections into one namespace."""
    sections = parse_sections(text, name, error_cls)
    out: dict[str, tuple[str, int]] = {}
    for keys in sections.values():
        for key, (value, lineno) in keys.items():
            if key in out:
                raise error_cls(f"{name}:{lineno}: duplicate key {key!r}")
            out[key] = (value, lineno)
    return out


def parse_float(value: str, key: str, name: str, lineno: int) -> float:
    try:
        result = float(value)
    except ValueError:
        raise ConfigError(f"{name}:{lineno}: {key} must be a number, got {value!r}") from None
    if not math.isfinite(result):
        raise ConfigError(f"{name}:{lineno}: {key} must be finite, got {value!r}")
    return result


@dataclass(frozen=True)
class ResolvedParams:
    """A config file with defaults applied."""

    tx_power_dbm: float
    g_tx_dbi: float = RadioConfig.g_tx_dbi
    g_rx_dbi: float | None = None
    g_over_t_dbi_per_k: float | None = None
    noise_temperature_k: float | None = None
    bandwidth_hz: float | None = None  # None = Auto
    excess_mode: str = DEFAULT_EXCESS_MODE
    seed: int | None = None


_FLOAT_KEYS = {
    "tx_power_dbm",
    "g_tx_dbi",
    "g_rx_dbi",
    "g_over_t_dbi_per_k",
    "noise_temperature_k",
}
CONFIG_KEYS = _FLOAT_KEYS | {"bandwidth_hz", "excess_mode", "seed"}


def resolve_params(kv: dict[str, tuple[str, int]], name: str) -> ResolvedParams:
    """Validate parsed key/value pairs and apply defaults."""
    values: dict[str, object] = {}
    for key, (value, lineno) in kv.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{name}:{lineno}: unknown key {key!r}")
        if key in _FLOAT_KEYS:
            values[key] = parse_float(value, key, name, lineno)
        elif key == "bandwidth_hz":
            values[key] = None if value.lower() == "auto" else parse_float(
                value, key, name, lineno
            )
        elif key == "excess_mode":
            mode = value.lower()
            if mode not in ("expected", "sampled"):
                raise ConfigError(
                    f"{name}:{lineno}: excess_mode must be 'expected' or "
                    f"'sampled', got {value!r}"
                )
            values[key] = mode
        elif key == "seed":
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(
                    f"{name}:{lineno}: seed must be an integer, got {value!r}"
                ) from None
    if "tx_power_dbm" not in values:
        raise ConfigError(f"{name}: missing required key 'tx_power_dbm'")
    return ResolvedParams(**values)  # type: ignore[arg-type]


def load_config(path: str | Path) -> ResolvedParams:
    """Load and resolve a config file from disk."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return resolve_params(parse_kv_lines(text, p.name), p.name)


def load_fig_defaults() -> ResolvedParams:
    """The packaged fig-defaults calibration fixture used by the presets."""
    text = (resources.files("ntnsim") / "data" / "fig_defaults.cfg").read_text(
        encoding="utf-8"
    )
    return resolve_params(parse_kv_lines(text, "fig_defaults.cfg"), "fig_defaults.cfg")

