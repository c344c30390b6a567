"""The `key = value` grammar, its value parsers, the fig-defaults fixture, preset names.

Grammar (documented in data/FORMATS.md): blank lines and '#' comments
are ignored; a line is either `[section]` or `key = value`. Sweep specs
and the packaged fig-defaults fixture are read through parse_sections;
PARAMETERS checks and types every value, there as for CLI flags.
"""

import sys

from ..channel import Scenario, _data_text
from ..errors import ConfigError
from ..geometry import echo, finite_number
from ..linkbudget import RadioConfig
from ..relay import RelayMode


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
            raise error_cls(f"{name}:{lineno}: expected 'key = value', got {echo(raw)}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise error_cls(f"{name}:{lineno}: empty key or value in {echo(raw)}")
        if key in out[section]:
            raise error_cls(f"{name}:{lineno}: duplicate key {echo(key)}")
        out[section][key] = (value, lineno)
    return out


def _auto_or_number(value: object) -> float | None:
    if value is None or str(value).strip().lower() == "auto":
        return None  # Auto
    return finite_number(value)


def _integer(value: object) -> int:
    try:
        return int(str(value))  # through str, so that 2.5 is not truncated
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if type(value) is int or 0 < limit < len(str(value)):  # too long to convert or echo
            raise ValueError(f"expected an integer of at most {limit} digits, "
                             "got a longer one") from None
        raise ValueError(f"expected an integer, got {echo(value)}") from None


def _word(*choices: str):
    def parse(value: object) -> str:
        word = str(value).strip().lower()
        if word not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {echo(value)}")
        return word

    return parse


_relay_word = _word(*(mode.value for mode in RelayMode))

# Every parameter of sweep specs, the fixture and CLI flags, with the
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


# presets.py's figure presets, named here for the CLI's parser, which imports no sweep engine
PRESET_NAMES = ("fig2", "fig3", "fig4")

# The fixture's keys, all required, all in its [radio] section.
_FIG_DEFAULT_KEYS = ("tx_power_dbm", "g_tx_dbi", "noise_temperature_k")


def load_fig_defaults() -> dict[str, float]:
    """The packaged fig-defaults calibration fixture used by the presets and the CLI."""
    name = "fig_defaults.cfg"
    values: dict[str, float] = {}
    for section, keys in parse_sections(_data_text(name), name).items():
        for key, (value, lineno) in keys.items():
            where = f"{name}:{lineno}: "
            if section != "radio" or key not in _FIG_DEFAULT_KEYS:
                raise ConfigError(f"{where}unknown key {key!r}; [radio] takes {_FIG_DEFAULT_KEYS}")
            values[key] = parse_value(key, value, ConfigError, where)
    for key in _FIG_DEFAULT_KEYS:
        if key not in values:
            raise ConfigError(f"{name}: missing required key {key!r}")
    return values
