"""Command-line interface.

    ntnsim link   --alt 600 --elev 30 --fc 20 --scenario dense_urban \
                  --got 15.9 --txpow 18
    ntnsim chain  --hop 1200:10 --hop 20:10 --mode af --fc 20 \
                  --scenario dense_urban --got 15.9 --txpow 18
    ntnsim sweep  --spec my_sweep.cfg --out rows.csv
    ntnsim preset --name fig3 --out fig3.csv

Each flag that takes a parameter stores it under the parameter's key
in config.PARAMETERS (--fc as fc_ghz), typed by that key's parser. All
commands emit CSV (see emit_csv) to --out or stdout. Exit codes:
0 success, 1 usage error, 2 data/table error, 3 spec error.
"""

import argparse
import sys
from functools import cache
from pathlib import Path

from ..channel import load_atmosphere_table, load_scenario_table
from ..errors import (
    ConfigError,
    NtnSimError,
    PresetError,
    SpecError,
    TableDomainError,
    TableFormatError,
)
from ..geometry import echo, finite_number
from ..linkbudget import RadioConfig
from ..relay import RelayMode, _build_chain, evaluate_chain
from .config import PARAMETERS, PRESET_NAMES, load_fig_defaults
from .rows import EXTRA_COLUMNS, METRIC_COLUMNS, SweepResult, SweepRows, emit_csv, result_record

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SPEC = 3

# Columns after the inputs in the one-row output of link and chain.
_SINGLE_COLUMNS = METRIC_COLUMNS + tuple(c for c in EXTRA_COLUMNS if c != "error")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_(f"{self.prog}: error: {message}")


class SystemExit_(Exception):
    """A usage error; its text is argparse's error line."""


def _param(parser, flag: str, key: str, help: str | None, **kwargs) -> None:
    """Add flag, stored under its parameter key and typed by the key's parser."""

    def flag_type(text: str):
        try:
            return PARAMETERS[key](text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    kwargs.setdefault("metavar", flag[2:].upper())  # not the one argparse derives from key
    parser.add_argument(flag, dest=key, type=flag_type, help=help, **kwargs)


def _hop(text: str) -> tuple[str, float, float]:
    """--hop's ALT:ELEV: the text as typed, its altitude and its elevation."""
    try:
        altitude, elevation = map(finite_number, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected ALT:ELEV, two finite numbers, got {echo(text)}"
        ) from None
    return text, altitude, elevation


def _path(text: str) -> Path:
    if not text:  # Path("") would name the working directory
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return Path(text)


def _add_common(parser: argparse.ArgumentParser, seeded: bool = True) -> None:
    parser.add_argument("--tables", type=_path, metavar="DIR", help="directory with table files")
    parser.add_argument("--out", type=_path, metavar="FILE", help="output file (default stdout)")
    if seeded:
        _param(parser, "--seed", "seed", "seed for sampled excess mode")


def _add_radio_flags(parser: argparse.ArgumentParser) -> None:
    _param(parser, "--fc", "fc_ghz", "carrier (GHz)", required=True)
    _param(parser, "--scenario", "scenario", "ground scenario", default="dense_urban")
    _param(parser, "--txpow", "tx_power_dbm", "transmit power (dBm)")
    _param(parser, "--gtx", "g_tx_dbi", "transmit gain (dBi)")
    gain = parser.add_mutually_exclusive_group()
    _param(gain, "--grx", "g_rx_dbi", "receive gain (dBi)")
    _param(gain, "--got", "g_over_t_dbi_per_k", "receive G/T (dBi/K)")
    _param(parser, "--temp", "noise_temperature_k", "system noise temperature (K)")
    _param(parser, "--bandwidth", "bandwidth_hz", "bandwidth in Hz, or 'auto' (default)")


@cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ntnsim", description="Link-budget simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    link = sub.add_parser("link", help="evaluate one ground-to-station link")
    _param(link, "--alt", "altitude_km", "station altitude (km)", required=True)
    _param(link, "--elev", "elevation_deg", "elevation (deg)", required=True)
    _add_radio_flags(link)
    _add_common(link)

    chain = sub.add_parser("chain", help="evaluate a relay chain")
    chain.add_argument(
        "--hop",
        action="append",
        required=True,
        type=_hop,
        metavar="ALT:ELEV",
        help="one hop: upper altitude (km) and elevation (deg) at its lower "
        "end; repeat top-down, the last hop descends to the ground",
    )
    _param(chain, "--mode", "relay_mode", None, default="af", metavar="{af,df}")
    _add_radio_flags(chain)
    _add_common(chain)

    sweep = sub.add_parser("sweep", help="run a sweep spec file")
    sweep.add_argument("--spec", required=True, metavar="FILE")
    _add_common(sweep)

    pre = sub.add_parser("preset", help="run a built-in figure preset")
    pre.add_argument("--name", required=True, help="|".join(PRESET_NAMES))
    _add_common(pre, seeded=False)

    return parser


def _tables(args):
    if args.tables is None:
        return load_atmosphere_table(), load_scenario_table()
    return (load_atmosphere_table(args.tables / "atmosphere.tsv"),
            load_scenario_table(args.tables / "scenario.tsv"))


def _radio_from_args(args) -> RadioConfig:
    """The RadioConfig fields the flags gave, over the fig-defaults fixture."""
    radio = load_fig_defaults()
    if args.g_rx_dbi is None:
        if args.g_over_t_dbi_per_k is None:
            raise ConfigError("one of --grx or --got is required")
        del radio["noise_temperature_k"]  # the fixture's applies to the g_rx_dbi form only
    flags = vars(args)
    radio.update((key, flags[key]) for key in RadioConfig._fields if flags[key] is not None)
    return RadioConfig(**radio)


def _cmd_chain(args) -> SweepResult:
    """link and chain: the chain down from the command's stations, as one row.

    The row holds the command's inputs, fc_ghz and scenario, then the
    result's columns. link is a one-hop chain, which evaluate_chain
    evaluates as evaluate_link does (and whose relay mode nothing reads).
    """
    table, scenario_table = _tables(args)
    radio = _radio_from_args(args)
    if args.command == "link":
        stations, mode = [(args.altitude_km, args.elevation_deg)], RelayMode.AMPLIFY_FORWARD
        inputs = {"altitude_km": args.altitude_km, "elevation_deg": args.elevation_deg}
    else:
        stations, mode = [(alt, elev) for _, alt, elev in args.hop], args.relay_mode
        inputs = {"hops": " ".join(text for text, _, _ in args.hop), "mode": mode}
    chain = _build_chain(stations, radio, mode, args.scenario)
    result = evaluate_chain(chain, table, scenario_table, sampled_seed=args.seed)
    inputs.update(fc_ghz=args.fc_ghz, scenario=args.scenario)
    axes = tuple((name, (value,)) for name, value in inputs.items())  # one point
    return SweepResult(tuple(inputs) + _SINGLE_COLUMNS, SweepRows(axes, (result_record(result),)))


def _cmd_sweep(args) -> SweepResult:
    """sweep and preset: run the spec file's or the preset's spec."""
    from .presets import preset  # the sweep engine, imported by the commands that run it
    from .sweep import load_sweep_spec, run_sweep
    table, scenario_table = _tables(args)
    if args.command == "sweep":
        spec = load_sweep_spec(args.spec, seed=args.seed)
    else:
        spec = preset(args.name)
    return run_sweep(spec, table, scenario_table)


_COMMANDS = {"link": _cmd_chain, "chain": _cmd_chain, "sweep": _cmd_sweep, "preset": _cmd_sweep}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        emit_csv(_COMMANDS[args.command](args), sys.stdout if args.out is None else args.out)
        return EXIT_OK
    except SystemExit_ as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except (TableFormatError, TableDomainError) as exc:
        print(f"ntnsim: table error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"ntnsim: i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SpecError, PresetError) as exc:
        print(f"ntnsim: spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except NtnSimError as exc:
        print(f"ntnsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
