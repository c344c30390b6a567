"""Command-line interface.

    ntnsim link   --alt 600 --elev 30 --fc 20 --scenario dense_urban \
                  --got 15.9 --txpow 18
    ntnsim chain  --hop 1200:10 --hop 20:10 --mode af --fc 20 \
                  --scenario dense_urban --got 15.9 --txpow 18
    ntnsim sweep  --spec my_sweep.cfg --out rows.csv
    ntnsim preset --name fig3 --out fig3.csv

All commands emit CSV (see emit_csv) to --out or stdout. Exit codes:
0 success, 1 usage error, 2 data/table error, 3 spec error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..channel import load_atmosphere_table, load_scenario_table
from ..errors import (
    ChainError,
    ConfigError,
    NtnSimError,
    PresetError,
    SpecError,
    TableDomainError,
    TableFormatError,
)
from ..geometry import LinkGeometry, classify_station
from ..linkbudget import LinkResult, RadioConfig, evaluate_link
from ..relay import RelayChain, RelayHop, evaluate_chain
from .config import PARAMETERS, finite_number, load_fig_defaults
from .presets import PRESET_NAMES, preset
from .sweep import (
    EXTRA_COLUMNS,
    METRIC_COLUMNS,
    SweepResult,
    SweepRows,
    emit_csv,
    load_sweep_spec,
    result_record,
    run_sweep,
)

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
        raise SystemExit_(EXIT_USAGE, f"{self.prog}: error: {message}")


class SystemExit_(Exception):
    def __init__(self, code: int, message: str = ""):
        super().__init__(message)
        self.code = code
        self.message = message


def _flag(key: str):
    """argparse type of a flag: the parameter table's parser for key."""

    def flag_type(text: str):
        try:
            return PARAMETERS[key](text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return flag_type


def _add_common(parser: argparse.ArgumentParser, seeded: bool = True) -> None:
    parser.add_argument("--tables", metavar="DIR", help="directory with table files")
    parser.add_argument("--out", metavar="FILE", help="output file (default stdout)")
    if seeded:
        parser.add_argument("--seed", type=_flag("seed"), help="seed for sampled excess mode")


def _add_radio_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fc", type=_flag("fc_ghz"), required=True, help="carrier (GHz)")
    parser.add_argument(
        "--scenario", type=_flag("scenario"), default="dense_urban", help="ground scenario"
    )
    parser.add_argument("--txpow", type=_flag("tx_power_dbm"), help="transmit power (dBm)")
    parser.add_argument("--gtx", type=_flag("g_tx_dbi"), help="transmit gain (dBi)")
    gain = parser.add_mutually_exclusive_group()
    gain.add_argument("--grx", type=_flag("g_rx_dbi"), help="receive gain (dBi)")
    gain.add_argument("--got", type=_flag("g_over_t_dbi_per_k"), help="receive G/T (dBi/K)")
    parser.add_argument(
        "--temp", type=_flag("noise_temperature_k"), help="system noise temperature (K)"
    )
    parser.add_argument(
        "--bandwidth",
        type=_flag("bandwidth_hz"),
        help="bandwidth in Hz, or 'auto' (default)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ntnsim", description="Link-budget simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    link = sub.add_parser("link", help="evaluate one ground-to-station link")
    link.add_argument(
        "--alt", type=_flag("altitude_km"), required=True, help="station altitude (km)"
    )
    link.add_argument(
        "--elev", type=_flag("elevation_deg"), required=True, help="elevation (deg)"
    )
    _add_radio_flags(link)
    _add_common(link)

    chain = sub.add_parser("chain", help="evaluate a relay chain")
    chain.add_argument(
        "--hop",
        action="append",
        required=True,
        metavar="ALT:ELEV",
        help="one hop: upper altitude (km) and elevation (deg) at its lower "
        "end; repeat top-down, the last hop descends to the ground",
    )
    chain.add_argument("--mode", type=_flag("relay_mode"), default="af", metavar="{af,df}")
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
    if args.tables:
        base = Path(args.tables)
        return (
            load_atmosphere_table(base / "atmosphere.tsv"),
            load_scenario_table(base / "scenario.tsv"),
        )
    return load_atmosphere_table(), load_scenario_table()


def _radio_from_args(args) -> RadioConfig:
    fx = load_fig_defaults()
    txpow = args.txpow if args.txpow is not None else fx["tx_power_dbm"]
    gtx = args.gtx if args.gtx is not None else fx["g_tx_dbi"]
    if args.grx is None and args.got is None:
        raise ConfigError("one of --grx or --got is required")
    temp = args.temp  # with --got, RadioConfig rejects it
    if temp is None and args.grx is not None:
        temp = fx["noise_temperature_k"]
    return RadioConfig(
        fc_ghz=args.fc,
        tx_power_dbm=txpow,
        g_tx_dbi=gtx,
        g_rx_dbi=args.grx,
        g_over_t_dbi_per_k=args.got,
        noise_temperature_k=temp,
        bandwidth_hz=args.bandwidth,
    )


def _emit_single(result: LinkResult, inputs: dict[str, object], args) -> None:
    axes = tuple((name, (value,)) for name, value in inputs.items())  # one point
    rows = SweepRows(axes, (result_record(result),))
    emit_csv(SweepResult(tuple(inputs) + _SINGLE_COLUMNS, rows), args.out or sys.stdout)


def _cmd_link(args) -> int:
    classify_station(args.alt)  # the altitude check run_sweep applies
    table, scenario_table = _tables(args)
    geometry = LinkGeometry.from_endpoints(0.0, args.alt, args.elev)
    radio = _radio_from_args(args)
    result = evaluate_link(
        geometry,
        radio,
        args.scenario,
        table,
        scenario_table=scenario_table,
        sampled_seed=args.seed,
    )
    inputs = {
        "altitude_km": args.alt,
        "elevation_deg": args.elev,
        "fc_ghz": args.fc,
        "scenario": args.scenario,
    }
    _emit_single(result, inputs, args)
    return EXIT_OK


def _parse_hops(specs: list[str], radio: RadioConfig) -> tuple[RelayHop, ...]:
    stations: list[tuple[float, float]] = []
    for spec in specs:
        try:
            alt, elev = (finite_number(part) for part in spec.split(":"))
        except ValueError:
            raise ChainError(
                f"--hop expects ALT:ELEV, two finite numbers, got {spec!r}"
            ) from None
        classify_station(alt)  # the altitude check run_sweep applies
        stations.append((alt, elev))
    hops = []
    for i, (alt, elev) in enumerate(stations):
        low = stations[i + 1][0] if i + 1 < len(stations) else 0.0
        hops.append(RelayHop(LinkGeometry.from_endpoints(low, alt, elev), radio))
    return tuple(hops)


def _cmd_chain(args) -> int:
    radio = _radio_from_args(args)
    hops = _parse_hops(args.hop, radio)
    table, scenario_table = _tables(args)
    chain = RelayChain(hops=hops, mode=args.mode, scenario=args.scenario)
    result = evaluate_chain(
        chain, table, scenario_table, sampled_seed=args.seed
    )
    inputs = {
        "hops": " ".join(args.hop),
        "mode": args.mode,
        "fc_ghz": args.fc,
        "scenario": args.scenario,
    }
    _emit_single(result, inputs, args)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    table, scenario_table = _tables(args)
    spec = load_sweep_spec(args.spec, seed=args.seed)
    emit_csv(run_sweep(spec, table, scenario_table), args.out or sys.stdout)
    return EXIT_OK


def _cmd_preset(args) -> int:
    table, scenario_table = _tables(args)
    emit_csv(run_sweep(preset(args.name), table, scenario_table), args.out or sys.stdout)
    return EXIT_OK


_COMMANDS = {
    "link": _cmd_link,
    "chain": _cmd_chain,
    "sweep": _cmd_sweep,
    "preset": _cmd_preset,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit_ as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
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
