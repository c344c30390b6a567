"""Cartesian parameter sweeps with deterministic CSV emission.

Row order is the product of the axes in declaration order (first axis
slowest). A grid point that fails to evaluate produces a row whose
metric columns are empty and whose `error` column carries the reason;
the sweep continues.

run_sweep builds one plan per spec: each stage runs once per distinct
input, through the scalar functions evaluate_link and evaluate_chain
use (classify_station per altitude, the HAP's included; one resolved
RadioConfig and FSPL's carrier term per carrier and receive gain; the
slant range and FSPL's range term per hop; gas and scintillation per
carrier, elevation and atmosphere fraction; the scenario cell and its
expected clutter per scenario and elevation). A point is
point(*resolve(...), index): resolve looks up its stage values in the
scalar path's check order, and point does its float work in the scalar
path's order (FSPL, the stage checks and total, SNR, capacity, the AF/DF
fold, the sampled clutter draw) and returns a record of its values (see
SweepRows), which emit_csv formats, as it does link's and chain's one
record (result_record). Points run a prefix at a time (see _records),
and a prefix with a failing point is redone point by point, so every
row, error message included, equals evaluate_link's or evaluate_chain's
for that point alone, with sampled_index its row index.

Sampled clutter gives every point its own stream: the point at row
index i of a sweep with seed s draws from blake2b(b"<s>:<i>") (see
channel.ScenarioRow.sampled_db). Streams of distinct seeds and of
distinct points are unrelated, and a single link or chain with
sampled_seed s draws the stream of row 0.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from collections.abc import Sequence
from functools import cache
from itertools import count, product, repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from ..channel import (
    SAMPLED_STREAMS,
    AtmosphereTable,
    ScenarioTable,
    default_atmosphere_fraction,
    fspl_carrier_db,
    fspl_db,
    fspl_range_db,
    gas_attenuation_db,
    load_scenario_table,
    scintillation_db,
    stage_total_db,
)
from ..errors import ConfigError, NtnSimError, SpecError
from ..geometry import classify_station, slant_range_km
from ..linkbudget import LinkResult, RadioConfig, shannon_capacity_bps, snr_sum_db
from ..relay import RelayMode, af_chain_snr_db, chain_label, df_bottleneck
from .config import DEFAULT_EXCESS_MODE, PARAMETERS, parse_sections, parse_value

AXIS_NAMES = ("altitude_km", "fc_ghz", "elevation_deg", "g_rx_dbi", "scenario", "mode")

METRIC_COLUMNS = (
    "fspl_db",
    "gas_db",
    "scintillation_db",
    "excess_db",
    "total_db",
    "snr_db",
    "capacity_bps",
)
# Columns a schema may request beyond axes and metrics.
EXTRA_COLUMNS = ("slant_range_km", "bandwidth_hz", "label", "error")
# Metric and extra columns of an evaluated point, in row order.
RESULT_COLUMNS = ("slant_range_km",) + METRIC_COLUMNS + EXTRA_COLUMNS[1:]

MODE_DIRECT = "direct"
MODE_RELAY = "relay"
# Fixed parameters a spec may leave out, as spec text.
_DEFAULTS = {"mode": MODE_DIRECT, "relay_mode": "af", "excess_mode": DEFAULT_EXCESS_MODE}


class SweepSpec(NamedTuple):
    """A parameter grid: swept axes, fixed parameters, output schema."""

    axes: tuple[tuple[str, tuple], ...]
    fixed: dict[str, object]
    output_schema: tuple[str, ...] = ()
    seed: int | None = None
    provenance: tuple[str, ...] = ()

    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def schema(self) -> tuple[str, ...]:
        if self.output_schema:
            return self.output_schema
        return self.axis_names() + METRIC_COLUMNS + ("error",)

    def grid_size(self) -> int:
        return math.prod(len(values) for _, values in self.axes)


def _fixed_radio(fixed: dict[str, object]) -> dict[str, object]:
    """A typed spec's fixed RadioConfig fields, but the two an axis may sweep."""
    return {k: fixed[k] for k in RadioConfig._fields if k in fixed and k not in AXIS_NAMES}


def _validate_spec(spec: SweepSpec) -> SweepSpec:
    """Check a spec; return it with its values typed through PARAMETERS.

    The fixed parameters of the typed spec include the defaults.
    """
    seen: set[str] = set()
    axes = []
    for name, values in spec.axes:
        if name not in AXIS_NAMES:
            raise SpecError(f"unknown axis {name!r}; axes may be {AXIS_NAMES}")
        if name in seen:
            raise SpecError(f"axis {name!r} declared twice")
        seen.add(name)
        if len(values) == 0:
            raise SpecError(f"axis {name!r} is empty")
        if name in spec.fixed:
            raise SpecError(f"{name!r} appears in both axes and fixed")
        axes.append((name, tuple(parse_value(name, v, SpecError) for v in values)))
    for key in spec.fixed:
        if key not in PARAMETERS or key == "seed":
            raise SpecError(f"unknown fixed parameter {key!r}")
    fixed = {
        key: parse_value(key, value, SpecError)
        for key, value in {**_DEFAULTS, **spec.fixed}.items()
    }
    seed = None if spec.seed is None else parse_value("seed", spec.seed, SpecError)

    def provided(key: str) -> bool:
        return key in seen or key in spec.fixed

    for required in ("altitude_km", "fc_ghz", "elevation_deg", "scenario"):
        if not provided(required):
            raise SpecError(f"parameter {required!r} missing from axes and fixed")
    if "tx_power_dbm" not in spec.fixed:
        raise SpecError("fixed parameter 'tx_power_dbm' is required")

    # RadioConfig's rules, with stand-ins for the fields an axis may sweep: those are
    # checked per point.
    g_rx = 0.0 if provided("g_rx_dbi") else None
    try:
        RadioConfig(**_fixed_radio(fixed), fc_ghz=1.0, g_rx_dbi=g_rx)
    except ConfigError as exc:
        raise SpecError(str(exc)) from None

    modes = dict(axes).get("mode", (fixed["mode"],))
    if MODE_RELAY in modes and "hap_altitude_km" not in spec.fixed:
        raise SpecError("relay mode requires fixed parameter 'hap_altitude_km'")
    if fixed["excess_mode"] == "sampled" and seed is None:
        raise SpecError("sampled excess mode requires a seed")

    known_metrics = set(METRIC_COLUMNS) | set(EXTRA_COLUMNS) | set(AXIS_NAMES)
    for col in spec.schema():
        if col not in known_metrics:
            raise SpecError(f"unknown output column {col!r}")
    return spec._replace(axes=tuple(axes), fixed=fixed, seed=seed)


class SweepResult(NamedTuple):
    """A sweep's output schema, rows and CSV provenance lines.

    rows is a SweepRows: one dict per grid point, its axis values, then
    RESULT_COLUMNS, or empty metrics and the error of a point that
    failed. emit_csv writes it from its records; tuple(result.rows) gives
    a tuple.
    """

    schema: tuple[str, ...]
    rows: SweepRows
    provenance: tuple[str, ...] = ()

    def error_rows(self) -> tuple[dict[str, object], ...]:
        return tuple(r for r in self.rows if r.get("error"))


class SweepRows(Sequence):
    """A result's rows: a read-only view over its per-point records.

    axes are the spec's axes as given (link's and chain's: their inputs,
    one value each, over result_record). A point's record holds its values
    of RESULT_COLUMNS, in that order; a failed point's are None but for
    an empty label and its error. Row i's axis values are decoded from i
    by mixed radix. Each row dict is built when read and never kept.
    """

    __slots__ = ("axes", "records", "columns")

    def __init__(self, axes: tuple[tuple[str, tuple], ...], records: tuple[tuple, ...]) -> None:
        self.axes, self.records = axes, records
        self.columns = tuple(name for name, _ in axes) + RESULT_COLUMNS

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        record, index, combo = self.records[index], index % len(self), ()
        for _, values in reversed(self.axes):  # last axis fastest
            index, digit = divmod(index, len(values))
            combo = (values[digit],) + combo
        return dict(zip(self.columns, combo + record))

    def __iter__(self):
        for combo, record in zip(product(*(v for _, v in self.axes)), self.records):
            yield dict(zip(self.columns, combo + record))


def _cell(value: object) -> str:
    """value's CSV cell: format_value's text, quoted as csv.writer quotes it."""
    text = format_value(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        csv.writer(buffer := io.StringIO(), lineterminator="\n").writerow((text, ""))
        return buffer.getvalue()[:-2]
    return text


def _plan(modes, fixed, table, scenario_table, seed):
    """Each of modes' (resolve, point, keys) for a typed spec.

    resolve maps a point's values of AXIS_NAMES but mode to its stage
    values or raises its first error; point maps those and the row index
    to the point's record (see SweepRows); keys holds the axes that each
    stage value's key reads. Each stage is cached per distinct input; an
    input whose stage raised is not, so a point gets its own error.
    """
    hap = fixed.get("hap_altitude_km")
    radio_fixed = _fixed_radio(fixed)  # RadioConfig's defaults stand for fields left out

    @cache
    def radios(fc, g_rx):  # the SNR sum's radio terms, FSPL's carrier term, bandwidth, carrier
        resolved = RadioConfig(**radio_fixed, fc_ghz=fc, g_rx_dbi=g_rx).resolve_bandwidth()
        return (*resolved.budget_terms(), fspl_carrier_db(fc), resolved.bandwidth_hz, fc)

    def atmosphere(fraction):
        @cache
        def stage(fc, elevation):  # gas, scintillation
            gas = fraction * gas_attenuation_db(fc, elevation, table)
            return gas, fraction * scintillation_db(fc, elevation, table)
        return stage

    def hops(low):
        @cache
        def stage(high, elevation):  # slant range, FSPL's range term
            slant = slant_range_km(low, high, elevation)
            # None leaves a zero slant range to fspl_db, which raises the point's error
            return slant, fspl_range_db(slant) if slant > 0 else None
        return stage

    @cache
    def cells(scenario, elevation):  # expected clutter, or the cell sampled points draw from
        cell = scenario_table.cell(scenario, elevation)
        return cell if seed is not None else cell.expected_db()

    stations = cache(classify_station)
    ground_atmosphere, ground_hops = atmosphere(default_atmosphere_fraction(0.0)), hops(0.0)
    fc_grx, fc_elev = ("fc_ghz", "g_rx_dbi"), ("fc_ghz", "elevation_deg")  # keys' axes
    alt_elev, scen_elev = ("altitude_km", "elevation_deg"), ("scenario", "elevation_deg")

    def resolve(altitude, fc, elevation, g_rx, scenario):
        stations(altitude)  # raises for an altitude outside every band
        radio, hop = radios(fc, g_rx), ground_hops(altitude, elevation)
        if hop[1] is None:
            fspl_db(hop[0], fc)
        return radio, hop, ground_atmosphere(fc, elevation), cells(scenario, elevation)

    def direct(radio, hop, atmosphere, excess, index):
        (gain, bandwidth_db, carrier_db, bandwidth, _), (slant, range_db) = radio, hop
        gas, scint = atmosphere
        fspl = carrier_db + range_db
        if seed is not None:
            excess = excess.sampled_db(seed, index)
        total = stage_total_db(fspl, gas, scint, excess)
        snr = snr_sum_db(gain, total, bandwidth_db)
        capacity = shannon_capacity_bps(bandwidth, snr)
        return slant, fspl, gas, scint, excess, total, snr, capacity, bandwidth, "direct", ""

    plans = {MODE_DIRECT: (resolve, direct, (fc_grx, alt_elev, fc_elev, scen_elev))}
    if MODE_RELAY not in modes:
        return plans
    # Hop 0 runs from the HAP up to the station, without clutter; hop 1
    # from the ground up to the HAP. Both use the point's radio. A point's
    # slant range, gas and scintillation are the sums over its hops.
    hap_hops = hops(hap)
    hap_atmosphere = atmosphere(default_atmosphere_fraction(hap))
    mode = fixed["relay_mode"]
    label = chain_label(mode, 2)

    def resolve_relay(altitude, fc, elevation, g_rx, scenario):
        stations(altitude)
        radio = radios(fc, g_rx)
        stations(hap)
        hop0, hop1 = hap_hops(altitude, elevation), ground_hops(hap, elevation)
        if hop0[1] is None:
            fspl_db(hop0[0], fc)
        air0, air1 = hap_atmosphere(fc, elevation), ground_atmosphere(fc, elevation)
        return radio, hop0, hop1, air0, air1, cells(scenario, elevation)

    def relay_point(radio, hop0, hop1, air0, air1, excess, index):
        gain, bandwidth_db, carrier_db, bandwidth, fc = radio
        (upper, upper_db), (lower, lower_db) = hop0, hop1
        (gas0, scint0), (gas1, scint1) = air0, air1
        fspl0 = carrier_db + upper_db
        snr0 = snr_sum_db(gain, stage_total_db(fspl0, gas0, scint0, 0.0), bandwidth_db)
        try:
            fspl1 = carrier_db + lower_db if lower_db is not None else fspl_db(lower, fc)
            if seed is not None:
                excess = excess.sampled_db(seed, index)
            snr1 = snr_sum_db(gain, stage_total_db(fspl1, gas1, scint1, excess), bandwidth_db)
        except NtnSimError:  # evaluate_chain ends hop 0 with its capacity first
            shannon_capacity_bps(bandwidth, snr0)
            raise
        if mode is RelayMode.AMPLIFY_FORWARD:
            snr = af_chain_snr_db((snr0, snr1))
            capacity = shannon_capacity_bps(bandwidth, snr)
        else:
            capacities = (
                shannon_capacity_bps(bandwidth, snr0),
                shannon_capacity_bps(bandwidth, snr1),
            )
            bottleneck = df_bottleneck(capacities)
            snr, capacity = (snr0, snr1)[bottleneck], capacities[bottleneck]
        fspl, gas, scint = fspl0 + fspl1, gas0 + gas1, scint0 + scint1
        total = stage_total_db(fspl, gas, scint, excess)
        return upper + lower, fspl, gas, scint, excess, total, snr, capacity, bandwidth, label, ""

    keys = fc_grx, alt_elev, ("elevation_deg",), fc_elev, fc_elev, scen_elev
    return {**plans, MODE_RELAY: (resolve_relay, relay_point, keys)}


def result_record(result: LinkResult) -> tuple:
    """The record (see SweepRows) of one evaluated link or chain."""
    slant = sum(h.geometry.slant_range_km for h in result.hops or (result,))
    b = result.breakdown
    return (
        slant, b.fspl_db, b.gas_db, b.scintillation_db, b.excess_db, b.total_db,
        result.snr_db, result.capacity_bps, result.bandwidth_hz, result.label, "",
    )


def _records(axes, plans):
    """Every point's record in row order, from each of AXIS_NAMES' typed values.

    The inner axis is the last in row order with more than one value. Each
    value of the other axes, a prefix, maps its mode's point over a column
    per stage value: the value repeated if its key does not read the inner
    axis, else its values along it, kept for the call by the rest of its
    key. Columns whose keys read no other varying axis are built once.
    """
    names = list(axes)
    pick = itemgetter(*map(names.index, AXIS_NAMES))

    def one(point, index):  # point(*resolve(...), index), or a failed point's record
        *values, mode = pick(point)
        resolve, evaluate, _ = plans[mode]
        try:
            return evaluate(*resolve(*values), index)
        except NtnSimError as exc:
            return (None,) * 9 + ("", str(exc))

    varying = [name for name in names if len(axes[name]) > 1]
    inner = varying.pop() if varying else "mode"
    if inner == "mode":  # the point function changes along the inner axis
        return list(map(one, product(*axes.values()), count()))
    # The inner axis's place in a prefix and among resolve's arguments.
    at, k, inner_values = names.index(inner), AXIS_NAMES.index(inner), axes[inner]
    n, states, records = len(inner_values), {}, []
    for mode, (resolve, point, keys) in plans.items():
        # (column, None for a repeated value, else the positions of its key's other axes)
        slots = [(j, [AXIS_NAMES.index(a) for a in key if a != inner] if inner in key else None)
                 for j, key in enumerate(keys)]
        changing = [slot for slot, key in zip(slots, keys) if set(key) & set(varying)]
        states[mode] = [resolve, point, [None] * len(keys), slots, changing, {}]
    prefixes = product(*(v[:1] if name == inner else v for name, v in axes.items()))
    for start, prefix in zip(count(0, n), prefixes):
        *values, mode = pick(prefix)
        resolve, point, columns, slots, changing, memo = state = states[mode]
        try:
            resolved, along = resolve(*values), None
            for j, others in slots:
                if others is None:
                    columns[j] = repeat(resolved[j])
                    continue
                key = (j, *[values[i] for i in others])
                if key not in memo:
                    along = along or list(zip(resolved, *(
                        resolve(*values[:k], v, *values[k + 1:]) for v in inner_values[1:])))
                    memo[key] = along[j]
                columns[j] = memo[key]
            state[3] = changing  # the other columns now hold for every prefix
            records += map(point, *columns, range(start, start + n))
        except NtnSimError:
            del records[start:]
            points = (prefix[:at] + (v,) + prefix[at + 1:] for v in inner_values)
            records += map(one, points, range(start, start + n))
    return records


def run_sweep(
    spec: SweepSpec,
    table: AtmosphereTable,
    scenario_table: ScenarioTable | None = None,
) -> SweepResult:
    """Evaluate every grid point of a sweep spec, in the spec's row order."""
    typed = _validate_spec(spec)
    if scenario_table is None:
        scenario_table = load_scenario_table()
    sampled = typed.fixed["excess_mode"] == "sampled"
    seed = typed.seed if sampled else None
    # A parameter of AXIS_NAMES the spec fixes is one more single-valued
    # axis after the spec's own, so each typed point carries all of them.
    typed_axes = dict(typed.axes)
    for name in AXIS_NAMES:
        typed_axes.setdefault(name, (typed.fixed.get(name),))
    plans = _plan(typed_axes["mode"], typed.fixed, table, scenario_table, seed)
    records = _records(typed_axes, plans)
    provenance = spec.provenance + (
        f"atmosphere table version: {table.version}",
        f"scenario table version: {scenario_table.version}",
    )
    if sampled:
        provenance += (
            f"sampled excess mode, seed {seed}, per-point streams {SAMPLED_STREAMS}",
        )
    # Rows keep the axis values as the spec gave them.
    return SweepResult(spec.schema(), SweepRows(spec.axes, tuple(records)), provenance)


def format_value(value: object) -> str:
    """Fixed CSV cell formatting: reals but integers at 6 significant digits."""
    if type(value) is float:  # most cells: tested first
        return f"{value:.6g}"
    if value is None:
        return ""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, bool):
        return str(value).lower()
    if hasattr(value, "__float__") and not hasattr(value, "__index__"):
        try:  # any other real (numpy floats, Fraction, Decimal) as a float
            return f"{float(value):.6g}"
        except ValueError:  # a signaling NaN refuses conversion
            pass
    return str(value)  # ints, numpy's too, keep their digits


def emit_csv(result: SweepResult, destination) -> None:
    """Write a sweep result as CSV: provenance comments, header, rows.

    destination is a path or a text file object. Output is UTF-8 with
    LF line endings and is byte-identical for identical results.
    """
    if hasattr(destination, "write"):
        return _write_csv(result, destination)
    with Path(destination).open("w", encoding="utf-8", newline="") as handle:
        _write_csv(result, handle)


def _write_csv(result: SweepResult, handle) -> None:
    for line in result.provenance:
        handle.write(f"# {line}\n")
    schema = result.schema
    csv.writer(handle, lineterminator="\n").writerow(schema)
    # Records: one format string per kind of row, over its axis texts and
    # record; "%.6g" gives format_value's text of a float, which csv never quotes.
    axes, records = result.rows.axes, result.rows.records
    names = [name for name, _ in axes]
    n = len(names)
    empty = '""' if len(schema) == 1 else ""  # csv.writer quotes the only cell of a row when empty

    def line(failed):  # a kind of row's format string, and its cells of axis texts + record
        formats, indices = [], []
        for col in schema:
            if col in names:
                formats.append("%s")
                indices.append(names.index(col))
            elif col not in RESULT_COLUMNS or (col == "error") != failed:
                formats.append(empty)  # a point's error, a failed point's metrics and label
            else:
                formats.append("%s" if col in ("label", "error") else "%.6g")
                indices.append(n + RESULT_COLUMNS.index(col))
        return ",".join(formats) + "\n", itemgetter(*indices) if indices else lambda _: ()

    (point, point_cells), (failed, failed_cells) = line(False), line(True)
    write = handle.write
    texts = (tuple(_cell(value) or empty for value in values) for _, values in axes)
    for cells, record in zip(product(*texts), records):
        if record[0] is None:  # failed: its error is the last cell
            write(failed % failed_cells(cells + record[:-1] + (_cell(record[-1]),)))
        else:
            write(point % point_cells(cells + record))


def csv_bytes(result: SweepResult) -> bytes:
    buffer = io.StringIO()
    _write_csv(result, buffer)
    return buffer.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# Sweep spec files
# ---------------------------------------------------------------------------

def load_sweep_spec(path: str | Path, seed: int | None = None) -> SweepSpec:
    """Read a sweep spec file ([axes] and [fixed] sections, optional seed).

    A seed given here supplies the spec's seed, or replaces the one the
    file sets (ntnsim sweep --seed), before the spec is checked.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read sweep spec {p}: {exc}") from exc
    sections = parse_sections(text, p.name, SpecError)
    known = {"", "axes", "fixed", "output"}
    unknown = set(sections) - known
    if unknown:
        raise SpecError(f"{p.name}: unknown sections {sorted(unknown)}")

    def value_of(key: str, text: str, lineno: int) -> object:
        # Checked here to name the line; numbers are kept parsed and
        # words as written. Unknown keys are left to _validate_spec.
        if key not in PARAMETERS:
            return text
        value = parse_value(key, text, SpecError, f"{p.name}:{lineno}: ")
        return value if isinstance(value, (float, int)) else text

    axes = tuple(
        (key, tuple(value_of(key, v, lineno) for v in map(str.strip, value.split(",")) if v))
        for key, (value, lineno) in sections.get("axes", {}).items()
    )
    fixed = {
        key: value_of(key, value, lineno)
        for key, (value, lineno) in sections.get("fixed", {}).items()
    }

    schema: tuple[str, ...] = ()
    top = dict(sections.get("", {}))
    if "seed" in top:
        file_seed = value_of("seed", *top.pop("seed"))  # checked even when replaced
        seed = file_seed if seed is None else seed
    if top:
        raise SpecError(f"{p.name}: unexpected top-level keys {sorted(top)}")
    if "columns" in sections.get("output", {}):
        value, _ = sections["output"]["columns"]
        schema = tuple(v.strip() for v in value.split(",") if v.strip())

    spec = SweepSpec(
        axes=axes,
        fixed=fixed,
        output_schema=schema,
        seed=seed,
        provenance=(f"sweep spec: {p.name}",),
    )
    _validate_spec(spec)
    return spec
