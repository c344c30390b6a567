"""Cartesian parameter sweeps: the spec, its checks, the plan and the spec files.

Row order is the product of the axes in declaration order (first axis
slowest). A grid point that fails to evaluate produces a row whose
metric columns are empty and whose `error` column carries the reason;
the sweep continues.

run_sweep builds one plan per spec (see _plan): a mode's stages, each
named once with the axes it reads, run once per distinct input of those
axes through the scalar functions that evaluate_link and evaluate_chain
use, and each point does their remaining float work inline, fused, in
their order. evaluate_chain itself evaluates every point the fused path
does not write. Points run a prefix at a time, each stage's column keyed
by its own axes, and a prefix whose radios hold, with a station in a gap,
takes its one error (see _records). So each record (see SweepRows),
error rows and messages included, is result_record of the point's own
evaluate_link or evaluate_chain result, with sampled_index its row index,
and rows.emit_csv writes it as it writes link's and chain's. An ok record
also carries the CSV text of gas, scintillation and expected clutter
after its values (_plan's texts), which the stages format once per
distinct input, so the writer formats only the per-point floats.

Sampled clutter gives every point its own stream: the point at row
index i of a sweep with seed s draws from blake2b(b"<s>:<i>"), through
its cell's sampler (channel.ScenarioRow.sampler). Streams of distinct
seeds and of distinct points are unrelated, and a single link or chain
with sampled_seed s draws the stream of row 0.
"""

import math
from collections.abc import Mapping, Sequence
from functools import cache, partial
from itertools import count, product, repeat
from math import inf, log1p, log10
from operator import itemgetter
from pathlib import Path
from sys import float_info
from typing import NamedTuple

from ..channel import (
    SAMPLED_STREAMS,
    AtmosphereTable,
    ScenarioTable,
    default_atmosphere_fraction,
    fspl_carrier_db,
    fspl_range_db,
    gas_attenuation_db,
    load_scenario_table,
    scintillation_db,
)
from ..errors import ConfigError, NtnSimError, SpecError
from ..geometry import classify_station, echo, slant_range_km
from ..linkbudget import _LN2, BOLTZMANN_DBM_PER_K_HZ, RadioConfig
from ..relay import RelayMode, _build_chain, chain_label, evaluate_chain
from .config import PARAMETERS, parse_sections, parse_value
from .rows import (
    EXTRA_COLUMNS, METRIC_COLUMNS, RESULT_COLUMNS, SweepResult, SweepRows, _FAILED, _combo,
    result_record)
# Unused here: the benchmark reads the writer as sweep.csv_bytes and sweep.emit_csv
# (bench/tracer.py's TARGETS, bench/workloads.py) until its span tracer is replaced.
from .rows import csv_bytes, emit_csv

AXIS_NAMES = ("altitude_km", "fc_ghz", "elevation_deg", "g_rx_dbi", "scenario", "mode")

# Below this bandwidth no capacity overflows a float: log1p(x) / ln 2 <= 1024
# for a finite power ratio x (x < 2**1024), so W * log1p(x) / ln 2 is at most
# about 2**1013 * 2**10 = 2**1023, a factor 2 inside the largest float.
_BANDWIDTH_BOUND = 2.0 ** 1013
MODE_DIRECT = "direct"
MODE_RELAY = "relay"
# Fixed parameters a spec may leave out, as spec text.
_DEFAULTS = {"mode": MODE_DIRECT, "relay_mode": "af", "excess_mode": "expected"}


class SweepSpec(NamedTuple):
    """A parameter grid: swept axes, fixed parameters, output schema.

    axes is a sequence of (name, values) pairs, values a sequence (see
    _is_sequence): a list, tuple or numpy array, not a set, mapping or iterator.
    """

    axes: Sequence[tuple[str, Sequence]]
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


def _is_sequence(values: object) -> bool:
    """Sized and indexable (so in a fixed order and readable twice), and not text."""
    try:
        len(values)  # type: ignore[arg-type]
    except TypeError:  # None, an iterator, a numpy scalar
        return False
    return hasattr(values, "__getitem__") and not isinstance(values, (str, bytes))


def _validate_spec(spec: SweepSpec) -> tuple[dict[str, tuple], dict[str, object], int | None]:
    """Check a spec; return its plan's inputs (axes, fixed, seed), typed through PARAMETERS.

    axes holds every name of AXIS_NAMES: the spec's axes in their order,
    then each other name with its fixed value, or None, as its one value.
    fixed includes the defaults. seed is None unless the excess mode is
    sampled.
    """
    axes: dict[str, tuple] = {}
    if not _is_sequence(spec.axes):  # a dict passes, to fail on its first entry
        kind = type(spec.axes).__name__
        raise SpecError(f"axes takes a sequence of (name, values) pairs, not a {kind}")
    for entry in spec.axes:
        try:
            name, values = entry
        except (TypeError, ValueError):
            raise SpecError(f"axes entry {echo(entry)} is not a (name, values) pair") from None
        if isinstance(values, Mapping) or not _is_sequence(values):
            kind = type(values).__name__
            raise SpecError(f"axis {echo(name)} takes a sequence of values, not a {kind}")
        if name not in AXIS_NAMES:
            raise SpecError(f"unknown axis {echo(name)}; axes may be {AXIS_NAMES}")
        if name in axes:
            raise SpecError(f"axis {echo(name)} declared twice")
        if len(values) == 0:
            raise SpecError(f"axis {echo(name)} is empty")
        if name in spec.fixed:
            raise SpecError(f"{echo(name)} appears in both axes and fixed")
        axes[name] = tuple(parse_value(name, v, SpecError) for v in values)
    for key in spec.fixed:
        if key not in PARAMETERS or key == "seed":
            raise SpecError(f"unknown fixed parameter {echo(key)}")
    fixed = {
        key: parse_value(key, value, SpecError)
        for key, value in {**_DEFAULTS, **spec.fixed}.items()
    }
    seed = None if spec.seed is None else parse_value("seed", spec.seed, SpecError)

    def provided(key: str) -> bool:
        return key in axes or key in spec.fixed

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

    modes = axes.get("mode", (fixed["mode"],))
    if MODE_RELAY in modes and "hap_altitude_km" not in spec.fixed:
        raise SpecError("relay mode requires fixed parameter 'hap_altitude_km'")
    sampled = fixed["excess_mode"] == "sampled"
    if sampled and seed is None:
        raise SpecError("sampled excess mode requires a seed")

    known_metrics = set(METRIC_COLUMNS) | set(EXTRA_COLUMNS) | set(AXIS_NAMES)
    schema = spec.schema()
    for i, col in enumerate(schema):
        if col not in known_metrics:
            raise SpecError(f"unknown output column {echo(col)}")
        if col in schema[:i]:
            raise SpecError(f"output column {echo(col)} listed twice")
    for name in AXIS_NAMES:
        axes.setdefault(name, (fixed.get(name),))
    return axes, fixed, seed if sampled else None


def _plan(axes, fixed, table, scenario_table, seed):
    """(reference, gap_error, plans, texts) for _validate_spec's axes, fixed and seed.

    texts names the RESULT_COLUMNS whose CSV text ("%.6g") an ok record
    carries after its values, in that order (see SweepRows): gas_db and
    scintillation_db, and excess_db unless clutter is sampled, whose
    draw is the point's own.
    reference(index) is row index's record as evaluate_chain gives it,
    with its texts if it is ok.
    gap_error(altitude, mode) is the error of the first of that altitude's
    and mode's stations, top-down, to fail classify_station, else None: the
    error of every point there whose radio holds (the chain's first check).
    plans maps each mode to (stages, point). stages is a sequence of
    (stage, axes) pairs: stage takes a point's values of axes, names of
    AXIS_NAMES, in that order, is cached per distinct input, and raises
    where the chain fails, and the point then gets reference(index). point
    maps the stage values, in stages' order, and the row index to the
    point's record, texts included, and never raises. The stages give:
    radios (gain and bandwidth terms, FSPL's carrier term, bandwidth); a
    hop (slant range, FSPL's range term); atmosphere, a (gas, scint, gas
    text, scint text) per hop fraction, the ground's first, and given a
    HAP a third, the two-hop sums, hop 0's term first; and cells,
    (expected clutter, its text), or in sampled mode the cell's sampler.
    point does the scalar functions' float work inline, in their order,
    while their happy paths hold: FSPL > 0 and the other stages >= 0 with
    a finite total, finite SNRs whose power ratios do not overflow, 0 <
    bandwidth < _BANDWIDTH_BOUND (so that no capacity the scalar path
    computes, each hop's included, overflows), for AF a finite product
    and a normal gamma. Outside that guard it gives reference(index).
    """
    hap, relay_mode = fixed.get("hap_altitude_km"), fixed["relay_mode"]
    radio_fixed = _fixed_radio(fixed)  # RadioConfig's defaults stand for fields left out
    values, pick = tuple(axes.values()), itemgetter(*map(list(axes).index, AXIS_NAMES))
    texts = ("gas_db", "scintillation_db") + (("excess_db",) if seed is None else ())
    text_at = [RESULT_COLUMNS.index(name) for name in texts]

    def highs(altitude, mode):  # the hops' upper stations, top-down
        return (altitude, hap) if mode == MODE_RELAY else (altitude,)

    def reference(index):  # row index's record as chain gives it (one hop: as link does)
        altitude, fc, elevation, g_rx, scenario, mode = pick(_combo(values, index))
        stations = [(high, elevation) for high in highs(altitude, mode)]
        try:
            radio = RadioConfig(**radio_fixed, fc_ghz=fc, g_rx_dbi=g_rx)
            chain = _build_chain(stations, radio, relay_mode, scenario)
            record = result_record(evaluate_chain(
                chain, table, scenario_table, sampled_seed=seed, sampled_index=index))
        except NtnSimError as exc:
            return _FAILED + (str(exc),)
        return record + tuple("%.6g" % record[i] for i in text_at)

    @cache
    def radios(fc, g_rx):  # the SNR sum's radio terms, FSPL's carrier term, bandwidth
        resolved = RadioConfig(**radio_fixed, fc_ghz=fc, g_rx_dbi=g_rx).resolve_bandwidth()
        return (*resolved.budget_terms(), fspl_carrier_db(fc), resolved.bandwidth_hz)

    # The share of the column a hop sees from the ground and, given a HAP, from the HAP.
    fractions = [default_atmosphere_fraction(low) for low in (0.0, hap) if low is not None]

    @cache
    def atmosphere(fc, elevation):  # (gas, scint, their texts) per fraction, then the sums
        gas, scint = gas_attenuation_db(fc, elevation, table), scintillation_db(fc, elevation, table)
        air = [(fraction * gas, fraction * scint) for fraction in fractions]
        if hap is not None:  # from the ground, from the HAP: the sums run hop 0 first
            (gas1, scint1), (gas0, scint0) = air
            air.append((gas0 + gas1, scint0 + scint1))
        return tuple((gas, scint, "%.6g" % gas, "%.6g" % scint) for gas, scint in air)

    stations = cache(classify_station)

    def hops(low):
        @cache
        def stage(high, elevation):  # slant range, FSPL's range term
            stations(high)  # raises for an upper station outside every band
            slant = slant_range_km(low, high, elevation)
            # 20 log10(0) as -inf: a zero slant range fails point's FSPL check
            return slant, fspl_range_db(slant) if slant > 0 else -inf
        return stage

    @cache
    def cells(scenario, elevation):  # (expected clutter, its text), or the cell's sampler
        cell = scenario_table.cell(scenario, elevation)
        if seed is not None:
            return cell.sampler(seed)  # draw(index)
        excess = cell.expected_db()
        return excess, "%.6g" % excess

    def gap_error(altitude, mode):
        try:  # the chain checks its stations top-down, right after the radio
            for high in highs(altitude, mode):
                stations(high)
        except NtnSimError as exc:
            return str(exc)
        return None

    def fused_direct(radio, hop, air, excess, index):
        gain, bandwidth_db, carrier_db, bandwidth = radio
        (slant, range_db), (gas, scint, gas_text, scint_text) = hop, air[0]
        if seed is None:
            excess, excess_text = excess
        else:
            excess = excess(index)
        fspl = carrier_db + range_db
        total = fspl + gas + scint + excess
        snr = gain - total - BOLTZMANN_DBM_PER_K_HZ - bandwidth_db
        if not (fspl > 0.0 and gas >= 0.0 and scint >= 0.0 and excess >= 0.0
                and -inf < snr < inf and 0.0 < bandwidth < _BANDWIDTH_BOUND):
            return reference(index)
        try:
            capacity = bandwidth * log1p(10.0 ** (snr / 10.0)) / _LN2
        except OverflowError:
            return reference(index)
        if seed is None:
            return (slant, fspl, gas, scint, excess, total, snr, capacity, bandwidth, "direct", "",
                    gas_text, scint_text, excess_text)
        return (slant, fspl, gas, scint, excess, total, snr, capacity, bandwidth, "direct", "",
                gas_text, scint_text)

    radio = radios, ("fc_ghz", "g_rx_dbi")
    air = atmosphere, ("fc_ghz", "elevation_deg")
    clutter = cells, ("scenario", "elevation_deg")
    ground_hops = hops(0.0)
    direct = (radio, (ground_hops, ("altitude_km", "elevation_deg")), air, clutter)
    plans = {MODE_DIRECT: (direct, fused_direct)}
    if MODE_RELAY not in axes["mode"]:
        return reference, gap_error, plans, texts
    # Hop 0 runs from the HAP up to the station, without clutter; hop 1
    # from the ground up to the HAP. Both use the point's radio. A point's
    # slant range, gas and scintillation are the sums over its hops.
    amplify, label = relay_mode is RelayMode.AMPLIFY_FORWARD, chain_label(relay_mode, 2)

    def fused_relay(radio, hop0, hop1, air, excess, index):
        gain, bandwidth_db, carrier_db, bandwidth = radio
        (upper, range0), (lower, range1) = hop0, hop1
        # From the ground, from the HAP, their sums.
        (gas1, scint1, _, _), (gas0, scint0, _, _), (gas, scint, gas_text, scint_text) = air
        if seed is None:
            excess, excess_text = excess
        else:
            excess = excess(index)
        fspl0, fspl1 = carrier_db + range0, carrier_db + range1
        snr0 = gain - (fspl0 + gas0 + scint0) - BOLTZMANN_DBM_PER_K_HZ - bandwidth_db
        snr1 = gain - (fspl1 + gas1 + scint1 + excess) - BOLTZMANN_DBM_PER_K_HZ - bandwidth_db
        fspl = fspl0 + fspl1
        total = fspl + gas + scint + excess
        if not (fspl0 > 0.0 and fspl1 > 0.0 and gas0 >= 0.0 and gas1 >= 0.0 and scint0 >= 0.0
                and scint1 >= 0.0 and excess >= 0.0 and total < inf and -inf < snr0 < inf
                and -inf < snr1 < inf and 0.0 < bandwidth < _BANDWIDTH_BOUND):
            return reference(index)
        try:
            linear0, linear1 = 10.0 ** (snr0 / 10.0), 10.0 ** (snr1 / 10.0)
            if amplify:
                product = linear0 * linear1
                gamma = product / (linear0 + linear1 + 1.0)
                if not (product < inf and gamma >= float_info.min):
                    return reference(index)
                snr = 10.0 * log10(gamma)
                capacity = bandwidth * log1p(10.0 ** (snr / 10.0)) / _LN2
            else:  # DF: hop 1 decides only with the lesser capacity
                capacity0 = bandwidth * log1p(linear0) / _LN2
                capacity1 = bandwidth * log1p(linear1) / _LN2
                snr, capacity = (snr1, capacity1) if capacity1 < capacity0 else (snr0, capacity0)
        except OverflowError:
            return reference(index)
        if seed is None:
            return (upper + lower, fspl, gas, scint, excess, total, snr, capacity, bandwidth, label,
                    "", gas_text, scint_text, excess_text)
        return (upper + lower, fspl, gas, scint, excess, total, snr, capacity, bandwidth, label, "",
                gas_text, scint_text)

    relay = (radio, (hops(hap), ("altitude_km", "elevation_deg")),
             (partial(ground_hops, hap), ("elevation_deg",)), air, clutter)
    return reference, gap_error, {**plans, MODE_RELAY: (relay, fused_relay)}, texts


def _records(axes, reference, gap_error, plans):
    """Every point's record in row order, from each of AXIS_NAMES' typed values.

    Only the modes the axes hold are set up, and each stage reads only its
    own axes (see _plan), through one argument getter. The inner axis is the
    last in row order with more than one value. Each value of the other
    axes, a prefix, maps its mode's point over one column per stage: the
    stage's value repeated if its axes leave out the inner axis, else its
    values along it, kept per stage and values of its other axes. Columns
    of stages that read no other varying axis are built once. A point, or
    each point of a prefix, whose stage raises gets reference(index); but
    a prefix whose stage past the radios, the first, raises and whose
    altitude, not the inner axis, has a gap_error gets that error at every
    point.
    """
    names = list(axes)
    at_mode, at_altitude = names.index("mode"), names.index("altitude_km")

    def arguments(stage_axes):  # a point's values of stage_axes, as a tuple
        at = [names.index(name) for name in stage_axes]
        return itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1))

    calls = {mode: (plans[mode][1], [(stage, a, arguments(a)) for stage, a in plans[mode][0]])
             for mode in axes["mode"]}

    def one(point, index):  # point(*stage values, index), or reference(index)
        evaluate, stages = calls[point[at_mode]]
        try:
            return evaluate(*[stage(*args(point)) for stage, _, args in stages], index)
        except NtnSimError:
            return reference(index)

    varying = [name for name in names if len(axes[name]) > 1]
    inner = varying.pop() if varying else "mode"
    if inner == "mode":  # the point function changes along the inner axis
        return list(map(one, product(*axes.values()), count()))
    at, inner_values = names.index(inner), axes[inner]
    n, states, records = len(inner_values), {}, []
    for mode, (point, stages) in calls.items():
        # (column, stage, its arguments, the inner axis's place among them or None)
        slots = [(j, stage, args, a.index(inner) if inner in a else None)
                 for j, (stage, a, args) in enumerate(stages)]
        changing = [slot for slot, (_, a, _) in zip(slots, stages) if set(a) & set(varying)]
        states[mode] = [point, [None] * len(stages), slots, changing, {}]
    prefixes = product(*(v[:1] if name == inner else v for name, v in axes.items()))
    for start, prefix in zip(count(0, n), prefixes):
        mode = prefix[at_mode]
        point, columns, slots, changing, memo = state = states[mode]
        try:
            for j, stage, args, k in slots:
                values = args(prefix)
                if k is None:
                    columns[j] = repeat(stage(*values))
                    continue
                key = (j, values)  # values hold the inner axis's first value
                if key not in memo:
                    memo[key] = [stage(*values[:k], v, *values[k + 1:]) for v in inner_values]
                columns[j] = memo[key]
            state[2] = changing  # the other columns now hold for every prefix
            records += map(point, *columns, range(start, start + n))
        except NtnSimError:
            # Stage j raised. Past stage 0, the radios, every point's radio holds and the
            # chain checks it before the stations, so every point fails at the same station.
            error = j > 0 and inner != "altitude_km" and gap_error(prefix[at_altitude], mode)
            if error:
                records += [_FAILED + (error,)] * n
                continue
            points = (prefix[:at] + (v,) + prefix[at + 1:] for v in inner_values)
            records += map(one, points, range(start, start + n))
    return records


def run_sweep(
    spec: SweepSpec,
    table: AtmosphereTable,
    scenario_table: ScenarioTable | None = None,
) -> SweepResult:
    """Evaluate every grid point of a sweep spec, in the spec's row order.

    A point takes a value of every name of AXIS_NAMES from _validate_spec's
    axes; a name the spec fixes is a one-value axis after the spec's own,
    so the row order stays the spec's. The rows' axes append the same way
    each unswept axis the schema names, holding its value as the spec
    fixed it, or its default; one neither swept nor fixed stays empty.
    """
    axes, fixed, seed = _validate_spec(spec)
    if scenario_table is None:
        scenario_table = load_scenario_table()
    *plan, texts = _plan(axes, fixed, table, scenario_table, seed)
    records = _records(axes, *plan)
    provenance = spec.provenance + (
        f"atmosphere table version: {table.version}",
        f"scenario table version: {scenario_table.version}",
    )
    if seed is not None:
        provenance += (
            f"sampled excess mode, seed {seed}, per-point streams {SAMPLED_STREAMS}",
        )
    # Rows keep the axis values as the spec gave them.
    given, schema = {**_DEFAULTS, **spec.fixed}, spec.schema()
    unswept = tuple((name, (given[name],)) for name in schema
                    if name in AXIS_NAMES and name in given and name not in spec.axis_names())
    rows = SweepRows((*spec.axes, *unswept), tuple(records), texts)
    return SweepResult(schema, rows, provenance)


# ---------------------------------------------------------------------------
# Sweep spec files
# ---------------------------------------------------------------------------

def load_sweep_spec(path: str | Path, seed: int | None = None) -> SweepSpec:
    """Read a sweep spec file ([axes], [fixed] and [output] sections, optional seed).

    Each line is checked on its own (the grammar, the sections, the
    [output] key, each known parameter's value), a SpecError naming
    file:line. run_sweep checks the spec as a whole, as it checks one
    built in Python (data/FORMATS.md lists which rule runs when).

    A seed given here supplies the spec's seed, or replaces the one the
    file sets (ntnsim sweep --seed); it is a ConfigError unless the
    [fixed] excess_mode is sampled.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read sweep spec {p}: {exc}") from exc
    sections = parse_sections(text, p.name, SpecError)
    known = {"", "axes", "fixed", "output"}
    unknown = set(sections) - known
    if unknown:
        raise SpecError(f"{p.name}: unknown sections {echo(sorted(unknown))}")

    def value_of(key: str, text: str, lineno: int) -> object:
        # Checked here to name the line; numbers are kept parsed and
        # words as written. Unknown keys are left to run_sweep.
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
    file_seed = value_of("seed", *top.pop("seed")) if "seed" in top else None  # checked if replaced
    if top:
        raise SpecError(f"{p.name}: unexpected top-level keys {echo(sorted(top))}")
    for key, (value, lineno) in sections.get("output", {}).items():
        if key != "columns":
            raise SpecError(
                f"{p.name}:{lineno}: unknown output key {echo(key)}; expected 'columns'"
            )
        schema = tuple(v.strip() for v in value.split(",") if v.strip())
        if not schema:
            raise SpecError(f"{p.name}:{lineno}: columns lists no column")

    # A word value_of has checked, so this cannot raise.
    excess_mode = PARAMETERS["excess_mode"](fixed.get("excess_mode", _DEFAULTS["excess_mode"]))
    if seed is not None and excess_mode != "sampled":
        raise ConfigError("--seed applies only to a spec with excess_mode = sampled")
    return SweepSpec(
        axes=axes,
        fixed=fixed,
        output_schema=schema,
        seed=file_seed if seed is None else seed,
        provenance=(f"sweep spec: {p.name}",),
    )
