"""Draws and references that more than one test module uses.

Sweep specs and their value pools, the parser grammar's pieces and the
texts its loaders accept, and the record of a chain built by hand through
the package's scalar API. pytest does not collect this file (its name lacks
the test_ prefix); test modules import from it and from `oracle`, never
from one another.
"""

import functools
import re
import textwrap

import numpy as np
from hypothesis import strategies as st

from ntnsim import (
    LinkGeometry,
    RadioConfig,
    Scenario,
    classify_station,
    evaluate_chain,
    evaluate_link,
)
from ntnsim.channel import _data_text
from ntnsim.harness.config import PARAMETERS
from ntnsim.harness.rows import EXTRA_COLUMNS, METRIC_COLUMNS, result_record
from ntnsim.harness.sweep import AXIS_NAMES, SweepSpec
from ntnsim.relay import RelayChain, RelayHop, RelayMode

# Gap altitudes (100, 26), out-of-range elevations (5, 95) and carriers
# outside the atmosphere table (0.3, 120) make error rows; 20 km is a HAP,
# so a relay through a 20 km HAP cannot reach it. A carrier of -2 GHz
# fails the radio, which the chain checks before every station. From the
# ground, 1e-13 km gives a zero slant range, whose FSPL error comes before
# a carrier's, and 2e-12 km a negative FSPL, which the carrier's error
# comes before. A receive gain of ±1e308 dBi with a transmit power of the
# same sign (see FIXED_VALUES) makes an SNR that is not finite.
AXIS_VALUES = {
    "altitude_km": (1e-13, 2e-12, 20.0, 100.0, 300.0, 600.0, 1200.0, 35786.0),
    "fc_ghz": (-2.0, 0.3, 2.0, 20.0, 60.0, 90.0, 120.0),
    "elevation_deg": (5.0, 10.0, 30.0, 45.5, 90.0, 95.0),
    "g_rx_dbi": (30.0, 50.0, 1e308, -1e308),
    "scenario": tuple(s.value for s in Scenario),
    "mode": ("direct", "relay"),
}


def chain_record(radio, stations, mode, scenario, table, scenario_table, seed=None, index=0):
    """The record of the chain down from stations, (altitude, elevation) pairs
    top-down, built by hand in the chain's check order: the radio (from its
    RadioConfig fields), each station's band top-down, each hop, then
    evaluate_link for one hop or evaluate_chain, sampled as row index of a
    sweep with seed seed."""
    radio = RadioConfig(**radio)
    for altitude, _ in stations:
        classify_station(altitude)
    lows = [altitude for altitude, _ in stations[1:]] + [0.0]
    hops = tuple(RelayHop(LinkGeometry.from_endpoints(low, high, elevation), radio)
                 for (high, elevation), low in zip(stations, lows))
    sampled = {"sampled_seed": seed, "sampled_index": index}
    if len(hops) == 1:
        return result_record(evaluate_link(
            hops[0].geometry, radio, scenario, table, scenario_table, **sampled))
    chain = RelayChain(hops, RelayMode(mode), scenario)
    return result_record(evaluate_chain(chain, table, scenario_table, **sampled))


# Fixed values: usual ones, and edge ones, which take points off the sweep's
# fused float path to the scalar one or fail a relay's HAP. A spec takes
# edge values for the names of one entry of EDGES: none, one or a pair.
# From 3000 to 3100 dBm hop SNRs near and pass about 3083 dB, where a
# power ratio overflows; at 3000 dBm
# the AF product of two hops' ratios overflows first, at -2900 dBm it
# underflows, and at -3500 dBm both ratios are 0, a DF tie. ±1e308 dBm
# saturate a budget. A subnormal noise temperature or bandwidth adds about
# 3233 dB to every SNR, and 1e308 takes about 3080 dB off. Through a HAP at
# 1e-13 km the HAP-ground hop has a zero slant range, at 2e-12 km a
# negative FSPL; 26 km lies in the gap. At 1e308 Hz a capacity overflows a
# float above an SNR of about 3.9 dB, which only a subnormal noise
# temperature or 3000-3100 dBm reaches: EDGES pairs each with the bandwidth.
# The power pair, CAPACITY, is drawn twice as often as another entry.
# Three of its draws in four, capacity draws, take 1e308 Hz with 3050 dBm
# (whose hop SNRs there stay below 3083 dB and mostly lie above 3.9 dB) and
# sweep only axis values that can reach a capacity exit (see axis).
FIXED_VALUES = {
    "tx_power_dbm": ((18.0,), (1e308, -1e308, -3500.0, -2900.0, 3000.0, 3050.0, 3100.0)),
    "noise_temperature_k": ((290.0,), (5e-324, 1e308)),
    "bandwidth_hz": ((None, 400e6), (5e-324, 1e308)),
    "hap_altitude_km": ((17.0, 20.0), (1e-13, 2e-12, 26.0)),
}
CAPACITY = ("bandwidth_hz", "tx_power_dbm")
EDGES = ((), *((name,) for name in FIXED_VALUES), ("bandwidth_hz", "noise_temperature_k"),
         *(CAPACITY,) * 2)


@functools.cache  # each pool's strategy is built once, not on every draw
def fixed_value(name, edges):
    usual, edge_values = FIXED_VALUES[name]
    return st.sampled_from(edge_values if name in edges else usual)


# The axis values whose points cannot reach a guard's capacity exit: they
# fail (see AXIS_VALUES) or, at ±1e308 dBi, leave the fused path at any
# fixed value.
NO_CAPACITY_EXIT = {"altitude_km": (1e-13, 2e-12, 100.0), "fc_ghz": (-2.0, 0.3, 120.0),
                    "elevation_deg": (5.0, 95.0), "g_rx_dbi": (1e308, -1e308)}


@functools.cache
def axis(name, capacity=False):
    """An axis's values; for a capacity draw (see CAPACITY) both modes, and
    only values whose points can reach a guard's capacity exit."""
    if capacity and name == "mode":
        return st.permutations(AXIS_VALUES["mode"])
    # Lists, not sets: repeated values are part of what is tested.
    values = [v for v in AXIS_VALUES[name]
              if not (capacity and v in NO_CAPACITY_EXIT.get(name, ()))]
    return st.lists(st.sampled_from(values), min_size=1, max_size=3)


@st.composite
def edge_specs(draw):
    # Every axis, declared in any order: row order, and so which axes vary
    # fastest, follows the declaration.
    edges = draw(st.sampled_from(EDGES))
    capacity = edges == CAPACITY and draw(st.integers(0, 3)) > 0
    order = draw(st.permutations(tuple(AXIS_VALUES)))
    axes = tuple((name, tuple(draw(axis(name, capacity)))) for name in order)
    excess_mode = draw(st.sampled_from(["expected", "sampled"]))
    fixed = {
        **{name: draw(fixed_value(name, edges)) for name in FIXED_VALUES},
        "relay_mode": draw(st.sampled_from(["af", "df"])),
        "excess_mode": excess_mode,
    }
    if capacity:
        fixed.update(bandwidth_hz=1e308, tx_power_dbm=3050.0)
    if fixed["bandwidth_hz"] is None:  # Auto
        del fixed["bandwidth_hz"]
    seed = draw(st.integers(0, 2**31 - 1)) if excess_mode == "sampled" else None
    return SweepSpec(axes=axes, fixed=fixed, seed=seed)


any_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
values = st.one_of(
    st.sampled_from([
        "", "0", "-0", "-1", "2.5", "1e999", "-1e999", "1e-400", "nan", "inf", "-inf",
        "auto", "Auto", "af", "DF", "relay", "direct", "sampled", "expected", "dense_urban",
        "Dense Urban", "x", "1,2", " , ", "3, nan", "10, 20, 30", "1_000", "0x10", "True",
        "None", "١٢", "9" * 400, "9" * 5000, "2.5, af", "20, 20",
    ]),
    any_text,
)
keys = st.sampled_from(sorted(PARAMETERS) + ["columns", "bogus", "Fc_ghz", "a b"])
lines = st.one_of(
    st.sampled_from([
        "[axes]", "[fixed]", "[output]", "[radio]", "[]", "[ ]", "[axes", "# note", "", "=",
        "a = b = c", "seed = 3",
    ]),
    # Lines that break a RadioConfig rule in a valid spec: a second receiver form, a zero bandwidth.
    st.sampled_from(["noise_temperature_k = 290", "bandwidth_hz = 0", "g_rx_dbi = 50"]),
    st.builds("{}{}{}".format, keys, st.sampled_from([" = ", "=", " =", ": ", " "]), values),
    any_text,
)
# Texts the loaders accept: the spec example of the packaged FORMATS.md (the first
# indented block of its "Sweep spec files"), also sampled, and the fig-defaults fixture.
SPEC = textwrap.dedent(re.search(
    r"\n\n((?:    .*\n)+)", _data_text("FORMATS.md").split("\n## Sweep spec files\n")[1])[1])
SAMPLED_SPEC = SPEC.replace("[output]", "excess_mode = sampled\n[output]")
FIG_DEFAULTS = _data_text("fig_defaults.cfg")


def config_texts(*valid):
    """Grammar lines one draw in four, else one of valid with up to three lines inserted."""

    @st.composite
    def text(draw):
        if draw(st.integers(0, 3)) == 0:
            return "\n".join(draw(st.lists(lines, max_size=16)))
        body = draw(st.sampled_from(valid)).splitlines()
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(body)))
            body[at:at] = draw(st.lists(lines, max_size=1))
        return "\n".join(body)

    return text()


numbers = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
words = {
    "scenario": st.sampled_from([s.value for s in Scenario] + ["Dense Urban", "RURAL"]),
    "mode": st.sampled_from(["direct", "Relay"]),
}


@functools.cache
def axis_values(name):
    return st.lists(words.get(name, numbers), min_size=1, max_size=4)


@st.composite
def round_trip_specs(draw):
    names = draw(st.lists(st.sampled_from(AXIS_NAMES), unique=True))
    axes = tuple((name, tuple(draw(axis_values(name)))) for name in names)
    fixed = {name: draw(axis_values(name))[0] for name in AXIS_NAMES if name not in names}
    if "g_rx_dbi" in fixed and draw(st.booleans()):
        del fixed["g_rx_dbi"]  # the G/T form
    if "g_rx_dbi" in names or "g_rx_dbi" in fixed:
        fixed["noise_temperature_k"] = draw(positive)
    else:
        fixed["g_over_t_dbi_per_k"] = draw(numbers)
    fixed["tx_power_dbm"] = draw(numbers)
    fixed["hap_altitude_km"] = draw(numbers)
    fixed["relay_mode"] = draw(st.sampled_from(["af", "DF"]))
    fixed["bandwidth_hz"] = draw(st.one_of(st.just("auto"), positive))
    fixed["excess_mode"] = draw(st.sampled_from(["expected", "sampled"]))
    seed = draw(st.integers(-2**70, 2**70)) if fixed["excess_mode"] == "sampled" else None
    columns = AXIS_NAMES + METRIC_COLUMNS + EXTRA_COLUMNS
    schema = tuple(draw(st.lists(st.sampled_from(columns), max_size=6, unique=True)))
    return SweepSpec(axes=axes, fixed=fixed, output_schema=schema, seed=seed)


def spec_text(spec):
    """The spec file of a SweepSpec whose values are numbers and spec words."""

    def text(value):
        return repr(value) if isinstance(value, float) else str(value)

    lines = [] if spec.seed is None else [f"seed = {spec.seed}"]
    lines.append("[axes]")
    lines += [f"{name} = {', '.join(map(text, values))}" for name, values in spec.axes]
    lines.append("[fixed]")
    lines += [f"{key} = {text(value)}" for key, value in spec.fixed.items()]
    if spec.output_schema:
        lines += ["[output]", f"columns = {', '.join(spec.output_schema)}"]
    return "\n".join(lines) + "\n"


# Values as a Python spec may give them: ints, numpy floats, words with
# capitals, spaces or a trailing LF or CR (which csv quotes), enum members.
# 100 km is a gap altitude, 0.3 and 120 GHz lie outside the atmosphere
# table and 5 deg below the elevation range: their rows carry an error
# message with commas.
SPEC_VALUES = {
    "altitude_km": (600, 100.0, np.float64(1200.0), 35786.0, 20.0),
    "fc_ghz": (20, 2.0, np.float64(60.0), 0.3, 120.0),
    "elevation_deg": (30, 10.0, np.float64(45.5), 5.0, 90.0),
    "g_rx_dbi": (50, 30.0, np.float64(40.0)),
    "scenario": ("dense_urban", "Dense Urban", " rural\n", "urban\r", Scenario.SUBURBAN),
    "mode": ("direct", "Relay", "relay"),
}
FIXED = {"tx_power_dbm": 18.0, "noise_temperature_k": 290.0, "hap_altitude_km": 20.0}


@functools.cache
def spec_values(name):
    return st.lists(st.sampled_from(SPEC_VALUES[name]), min_size=1, max_size=3)


@st.composite
def sweep_specs(draw):
    axes, fixed = [], dict(FIXED)
    for name in draw(st.permutations(AXIS_NAMES)):
        values = draw(spec_values(name))
        if name in ("altitude_km", "fc_ghz", "elevation_deg") or draw(st.booleans()):
            axes.append((name, tuple(values)))
        else:  # a fixed parameter, which a schema may still name
            fixed[name] = values[0]
    fixed["relay_mode"] = draw(st.sampled_from(["af", "df"]))
    fixed["excess_mode"] = draw(st.sampled_from(["expected", "sampled"]))
    columns = AXIS_NAMES + METRIC_COLUMNS + EXTRA_COLUMNS
    schema = draw(st.one_of(
        st.just(()),  # the default schema
        st.lists(st.sampled_from(columns), min_size=1, max_size=1),
        st.permutations(columns).flatmap(
            lambda c: st.lists(st.sampled_from(c), min_size=1, unique=True)
        ),
    ))
    seed = draw(st.integers(-2**40, 2**40)) if fixed["excess_mode"] == "sampled" else None
    return SweepSpec(
        axes=tuple(axes), fixed=fixed, output_schema=tuple(schema), seed=seed,
        provenance=("spec: random",),
    )


# Every numeric key that has a CLI flag, by flag.
FLAG_KEYS = {
    "--alt": "altitude_km",
    "--elev": "elevation_deg",
    "--fc": "fc_ghz",
    "--txpow": "tx_power_dbm",
    "--gtx": "g_tx_dbi",
    "--grx": "g_rx_dbi",
    "--got": "g_over_t_dbi_per_k",
    "--temp": "noise_temperature_k",
    "--bandwidth": "bandwidth_hz",
}
