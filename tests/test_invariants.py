"""Model invariants over random inputs: relay folds, stage sums, the G/T
identity, monotonicity.

Monotonicity is checked on run_sweep rows, the path sweeps take; the
reuse tests show those rows equal evaluate_link's. Comparisons that
cross float rounding (a dB value converted to linear and back, or a
slant range at two nearby elevations) allow 1e-9, the tolerance at which
the scalar path and any fast path must agree.
"""

import functools
import itertools
import math
import sys

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ntnsim import (
    LinkGeometry,
    NtnSimError,
    RadioConfig,
    RelayChain,
    RelayHop,
    RelayMode,
    Scenario,
    evaluate_chain,
    evaluate_link,
)
from ntnsim.harness.rows import RESULT_COLUMNS
from ntnsim.harness.sweep import SweepSpec, run_sweep
from strategies import AXIS_VALUES, FIXED_VALUES, NO_CAPACITY_EXIT

TOL = 1e-9

radios = st.builds(
    RadioConfig,
    fc_ghz=st.floats(0.5, 100.0),
    tx_power_dbm=st.floats(-20.0, 60.0),
    g_over_t_dbi_per_k=st.floats(-20.0, 40.0),
    bandwidth_hz=st.one_of(st.none(), st.floats(1e6, 4e9)),
)
elevations = st.floats(10.0, 90.0)
scenarios = st.sampled_from(list(Scenario))
seeds = st.one_of(st.none(), st.integers(-2**40, 2**40))


@st.composite
def chains(draw, mode):
    """A station -> HAP -> ground chain, each hop with its own radio."""
    hap = draw(st.floats(17.0, 25.0))
    station = draw(st.floats(200.0, 35786.0))
    return RelayChain(
        hops=(
            RelayHop(LinkGeometry.from_endpoints(hap, station, draw(elevations)), draw(radios)),
            RelayHop(LinkGeometry.from_endpoints(0.0, hap, draw(elevations)), draw(radios)),
        ),
        mode=mode,
        scenario=draw(scenarios),
    )


def stage_sum(breakdown):
    return breakdown.fspl_db + breakdown.gas_db + breakdown.scintillation_db + breakdown.excess_db


@settings(max_examples=100, deadline=None)
@given(chains(RelayMode.AMPLIFY_FORWARD), seeds)
def test_af_snr_at_most_min_hop_snr(atm_table, scen_table, chain, seed):
    res = evaluate_chain(chain, atm_table, scen_table, sampled_seed=seed)
    assert res.snr_db <= min(h.snr_db for h in res.hops) + TOL


@settings(max_examples=100, deadline=None)
@given(chains(RelayMode.DECODE_FORWARD), seeds)
def test_df_capacity_is_min_hop_capacity(atm_table, scen_table, chain, seed):
    res = evaluate_chain(chain, atm_table, scen_table, sampled_seed=seed)
    assert res.capacity_bps == min(h.capacity_bps for h in res.hops)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(list(RelayMode)),
    st.data(),
    seeds,
    st.integers(0, 2**20),
)
def test_total_is_left_to_right_stage_sum(atm_table, scen_table, mode, data, seed, index):
    chain = data.draw(chains(mode))
    res = evaluate_chain(chain, atm_table, scen_table, sampled_seed=seed, sampled_index=index)
    for r in (res, *res.hops):
        assert r.breakdown.total_db == stage_sum(r.breakdown)


def sorted_floats(low, high):
    return st.lists(st.floats(low, high), min_size=2, max_size=5, unique=True).map(sorted)


@settings(max_examples=100, deadline=None)
@given(
    sorted_floats(200.0, 35786.0),
    sorted_floats(10.0, 90.0),
    st.floats(0.5, 100.0),
    scenarios,
    st.sampled_from(["direct", "relay"]),
)
def test_capacity_monotone_in_altitude_and_elevation(
    atm_table, scen_table, altitudes, elevations, fc, scenario, mode
):
    spec = SweepSpec(
        axes=(("altitude_km", tuple(altitudes)), ("elevation_deg", tuple(elevations))),
        fixed={
            "fc_ghz": fc,
            "scenario": scenario.value,
            "tx_power_dbm": 18.0,
            "g_over_t_dbi_per_k": 15.9,
            "mode": mode,
            "hap_altitude_km": 20.0,
            "relay_mode": "af",
        },
    )
    rows = run_sweep(spec, atm_table, scen_table).rows
    # Stations in a band gap give error rows; skip those points.
    capacity = {
        (row["altitude_km"], row["elevation_deg"]): row["capacity_bps"]
        for row in rows
        if not row["error"]
    }
    for row in rows:
        if not row["error"]:
            assert row["total_db"] == (
                row["fspl_db"] + row["gas_db"] + row["scintillation_db"] + row["excess_db"]
            )
    for (a1, a2), e in itertools.product(itertools.pairwise(altitudes), elevations):
        if (a1, e) in capacity and (a2, e) in capacity:
            assert capacity[a2, e] <= capacity[a1, e] * (1 + TOL)
    for a, (e1, e2) in itertools.product(altitudes, itertools.pairwise(elevations)):
        if (a, e1) in capacity and (a, e2) in capacity:
            assert capacity[a, e2] >= capacity[a, e1] * (1 - TOL)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.5, 100.0),
    st.floats(-20.0, 60.0),
    st.floats(-10.0, 80.0),
    st.floats(1.0, 5000.0),
    st.floats(200.0, 35000.0),
    elevations,
    scenarios,
    seeds,
)
def test_g_rx_and_temperature_equal_the_equivalent_g_over_t(
    atm_table, scen_table, fc, tx_power, g_rx, temperature, altitude, elevation, scenario, seed
):
    geometry = LinkGeometry.from_endpoints(0.0, altitude, elevation)
    g_over_t = g_rx - 10.0 * math.log10(temperature)
    snrs = [
        evaluate_link(
            geometry,
            RadioConfig(fc_ghz=fc, tx_power_dbm=tx_power, **receiver),
            scenario,
            atm_table,
            scenario_table=scen_table,
            sampled_seed=seed,
        ).snr_db
        for receiver in (
            {"g_rx_dbi": g_rx, "noise_temperature_k": temperature},
            {"g_over_t_dbi_per_k": g_over_t},
        )
    ]
    assert abs(snrs[0] - snrs[1]) <= TOL


@settings(max_examples=100, deadline=None)
@given(
    sorted_floats(-10.0, 80.0),
    st.floats(200.0, 35000.0),
    elevations,
    st.floats(0.5, 100.0),
    scenarios,
    st.sampled_from(["direct", "relay"]),
    st.sampled_from(["af", "df"]),
)
def test_capacity_non_decreasing_in_receive_gain(
    atm_table, scen_table, gains, altitude, elevation, fc, scenario, mode, relay_mode
):
    spec = SweepSpec(
        axes=(("g_rx_dbi", tuple(gains)),),
        fixed={
            "altitude_km": altitude,
            "elevation_deg": elevation,
            "fc_ghz": fc,
            "scenario": scenario.value,
            "tx_power_dbm": 18.0,
            "noise_temperature_k": 290.0,
            "mode": mode,
            "hap_altitude_km": 20.0,
            "relay_mode": relay_mode,
        },
    )
    rows = run_sweep(spec, atm_table, scen_table).rows
    assert not any(row["error"] for row in rows)
    capacities = [row["capacity_bps"] for row in rows]
    for c1, c2 in itertools.pairwise(capacities):
        assert c2 >= c1 * (1 - TOL)


# The library boundary: evaluate_link, evaluate_chain and run_sweep called
# with values as a library caller may give them. Each parameter has usual
# and edge numbers: test_sweep_reuse's fixed values, its axis values (edge
# where NO_CAPACITY_EXIT lists them), a few for the radio fields those leave
# out, and bandwidths up to the largest float. A number is drawn as a float,
# a numpy float32, float64 or int64 scalar, or text. A call takes edge values
# for none, one or two parameters, as test_sweep_reuse's specs do; an edge
# value is an edge number or True, False or None. Each call also evaluates
# its chain once more in a loose form: its mode as text, or its radios as
# their fields in a dict or a tuple.
POOLS = {
    **FIXED_VALUES,
    **{name: (tuple(v for v in AXIS_VALUES[name] if v not in edge), edge)
       for name, edge in NO_CAPACITY_EXIT.items()},
    "g_tx_dbi": ((39.7, 0.0), ()),
    "g_over_t_dbi_per_k": ((15.9, -10.0, 1e-320), ()),
    "ground_km": ((0.0,), ()),  # the last hop's lower end
}
POOLS["bandwidth_hz"] = (POOLS["bandwidth_hz"][0], (5e-324, 1e308, 1.7e308, sys.float_info.max))
SEEDS = (None, None, 7, np.int64(7), True)
INDICES = (0, 3, np.int64(3), 2.5)


def radio_tuple(**fields):
    return tuple(fields.values())


LOOSE = ((lambda mode: mode.value, RadioConfig), (RelayMode, dict), (RelayMode, radio_tuple))


def forms(number):
    if number is None:  # a bandwidth's Auto
        return [None]
    kinds = [number, np.float64(number), str(number)]
    with np.errstate(over="ignore"):  # float32 takes 1e308 to inf
        kinds.append(np.float32(number))
    if number.is_integer() and abs(number) < 2**63:
        kinds.append(np.int64(number))
    return kinds


@functools.cache  # one strategy per pool: building them took most of a draw's time
def pool(name, edge):
    usual, edges = POOLS[name]
    if edge:
        return st.sampled_from([kind for n in edges for kind in forms(n)] + [True, False, None])
    return st.sampled_from([kind for n in usual for kind in forms(n)])


@st.composite
def boundary_chains(draw):
    """(hops, mode, scenario, seed, index, loose): hops top-down from a station
    through none to two HAPs to the ground, as (geometry values, radio fields),
    each hop with its own radio and receiver form; loose is a (mode form,
    radio builder) pair from LOOSE."""
    edges = draw(st.lists(st.sampled_from(tuple(POOLS)), max_size=2))

    def value(name):
        return draw(pool(name, name in edges))

    def radio():
        form = ("g_over_t_dbi_per_k",) if draw(st.booleans()) else ("g_rx_dbi", "noise_temperature_k")
        return {name: value(name)
                for name in ("fc_ghz", "tx_power_dbm", "g_tx_dbi", "bandwidth_hz", *form)}

    haps = [value("hap_altitude_km") for _ in range(draw(st.integers(0, 2)))]
    altitudes = [value("altitude_km"), *haps, value("ground_km")]
    hops = tuple(((low, high, value("elevation_deg")), radio())
                 for high, low in itertools.pairwise(altitudes))
    return (hops, draw(st.sampled_from(list(RelayMode))), draw(scenarios),
            draw(st.sampled_from(SEEDS)), draw(st.sampled_from(INDICES)),
            draw(st.sampled_from(LOOSE)))


def chain_spec(hops, mode, scenario, seed):
    """The chain's sweep: its station, direct and relayed through hop 0's lower
    end, with hop 0's radio but its carrier, and each hop's elevation and
    carrier as axes."""
    (hap, station, _), radio = hops[0]
    fixed = {key: value for key, value in radio.items() if key != "fc_ghz"}
    fixed.update(scenario=scenario, relay_mode=mode, hap_altitude_km=hap,
                 excess_mode="expected" if seed is None else "sampled")
    axes = (("altitude_km", (station,)), ("mode", ("direct", "relay")),
            ("elevation_deg", tuple(geometry[2] for geometry, _ in hops)),
            ("fc_ghz", tuple(fields["fc_ghz"] for _, fields in hops)))
    return SweepSpec(axes=axes, fixed=fixed, seed=seed)


def assert_finite_floats(result):
    for r in (result, *result.hops):
        b, g = r.breakdown, r.geometry
        values = (b.fspl_db, b.gas_db, b.scintillation_db, b.excess_db, b.total_db, r.snr_db,
                  r.capacity_bps, r.bandwidth_hz, *g, g.slant_range_km, g.one_way_delay_ms)
        assert all(type(v) is float and math.isfinite(v) for v in values), r


AF_RADIO = {"fc_ghz": 20.0, "tx_power_dbm": 30.0, "g_over_t_dbi_per_k": 1e-320,
            "bandwidth_hz": 1e308}
# A rural AF chain whose ground hop's elevation is a numpy float32: its hop
# SNRs' product underflows, so its SNR is folded in dB.
AF_FLOAT32 = ((((17.0, 30.0, 10.0), AF_RADIO), ((0.0, 17.0, np.float32(30.0)), AF_RADIO)),
              RelayMode.AMPLIFY_FORWARD, Scenario.RURAL, None, 0, LOOSE[0])
# A LEO-ground link whose seed, then whose index, has more digits than
# Python will print; SEEDS and INDICES hold only small numbers.
GROUND_LINK = (((0.0, 600.0, 30.0), {"fc_ghz": 20.0, "tx_power_dbm": 18.0,
                                     "g_over_t_dbi_per_k": 15.9}),)
HUGE_SEED = (GROUND_LINK, RelayMode.DECODE_FORWARD, Scenario.URBAN, 10**5000, 0, LOOSE[0])
HUGE_INDEX = (GROUND_LINK, RelayMode.DECODE_FORWARD, Scenario.URBAN, 7, -10**5000, LOOSE[0])


@settings(max_examples=100, deadline=None)
@given(call=boundary_chains())
@example(call=AF_FLOAT32)
@example(call=HUGE_SEED)
@example(call=HUGE_INDEX)
def test_library_gives_finite_floats_or_raises_its_errors(atm_table, scen_table, call):
    # Each call returns finite Python floats, hop by hop, or raises an
    # NtnSimError; each sweep row holds finite floats, or no metrics and an error.
    hops, mode, scenario, seed, index, loose = call
    sampled = {"sampled_seed": seed, "sampled_index": index}

    def link(i):
        (geometry, fields), ground = hops[i], i == len(hops) - 1
        return evaluate_link(LinkGeometry(*geometry), RadioConfig(**fields),
                             scenario if ground else None, atm_table, scen_table,
                             **(sampled if ground else {}))

    def chain(mode_form=RelayMode, radio=RadioConfig):
        built = tuple(RelayHop(LinkGeometry(*geometry), radio(**fields))
                      for geometry, fields in hops)
        return evaluate_chain(RelayChain(built, mode_form(mode), scenario),
                              atm_table, scen_table, **sampled)

    # each hop's link, the chain, then the loose chain
    for evaluate in [functools.partial(link, i) for i in range(len(hops))] + [
            chain, functools.partial(chain, *loose)]:
        try:
            result = evaluate()
        except NtnSimError:
            continue
        assert_finite_floats(result)
    try:
        rows = run_sweep(chain_spec(hops, mode, scenario, seed), atm_table, scen_table).rows
    except NtnSimError:
        return
    metrics = RESULT_COLUMNS[:-2]  # but label and error
    for row in rows:
        if row["error"]:
            assert [row[name] for name in metrics] == [None] * len(metrics)
        else:
            assert all(type(row[name]) is float and math.isfinite(row[name]) for name in metrics)


def test_af_chain_with_a_float32_elevation_equals_the_plain_one(atm_table, scen_table):
    radio = RadioConfig(**AF_RADIO)

    def chain(elevation):
        hops = (RelayHop(LinkGeometry(17.0, 30.0, 10.0), radio),
                RelayHop(LinkGeometry(0.0, 17.0, elevation), radio))
        chain = RelayChain(hops, RelayMode.AMPLIFY_FORWARD, Scenario.RURAL)
        return evaluate_chain(chain, atm_table, scen_table)

    plain, float32 = chain(30.0), chain(np.float32(30.0))
    assert float32 == plain
    assert round(plain.snr_db, 1) == -5930.8 and plain.capacity_bps == 0.0
