"""Model invariants over random inputs: relay folds, stage sums, the G/T
identity, monotonicity.

Monotonicity is checked on run_sweep rows, the path sweeps take; the
reuse tests show those rows equal evaluate_link's. Comparisons that
cross float rounding (a dB value converted to linear and back, or a
slant range at two nearby elevations) allow 1e-9, the tolerance at which
the scalar path and any fast path must agree.
"""

import itertools
import math

from hypothesis import given, settings, strategies as st

from ntnsim import (
    LinkGeometry,
    RadioConfig,
    RelayChain,
    RelayHop,
    RelayMode,
    Scenario,
    evaluate_chain,
    evaluate_link,
)
from ntnsim.harness import SweepSpec, run_sweep

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
