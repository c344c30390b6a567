"""A sweep reuses stage results across grid points without changing any row.

The reference evaluates every point on its own through the scalar
per-point API (evaluate_link and evaluate_chain, given the point's
sampled stream index), so each stage is computed from scratch;
run_sweep must reproduce it exactly.
"""

import itertools
import math

import pytest
from hypothesis import example, given, settings

from ntnsim import AtmosphereTable, NtnSimError, Scenario
from ntnsim.harness.rows import METRIC_COLUMNS, RESULT_COLUMNS
from ntnsim.harness.sweep import SweepSpec, run_sweep
from strategies import chain_record, edge_specs

FAILED = {**dict.fromkeys(METRIC_COLUMNS + ("slant_range_km", "bandwidth_hz")), "label": ""}


def reference_row(point, fixed, table, scenario_table, seed, index):
    """Metric and extra columns of one point, evaluated on its own."""
    radio = {
        "fc_ghz": point["fc_ghz"],
        "tx_power_dbm": fixed["tx_power_dbm"],
        "g_rx_dbi": point["g_rx_dbi"],
        "noise_temperature_k": fixed["noise_temperature_k"],
        "bandwidth_hz": fixed.get("bandwidth_hz"),
    }
    highs = [point["altitude_km"]]
    if point["mode"] == "relay":
        highs.append(fixed["hap_altitude_km"])
    stations = [(high, point["elevation_deg"]) for high in highs]
    try:
        record = chain_record(radio, stations, fixed.get("relay_mode", "af"),
                              Scenario.from_name(point["scenario"]), table, scenario_table,
                              seed, index)
    except NtnSimError as exc:
        return {**FAILED, "error": str(exc)}
    return dict(zip(RESULT_COLUMNS, record))


def reference_rows(spec, table, scenario_table):
    names = spec.axis_names()
    sampled = spec.fixed.get("excess_mode") == "sampled"
    rows = []
    for index, combo in enumerate(itertools.product(*(v for _, v in spec.axes))):
        point = {**spec.fixed, **dict(zip(names, combo))}
        seed = spec.seed if sampled else None
        rows.append({
            **dict(zip(names, combo)),
            **reference_row(point, spec.fixed, table, scenario_table, seed, index),
        })
    return rows


# fc_ghz is the inner axis; on the one prefix, the radios stage's arguments
# (fc_ghz, g_rx_dbi) and the atmosphere stage's (fc_ghz, elevation_deg) are both
# (20.0, 30.0), so a column memo keyed without its stage would mix their columns.
MEMO_COLLISION = SweepSpec(
    axes=(("g_rx_dbi", (30.0,)), ("elevation_deg", (30.0,)), ("altitude_km", (600.0,)),
          ("scenario", ("dense_urban",)), ("mode", ("direct",)), ("fc_ghz", (20.0, 30.0))),
    fixed={"tx_power_dbm": 18.0, "noise_temperature_k": 290.0, "hap_altitude_km": 20.0},
)


@settings(max_examples=40, deadline=None)
@given(edge_specs())
@example(spec=MEMO_COLLISION)
def test_sweep_rows_equal_per_point_evaluation(atm_table, scen_table, spec):
    rows = run_sweep(spec, atm_table, scen_table).rows
    assert list(rows) == reference_rows(spec, atm_table, scen_table)
    metrics = [name for name in FAILED if name != "label"]
    for row in rows:  # finite metrics and no error, or no metrics and an error
        if row["error"]:
            assert [row[name] for name in metrics] == [None] * len(metrics)
        else:
            assert all(type(row[name]) is float and math.isfinite(row[name]) for name in metrics)


# Each axis order's axes and error pattern, by test id suffix. Row order
# (g_rx_dbi, mode) puts the failing points after every good one; (mode,
# g_rx_dbi) makes the 4000 dBi direct point fail after good points of the
# same mode, which run_sweep evaluates together.
OVERFLOW_ORDERS = {
    "": ("g_rx_dbi", "mode", [False, False, False, True, True, True]),
    "-g_rx_dbi_last": ("mode", "g_rx_dbi", [False, False, True, False, True, True]),
}


@pytest.mark.parametrize(
    "relay_mode, order",
    [
        pytest.param(mode, order, id=mode + order)
        for order in OVERFLOW_ORDERS
        for mode in ("af", "df")
    ],
)
def test_snr_overflow_is_the_points_error_row(atm_table, scen_table, relay_mode, order):
    # Above about 3083 dB an SNR's power ratio overflows a float. A
    # 3122.5 dBi receive gain takes the HAP-ground hop of a relay past it,
    # but not the HAP-GEO hop or the direct link; 4000 dBi takes all.
    *names, overflow = OVERFLOW_ORDERS[order]
    values = {"g_rx_dbi": (50.0, 3122.5, 4000.0), "mode": ("direct", "relay")}
    spec = SweepSpec(
        axes=tuple((name, values[name]) for name in names),
        fixed={
            "altitude_km": 35786.0,
            "fc_ghz": 20.0,
            "elevation_deg": 30.0,
            "scenario": "rural",
            "tx_power_dbm": 18.0,
            "noise_temperature_k": 290.0,
            "hap_altitude_km": 20.0,
            "relay_mode": relay_mode,
        },
    )
    rows = run_sweep(spec, atm_table, scen_table).rows
    assert list(rows) == reference_rows(spec, atm_table, scen_table)
    assert [bool(row["error"]) for row in rows] == overflow
    for row in rows:
        if row["error"]:
            assert "dB is too large for a linear power ratio" in row["error"]


@pytest.mark.parametrize("relay_mode", ["af", "df"])
@pytest.mark.parametrize("power", [1e308, -1e308])
def test_non_finite_snr_rows_equal_the_scalar_rows(atm_table, scen_table, relay_mode, power):
    # Transmit power and receive gain of 1e308 each sum to an infinite
    # budget, of -1e308 to a budget of -inf: every point's SNR is not finite.
    spec = SweepSpec(
        axes=(("mode", ("direct", "relay")), ("elevation_deg", (10.0, 60.0))),
        fixed={
            "altitude_km": 600.0,
            "fc_ghz": 20.0,
            "g_rx_dbi": power,
            "scenario": "rural",
            "tx_power_dbm": power,
            "noise_temperature_k": 290.0,
            "hap_altitude_km": 20.0,
            "relay_mode": relay_mode,
        },
    )
    rows = run_sweep(spec, atm_table, scen_table).rows
    assert list(rows) == reference_rows(spec, atm_table, scen_table)
    message = "dB is not finite: the link budget overflows a float"
    assert all(row["error"].endswith(message) for row in rows)


@pytest.mark.parametrize("g_rx_dbi", [3122.5, 4000.0])
@pytest.mark.parametrize("relay_mode", ["af", "df"])
@pytest.mark.parametrize("hap_altitude_km", [1e-13, 2e-12, 20.0])
def test_relay_error_is_the_first_hops_overflow(
    atm_table, scen_table, hap_altitude_km, relay_mode, g_rx_dbi
):
    # Both gains take the LEO-HAP hop's SNR past a float's power ratio.
    # evaluate_chain computes that hop's capacity before the HAP-ground
    # hop, whose slant range is zero through a HAP at 1e-13 km and whose
    # FSPL is negative through one at 2e-12 km, so the overflow is the
    # point's error.
    spec = SweepSpec(
        axes=(("g_rx_dbi", (g_rx_dbi,)),),
        fixed={
            "altitude_km": 600.0,
            "fc_ghz": 20.0,
            "elevation_deg": 30.0,
            "scenario": "rural",
            "mode": "relay",
            "tx_power_dbm": 18.0,
            "noise_temperature_k": 290.0,
            "hap_altitude_km": hap_altitude_km,
            "relay_mode": relay_mode,
        },
    )
    (row,) = run_sweep(spec, atm_table, scen_table).rows
    (expected,) = reference_rows(spec, atm_table, scen_table)
    assert "dB is too large for a linear power ratio" in expected["error"]
    assert row["error"] == expected["error"]


@pytest.mark.parametrize("relay_mode", ["af", "df"])
@pytest.mark.parametrize("hap_altitude_km", [1e-13, 2e-12])
def test_relay_ground_hop_fspl_error_row_equals_the_scalar_row(
    atm_table, scen_table, hap_altitude_km, relay_mode
):
    # Through a HAP at 1e-13 km the HAP-ground hop's slant range is zero, at
    # 2e-12 km its FSPL is negative. Hop 0's SNR fits a float, so that
    # FSPL's error is the point's.
    spec = SweepSpec(
        axes=(("g_rx_dbi", (40.0,)),),
        fixed={
            "altitude_km": 600.0,
            "fc_ghz": 20.0,
            "elevation_deg": 30.0,
            "scenario": "rural",
            "mode": "relay",
            "tx_power_dbm": 18.0,
            "noise_temperature_k": 290.0,
            "hap_altitude_km": hap_altitude_km,
            "relay_mode": relay_mode,
        },
    )
    (row,) = run_sweep(spec, atm_table, scen_table).rows
    (expected,) = reference_rows(spec, atm_table, scen_table)
    messages = ("slant range and frequency must be > 0", "fspl_db must be > 0")
    assert expected["error"].startswith(messages)
    assert row == expected


@pytest.mark.parametrize(
    "tx_power_dbm, relay_mode, seed",
    [
        pytest.param(3000.0, "af", None, id="3000.0"),
        pytest.param(-2900.0, "af", None, id="-2900.0"),
        pytest.param(-2900.0, "af", 7, id="-2900.0-seed-7"),
        pytest.param(-3500.0, "df", None, id="-3500.0-df"),
    ],
)
def test_af_product_overflow_row_equals_the_scalar_row(
    atm_table, scen_table, tx_power_dbm, relay_mode, seed
):
    # The chain of `ntnsim chain --hop 1200:10 --hop 20:10 --txpow 3000`:
    # each hop's linear SNR fits a float, their product does not. At
    # --txpow -2900 the product underflows to zero instead; with sampled
    # clutter its row draws the stream of its own index. At --txpow -3500
    # both hop SNRs are below -3240 dB, so both DF capacities are 0.0 and
    # the tie goes to hop 0.
    spec = SweepSpec(
        axes=(("mode", ("relay",)),),
        fixed={
            "altitude_km": 1200.0,
            "fc_ghz": 20.0,
            "elevation_deg": 10.0,
            "scenario": "dense_urban",
            "g_rx_dbi": 40.0,
            "tx_power_dbm": tx_power_dbm,
            "noise_temperature_k": 290.0,
            "hap_altitude_km": 20.0,
            "relay_mode": relay_mode,
            "excess_mode": "expected" if seed is None else "sampled",
        },
        seed=seed,
    )
    (row,) = rows = run_sweep(spec, atm_table, scen_table).rows
    assert list(rows) == reference_rows(spec, atm_table, scen_table)
    assert row["error"] == "" and math.isfinite(row["snr_db"])
    if relay_mode == "df":
        assert row["capacity_bps"] == 0.0 and row["snr_db"] < -3500.0


@pytest.mark.parametrize("relay_mode", ["af", "df"])
def test_capacity_overflow_rows_equal_the_scalar_rows(atm_table, scen_table, relay_mode):
    # At 1e308 Hz a capacity overflows a float above an SNR of about 3.9 dB.
    # At 3020 dBm the 40 dBi direct point stays below it, at -24.6 dB, and
    # the 70 dBi one does not. Both hops of the 40 dBi chain pass it, at 5.1
    # and 4.5 dB, and their AF fold, at 1.1 dB, does not: the chain fails at
    # hop 0's capacity, as every point at 70 dBi fails.
    spec = SweepSpec(
        axes=(("mode", ("direct", "relay")), ("g_rx_dbi", (40.0, 70.0))),
        fixed={
            "altitude_km": 1200.0,
            "fc_ghz": 20.0,
            "elevation_deg": 10.0,
            "scenario": "dense_urban",
            "tx_power_dbm": 3020.0,
            "noise_temperature_k": 290.0,
            "bandwidth_hz": 1e308,
            "hap_altitude_km": 20.0,
            "relay_mode": relay_mode,
        },
    )
    rows = run_sweep(spec, atm_table, scen_table).rows
    assert list(rows) == reference_rows(spec, atm_table, scen_table)
    overflow = [row["error"].startswith("capacity at 1e+308 Hz and SNR ") for row in rows]
    assert overflow == [False, True, True, True]


def test_reuse_does_not_outlive_a_call(atm_table, scen_table):
    doubled = AtmosphereTable(
        frequency_grid_ghz=atm_table.frequency_grid_ghz,
        zenith_gas_db=tuple(2.0 * g for g in atm_table.zenith_gas_db),
        scintillation_ref_db=tuple(2.0 * s for s in atm_table.scintillation_ref_db),
        version="doubled",
    )
    spec = SweepSpec(
        axes=(
            ("altitude_km", (300.0, 1200.0)),
            ("fc_ghz", (2.0, 20.0, 60.0)),
            ("elevation_deg", (10.0, 30.0, 90.0)),
            ("mode", ("direct", "relay")),
        ),
        fixed={
            "scenario": "urban",
            "g_rx_dbi": 40.0,
            "tx_power_dbm": 18.0,
            "noise_temperature_k": 290.0,
            "hap_altitude_km": 20.0,
            "relay_mode": "af",
        },
    )
    runs = [
        (table, list(run_sweep(spec, table, scen_table).rows))
        for table in (atm_table, doubled, atm_table)
    ]
    for table, rows in runs:
        assert rows == reference_rows(spec, table, scen_table)
    assert runs[0][1] != runs[1][1]


# A prefix whose altitude fails its station check, which the chain runs
# right after the radio, fails at every point with that one error when
# no radio fails; run_sweep fills it from its first point. 100 km lies in
# the HAP-LEO gap, and 120 GHz is off the atmosphere table, a prefix
# failure that depends on the point.
FILL_FIXED = {
    "tx_power_dbm": 18.0, "noise_temperature_k": 290.0, "g_rx_dbi": 40.0, "relay_mode": "af",
}


@pytest.mark.parametrize("excess_mode", ["expected", "sampled"])
@pytest.mark.parametrize("mode", ["direct", "relay"])
def test_gap_altitude_prefixes_equal_the_scalar_rows(atm_table, scen_table, mode, excess_mode):
    # Through a 26 km HAP, in the gap, every relay point fails: at 100 km at its
    # altitude's station, elsewhere at the HAP's.
    for hap in (20.0, 26.0):
        spec = SweepSpec(
            axes=(
                ("altitude_km", (600.0, 100.0, 1200.0, 100.0)),
                ("fc_ghz", (2.0, 20.0, 120.0)),  # the inner axis
            ),
            fixed={
                **FILL_FIXED,
                "elevation_deg": 30.0,
                "scenario": "urban",
                "mode": mode,
                "hap_altitude_km": hap,
                "excess_mode": excess_mode,
            },
            seed=7 if excess_mode == "sampled" else None,
        )
        rows = list(run_sweep(spec, atm_table, scen_table).rows)
        assert rows == reference_rows(spec, atm_table, scen_table)
        at_hap = mode == "relay" and hap == 26.0
        errors = [row["error"] for row in rows]
        gap = [error.split(" lies")[0] if "lies in the gap" in error else "" for error in errors]
        hap_gap = ["altitude 26.0 km" if at_hap else ""] * 3
        assert gap == (hap_gap + ["altitude 100.0 km"] * 3) * 2
        assert list(map(bool, errors)) == [at_hap, at_hap, True, *[True] * 3] * 2


def test_gap_hap_fails_after_the_radio_check_point_by_point(atm_table, scen_table):
    # Through a 26 km HAP, in the gap, a relay point fails at the HAP's
    # station check, after its radio's and its altitude's; a carrier of
    # -2 GHz fails the radio check first, at 600 km as at 100 km, so no
    # prefix is filled.
    spec = SweepSpec(
        axes=(("altitude_km", (600.0, 100.0)), ("fc_ghz", (2.0, 120.0, -2.0))),
        fixed={
            **FILL_FIXED,
            "elevation_deg": 30.0,
            "scenario": "rural",
            "mode": "relay",
            "hap_altitude_km": 26.0,
            "excess_mode": "sampled",
        },
        seed=3,
    )
    rows = list(run_sweep(spec, atm_table, scen_table).rows)
    assert rows == reference_rows(spec, atm_table, scen_table)
    errors = [row["error"].split(" lies")[0] for row in rows]
    radio = "fc_ghz must be > 0, got -2.0"
    assert errors == ["altitude 26.0 km"] * 2 + [radio] + ["altitude 100.0 km"] * 2 + [radio]


@pytest.mark.parametrize("mode", ["direct", "relay"])
def test_gap_prefixes_beside_a_failing_carrier_equal_the_scalar_rows(atm_table, scen_table, mode):
    # A carrier of -2 GHz fails the radio check, the first, of its prefixes,
    # which go point by point. The 100 km prefix at 20 GHz, whose radio
    # holds, is filled with its station's error.
    spec = SweepSpec(
        axes=(
            ("fc_ghz", (-2.0, 20.0)),
            ("altitude_km", (600.0, 100.0)),
            ("elevation_deg", (10.0, 45.0, 90.0)),  # the inner axis
        ),
        fixed={**FILL_FIXED, "scenario": "suburban", "mode": mode, "hap_altitude_km": 20.0},
    )
    rows = list(run_sweep(spec, atm_table, scen_table).rows)
    assert rows == reference_rows(spec, atm_table, scen_table)
    errors = [row["error"].split(" lies")[0] for row in rows]
    assert errors == ["fc_ghz must be > 0, got -2.0"] * 6 + [""] * 3 + ["altitude 100.0 km"] * 3


@pytest.mark.parametrize("mode", ["direct", "relay"])
def test_altitude_as_the_inner_axis_is_never_filled(atm_table, scen_table, mode):
    spec = SweepSpec(
        axes=(("fc_ghz", (20.0, 120.0)), ("altitude_km", (100.0, 600.0, 100.0))),
        fixed={
            **FILL_FIXED,
            "elevation_deg": 45.0,
            "scenario": "dense_urban",
            "mode": mode,
            "hap_altitude_km": 20.0,
            "relay_mode": "df",
            "excess_mode": "sampled",
        },
        seed=11,
    )
    rows = list(run_sweep(spec, atm_table, scen_table).rows)
    assert rows == reference_rows(spec, atm_table, scen_table)
    assert [bool(row["error"]) for row in rows] == [True, False, True, True, True, True]


# Valid values only, so no point leaves the reused columns for the scalar
# path: each stage's column along the inner axis must hold that stage's own
# values, computed from the axes it reads.
REUSE_AXES = {
    "altitude_km": (600.0, 1200.0),
    "fc_ghz": (20.0, 30.0),
    "elevation_deg": (30.0, 60.0),
    "g_rx_dbi": (30.0, 50.0),
    "scenario": ("dense_urban", "rural"),
    "mode": ("relay", "direct"),
}


@pytest.mark.parametrize("excess_mode", ["expected", "sampled"])
@pytest.mark.parametrize("relay_mode", ["af", "df"])
@pytest.mark.parametrize("inner", [name for name in REUSE_AXES if name != "mode"])
def test_columns_along_every_inner_axis_equal_the_scalar_rows(
    atm_table, scen_table, inner, relay_mode, excess_mode
):
    names = [name for name in REUSE_AXES if name != inner] + [inner]
    spec = SweepSpec(
        axes=tuple((name, REUSE_AXES[name]) for name in names),
        fixed={
            "tx_power_dbm": 18.0,
            "noise_temperature_k": 290.0,
            "hap_altitude_km": 20.0,
            "relay_mode": relay_mode,
            "excess_mode": excess_mode,
        },
        seed=7 if excess_mode == "sampled" else None,
    )
    rows = run_sweep(spec, atm_table, scen_table).rows
    assert not any(row["error"] for row in rows)
    assert list(rows) == reference_rows(spec, atm_table, scen_table)
