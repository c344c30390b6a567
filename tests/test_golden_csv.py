"""Pinned CSV bodies of a small spec matrix: direct and relay, AF and DF,
expected and sampled clutter, with error rows.

Each case mixes direct and relay points over a grid with a gap altitude
(100 km), an altitude above the GEO band given as an int (1234567, which
also keeps its int formatting in the CSV), an out-of-range elevation
(5 deg) and a carrier outside the atmosphere table (0.3 GHz); the
`hap_in_gap` case puts the HAP at 26 km, so every relay point fails.
The digests are sha256 over the header and rows joined by newlines,
provenance comments excluded.
"""

import hashlib

import pytest

from ntnsim.harness.rows import csv_bytes
from ntnsim.harness.sweep import SweepSpec, run_sweep

AXES = (
    ("altitude_km", (20.0, 100.0, 600.0, 35786.0, 1234567)),
    ("fc_ghz", (0.3, 2.0, 20.0, 60.0, 90.0)),
    ("elevation_deg", (5.0, 10.0, 45.5, 90.0)),
    ("g_rx_dbi", (30.0, 50.0)),
    ("scenario", ("dense_urban", "rural")),
    ("mode", ("direct", "relay")),
)
RADIO = {"tx_power_dbm": 18.0, "noise_temperature_k": 290.0}


def case(relay_mode, excess_mode="expected", seed=None, hap=20.0, **changes):
    fixed = {
        **RADIO,
        "hap_altitude_km": hap,
        "relay_mode": relay_mode,
        "excess_mode": excess_mode,
    }
    return SweepSpec(axes=AXES, fixed=fixed, seed=seed, **changes)


CASES = {
    "af_expected": case("af"),
    "df_expected": case("df"),
    "af_sampled_3": case("af", "sampled", 3),
    "af_sampled_11": case("af", "sampled", 11),
    "df_sampled_3": case("df", "sampled", 3),
    "df_sampled_11": case("df", "sampled", 11),
    "hap_in_gap": case("af", hap=26.0),
    # A ground-level "HAP": the ground hop's geometry fails before the
    # upper hop's out-of-table carrier does.
    "hap_on_ground": case("df", hap=0.0),
    # G/T form, fixed bandwidth, other axis order, a mode word in capitals,
    # and a schema with string and extra columns, the fixed scenario's
    # among them (it carries "urban").
    "got_schema": SweepSpec(
        axes=(
            ("elevation_deg", (90.0, 5.0, 30.0)),
            ("mode", ("Relay", "direct")),
            ("altitude_km", (1200.0, 100.0, 300.0)),
            ("fc_ghz", (120.0, 20.0, 6.0)),
        ),
        fixed={
            "scenario": "urban",
            "tx_power_dbm": 18.0,
            "g_over_t_dbi_per_k": 15.9,
            "bandwidth_hz": 400e6,
            "hap_altitude_km": 20.0,
            "relay_mode": "df",
        },
        output_schema=(
            "mode", "altitude_km", "label", "slant_range_km", "bandwidth_hz",
            "snr_db", "capacity_bps", "scenario", "error",
        ),
    ),
}

DIGESTS = {
    "af_expected": "9e3936d1bf87433828ea9edf38308ec37ce9a419fd7e9ef7a4d6582eccd96eef",
    "df_expected": "302038e7bca85d002d1e2bdb23980137901c6566978d9837b11b82bd9d122875",
    "af_sampled_3": "c749b0edb09c44f10dcadf28d95d4697dfaa2d3ee43604c0e1f26b232e768d28",
    "af_sampled_11": "7f3e15ceea1ea53c7dc58039f59dbbca4db32d925c5bb4d59201d99e7cd06346",
    "df_sampled_3": "e9d32c1e5b767af0dcee2e818f5806d03d8b01fa0f5e9185db735570d2067dbe",
    "df_sampled_11": "afcd8f277ff9078d26e73689df90462ad5f21f3f1fb96e7f3868399420feb72e",
    "hap_in_gap": "9424c2da88c97ef33a617b2cee0b32618802819ee5d6956f8e42f4a60fbfdabc",
    "hap_on_ground": "d4d60c6d299bb3db330994869685856260449a5669cf0f4eb5b0b3aaa0206faa",
    "got_schema": "f5335b3345dbaf68411b5f6e7e60a6bcabdda82d5d2f454a3c194eeecac278b8",
}


def body_digest(text: str) -> str:
    body = [line for line in text.split("\n") if line and not line.startswith("#")]
    return hashlib.sha256("\n".join(body).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_body_is_pinned(name, atm_table, scen_table):
    result = run_sweep(CASES[name], atm_table, scen_table)
    assert body_digest(csv_bytes(result).decode("utf-8")) == DIGESTS[name]
