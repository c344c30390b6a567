"""Sampled clutter draws one independent stream per seed and per point.

Row index i of a sampled sweep with seed s draws its LOS state and its
shadowing from blake2b(b"s:i") (see channel.ScenarioRow.sampled_db and
data/FORMATS.md); a single link or chain with seed s draws row 0's
stream. These tests hold the draws to the scenario table's statistics,
check that nearby and opposite seeds are unrelated, and recompute the
documented scheme from hashlib alone.
"""

import math
import statistics
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from ntnsim import (
    DomainError,
    LinkGeometry,
    Scenario,
    evaluate_chain,
    evaluate_link,
    excess_loss_db,
    load_atmosphere_table,
    load_scenario_table,
)
from ntnsim.harness.cli import main
from ntnsim.harness.rows import EXTRA_COLUMNS, METRIC_COLUMNS, format_value
from ntnsim.harness.sweep import SweepSpec, run_sweep
from ntnsim.relay import RelayChain, RelayHop

N_POINTS = 10_000
# One (scenario, elevation) cell: dense_urban at 10 deg, where the LOS
# state (about 4 dB) and the NLOS state (about 36 dB) separate at 20 dB.
SCENARIO, ELEVATION = Scenario.DENSE_URBAN, 10.0
STATE_SPLIT_DB = 20.0
RADIO = {"g_over_t_dbi_per_k": 15.9, "tx_power_dbm": 18.0}


def sampled_spec(seed, axes, **fixed):
    return SweepSpec(
        axes=axes,
        fixed={**RADIO, "excess_mode": "sampled", **fixed},
        seed=seed,
    )


@lru_cache(maxsize=None)
def cell_draws(seed):
    """excess_db of N_POINTS sampled direct points that share one scenario cell."""
    spec = sampled_spec(
        seed,
        (
            ("altitude_km", tuple(300.0 + 10.0 * i for i in range(100))),
            ("fc_ghz", tuple(1.0 + 0.5 * i for i in range(N_POINTS // 100))),
        ),
        elevation_deg=ELEVATION,
        scenario=SCENARIO.value,
    )
    rows = run_sweep(spec, load_atmosphere_table(), load_scenario_table()).rows
    assert not any(row["error"] for row in rows)
    return [row["excess_db"] for row in rows]


@pytest.mark.parametrize("seed", [0, 2**31 - 1])
def test_draws_match_the_scenario_cell(scen_table, seed):
    cell = scen_table.cell(SCENARIO, ELEVATION)
    sigma = cell.shadow_sigma_db
    # The states separate: each lies 4 sigma or more from the split.
    assert cell.clutter_los_db + 4 * sigma <= STATE_SPLIT_DB
    assert cell.clutter_nlos_db - 4 * sigma >= STATE_SPLIT_DB
    nlos = [d for d in cell_draws(seed) if d > STATE_SPLIT_DB]
    los_fraction = 1.0 - len(nlos) / N_POINTS
    binomial_sigma = math.sqrt(cell.p_los * (1.0 - cell.p_los) / N_POINTS)
    assert abs(los_fraction - cell.p_los) < 4 * binomial_sigma
    assert abs(statistics.stdev(nlos) - sigma) / sigma < 0.10
    assert abs(statistics.fmean(nlos) - cell.clutter_nlos_db) < 4 * sigma / math.sqrt(len(nlos))


@pytest.mark.parametrize("seed", [0, 2**31 - 1])
def test_adjacent_seeds_are_unrelated(seed):
    a, b = cell_draws(seed), cell_draws(seed + 1)
    assert sorted(a) != sorted(b)  # not the same draws in another order
    assert abs(statistics.correlation(a, b)) < 0.05


def test_adjacent_points_are_unrelated():
    draws = cell_draws(0)
    assert abs(statistics.correlation(draws[:-1], draws[1:])) < 0.05


def test_negative_seed_differs(scen_table):
    assert cell_draws(-1) != cell_draws(1)
    assert cell_draws(-1)[0] != cell_draws(1)[0]
    assert excess_loss_db(
        SCENARIO, ELEVATION, scen_table, sampled_seed=-5
    ) != excess_loss_db(SCENARIO, ELEVATION, scen_table, sampled_seed=5)


@pytest.mark.parametrize("seed", [2.5, 3.0, True, "3", None])
def test_non_integer_seed_rejected(scen_table, seed):
    with pytest.raises(DomainError, match="sampled_seed must be an integer"):
        scen_table.cell(SCENARIO, ELEVATION).sampled_db(seed)
    with pytest.raises(DomainError, match="sampled_seed must be an integer"):
        scen_table.cell(SCENARIO, ELEVATION).sampler(seed)  # before any draw
    if seed is not None:  # None is expected mode
        with pytest.raises(DomainError, match="sampled_seed must be an integer"):
            excess_loss_db(SCENARIO, ELEVATION, scen_table, sampled_seed=seed)


SEEDS = [0, 2**63, -2**63, *range(-8, 12)]


def test_cached_seed_prefixes_leave_every_stream_unchanged(scen_table):
    # Draws interleave many seeds, and every (seed, index) pair comes back;
    # a seed's hashed prefix updated in place would corrupt later draws.
    cell = scen_table.cell(SCENARIO, ELEVATION)
    for index in (0, 1, 0, 12345, 1):
        for seed in SEEDS + SEEDS[::-1]:
            assert cell.sampled_db(seed, index) == oracle.documented_draw(cell, seed, index)


def test_samplers_leave_every_stream_unchanged(scen_table):
    # One sampler draws repeated indices, and the samplers of several seeds
    # draw in turn; each holds its seed's prefix, which no draw may update.
    cell = scen_table.cell(SCENARIO, ELEVATION)
    draws = {seed: cell.sampler(seed) for seed in SEEDS}
    for index in (0, 1, 0, 12345, 1, 1):
        for seed in SEEDS + SEEDS[::-1]:
            assert draws[seed](index) == oracle.documented_draw(cell, seed, index)


@pytest.mark.parametrize("index", [2.5, True])
def test_non_integer_index_rejected(atm_table, scen_table, got_radio, index):
    # "%d" would draw row 2's stream for 2.5 and row 1's for True.
    message = "sampled_index must be an integer"
    with pytest.raises(DomainError, match=message):
        scen_table.cell(SCENARIO, ELEVATION).sampled_db(3, index)
    geometry = LinkGeometry.from_endpoints(0.0, 600.0, 30.0)
    with pytest.raises(DomainError, match=message):
        evaluate_link(
            geometry, got_radio(), SCENARIO, atm_table, scenario_table=scen_table,
            sampled_seed=3, sampled_index=index,
        )
    chain = RelayChain(hops=(
        RelayHop(LinkGeometry.from_endpoints(20.0, 600.0, 30.0), got_radio()),
        RelayHop(LinkGeometry.from_endpoints(0.0, 20.0, 30.0), got_radio()),
    ), scenario=SCENARIO)
    with pytest.raises(DomainError, match=message):
        evaluate_chain(chain, atm_table, scen_table, sampled_seed=3, sampled_index=index)


@pytest.mark.parametrize("seed", [0, -3, 2**40])
def test_rows_follow_the_documented_scheme(atm_table, scen_table, seed):
    spec = sampled_spec(
        seed,
        (
            ("mode", ("direct", "relay")),
            ("elevation_deg", (10.0, 25.5, 90.0)),
            ("scenario", ("dense_urban", "rural")),
            ("altitude_km", (100.0, 600.0)),  # 100 km is a gap: an error row
        ),
        fc_ghz=20.0,
        hap_altitude_km=20.0,
    )
    rows = run_sweep(spec, atm_table, scen_table).rows
    assert sum(1 for row in rows if row["error"]) == len(rows) // 2
    for index, row in enumerate(rows):
        if not row["error"]:
            cell = scen_table.cell(Scenario.from_name(row["scenario"]), row["elevation_deg"])
            assert row["excess_db"] == oracle.documented_draw(cell, seed, index)


GRID_VALUES = {  # 100 km is a gap altitude and 120 GHz is off the table: error rows
    "altitude_km": (100.0, 600.0, 1200.0, 35786.0),
    "fc_ghz": (2.0, 20.0, 120.0),
    "elevation_deg": (10.0, 33.3, 90.0),
    "scenario": tuple(s.value for s in Scenario),
    "mode": ("direct", "relay"),
}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_excess_is_its_cells_draw_at_the_row_index(atm_table, scen_table, data):
    # Whatever the grid's shape and axis order, row i draws stream i.
    names = data.draw(st.lists(st.sampled_from(sorted(GRID_VALUES)), unique=True))
    values = {n: st.lists(st.sampled_from(GRID_VALUES[n]), min_size=1, max_size=4) for n in names}
    axes = tuple((name, tuple(data.draw(values[name]))) for name in names)
    fixed = {n: v[0] for n, v in GRID_VALUES.items() if n not in names}
    seed = data.draw(st.integers(-2**63, 2**63))
    spec = sampled_spec(seed, axes, **fixed, hap_altitude_km=20.0)
    rows = run_sweep(spec, atm_table, scen_table).rows
    for index, row in enumerate(rows):
        point = {**fixed, **row}
        if not row["error"]:
            cell = scen_table.cell(Scenario.from_name(point["scenario"]), point["elevation_deg"])
            assert row["excess_db"] == cell.sampled_db(seed, index)


SINGLE_COLUMNS = METRIC_COLUMNS + tuple(c for c in EXTRA_COLUMNS if c != "error")


def cli_row(capsys, *argv):
    assert main(list(argv)) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    header, row = (line.split(",") for line in lines)
    return {c: v for c, v in zip(header, row) if c in SINGLE_COLUMNS}


def sweep_row_0(spec, atm_table, scen_table):
    row = run_sweep(spec, atm_table, scen_table).rows[0]
    assert not row["error"]
    return {c: format_value(row[c]) for c in SINGLE_COLUMNS}


@pytest.mark.parametrize("seed", [0, 5, -5, 2**40])
def test_link_seed_is_row_0_of_a_sweep(capsys, atm_table, scen_table, seed):
    link = cli_row(
        capsys,
        "link", "--alt", "600", "--elev", "30", "--fc", "20", "--scenario", "dense_urban",
        "--got", "15.9", "--txpow", "18", "--seed", str(seed),
    )
    spec = sampled_spec(
        seed,
        (("altitude_km", (600.0,)),),
        fc_ghz=20.0,
        elevation_deg=30.0,
        scenario="dense_urban",
    )
    assert link == sweep_row_0(spec, atm_table, scen_table)


@pytest.mark.parametrize("seed", [0, -5])
def test_chain_seed_is_row_0_of_a_relay_sweep(capsys, atm_table, scen_table, seed):
    chain = cli_row(
        capsys,
        "chain", "--hop", "1200:10", "--hop", "20:10", "--mode", "af", "--fc", "20",
        "--scenario", "dense_urban", "--got", "15.9", "--txpow", "18", "--seed", str(seed),
    )
    spec = sampled_spec(
        seed,
        (("altitude_km", (1200.0,)),),
        fc_ghz=20.0,
        elevation_deg=10.0,
        scenario="dense_urban",
        mode="relay",
        hap_altitude_km=20.0,
        relay_mode="af",
    )
    assert chain == sweep_row_0(spec, atm_table, scen_table)
