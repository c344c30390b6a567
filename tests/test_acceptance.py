"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report lines. Criterion 7 re-computes the whole evaluation chain with
independently written formulas (separate slant-range derivation, own
interpolation, the textbook dB budget) and compares against the
package.
"""

import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracle
from ntnsim import (
    LinkGeometry,
    RadioConfig,
    Scenario,
    differential_delay_ms,
    evaluate_link,
)
from ntnsim.harness.presets import preset
from ntnsim.harness.sweep import run_sweep

REPO_ROOT = Path(__file__).resolve().parent.parent

FIG2_H = (300.0, 600.0, 1200.0, 35786.0)
FIG2_FC = (2.0, 6.0, 20.0, 30.0, 50.0, 70.0, 90.0)
FIG2_GRX = (30.0, 40.0, 50.0, 60.0)
FIG4_ELEV = tuple(float(e) for e in range(10, 91, 10))


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _fig2_capacities(atm_table, scen_table):
    result = run_sweep(preset("fig2"), atm_table, scen_table)
    assert not result.error_rows()
    return {
        (r["altitude_km"], r["fc_ghz"], r["g_rx_dbi"]): r["capacity_bps"]
        for r in result.rows
    }


def test_criterion_1_sub6_ceiling(atm_table, scen_table):
    start = time.perf_counter()
    caps = _fig2_capacities(atm_table, scen_table)
    sub6 = {k: v for k, v in caps.items() if k[1] <= 6.0}
    worst = max(sub6.values())
    elapsed = time.perf_counter() - start
    ok = worst < 500e6 and elapsed < 1.0
    _report(
        1,
        ok,
        f"all {len(sub6)} sub-6 GHz grid points < 500 Mbps "
        f"(max {worst / 1e6:.1f} Mbps, {elapsed:.2f}s)",
    )


def test_criterion_2_mmwave_knee(atm_table, scen_table):
    start = time.perf_counter()
    caps = _fig2_capacities(atm_table, scen_table)
    violations = [
        (h, g)
        for h in FIG2_H
        for g in FIG2_GRX
        if not caps[(h, 90.0, g)] < caps[(h, 70.0, g)]
    ]
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 1.0
    _report(
        2,
        ok,
        f"C(90 GHz) < C(70 GHz) for all (h, g_rx); violations={violations} "
        f"({elapsed:.2f}s)",
    )


def test_criterion_3_altitude_monotonicity(atm_table, scen_table):
    start = time.perf_counter()
    caps = _fig2_capacities(atm_table, scen_table)
    violations = []
    for fc in FIG2_FC:
        for g in FIG2_GRX:
            series = [caps[(h, fc, g)] for h in FIG2_H]
            if not all(a > b for a, b in zip(series, series[1:])):
                violations.append((fc, g))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 1.0
    _report(
        3,
        ok,
        f"capacity strictly decreasing in h for every (fc, g_rx); "
        f"violations={violations} ({elapsed:.2f}s)",
    )


def test_criterion_4_urban_penalty(atm_table, scen_table):
    start = time.perf_counter()
    result = run_sweep(preset("fig3"), atm_table, scen_table)
    caps = {
        (r["elevation_deg"], r["scenario"]): r["capacity_bps"] for r in result.rows
    }
    ratio = caps[(90.0, "dense_urban")] / caps[(90.0, "rural")]
    elapsed = time.perf_counter() - start
    # target <= 40% of rural, with +-15 percentage points of tolerance
    ok = ratio <= 0.40 + 0.15 and elapsed < 1.0
    _report(
        4,
        ok,
        f"dense-urban / rural capacity at 90 deg = {ratio:.3f} "
        f"(bound 0.55, {elapsed:.2f}s)",
    )


def test_criterion_5_relay_boost(atm_table, scen_table):
    start = time.perf_counter()
    result = run_sweep(preset("fig4"), atm_table, scen_table)
    assert not result.error_rows()
    caps = {
        (r["elevation_deg"], r["altitude_km"], r["mode"]): r["capacity_bps"]
        for r in result.rows
    }
    boost = caps[(10.0, 1200.0, "relay")] / caps[(10.0, 1200.0, "direct")]
    weaker = [
        (e, h)
        for e in FIG4_ELEV
        for h in (300.0, 600.0, 1200.0)
        if caps[(e, h, "relay")] < caps[(e, h, "direct")]
    ]
    elapsed = time.perf_counter() - start
    ok = boost >= 2.0 and not weaker and elapsed < 2.0
    _report(
        5,
        ok,
        f"AF relay / direct at (h=1200, a=10) = {boost:.1f}x (floor 2.0x); "
        f"relay < direct at {weaker or 'no grid point'} ({elapsed:.2f}s)",
    )


def test_criterion_6_geo_differential_delay():
    edges = [10.0, 15.0, 20.0, 25.0, 30.0]
    delays = {edge: differential_delay_ms(35786, edge, 90) for edge in edges}
    in_band = {e: d for e, d in delays.items() if 5.0 <= d <= 20.0}
    arithmetic_ok = all(
        delays[e]
        == pytest.approx(
            # the slant ranges re-derived independently, via the central angle
            (oracle.slant_range_km(0.0, 35786, e) - oracle.slant_range_km(0.0, 35786, 90))
            / 299792.458 * 1000,
            rel=1e-9,
        )
        for e in edges
    )
    ok = bool(in_band) and arithmetic_ok
    worst = {e: round(d, 2) for e, d in delays.items()}
    _report(
        6,
        ok,
        f"GEO edge-to-centre delay {worst} ms; in [5, 20] for edges "
        f"{sorted(in_band)} and matches the independent derivation",
    )


# ---------------------------------------------------------------------------
# Criterion 7: independent straight-line recomputation
# ---------------------------------------------------------------------------

def test_criterion_7_oracle_equivalence(atm_table, scen_table):
    rng = random.Random(2026)
    worst = 0.0
    for _ in range(1000):
        low = rng.choice([0.0, 0.0, 0.0, 0.0, 20.0, 300.0])
        high = low + rng.uniform(50.0, 40000.0)
        elev = rng.uniform(10.0, 90.0)
        fc = rng.uniform(0.5, 100.0)
        scenario = rng.choice(list(Scenario)) if low == 0.0 else None
        bandwidth = rng.choice([None, rng.uniform(1e6, 5e9)])
        if rng.random() < 0.5:
            radio = RadioConfig(
                fc_ghz=fc,
                tx_power_dbm=rng.uniform(-10, 43),
                g_tx_dbi=rng.uniform(0, 60),
                g_rx_dbi=rng.uniform(0, 70),
                noise_temperature_k=rng.uniform(20, 1000),
                bandwidth_hz=bandwidth,
            )
        else:
            radio = RadioConfig(
                fc_ghz=fc,
                tx_power_dbm=rng.uniform(-10, 43),
                g_tx_dbi=rng.uniform(0, 60),
                g_over_t_dbi_per_k=rng.uniform(-10, 30),
                bandwidth_hz=bandwidth,
            )
        got = evaluate_link(
            LinkGeometry.from_endpoints(low, high, elev),
            radio,
            scenario,
            atm_table,
            scenario_table=scen_table,
        )
        total, snr, capacity = oracle._oracle_link(
            low, high, elev, fc, scenario, radio.resolve_bandwidth(),
            atm_table, scen_table,
        )
        for a, b in (
            (got.breakdown.total_db, total),
            (got.snr_db, snr),
            (got.capacity_bps, capacity),
        ):
            rel = abs(a - b) / max(abs(b), 1e-300)
            worst = max(worst, rel)
    ok = worst < 1e-9
    _report(
        7,
        ok,
        f"1000 random configs match the independent recomputation; "
        f"worst relative deviation {worst:.2e} (tolerance 1e-9)",
    )


def test_criterion_8_property_suites():
    # Only hypothesis's plugin is loaded: pytest would otherwise rewrite and,
    # without cached bytecode, recompile every module of every installed plugin.
    # The child's CPU time is reported too: wall time well above it means a
    # loaded host rather than a slower suite.
    def cpu_s():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    start, start_cpu = time.perf_counter(), cpu_s()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "tests",
            "-q",
            "--ignore=tests/test_acceptance.py",
            "-p",
            "no:cacheprovider",
            "-p",
            "_hypothesis_pytestplugin",
            "--durations=5",
        ],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"},
        capture_output=True,
        text=True,
    )
    elapsed, cpu = time.perf_counter() - start, cpu_s() - start_cpu
    lines = proc.stdout.strip().splitlines() or ["no output"]
    ok = proc.returncode == 0 and elapsed < 30.0
    detail = (f"property suites: {lines[-1]} in {elapsed:.1f}s wall, {cpu:.1f}s CPU "
              "(< 30s wall required)")
    if not ok:  # the slowest tests, from --durations
        detail += "".join(f"\n  {line}" for line in lines if re.match(r"[\d.]+s ", line))
    _report(8, ok, detail)
