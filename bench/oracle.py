"""Closed-form correctness oracle for the benchmark.

Recomputes every row quantity from the packaged table files with numpy,
without calling any ntnsim stage function: slant range (central-angle
form, not the package's closed form), free-space path loss, csc-law gas
absorption, scintillation, the expected clutter mixture, the noise
budget, Shannon capacity and the amplify-and-forward fold.

Two tolerances apply:
- ``REL_TOL`` (1e-9, the acceptance criterion-7 tolerance) for the
  full-precision values in ``SweepResult.rows``, absolute below 1;
- ``CSV_TOL`` for CSV cells, which carry 6 significant digits, so a cell
  may differ from the exact value by half a unit in the 6th digit.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

EARTH_RADIUS_KM = 6371.0
BOLTZMANN_DBM_PER_K_HZ = -198.6
HAP_FLOOR_KM = 17.0
ATMOSPHERE_TOP_KM = 100.0
REL_TOL = 1e-9
CSV_TOL = 5e-6 + 2e-9

# Columns the oracle recomputes, in row-dict / CSV-header names.
CHECKED = (
    "slant_range_km",
    "fspl_db",
    "gas_db",
    "scintillation_db",
    "excess_db",
    "total_db",
    "snr_db",
    "capacity_bps",
    "bandwidth_hz",
)


def _data_rows(path: Path) -> list[list[str]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append(line.split())
    return rows


class Oracle:
    """Independent recomputation of link and relay rows from the table files."""

    def __init__(self, data_dir: Path):
        atm = np.array(_data_rows(data_dir / "atmosphere.tsv"), dtype=float)
        self.freq, self.zenith_gas, self.scint_ref = atm.T
        self.scenario: dict[str, tuple[np.ndarray, ...]] = {}
        rows = _data_rows(data_dir / "scenario.tsv")
        for name in sorted({r[0] for r in rows}):
            cells = sorted(tuple(float(v) for v in r[1:5]) for r in rows if r[0] == name)
            self.scenario[name] = tuple(np.array(c) for c in zip(*cells))

    # -- single hop ---------------------------------------------------------

    def hop(self, low, high, elev, fc, radio, scenario=None, excess=None):
        """Every stage of one hop as arrays; broadcasting over the inputs.

        ``scenario`` None means no clutter. ``excess`` given (sampled
        rows) replaces the expected clutter mixture with the row's own
        value.
        """
        low, high, elev, fc = (np.asarray(v, dtype=float) for v in (low, high, elev, fc))
        e = np.radians(elev)
        r_low, r_high = EARTH_RADIUS_KM + low, EARTH_RADIUS_KM + high
        nadir = np.arcsin(r_low * np.cos(e) / r_high)
        central = np.pi / 2 - e - nadir
        slant = np.sqrt(r_low**2 + r_high**2 - 2 * r_low * r_high * np.cos(central))

        frac = np.where(low < HAP_FLOOR_KM, 1.0, np.where(low < ATMOSPHERE_TOP_KM, 0.1, 0.0))
        fspl = 92.45 + 20 * np.log10(fc) + 20 * np.log10(slant)
        gas = frac * np.interp(fc, self.freq, self.zenith_gas) / np.sin(e)
        scint = (
            frac
            * np.interp(fc, self.freq, self.scint_ref)
            * (math.sin(math.radians(10.0)) / np.sin(e)) ** 1.2
        )
        if scenario is None:
            clutter = np.zeros_like(slant)
        elif excess is not None:
            clutter = np.asarray(excess, dtype=float)
        else:
            grid, p, los, nlos = self.scenario[scenario]
            pe = np.interp(elev, grid, p)
            clutter = pe * np.interp(elev, grid, los) + (1 - pe) * np.interp(elev, grid, nlos)
        total = fspl + gas + scint + clutter

        bandwidth = radio.get("bandwidth_hz")
        if bandwidth is None:
            bandwidth = np.where(fc <= 6.0, 20e6, np.where(fc <= 60.0, 800e6, 2e9))
        bandwidth = np.broadcast_to(np.asarray(bandwidth, dtype=float), slant.shape)
        if "g_over_t_dbi_per_k" in radio:
            got = radio["g_over_t_dbi_per_k"]
        else:
            got = radio["g_rx_dbi"] - 10 * math.log10(radio["noise_temperature_k"])
        snr = (
            radio["tx_power_dbm"] + radio.get("g_tx_dbi", 39.7) + got - total
            - BOLTZMANN_DBM_PER_K_HZ - 10 * np.log10(bandwidth)
        )
        return {
            "slant_range_km": slant,
            "fspl_db": fspl,
            "gas_db": gas,
            "scintillation_db": scint,
            "excess_db": clutter,
            "total_db": total,
            "snr_db": snr,
            "capacity_bps": bandwidth * np.log1p(10 ** (snr / 10)) / math.log(2),
            "bandwidth_hz": bandwidth,
        }

    def direct(self, alt, elev, fc, radio, scenario, excess=None):
        return self.hop(0.0, alt, elev, fc, radio, scenario, excess)

    def relay_af(self, alt, elev, fc, radio, scenario, hap_km, excess=None):
        """LEO->HAP->ground amplify-and-forward chain, stages summed over hops."""
        upper = self.hop(hap_km, alt, elev, fc, radio)
        lower = self.hop(0.0, hap_km, elev, fc, radio, scenario, excess)
        out = {k: upper[k] + lower[k] for k in CHECKED[:6]}
        g1, g2 = 10 ** (upper["snr_db"] / 10), 10 ** (lower["snr_db"] / 10)
        gamma = g1 * g2 / (g1 + g2 + 1)
        bandwidth = np.minimum(upper["bandwidth_hz"], lower["bandwidth_hz"])
        out["snr_db"] = 10 * np.log10(gamma)
        out["capacity_bps"] = bandwidth * np.log1p(gamma) / math.log(2)
        out["bandwidth_hz"] = bandwidth
        return out


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def mismatched(got, want, tol: float, floor: float) -> np.ndarray:
    """Mask of entries farther than ``tol * max(|want|, floor)`` from ``want``.

    Row values use floor 1, so an SNR near 0 dB is held to 1e-9 dB
    rather than to a vanishing relative bound. CSV cells use a floor of
    0: their rounding is relative at every magnitude.
    """
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    with np.errstate(invalid="ignore"):
        bad = np.abs(got - want) > tol * np.maximum(np.abs(want), floor)
    return bad | ~np.isfinite(got)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV, skipping ``#`` provenance lines."""
    body = "\n".join(body_lines(text))
    rows = list(csv.reader(io.StringIO(body)))
    return rows[0], rows[1:]


def body_lines(text: str) -> list[str]:
    """Header and data lines; provenance comments may change between versions."""
    return [line for line in text.split("\n") if line and not line.startswith("#")]


def csv_columns(header: list[str], rows: list[list[str]], names) -> dict[str, np.ndarray]:
    """Numeric CSV columns as float arrays; empty cells become NaN."""
    out = {}
    for name in names:
        i = header.index(name)
        out[name] = np.array([float(r[i]) if r[i] else math.nan for r in rows])
    return out
