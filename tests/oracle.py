"""Independent recomputations the tests check ntnsim against.

Coded apart from the package's formulas, stdlib only. pytest does not
collect this file (its name lacks the test_ prefix); test modules import
it as `oracle`.
"""

import hashlib
import math
import struct
from bisect import bisect_right

EARTH_RADIUS_KM = 6371.0


def slant_range_km(low, high, elevation_deg):
    """Slant range from a station at altitude low up to one at altitude high,
    seen at elevation_deg from the lower one, derived via the central angle
    between the two geocentric radii (not the package's closed form)."""
    r_t, r_s = EARTH_RADIUS_KM + low, EARTH_RADIUS_KM + high
    e = math.radians(elevation_deg)
    gamma = math.asin(r_t * math.cos(e) / r_s)
    phi = math.pi / 2 - e - gamma
    return math.sqrt(r_t**2 + r_s**2 - 2 * r_t * r_s * math.cos(phi))


def _interp(x, xs, ys):
    i = bisect_right(xs, x)
    if i <= 0:
        return ys[0]
    if i >= len(xs):
        return ys[-1]
    t = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
    return ys[i - 1] + t * (ys[i] - ys[i - 1])


def _oracle_link(low, high, elev, fc, scenario, radio, atm, scen):
    """Separately coded formula chain for one hop."""
    d = slant_range_km(low, high, elev)
    e = math.radians(elev)
    fspl = 92.45 + 20 * math.log10(fc) + 20 * math.log10(d)
    if low < 17:
        frac = 1.0
    elif low < 100:
        frac = 0.1
    else:
        frac = 0.0
    gas = frac * _interp(fc, atm.frequency_grid_ghz, atm.zenith_gas_db) / math.sin(e)
    scint = (
        frac
        * _interp(fc, atm.frequency_grid_ghz, atm.scintillation_ref_db)
        * (math.sin(math.radians(10)) / math.sin(e)) ** 1.2
    )
    if scenario is None:
        excess = 0.0
    else:
        rows = scen.rows[scenario]
        grid = scen.elevation_grid_deg
        p = _interp(elev, grid, [r.p_los for r in rows])
        lo = _interp(elev, grid, [r.clutter_los_db for r in rows])
        nl = _interp(elev, grid, [r.clutter_nlos_db for r in rows])
        excess = p * lo + (1 - p) * nl
    total = fspl + gas + scint + excess

    if radio.g_rx_dbi is not None:
        snr = (
            radio.tx_power_dbm
            + radio.g_tx_dbi
            + radio.g_rx_dbi
            - total
            - (
                -198.6
                + 10 * math.log10(radio.noise_temperature_k)
                + 10 * math.log10(radio.bandwidth_hz)
            )
        )
    else:
        snr = (
            radio.tx_power_dbm
            + radio.g_tx_dbi
            + radio.g_over_t_dbi_per_k
            - total
            + 198.6
            - 10 * math.log10(radio.bandwidth_hz)
        )
    return total, snr, capacity_bps(radio.bandwidth_hz, snr)


def capacity_bps(bandwidth_hz, snr_db):
    """Shannon capacity of a link of bandwidth_hz at snr_db."""
    return bandwidth_hz * math.log1p(10 ** (snr_db / 10)) / math.log(2)


def documented_draw(cell, seed, index):
    """The data/FORMATS.md recipe, from hashlib and math only."""
    words = struct.unpack(">3Q", hashlib.blake2b(b"%d:%d" % (seed, index), digest_size=24).digest())
    u1, u2, u3 = ((w >> 11) / 2.0**53 for w in words)
    clutter = cell.clutter_los_db if u1 < cell.p_los else cell.clutter_nlos_db
    normal = math.sqrt(-2.0 * math.log(1.0 - u2)) * math.cos(2.0 * math.pi * u3)
    return max(0.0, clutter + cell.shadow_sigma_db * normal)
