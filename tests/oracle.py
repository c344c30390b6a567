"""Independent recomputations the tests check ntnsim against.

Coded apart from the package's formulas, stdlib only. pytest does not
collect this file (its name lacks the test_ prefix); test modules import
it as `oracle`.
"""

import math

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
