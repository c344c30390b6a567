"""Hop geometry on a spherical Earth.

Slant range between two stations follows from the law of cosines applied
to the triangle (Earth centre, lower station, upper station), expressed
so that only the altitude difference enters:

    d = sqrt(R'^2 sin^2(a) + dh^2 + 2 dh R') - R' sin(a)

with R' the geocentric radius of the lower station, dh the altitude
difference and a the elevation angle measured at the lower station.
Elevation is restricted to [10, 90] degrees; lower angles are outside
the supported sweep range and are rejected rather than extrapolated.

finite_number is the one number rule: CLI flags, spec and table files and
the constructors type every number through it. The stage functions
(slant_range_km, classify_station, ...) take finite floats and do not re-type them.
"""

import enum
import math
from typing import NamedTuple

from .errors import DomainError, GeometryError, UnclassifiableAltitude

# Mean Earth radius, spherical model (km).
EARTH_RADIUS_KM = 6371.0

# Speed of light (km/s).
SPEED_OF_LIGHT_KM_S = 299792.458

MIN_ELEVATION_DEG = 10.0
MAX_ELEVATION_DEG = 90.0
_ELEVATION_RANGE = f"[{MIN_ELEVATION_DEG:g}, {MAX_ELEVATION_DEG:g}] deg"  # as messages give it


class StationClass(enum.Enum):
    """Station category by altitude band."""

    GROUND_TERMINAL = "ground_terminal"
    UAV = "uav"
    HAP = "hap"
    LEO = "leo"
    MEO = "meo"
    GEO = "geo"


# Each class's altitude band (km), bottom up: [floor, ceiling]. A floor
# equal to the ceiling of the band below is left to that band.
_STATION_BANDS = {
    StationClass.GROUND_TERMINAL: (0.0, 0.0),
    StationClass.UAV: (0.0, 10.0),
    StationClass.HAP: (17.0, 25.0),
    StationClass.LEO: (200.0, 2000.0),
    StationClass.MEO: (2000.0, 35000.0),
    StationClass.GEO: (35700.0, 35900.0),
}


def classify_station(altitude_km: float) -> StationClass:
    """Map an altitude to its station class.

    Boundary altitudes belong to the lower class (10 km is UAV, 2000 km
    is LEO, 25 km is HAP). Altitudes in the gaps between bands raise
    UnclassifiableAltitude naming the gap.
    """
    if not math.isfinite(altitude_km) or altitude_km < 0:
        raise DomainError(f"altitude must be finite and >= 0 km, got {altitude_km}")
    for station, (floor, ceiling) in _STATION_BANDS.items():
        if altitude_km <= ceiling:
            if altitude_km >= floor:
                return station
            gap = f"({below[1]:g}, {floor:g}) km between {below[0].name} and {station.name} bands"
            break
        below = station, ceiling
    else:
        gap = f"above the {ceiling:g} km {station.name} band"
    raise UnclassifiableAltitude(f"altitude {altitude_km} km lies in the gap {gap}")


def echo(value: object) -> str:
    """value as an error message shows it: its repr, or past 60 characters the
    repr's first 40, "..." and its length, so that no input fills a message."""
    try:
        text = repr(value)
    except ValueError:  # an int of more digits than sys.get_int_max_str_digits()
        return "an integer too long to print"
    return text if len(text) <= 60 else f"{text[:40]}... ({len(text)} characters)"


def finite_number(value: object, key: str = "", error: type[Exception] = ValueError) -> float:
    """A finite float from text or any real number; error otherwise, its message led by key."""
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        message = f"expected a finite number, got {echo(value)}"
        raise error(f"{key}: {message}" if key else message)
    return number


def _check_elevation(elevation_deg: float) -> None:
    if not (MIN_ELEVATION_DEG <= elevation_deg <= MAX_ELEVATION_DEG):
        raise DomainError(f"elevation must be in {_ELEVATION_RANGE}, got {elevation_deg}")


def slant_range_km(low_km: float, high_km: float, elevation_deg: float) -> float:
    """Straight-line distance between the hop endpoints.

    Parameters
    ----------
    low_km : float
        Altitude of the lower endpoint (km, >= 0).
    high_km : float
        Altitude of the upper endpoint (km, > low_km).
    elevation_deg : float
        Elevation angle at the lower endpoint, in [10, 90] degrees.

    Returns
    -------
    float
        Slant range in km. Equals high_km - low_km at zenith and grows
        monotonically as the elevation drops. The altitudes are not
        re-typed, so slant_range_km(0, nan, 30) is nan.
    """
    _check_elevation(elevation_deg)
    if low_km < 0:
        raise GeometryError(f"lower altitude must be >= 0 km, got {low_km}")
    if high_km <= low_km:
        raise GeometryError(
            f"upper altitude must exceed lower altitude ({high_km} <= {low_km})"
        )
    r_low = EARTH_RADIUS_KM + low_km
    dh = high_km - low_km
    sin_e = math.sin(math.radians(elevation_deg))
    return math.sqrt(r_low * r_low * sin_e * sin_e + dh * dh + 2.0 * dh * r_low) - r_low * sin_e


def propagation_delay_ms(slant_km: float) -> float:
    """One-way propagation delay in milliseconds for a given range in km."""
    if slant_km < 0:
        raise DomainError(f"slant range must be >= 0 km, got {slant_km}")
    return slant_km / SPEED_OF_LIGHT_KM_S * 1000.0


def differential_delay_ms(
    altitude_km: float, edge_elevation_deg: float, center_elevation_deg: float
) -> float:
    """Extra one-way delay seen at the footprint edge relative to its centre.

    Both slant ranges are taken from the ground; the edge is the lower
    elevation. Requires 10 <= edge < center <= 90.
    """
    if altitude_km <= 0:
        raise DomainError(f"altitude must be > 0 km, got {altitude_km}")
    _check_elevation(edge_elevation_deg)
    _check_elevation(center_elevation_deg)
    if edge_elevation_deg >= center_elevation_deg:
        raise DomainError(
            "edge elevation must be strictly below center elevation "
            f"({edge_elevation_deg} >= {center_elevation_deg})"
        )
    d_edge = slant_range_km(0.0, altitude_km, edge_elevation_deg)
    d_center = slant_range_km(0.0, altitude_km, center_elevation_deg)
    return (d_edge - d_center) / SPEED_OF_LIGHT_KM_S * 1000.0


class LinkGeometry(NamedTuple):
    """One hop: endpoint altitudes and elevation; slant range and delay are derived when read."""

    low_altitude_km: float
    high_altitude_km: float
    elevation_deg: float
    slant_range_km = property(lambda self: slant_range_km(*self))  # the module's function
    one_way_delay_ms = property(lambda self: propagation_delay_ms(slant_range_km(*self)))

    @classmethod
    def from_endpoints(
        cls, low_altitude_km: float, high_altitude_km: float, elevation_deg: float
    ) -> "LinkGeometry":
        """The hop, each value typed by finite_number (else GeometryError), once
        slant_range_km accepts it."""
        values = low_altitude_km, high_altitude_km, elevation_deg
        hop = cls(*(finite_number(v, key, GeometryError) for key, v in zip(cls._fields, values)))
        slant_range_km(*hop)
        return hop
