"""Staged path-loss model: free-space, atmospheric gas, scintillation, clutter.

Gas absorption and scintillation come from shipped data tables rather
than from a re-implemented propagation recipe; the table files are the
verifiable contract and can be regenerated from any recipe without
touching this module. Gas attenuation uses a cosecant slant-path law on
the tabulated zenith value; scintillation scales a reference value
(given at 10 deg elevation) by a fixed monotone elevation profile.
Scenario excess loss (clutter/blockage near the ground terminal) is a
tabulated line-of-sight mixture per scenario and elevation.

Table file format (see data/FORMATS.md): line-oriented text, '#'
comments, exactly one "# version:" and one "# checksum: sha256=..." header,
neither empty, whitespace-separated columns. The shipped tables are a
calibration fixture tuned so the case-study trends hold; they are not
measurement data. The tables type their values; the loss stages
(fspl_db, ...) take finite floats and do not re-type them.
"""

import enum
import math
import struct
import sys
from bisect import bisect_right
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

try:  # CPython's own hash modules, as random.py imports sha512: hashlib loads OpenSSL
    from _blake2 import blake2b
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:
    from hashlib import blake2b, sha256

from .errors import DomainError, TableDomainError, TableFormatError
from .geometry import (MAX_ELEVATION_DEG, MIN_ELEVATION_DEG, _ELEVATION_RANGE, _STATION_BANDS,
                       LinkGeometry, StationClass, _check_elevation, echo, finite_number)

# Fraction of the zenith gas/scintillation column that applies to a hop,
# keyed by the altitude of the hop's lower endpoint. Nearly all of the
# effect sits below the stratosphere, so hops that start at HAP altitude
# keep a small residual and hops that start above ~100 km keep none.
HAP_FLOOR_KM = _STATION_BANDS[StationClass.HAP][0]
ATMOSPHERE_TOP_KM = 100.0

# Scintillation elevation profile exponent: s(a) = (sin 10deg / sin a)^1.2,
# normalised to 1 at the 10 deg reference and <= 0.25 at zenith.
_SCINT_PROFILE_EXPONENT = 1.2
_SIN_REF = math.sin(math.radians(MIN_ELEVATION_DEG))

# Per-point sampled clutter streams (see ScenarioRow.sampler);
# SAMPLED_STREAMS names the scheme in sweep provenance.
SAMPLED_STREAMS = "blake2b(seed:index)"
_STREAM_WORDS = struct.Struct(">3Q").unpack
_UNIT_53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi
_INF = math.inf


class Scenario(enum.Enum):
    """Ground-terminal propagation environment."""

    DENSE_URBAN = "dense_urban"
    URBAN = "urban"
    SUBURBAN = "suburban"
    RURAL = "rural"

    @classmethod
    def from_name(cls, name: str) -> "Scenario":
        key = name.strip().lower().replace("-", "_").replace(" ", "_")
        for member in cls:
            if member.value == key:
                return member
        raise DomainError(
            f"unknown scenario {echo(name)}; expected one of "
            + ", ".join(m.value for m in cls)
        )


def stage_total_db(fspl: float, gas: float, scint: float, excess: float) -> float:
    """Total loss of one hop, fspl + gas + scint + excess summed in that order.

    Raises DomainError unless every stage is finite, FSPL is positive and
    the other stages are non-negative. LossBreakdown checks its stages
    here; the sweep plan's points hold these checks in their guard.
    """
    if not (0.0 < fspl < _INF and 0.0 <= gas < _INF and 0.0 <= scint < _INF
            and 0.0 <= excess < _INF):
        stages = (fspl, gas, scint, excess)  # name the first check that failed
        if not all(-_INF < stage < _INF for stage in stages):
            raise DomainError(f"loss stages must be finite, got {stages}")
        if fspl <= 0:
            raise DomainError(f"fspl_db must be > 0, got {fspl}")
        raise DomainError(f"loss stages must be >= 0, got {stages}")
    return fspl + gas + scint + excess


class _ByFields:
    """Equality, hash and positional repr of a slotted class, by its _fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._values()!r}"


class LossBreakdown(_ByFields):
    """Per-stage attenuation of one hop, in dB.

    total_db is derived: fspl + gas + scintillation + excess accumulated
    in that order by stage_total_db, which also checks the stages.
    """

    __slots__ = ("fspl_db", "gas_db", "scintillation_db", "excess_db", "total_db")
    _fields = __slots__[:4]

    def __init__(
        self, fspl_db: float, gas_db: float, scintillation_db: float, excess_db: float
    ) -> None:
        self.fspl_db = fspl_db
        self.gas_db = gas_db
        self.scintillation_db = scintillation_db
        self.excess_db = excess_db
        self.total_db = stage_total_db(fspl_db, gas_db, scintillation_db, excess_db)


def _interpolate(x: float, grid: tuple[float, ...], values: tuple[float, ...]) -> float:
    """Piecewise-linear interpolation at x.

    The caller has checked that grid[0] <= x <= grid[-1], so bisect_right
    returns at least 1.
    """
    i = bisect_right(grid, x)
    if i >= len(grid):
        return values[-1]
    x0, x1 = grid[i - 1], grid[i]
    t = (x - x0) / (x1 - x0)
    return values[i - 1] + t * (values[i] - values[i - 1])


class AtmosphereTable:
    """Zenith gas attenuation and scintillation reference vs frequency.

    Every value is typed by finite_number (else TableFormatError). The
    frequency grid must be strictly ascending and cover [0.5, 100]
    GHz, and the zenith gas column must exhibit the oxygen absorption
    peak: some grid point in [55, 65] GHz strictly exceeds the values at
    50 and 70 GHz.
    """

    __slots__ = ("frequency_grid_ghz", "zenith_gas_db", "scintillation_ref_db", "version")

    def __init__(
        self, frequency_grid_ghz: tuple[float, ...], zenith_gas_db: tuple[float, ...],
        scintillation_ref_db: tuple[float, ...], version: str = "unversioned",
    ) -> None:
        columns = frequency_grid_ghz, zenith_gas_db, scintillation_ref_db
        for key, column in zip(self.__slots__, columns):
            setattr(self, key, tuple(_table_number(key, v) for v in column))
        self.version = version
        grid = self.frequency_grid_ghz
        n = len(grid)
        if n < 2:
            raise TableFormatError("atmosphere table needs at least two rows")
        if len(self.zenith_gas_db) != n or len(self.scintillation_ref_db) != n:
            raise TableFormatError("atmosphere table columns differ in length")
        if any(grid[i] >= grid[i + 1] for i in range(n - 1)):
            raise TableFormatError("frequency grid must be strictly ascending")
        if grid[0] > 0.5 or grid[-1] < 100.0:
            raise TableFormatError(
                f"frequency grid must cover [0.5, 100] GHz, got "
                f"[{grid[0]:g}, {grid[-1]:g}]"
            )
        for col in (self.zenith_gas_db, self.scintillation_ref_db):
            if any(v < 0 for v in col):
                raise TableFormatError("table values must be finite and >= 0")
        peak = max(
            (g for f, g in zip(grid, self.zenith_gas_db) if 55.0 <= f <= 65.0),
            default=-1.0,
        )
        if not (peak > self.zenith_gas(50.0) and peak > self.zenith_gas(70.0)):
            raise TableFormatError(
                "zenith gas column lacks the oxygen absorption peak in [55, 65] GHz"
            )

    def _check_frequency(self, fc_ghz: float) -> None:
        grid = self.frequency_grid_ghz
        if not (grid[0] <= fc_ghz <= grid[-1]):
            raise TableDomainError(
                f"frequency {fc_ghz} GHz outside table grid "
                f"[{grid[0]:g}, {grid[-1]:g}] GHz"
            )

    def zenith_gas(self, fc_ghz: float) -> float:
        self._check_frequency(fc_ghz)
        return _interpolate(fc_ghz, self.frequency_grid_ghz, self.zenith_gas_db)

    def scintillation_ref(self, fc_ghz: float) -> float:
        self._check_frequency(fc_ghz)
        return _interpolate(fc_ghz, self.frequency_grid_ghz, self.scintillation_ref_db)


def _decimal(name: str, value: int) -> bytes:
    """value in ASCII decimal, the stream key's text; DomainError unless value
    is an int that the interpreter will print."""
    if type(value) is not int:  # "%d" would truncate 2.5 to the stream of 2
        raise DomainError(f"{name} must be an integer, got {echo(value)}")
    try:
        return b"%d" % value
    except ValueError:  # more digits than sys.get_int_max_str_digits(); so is its repr
        raise DomainError(f"{name} must be an integer of at most "
                          f"{sys.get_int_max_str_digits()} digits, got a longer one") from None


class ScenarioRow(NamedTuple):
    p_los: float
    clutter_los_db: float
    clutter_nlos_db: float
    shadow_sigma_db: float

    def _numbers(self) -> tuple[float, float, float, float]:
        """The four fields, each typed by finite_number (else DomainError)."""
        return tuple(finite_number(value, key, DomainError)
                     for key, value in zip(self._fields, self))

    def expected_db(self) -> float:
        """Expected clutter loss: the LOS-probability mixture p*L_los + (1-p)*L_nlos,
        of the typed _numbers()."""
        p_los, los, nlos, _ = self._numbers()
        return p_los * los + (1.0 - p_los) * nlos

    def sampler(self, seed: int):
        """draw(index): the sampled clutter loss of the point at row index (an
        int, unchecked) of a sweep with seed; seed is checked and the row typed
        by _numbers() once, here.

        The stream is blake2b(b"<seed>:<index>") with a 24-byte digest,
        read as three 53-bit uniforms u1, u2, u3 in [0, 1). The point is
        LOS when u1 < p_los; its shadowing is sigma times the Box-Muller
        normal sqrt(-2 ln(1 - u2)) cos(2 pi u3), and the total is clamped
        at zero. Each (seed, index) pair hashes to its own stream, so
        adjacent seeds, adjacent points and seeds s and -s are unrelated.
        A sweep makes one per cell. Each draw copies the hashed b"<seed>:"
        and adds only the index.
        """
        copy = blake2b(_decimal("sampled_seed", seed) + b":", digest_size=24).copy
        p_los, los, nlos, sigma = self._numbers()
        unpack, sqrt, log, cos = _STREAM_WORDS, math.sqrt, math.log, math.cos

        def draw(index: int) -> float:
            stream = copy()
            stream.update(b"%d" % index)
            a, b, c = unpack(stream.digest())
            clutter = los if (a >> 11) * _UNIT_53 < p_los else nlos
            total = clutter + sigma * (
                sqrt(-2.0 * log(1.0 - (b >> 11) * _UNIT_53)) * cos(_TWO_PI * ((c >> 11) * _UNIT_53))
            )
            return total if total > 0.0 else 0.0

        return draw


class ScenarioTable:
    """LOS probability and clutter loss per scenario over an elevation grid.

    Every value is typed by finite_number (else TableFormatError).
    """

    __slots__ = ("elevation_grid_deg", "rows", "version")

    def __init__(
        self, elevation_grid_deg: tuple[float, ...], rows: dict[Scenario, tuple[ScenarioRow, ...]],
        version: str = "unversioned",
    ) -> None:
        self.elevation_grid_deg = grid = tuple(
            _table_number("elevation_grid_deg", v) for v in elevation_grid_deg)
        self.rows = {scenario: tuple(ScenarioRow(*map(_table_number, ScenarioRow._fields, row))
                                     for row in scenario_rows)
                     for scenario, scenario_rows in rows.items()}
        self.version = version
        if len(grid) < 2 or any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
            raise TableFormatError("elevation grid must be strictly ascending")
        if grid[0] > MIN_ELEVATION_DEG or grid[-1] < MAX_ELEVATION_DEG:
            raise TableFormatError(f"elevation grid must cover {_ELEVATION_RANGE}")
        for scenario in Scenario:
            if scenario not in self.rows:
                raise TableFormatError(f"scenario table missing {scenario.value}")
            if len(self.rows[scenario]) != len(grid):
                raise TableFormatError(
                    f"scenario {scenario.value} has wrong number of rows"
                )
        for scenario_rows in self.rows.values():
            for r in scenario_rows:
                if not (0.0 <= r.p_los <= 1.0):
                    raise TableFormatError(f"p_los out of [0, 1]: {r.p_los}")
                if min(r.clutter_los_db, r.clutter_nlos_db, r.shadow_sigma_db) < 0:
                    raise TableFormatError("clutter and sigma values must be >= 0")

    def cell(self, scenario: Scenario, elevation_deg: float) -> ScenarioRow:
        """Row for one scenario at one elevation, interpolating each column."""
        _check_elevation(elevation_deg)
        grid = self.elevation_grid_deg
        return ScenarioRow(*(
            _interpolate(elevation_deg, grid, column)
            for column in zip(*self.rows[scenario])
        ))


# ---------------------------------------------------------------------------
# Table file parsing
# ---------------------------------------------------------------------------

def _read_table(text: str, name: str, columns: tuple[str, ...]):
    """Check table text's headers and checksum; return (version, rows).

    The checksum header covers the data lines exactly as shipped (stripped
    of trailing whitespace, joined with single newlines). rows yields each
    data line's (fields, line) in file order, once the line is checked to
    have one field per name in columns.
    """
    headers: dict[str, str] = {}  # "version" and "checksum", each from its one '#' line
    data_lines: list[str] = []
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            key, colon, value = line[1:].strip().partition(":")
            key = key.lower()
            if colon and key in ("version", "checksum"):
                if key in headers:
                    raise TableFormatError(f"{name}: repeated '# {key}:' header")
                headers[key] = value.strip()
            continue
        data_lines.append(line)
    for key in ("version", "checksum"):
        if not headers.get(key):  # an empty value names nothing
            raise TableFormatError(f"{name}: missing '# {key}:' header")
    expected = "sha256=" + sha256("\n".join(data_lines).encode("utf-8")).hexdigest()
    if headers["checksum"] != expected:  # label and digest alike
        raise TableFormatError(
            f"{name}: checksum mismatch (file corrupted or edited without "
            f"updating the header); expected {expected}"
        )

    def rows():
        for line in data_lines:
            fields = line.split()
            if len(fields) != len(columns):
                raise TableFormatError(
                    f"{name}: expected {len(columns)} columns ({' '.join(columns)}), "
                    f"got {echo(line)}"
                )
            yield fields, line

    return headers["version"], rows()


def _table_number(key: str, value: object) -> float:
    """A table value, typed by finite_number (else TableFormatError)."""
    return finite_number(value, key, TableFormatError)


def _table_numbers(fields: list[str], line: str, name: str) -> list[float]:
    try:
        return list(map(finite_number, fields))
    except ValueError:
        raise TableFormatError(f"{name}: bad numeric field in line {echo(line)}") from None


def parse_atmosphere_table(text: str, name: str = "atmosphere table") -> AtmosphereTable:
    version, rows = _read_table(text, name, ("frequency_ghz", "zenith_gas_db", "scint_ref_db"))
    columns = tuple(zip(*(_table_numbers(fields, line, name) for fields, line in rows)))
    return AtmosphereTable(*columns or ((), (), ()), version=version)  # no rows: it raises


def parse_scenario_table(text: str, name: str = "scenario table") -> ScenarioTable:
    version, rows = _read_table(text, name, ("scenario", "elevation_deg", *ScenarioRow._fields))
    cells: dict[Scenario, dict[float, ScenarioRow]] = {s: {} for s in Scenario}
    for fields, line in rows:
        try:
            scenario = Scenario.from_name(fields[0])
        except DomainError as exc:
            raise TableFormatError(f"{name}: {exc} in line {echo(line)}") from None
        elev, p, los, nlos, sigma = _table_numbers(fields[1:], line, name)
        if elev in cells[scenario]:
            raise TableFormatError(
                f"{name}: duplicate row for {scenario.value} at {elev:g} deg"
            )
        cells[scenario][elev] = ScenarioRow(p, los, nlos, sigma)
    grids = {tuple(sorted(elevations)) for elevations in cells.values()}
    if len(grids) != 1:
        raise TableFormatError(f"{name}: scenarios use different elevation grids")
    grid = grids.pop()
    return ScenarioTable(
        elevation_grid_deg=grid,
        rows={s: tuple(cells[s][e] for e in grid) for s in Scenario},
        version=version,
    )


def _data_text(filename: str) -> str:
    """A packaged data file's text, read beside this module (so not from a zip import)."""
    return Path(__file__).with_name("data").joinpath(filename).read_text(encoding="utf-8")


def _load(parse, filename: str, path: str | Path | None):
    """parse the table file at path, or the packaged filename if path is None."""
    name = filename if path is None else str(Path(path))
    try:
        text = _data_text(filename) if path is None else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"{name}: not UTF-8 text: {exc}") from None
    return parse(text, name)


@lru_cache(maxsize=None)
def load_atmosphere_table(path: str | Path | None = None) -> AtmosphereTable:
    """Load an atmosphere table; None loads the packaged default."""
    return _load(parse_atmosphere_table, "atmosphere.tsv", path)


@lru_cache(maxsize=None)
def load_scenario_table(path: str | Path | None = None) -> ScenarioTable:
    """Load a scenario table; None loads the packaged default."""
    return _load(parse_scenario_table, "scenario.tsv", path)


# ---------------------------------------------------------------------------
# Loss stages
# ---------------------------------------------------------------------------

def fspl_db(slant_range_km: float, fc_ghz: float) -> float:
    """Free-space path loss: 92.45 + 20 log10(fc_GHz) + 20 log10(d_km)."""
    if slant_range_km <= 0 or fc_ghz <= 0:
        raise DomainError(
            f"slant range and frequency must be > 0, got "
            f"({slant_range_km}, {fc_ghz})"
        )
    return fspl_carrier_db(fc_ghz) + fspl_range_db(slant_range_km)  # the sweep adds these too


def fspl_carrier_db(fc_ghz: float) -> float:
    """The carrier term of fspl_db, 92.45 + 20 log10(fc_GHz); fc_ghz > 0."""
    return 92.45 + 20.0 * math.log10(fc_ghz)


def fspl_range_db(slant_range_km: float) -> float:
    """The range term of fspl_db, 20 log10(d_km); slant_range_km > 0."""
    return 20.0 * math.log10(slant_range_km)


def gas_attenuation_db(
    fc_ghz: float, elevation_deg: float, table: AtmosphereTable
) -> float:
    """Slant-path gas absorption: zenith value scaled by csc(elevation)."""
    _check_elevation(elevation_deg)
    return table.zenith_gas(fc_ghz) / math.sin(math.radians(elevation_deg))


def scintillation_elevation_scale(elevation_deg: float) -> float:
    """Monotone profile s(a), 1 at 10 deg and about 0.12 at zenith."""
    _check_elevation(elevation_deg)
    return (_SIN_REF / math.sin(math.radians(elevation_deg))) ** _SCINT_PROFILE_EXPONENT


def scintillation_db(
    fc_ghz: float, elevation_deg: float, table: AtmosphereTable
) -> float:
    """Scintillation fade margin: 10-deg reference scaled down with elevation."""
    return table.scintillation_ref(fc_ghz) * scintillation_elevation_scale(elevation_deg)


def excess_loss_db(
    scenario: Scenario,
    elevation_deg: float,
    table: ScenarioTable | None = None,
    *,
    sampled_seed: int | None = None,
    sampled_index: int = 0,
) -> float:
    """Scenario-dependent clutter/blockage loss at the ground terminal.

    Expected mode (sampled_seed None) returns the LOS-probability mixture
    (ScenarioRow.expected_db). Sampled mode draws the LOS state and a
    shadowing term (normal in dB, clamped at zero total) from the stream
    of point sampled_index of a sweep with seed sampled_seed,
    blake2b(b"<sampled_seed>:<sampled_index>") (see ScenarioRow.sampler),
    so equal seeds and indices give equal values; the seed is checked
    before the index. The scenario table has no frequency column, so the
    loss does not depend on the carrier.
    """
    if not isinstance(scenario, Scenario):
        raise DomainError(f"unknown scenario: {echo(scenario)}")
    cell = (table or load_scenario_table()).cell(scenario, elevation_deg)
    if sampled_seed is None:
        return cell.expected_db()
    draw = cell.sampler(sampled_seed)
    _decimal("sampled_index", sampled_index)
    return draw(sampled_index)


def default_atmosphere_fraction(low_altitude_km: float) -> float:
    """Share of the atmospheric column a hop crosses, fixed by its lower endpoint."""
    if low_altitude_km < HAP_FLOOR_KM:
        return 1.0
    if low_altitude_km < ATMOSPHERE_TOP_KM:
        return 0.1
    return 0.0


def total_path_loss(
    geometry: LinkGeometry,
    fc_ghz: float,
    scenario: Scenario | None,
    table: AtmosphereTable,
    scenario_table: ScenarioTable | None = None,
    *,
    sampled_seed: int | None = None,
    sampled_index: int = 0,
) -> LossBreakdown:
    """Full staged breakdown for one hop.

    Gas and scintillation are scaled by default_atmosphere_fraction of
    the hop's lower endpoint: 1.0 from the ground, 0.1 from HAP altitude
    (17-100 km), 0.0 above the atmosphere. A None scenario means no
    ground clutter applies (hops that never approach the ground); excess
    is then exactly zero. Sampled clutter draws the stream of point
    sampled_index of a sweep with seed sampled_seed (see excess_loss_db).
    """
    fraction = default_atmosphere_fraction(geometry.low_altitude_km)
    elevation = geometry.elevation_deg
    fspl = fspl_db(geometry.slant_range_km, fc_ghz)
    gas = fraction * gas_attenuation_db(fc_ghz, elevation, table)
    scint = fraction * scintillation_db(fc_ghz, elevation, table)
    excess = 0.0 if scenario is None else excess_loss_db(
        scenario, elevation, scenario_table,
        sampled_seed=sampled_seed, sampled_index=sampled_index,
    )
    return LossBreakdown(fspl, gas, scint, excess)
