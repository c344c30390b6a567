"""Geometry tests.

Expected slant ranges were frozen from an independent law-of-cosines
derivation (central angle between the two geocentric radii), which
oracle.slant_range_km re-implements.
"""

import math
import random

import numpy as np
import pytest

import oracle
from ntnsim import (
    DomainError,
    GeometryError,
    LinkGeometry,
    StationClass,
    UnclassifiableAltitude,
    classify_station,
    differential_delay_ms,
    propagation_delay_ms,
    slant_range_km,
)

class TestClassifyStation:
    @pytest.mark.parametrize(
        "altitude,expected",
        [
            (0, StationClass.GROUND_TERMINAL),
            (0.3, StationClass.UAV),
            (10, StationClass.UAV),
            (17, StationClass.HAP),
            (20, StationClass.HAP),
            (25, StationClass.HAP),
            (200, StationClass.LEO),
            (300, StationClass.LEO),
            (2000, StationClass.LEO),
            (2000.1, StationClass.MEO),
            (35000, StationClass.MEO),
            (35700, StationClass.GEO),
            (35786, StationClass.GEO),
            (35900, StationClass.GEO),
        ],
    )
    def test_bands(self, altitude, expected):
        assert classify_station(altitude) is expected

    @pytest.mark.parametrize("altitude", [12, 50, 100, 35500, 36000])
    def test_gap_altitudes_rejected(self, altitude):
        with pytest.raises(UnclassifiableAltitude) as err:
            classify_station(altitude)
        assert "gap" in str(err.value)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            classify_station(-1)


class TestSlantRange:
    def test_zenith_equals_altitude_difference(self):
        assert slant_range_km(0, 300, 90) == pytest.approx(300.0, rel=1e-9)
        assert slant_range_km(20, 35786, 90) == pytest.approx(35766.0, rel=1e-9)

    def test_leo_at_low_elevation(self):
        # frozen from the central-angle oracle
        assert slant_range_km(0, 300, 10) == pytest.approx(1160.0782992764289, rel=1e-12)

    def test_matches_independent_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            low = rng.choice([0.0, 5.0, 20.0])
            high = low + rng.uniform(10.0, 40000.0)
            elev = rng.uniform(10.0, 90.0)
            got = slant_range_km(low, high, elev)
            assert got == pytest.approx(oracle.slant_range_km(low, high, elev), rel=1e-9)

    def test_strictly_decreasing_in_elevation(self):
        for low, high in [(0, 300), (0, 35786), (20, 1200)]:
            ranges = [slant_range_km(low, high, e) for e in range(10, 91)]
            assert all(a > b for a, b in zip(ranges, ranges[1:]))

    def test_bounded_by_low_elevation_range(self):
        worst = slant_range_km(0, 600, 10)
        for e in range(10, 91, 5):
            assert slant_range_km(0, 600, e) <= worst

    def test_at_least_altitude_difference(self):
        rng = random.Random(3)
        for _ in range(200):
            high = rng.uniform(100, 36000)
            e = rng.uniform(10, 90)
            assert slant_range_km(0, high, e) >= high - 1e-9

    @pytest.mark.parametrize("elev", [9.999, -5, 90.001, 180])
    def test_elevation_domain(self, elev):
        with pytest.raises(DomainError):
            slant_range_km(0, 300, elev)

    def test_altitude_ordering(self):
        with pytest.raises(GeometryError):
            slant_range_km(300, 300, 45)
        with pytest.raises(GeometryError):
            slant_range_km(400, 300, 45)
        with pytest.raises(GeometryError):
            slant_range_km(-1, 300, 45)


class TestPropagationDelay:
    def test_values(self):
        assert propagation_delay_ms(0) == 0.0
        assert propagation_delay_ms(300) == pytest.approx(1.0006922855944562, rel=1e-12)
        assert propagation_delay_ms(35786) == pytest.approx(119.36924710761069, rel=1e-12)

    def test_linearity(self):
        d = 1234.5
        base = propagation_delay_ms(d)
        for k in [0.5, 2, 10, 117.3]:
            assert propagation_delay_ms(k * d) == pytest.approx(k * base, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            propagation_delay_ms(-0.1)


class TestDifferentialDelay:
    def test_geo_edge_to_center(self):
        assert differential_delay_ms(35786, 10, 90) == pytest.approx(
            15.994994826179113, rel=1e-12
        )

    def test_leo_edge_to_center(self):
        assert differential_delay_ms(300, 10, 90) == pytest.approx(
            2.8689123969770742, rel=1e-12
        )

    def test_vanishes_as_edge_approaches_center(self):
        assert differential_delay_ms(35786, 89.999, 90) < 1e-3
        assert differential_delay_ms(35786, 89.999, 90) > 0

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            differential_delay_ms(35786, 90, 10)
        with pytest.raises(DomainError):
            differential_delay_ms(35786, 45, 45)
        with pytest.raises(DomainError):
            differential_delay_ms(0, 10, 90)

    @pytest.mark.parametrize("args, message", [
        ((0, 10, 90), "altitude must be > 0 km, got 0"),
        ((-1.5, 10, 90), "altitude must be > 0 km, got -1.5"),
        ((600, 5, 90), "elevation must be in [10, 90] deg, got 5"),
        ((600, 10, 95), "elevation must be in [10, 90] deg, got 95"),
        ((35786, 90, 10), "edge elevation must be strictly below center elevation (90 >= 10)"),
        ((35786, 45, 45), "edge elevation must be strictly below center elevation (45 >= 45)"),
    ])
    def test_rules_raise_their_message(self, args, message):
        with pytest.raises(DomainError) as err:
            differential_delay_ms(*args)
        assert type(err.value) is DomainError and str(err.value) == message


class TestLinkGeometry:
    def test_from_endpoints_derives_fields(self):
        g = LinkGeometry.from_endpoints(0, 300, 10)
        assert g.slant_range_km == slant_range_km(0, 300, 10)
        assert g.one_way_delay_ms == propagation_delay_ms(g.slant_range_km)

    def test_invalid_geometry_propagates(self):
        with pytest.raises(GeometryError):
            LinkGeometry.from_endpoints(300, 200, 45)
        with pytest.raises(DomainError):
            LinkGeometry.from_endpoints(0, 300, 5)

    def test_from_endpoints_types_its_values(self):
        g = LinkGeometry.from_endpoints(np.int64(0), "600", np.float32(30.0))
        assert g == (0.0, 600.0, 30.0) and all(type(v) is float for v in g)
        for value in (None, "x", math.inf):
            with pytest.raises(GeometryError) as err:
                LinkGeometry.from_endpoints(0.0, value, 30.0)
            assert str(err.value) == f"high_altitude_km: expected a finite number, got {value!r}"

    def test_changed_copy_equals_from_endpoints(self):
        # Slant range and delay follow the endpoints: no field holds a copy of them.
        g = LinkGeometry.from_endpoints(0.0, 600.0, 30.0)._replace(elevation_deg=90.0)
        want = LinkGeometry.from_endpoints(0.0, 600.0, 90.0)
        assert g == want
        assert (g.slant_range_km, g.one_way_delay_ms) == (want.slant_range_km, want.one_way_delay_ms)
        assert g.slant_range_km == pytest.approx(600.0, rel=1e-9)
        with pytest.raises(TypeError):
            LinkGeometry(0.0, 600.0, 30.0, -5.0, 0.0)
