"""Channel-stage tests: FSPL, gas, scintillation, excess loss, totals."""

import hashlib
import math
import random
import re
import statistics

import numpy as np
import pytest

from ntnsim import (
    AtmosphereTable,
    DomainError,
    LinkGeometry,
    LossBreakdown,
    Scenario,
    ScenarioTable,
    TableDomainError,
    TableFormatError,
    default_atmosphere_fraction,
    excess_loss_db,
    fspl_db,
    gas_attenuation_db,
    load_atmosphere_table,
    load_scenario_table,
    scintillation_db,
    total_path_loss,
)
from ntnsim.channel import (
    ScenarioRow,
    _data_text,
    parse_atmosphere_table,
    parse_scenario_table,
    scintillation_elevation_scale,
    stage_total_db,
)
from ntnsim.harness.cli import main

SCENARIOS_ORDERED = [
    Scenario.DENSE_URBAN,
    Scenario.URBAN,
    Scenario.SUBURBAN,
    Scenario.RURAL,
]


class TestFspl:
    def test_reference_point(self):
        assert fspl_db(1, 1) == pytest.approx(92.45, abs=1e-12)

    def test_leo_ka_band(self):
        assert fspl_db(1160.1, 20) == pytest.approx(179.7605084491342, rel=1e-12)

    def test_doubling_distance_adds_6db(self):
        delta = fspl_db(2468.2, 20) - fspl_db(1234.1, 20)
        assert delta == pytest.approx(20 * math.log10(2), rel=1e-12)

    @pytest.mark.parametrize("d,f", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_domain(self, d, f):
        with pytest.raises(DomainError):
            fspl_db(d, f)


class TestGasAttenuation:
    def test_zenith_identity(self, atm_table):
        for fc in [2, 20, 60, 90]:
            assert gas_attenuation_db(fc, 90, atm_table) == pytest.approx(
                atm_table.zenith_gas(fc), rel=1e-12
            )

    def test_cosecant_scaling_at_10deg(self, atm_table):
        csc10 = 1 / math.sin(math.radians(10))
        assert csc10 == pytest.approx(5.758770483143634, rel=1e-12)
        for fc in [2, 20, 50]:
            assert gas_attenuation_db(fc, 10, atm_table) == pytest.approx(
                atm_table.zenith_gas(fc) * csc10, rel=1e-12
            )

    def test_oxygen_peak(self, atm_table):
        assert gas_attenuation_db(60, 30, atm_table) > gas_attenuation_db(50, 30, atm_table)
        assert gas_attenuation_db(60, 30, atm_table) > gas_attenuation_db(70, 30, atm_table)

    def test_frequency_outside_grid(self, atm_table):
        with pytest.raises(TableDomainError) as err:
            gas_attenuation_db(150, 45, atm_table)
        assert "0.5" in str(err.value) and "100" in str(err.value)


class TestScintillation:
    def test_reference_unchanged_at_10deg(self, atm_table):
        assert scintillation_elevation_scale(10) == pytest.approx(1.0, rel=1e-12)
        assert scintillation_db(20, 10, atm_table) == pytest.approx(
            atm_table.scintillation_ref(20), rel=1e-12
        )

    def test_monotone_in_elevation(self, atm_table):
        for fc in [2, 20, 90]:
            assert (
                scintillation_db(fc, 10, atm_table)
                >= scintillation_db(fc, 45, atm_table)
                >= scintillation_db(fc, 90, atm_table)
            )

    def test_zenith_cap(self, atm_table):
        assert scintillation_db(20, 90, atm_table) <= 0.25 * scintillation_db(
            20, 10, atm_table
        )


class TestExcessLoss:
    def test_expected_mode_mixture(self, scen_table):
        # dense_urban at 10 deg: p=0.28, los=4, nlos=36
        expected = 0.28 * 4.0 + 0.72 * 36.0
        got = excess_loss_db(Scenario.DENSE_URBAN, 10, scen_table)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_rural_zenith_is_table_minimum(self, scen_table):
        floor = excess_loss_db(Scenario.RURAL, 90, scen_table)
        for scenario in Scenario:
            for elev in scen_table.elevation_grid_deg:
                assert excess_loss_db(scenario, elev, scen_table) >= floor

    def test_scenario_ordering_everywhere(self, scen_table):
        for elev in range(10, 91, 10):
            losses = [excess_loss_db(s, elev, scen_table) for s in SCENARIOS_ORDERED]
            assert losses == sorted(losses, reverse=True)

    def test_elevation_interpolation(self, scen_table):
        # midway between the 10 and 20 deg rows of dense_urban
        lo = excess_loss_db(Scenario.DENSE_URBAN, 10, scen_table)
        hi = excess_loss_db(Scenario.DENSE_URBAN, 20, scen_table)
        mid = excess_loss_db(Scenario.DENSE_URBAN, 15, scen_table)
        assert hi < mid < lo

    def test_sampled_mode_deterministic_per_seed(self, scen_table):
        a = excess_loss_db(Scenario.URBAN, 30, scen_table, sampled_seed=123)
        b = excess_loss_db(Scenario.URBAN, 30, scen_table, sampled_seed=123)
        c = excess_loss_db(Scenario.URBAN, 30, scen_table, sampled_seed=124)
        assert a == b
        assert a != c

    def test_sampled_shadowing_std(self, scen_table):
        # dense_urban at 10 deg separates cleanly: LOS cluster around 4 dB,
        # NLOS around 36 dB, sigma 4. Estimate sigma from the NLOS cluster.
        draws = [
            excess_loss_db(Scenario.DENSE_URBAN, 10, scen_table, sampled_seed=i)
            for i in range(10_000)
        ]
        nlos = [d for d in draws if d > 20]
        assert len(nlos) > 6000
        est = statistics.stdev(nlos)
        assert abs(est - 4.0) / 4.0 < 0.10

    def test_sampled_never_negative(self, scen_table):
        draws = [
            excess_loss_db(Scenario.RURAL, 90, scen_table, sampled_seed=i)
            for i in range(500)
        ]
        assert min(draws) >= 0.0

    def test_unknown_scenario(self, scen_table):
        with pytest.raises(DomainError):
            excess_loss_db("megacity", 30, scen_table)
        with pytest.raises(DomainError):
            Scenario.from_name("megacity")


class TestLossBreakdown:
    def test_total_is_enforced(self):
        with pytest.raises(TypeError):
            LossBreakdown(
                fspl_db=100, gas_db=1, scintillation_db=1, excess_db=1, total_db=104
            )
        ok = LossBreakdown(fspl_db=100, gas_db=1, scintillation_db=1, excess_db=1)
        assert ok.total_db == 103.0
        assert ok.total_db == stage_total_db(100, 1, 1, 1)

    def test_negative_component_rejected(self):
        with pytest.raises(DomainError):
            LossBreakdown(100, -0.5, 0, 0)
        with pytest.raises(DomainError):
            LossBreakdown(-100, 0, 0, 0)

    @pytest.mark.parametrize(
        "stages, message",
        [
            ((1e-300, -0.0, 0.0, 0.0), None),
            ((0.0, 1.0, 1.0, 1.0), "fspl_db must be > 0"),
            ((-0.0, 1.0, 1.0, 1.0), "fspl_db must be > 0"),
            ((0.0, -1.0, 0.0, 0.0), "fspl_db must be > 0"),
            ((100.0, 0.0, 0.0, -1e-300), "loss stages must be >= 0"),
            ((100.0, 0.0, -1.0, 0.0), "loss stages must be >= 0"),
            ((100.0, 0.0, 0.0, math.inf), "loss stages must be finite"),
            ((100.0, math.nan, 0.0, 0.0), "loss stages must be finite"),
            ((-math.inf, -1.0, 0.0, 0.0), "loss stages must be finite"),
            ((0.0, 0.0, -1.0, math.nan), "loss stages must be finite"),
        ],
    )
    def test_stage_checks_report_the_first_failure(self, stages, message):
        # Every stage finite first, then FSPL positive, then the others >= 0.
        if message is None:
            assert stage_total_db(*stages) == sum(stages)
            return
        with pytest.raises(DomainError, match=message):
            stage_total_db(*stages)

    def test_additivity_over_random_inputs(self):
        rng = random.Random(11)
        for _ in range(1000):
            stages = (
                rng.uniform(50, 250),
                rng.uniform(0, 40),
                rng.uniform(0, 5),
                rng.uniform(0, 40),
            )
            b = LossBreakdown(*stages)
            assert b.total_db == b.fspl_db + b.gas_db + b.scintillation_db + b.excess_db


class TestTotalPathLoss:
    def test_zero_fraction_leaves_fspl_and_excess(self, atm_table, scen_table):
        g = LinkGeometry.from_endpoints(100, 700, 30)  # above the atmosphere: fraction 0
        b = total_path_loss(g, 20, Scenario.URBAN, atm_table, scen_table)
        assert b.gas_db == 0.0
        assert b.scintillation_db == 0.0
        assert b.total_db == b.fspl_db + b.excess_db

    def test_component_composition(self, atm_table, scen_table):
        g = LinkGeometry.from_endpoints(0, 300, 10)
        b = total_path_loss(g, 20, Scenario.DENSE_URBAN, atm_table, scen_table)
        assert b.fspl_db == pytest.approx(179.76034597016428, rel=1e-12)
        assert b.fspl_db == fspl_db(g.slant_range_km, 20)
        assert b.gas_db == pytest.approx(gas_attenuation_db(20, 10, atm_table), rel=1e-12)
        assert b.scintillation_db == pytest.approx(
            scintillation_db(20, 10, atm_table), rel=1e-12
        )
        assert b.excess_db == pytest.approx(27.04, rel=1e-12)

    def test_none_scenario_means_zero_excess(self, atm_table, scen_table):
        g = LinkGeometry.from_endpoints(20, 1200, 10)
        b = total_path_loss(g, 20, None, atm_table, scen_table)
        assert b.excess_db == 0.0

    def test_elevation_monotonicity(self, atm_table, scen_table):
        for scenario in Scenario:
            for fc in [2, 20, 60, 90]:
                totals = [
                    total_path_loss(
                        LinkGeometry.from_endpoints(0, 600, e),
                        fc,
                        scenario,
                        atm_table,
                        scen_table,
                    ).total_db
                    for e in range(10, 91, 5)
                ]
                assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_scenario_ordering_pointwise(self, atm_table, scen_table):
        for fc in [2, 20, 90]:
            for e in range(10, 91, 10):
                g = LinkGeometry.from_endpoints(0, 600, e)
                totals = [
                    total_path_loss(g, fc, s, atm_table, scen_table).total_db
                    for s in SCENARIOS_ORDERED
                ]
                assert totals == sorted(totals, reverse=True)

    def test_oxygen_peak_in_total_vs_frequency(self, atm_table, scen_table):
        g = LinkGeometry.from_endpoints(0, 600, 30)
        freqs = [50 + 0.5 * i for i in range(41)]  # 50..70 GHz
        totals = [
            total_path_loss(g, f, Scenario.RURAL, atm_table, scen_table).total_db
            for f in freqs
        ]
        peak_freq = freqs[totals.index(max(totals))]
        assert 55 <= peak_freq <= 65
        assert max(totals) > totals[0] and max(totals) > totals[-1]

    def test_additivity_over_random_inputs(self, atm_table, scen_table):
        # Lower endpoints on the ground, at a HAP and above the atmosphere
        # cover each derived fraction: 1.0, 0.1 and 0.0.
        rng = random.Random(5)
        for _ in range(1000):
            low = rng.choice((0.0, rng.uniform(17, 99), rng.uniform(100, 600)))
            g = LinkGeometry.from_endpoints(
                low, low + rng.uniform(200, 2000), rng.uniform(10, 90)
            )
            b = total_path_loss(
                g,
                rng.uniform(0.5, 100),
                rng.choice(list(Scenario)),
                atm_table,
                scen_table,
            )
            assert b.total_db == b.fspl_db + b.gas_db + b.scintillation_db + b.excess_db


class TestDefaultAtmosphereFraction:
    @pytest.mark.parametrize(
        "low,expected",
        [(0, 1.0), (5, 1.0), (16.9, 1.0), (17, 0.1), (20, 0.1), (99, 0.1), (100, 0.0), (300, 0.0)],
    )
    def test_bands(self, low, expected):
        assert default_atmosphere_fraction(low) == expected


class TestTableParsing:
    def _atm_text(self, rows, checksum=None):
        import hashlib

        data = "\n".join(rows)
        digest = checksum or hashlib.sha256(data.encode()).hexdigest()
        return f"# version: 1\n# checksum: sha256={digest}\n{data}\n"

    def test_checksum_mismatch(self):
        text = self._atm_text(["0.5 0.1 0.1", "100 0.2 0.2"], checksum="0" * 64)
        with pytest.raises(TableFormatError) as err:
            parse_atmosphere_table(text)
        assert "checksum" in str(err.value)

    def test_missing_version(self):
        with pytest.raises(TableFormatError):
            parse_atmosphere_table("# checksum: sha256=00\n0.5 0.1 0.1\n")

    def test_bad_column_count(self):
        # (parser, rows, message): each table's own column-count message, and
        # two-fault files whose first fault in file order is the one reported.
        atmosphere = "t: expected 3 columns (frequency_ghz zenith_gas_db scint_ref_db), got "
        scenario = ("t: expected 6 columns (scenario elevation_deg p_los clutter_los_db "
                    "clutter_nlos_db shadow_sigma_db), got ")
        cases = [
            (parse_atmosphere_table, ["0.5 0.1", "100 0.2"], atmosphere + "'0.5 0.1'"),
            (parse_atmosphere_table, ["0.5 0.1 0.1", "100 0.2 0.2 7"],
             atmosphere + "'100 0.2 0.2 7'"),
            (parse_scenario_table, ["rural 10 0.8 0.5 14"], scenario + "'rural 10 0.8 0.5 14'"),
            (parse_atmosphere_table, ["0.5 x 0.1", "100 0.2"],
             "t: bad numeric field in line '0.5 x 0.1'"),
            (parse_atmosphere_table, ["0.5 0.1", "100 x 0.2"], atmosphere + "'0.5 0.1'"),
            (parse_scenario_table, ["megacity 10 0.8 0.5 14 2.5", "rural 10 0.8"],
             "t: unknown scenario 'megacity'; expected one of dense_urban, urban, suburban, "
             "rural in line 'megacity 10 0.8 0.5 14 2.5'"),
            (parse_scenario_table, ["rural 10 0.8", "megacity 10 0.8 0.5 14 2.5"],
             scenario + "'rural 10 0.8'"),
        ]
        for parse, rows, message in cases:
            with pytest.raises(TableFormatError) as err:
                parse(self._atm_text(rows), "t")
            assert str(err.value) == message

    def test_oxygen_peak_required(self):
        rows = [f"{f} 1.0 0.5" for f in (0.5, 40, 60, 80, 100)]
        with pytest.raises(TableFormatError) as err:
            parse_atmosphere_table(self._atm_text(rows))
        assert "oxygen" in str(err.value)

    def test_grid_must_ascend(self):
        rows = ["0.5 0.1 0.1", "60 5 0.5", "59 0.1 0.1", "100 0.2 0.2"]
        with pytest.raises(TableFormatError):
            parse_atmosphere_table(self._atm_text(rows))

    def test_grid_must_cover_band(self):
        rows = ["1 0.1 0.1", "60 5 0.5", "100 0.2 0.2"]
        with pytest.raises(TableFormatError):
            parse_atmosphere_table(self._atm_text(rows))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "x"])
    def test_non_finite_cell_rejected(self, cell):
        rows = ["0.5 0.1 0.1", "50 1 0.5", "60 10 0.6", "70 2 0.7", f"100 {cell} 0.8"]
        with pytest.raises(TableFormatError) as err:
            parse_atmosphere_table(self._atm_text(rows))
        assert "bad numeric field" in str(err.value)

    def test_unknown_scenario_row_rejected(self):
        rows = ["rural 10 0.8 0.5 14 2.5", "megacity 90 0.97 0.2 9 2.5"]
        with pytest.raises(TableFormatError) as err:
            parse_scenario_table(self._atm_text(rows), "scen.tsv")
        message = str(err.value)
        assert message.startswith("scen.tsv: unknown scenario 'megacity'")
        assert "'megacity 90 0.97 0.2 9 2.5'" in message

    def test_valid_roundtrip(self):
        rows = ["0.5 0.1 0.1", "50 1 0.5", "60 10 0.6", "70 2 0.7", "100 3 0.8"]
        table = parse_atmosphere_table(self._atm_text(rows))
        assert isinstance(table, AtmosphereTable)
        assert table.zenith_gas(55) == pytest.approx(5.5, rel=1e-12)

    def test_scenario_missing_scenario(self):
        rows = ["rural 10 0.8 0.5 14 2.5", "rural 90 0.97 0.2 9 2.5"]
        with pytest.raises(TableFormatError):
            parse_scenario_table(self._atm_text(rows))


ATMOSPHERE_COLUMNS = ("frequency_grid_ghz", "zenith_gas_db", "scintillation_ref_db")


class TestTablesBuiltInPython:
    """A table built in Python types every number as a table file's are typed."""

    @pytest.mark.parametrize("column, index, value", [
        ("frequency_grid_ghz", -1, math.inf),  # an end that still covers the band
        ("zenith_gas_db", 0, math.nan),
        ("scintillation_ref_db", 1, None),
    ])
    def test_atmosphere_value_not_a_finite_number(self, atm_table, column, index, value):
        columns = {name: list(getattr(atm_table, name)) for name in ATMOSPHERE_COLUMNS}
        columns[column][index] = value
        with pytest.raises(TableFormatError) as err:
            AtmosphereTable(**columns)
        assert str(err.value) == f"{column}: expected a finite number, got {value!r}"

    @pytest.mark.parametrize("field, value", [
        ("shadow_sigma_db", math.nan),  # every sampled draw would read 0.0
        ("clutter_nlos_db", math.inf),
        ("p_los", "x"),
    ])
    def test_scenario_row_value_not_a_finite_number(self, scen_table, field, value):
        rows = dict(scen_table.rows)
        rows[Scenario.RURAL] = tuple(r._replace(**{field: value}) for r in rows[Scenario.RURAL])
        with pytest.raises(TableFormatError) as err:
            ScenarioTable(scen_table.elevation_grid_deg, rows)
        assert str(err.value) == f"{field}: expected a finite number, got {value!r}"

    def test_scenario_grid_end_not_a_finite_number(self, scen_table):
        grid = scen_table.elevation_grid_deg[:-1] + (math.inf,)
        with pytest.raises(TableFormatError) as err:
            ScenarioTable(grid, scen_table.rows)
        assert str(err.value) == "elevation_grid_deg: expected a finite number, got inf"

    def test_numbers_of_any_real_type_become_floats(self, atm_table, scen_table):
        atmosphere = AtmosphereTable(*(np.array(getattr(atm_table, name), dtype=np.float32)
                                       for name in ATMOSPHERE_COLUMNS))
        rows = {scenario: tuple(tuple(map(str, row)) for row in scenario_rows)
                for scenario, scenario_rows in scen_table.rows.items()}
        scenario = ScenarioTable(np.array(scen_table.elevation_grid_deg, dtype=np.int64), rows)
        values = [v for name in ATMOSPHERE_COLUMNS for v in getattr(atmosphere, name)]
        values += [*scenario.elevation_grid_deg,
                   *(v for scenario_rows in scenario.rows.values() for r in scenario_rows for v in r)]
        assert all(type(v) is float for v in values)
        assert scenario.rows == scen_table.rows


@pytest.mark.parametrize("field, value", [
    ("shadow_sigma_db", math.nan),  # sampled 0.0 at every draw, untyped
    ("p_los", "x"),
    ("clutter_los_db", None),
])
@pytest.mark.parametrize("loss", [ScenarioRow.expected_db, lambda row: row.sampled_db(7)])
def test_scenario_row_types_its_fields(field, value, loss):
    row = ScenarioRow(0.5, 1.0, 2.0, 3.0)._replace(**{field: value})
    with pytest.raises(DomainError) as err:
        loss(row)
    assert str(err.value) == f"{field}: expected a finite number, got {value!r}"


def test_scenario_row_fields_of_any_real_type_give_the_float_losses():
    plain = ScenarioRow(0.5, 1.0, 2.0, 3.0)
    typed = ScenarioRow("0.5", 1, np.float32(2.0), np.int64(3))
    assert [typed.sampled_db(7, i) for i in range(5)] == [plain.sampled_db(7, i) for i in range(5)]
    assert type(typed.expected_db()) is float and typed.expected_db() == plain.expected_db() == 1.5


# Table rules, each broken by a constructor call or, where a table file can break it,
# by an edit (re.sub with re.M) of a packaged table's data lines under fresh version
# and checksum headers; an edit without a pattern sets the headers its third field maps
# (None drops one, {digest} is the data's sha256).
TABLE_RULES = {
    "atmosphere-columns-differ": (
        lambda atm, scen: AtmosphereTable(
            atm.frequency_grid_ghz, atm.zenith_gas_db[:-1], atm.scintillation_ref_db),
        "atmosphere table columns differ in length"),
    "atmosphere-negative-value": (
        ("atmosphere.tsv", r"^0.5 0.032 0.08$", "0.5 0.032 -0.08"),
        "table values must be finite and >= 0"),
    "elevation-grid-short": (
        ("scenario.tsv", r"^\w+ 90 .*\n", ""), "elevation grid must cover [10, 90] deg"),
    "scenario-missing": (
        lambda atm, scen: ScenarioTable(scen.elevation_grid_deg, {
            s: rows for s, rows in scen.rows.items() if s is not Scenario.RURAL}),
        "scenario table missing rural"),
    "scenario-rows-short": (
        lambda atm, scen: ScenarioTable(scen.elevation_grid_deg, {
            **scen.rows, Scenario.RURAL: scen.rows[Scenario.RURAL][:-1]}),
        "scenario rural has wrong number of rows"),
    "p_los-out-of-range": (
        ("scenario.tsv", r"^rural 90 0.975 ", "rural 90 1.5 "), "p_los out of [0, 1]: 1.5"),
    "clutter-negative": (
        ("scenario.tsv", r"^rural 90 0.975 0.2 ", "rural 90 0.975 -0.2 "),
        "clutter and sigma values must be >= 0"),
    "checksum-missing": (("atmosphere.tsv", None, {"checksum": None}),
                         "{path}: missing '# checksum:' header"),
    "checksum-label-upper-case": (
        ("atmosphere.tsv", None, {"checksum": "SHA256={digest}"}),
        "{path}: checksum mismatch (file corrupted or edited without updating the header); "
        "expected sha256={digest}"),
    "version-missing": (("atmosphere.tsv", None, {"version": None}),
                        "{path}: missing '# version:' header"),
    "duplicate-row": (
        ("scenario.tsv", r"^(dense_urban 30 .*)$", r"\1\n\1"),
        "{path}: duplicate row for dense_urban at 30 deg"),
}


@pytest.mark.parametrize("rule", TABLE_RULES)
def test_table_rules_raise_their_message(tmp_path, capsys, atm_table, scen_table, rule):
    # The library raises TableFormatError with the rule's message; through a table
    # file, `ntnsim link --tables` exits 2 with that message and writes no row.
    make, message = TABLE_RULES[rule]
    if callable(make):
        with pytest.raises(TableFormatError) as err:
            make(atm_table, scen_table)
        assert str(err.value) == message
        return
    name, pattern, replacement = make
    for table in ("atmosphere.tsv", "scenario.tsv"):
        (tmp_path / table).write_text(_data_text(table), encoding="utf-8")
    data = "\n".join(l for l in _data_text(name).splitlines() if l and not l.startswith("#"))
    if pattern is not None:
        data = re.sub(pattern, replacement, data + "\n", flags=re.M).rstrip("\n")
    digest = hashlib.sha256(data.encode()).hexdigest()
    headers = {"version": "1", "checksum": "sha256={digest}"}
    if pattern is None:
        headers.update(replacement)
    path = tmp_path / name
    header = "".join(f"# {key}: {value.format(digest=digest)}\n"
                     for key, value in headers.items() if value is not None)
    path.write_text(header + data + "\n", encoding="utf-8")
    message = message.format(path=path, digest=digest)
    load = load_atmosphere_table if name == "atmosphere.tsv" else load_scenario_table
    with pytest.raises(TableFormatError) as err:
        load(path)
    assert str(err.value) == message
    code = main(["link", "--alt", "600", "--elev", "30", "--fc", "20", "--got", "15.9",
                 "--tables", str(tmp_path)])
    assert (code, *capsys.readouterr()) == (2, "", f"ntnsim: table error: {message}\n")
