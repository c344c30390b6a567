"""Harness tests: the fig-defaults fixture, sweep specs, CSV emission, presets."""

import hashlib
import re

import numpy as np
import pytest

from ntnsim import ConfigError, SpecError, PresetError
from ntnsim.harness import config
from ntnsim.harness.cli import main
from ntnsim.harness.config import load_fig_defaults
from ntnsim.harness.presets import preset
from ntnsim.harness.rows import RESULT_COLUMNS, SweepResult, SweepRows, csv_bytes, emit_csv
from ntnsim.harness.sweep import SweepSpec, load_sweep_spec, run_sweep
from strategies import FIG_DEFAULTS, spec_text

FIG3_FIXED = {
    "altitude_km": 300.0,
    "fc_ghz": 20.0,
    "g_over_t_dbi_per_k": 15.9,
    "tx_power_dbm": 18.0,
}
ELEVATIONS = tuple(float(e) for e in range(10, 91, 10))


def fig3_rural_spec(**overrides):
    fixed = dict(FIG3_FIXED, scenario="rural", **overrides.pop("fixed", {}))
    return SweepSpec(
        axes=(("elevation_deg", ELEVATIONS),), fixed=fixed, **overrides
    )


class TestConfig:
    """load_fig_defaults, on fixture text given in place of the packaged file."""

    @staticmethod
    def load(monkeypatch, text):
        monkeypatch.setattr(config, "_data_text", lambda name: text)
        return load_fig_defaults()

    def test_unknown_key_named(self, monkeypatch):
        text = FIG_DEFAULTS + "gtx_dbi_typo = 39.7\n"
        with pytest.raises(ConfigError, match=r"fig_defaults\.cfg:11: unknown key 'gtx_dbi_typo'"):
            self.load(monkeypatch, text)
        text = FIG_DEFAULTS.replace("g_tx_dbi =", "[sim]\ng_tx_dbi =")  # a key outside [radio]
        with pytest.raises(ConfigError, match=r"fig_defaults\.cfg:10: unknown key 'g_tx_dbi'"):
            self.load(monkeypatch, text)

    def test_missing_tx_power(self, monkeypatch):
        text = FIG_DEFAULTS.replace("tx_power_dbm = 18.0\n", "")
        with pytest.raises(ConfigError, match="missing required key 'tx_power_dbm'"):
            self.load(monkeypatch, text)

    def test_parse_error_reports_line(self, monkeypatch):
        text = "[radio]\nnonsense line\n"
        with pytest.raises(ConfigError) as err:
            self.load(monkeypatch, text)
        assert "fig_defaults.cfg:2:" in str(err.value)

    def test_duplicate_key_rejected(self, monkeypatch):
        text = FIG_DEFAULTS + "tx_power_dbm = 20\n"
        with pytest.raises(ConfigError, match=r"fig_defaults\.cfg:11: duplicate key 'tx_power_dbm'"):
            self.load(monkeypatch, text)

    def test_sections_and_comments(self, monkeypatch):
        text = (
            "# comment\n[radio]\ntx_power_dbm = 21  # trailing\n"
            "g_tx_dbi = 30\nnoise_temperature_k = 300\n"
        )
        assert self.load(monkeypatch, text) == {
            "tx_power_dbm": 21.0, "g_tx_dbi": 30.0, "noise_temperature_k": 300.0
        }

    def test_fig_defaults_fixture(self):
        assert load_fig_defaults() == {
            "tx_power_dbm": 18.0, "g_tx_dbi": 39.7, "noise_temperature_k": 290.0
        }


class TestSweepValidation:
    @pytest.mark.parametrize(
        "axes, error",
        [
            pytest.param([("altitude_km", (300.0, 600.0))], None, id="list_of_pairs"),
            pytest.param((("altitude_km", "300"),), "takes a sequence of values", id="str_values"),
            pytest.param({"altitude_km": (300.0,)}, "is not a (name, values) pair", id="dict"),
            pytest.param([("altitude_km", np.array([300.0, 600.0]))], None, id="numpy_array"),
            pytest.param(None, "axes takes a sequence of (name, values) pairs, not a NoneType",
                         id="none"),
            pytest.param([("altitude_km", iter([300.0, 600.0]))], "values, not a list_iterator",
                         id="iterator_values"),
            pytest.param([("altitude_km", (v for v in (300.0, 600.0)))], "values, not a generator",
                         id="generator_values"),
            # a set would sweep in hash order, which PYTHONHASHSEED changes
            pytest.param([("altitude_km", {300.0, 600.0})], "values, not a set", id="set_values"),
            pytest.param([("altitude_km", {300.0: 1, 600.0: 2})], "values, not a dict",
                         id="mapping_values"),
            pytest.param([("altitude_km", np.array(300.0))], "values, not a ndarray",
                         id="numpy_scalar_values"),
        ],
    )
    def test_axes_are_any_sequence_of_pairs(self, atm_table, axes, error):
        fixed = {k: v for k, v in FIG3_FIXED.items() if k != "altitude_km"}
        fixed.update(scenario="rural", elevation_deg=30.0)
        if error:
            with pytest.raises(SpecError, match=re.escape(error)):
                run_sweep(SweepSpec(axes=axes, fixed=fixed), atm_table)
            return
        as_tuples = tuple((name, tuple(values)) for name, values in axes)
        rows = list(run_sweep(SweepSpec(axes=axes, fixed=fixed), atm_table).rows)
        assert rows == list(run_sweep(SweepSpec(axes=as_tuples, fixed=fixed), atm_table).rows)
        assert [row["altitude_km"] for row in rows] == [300.0, 600.0]

    def test_empty_axis(self, atm_table):
        spec = SweepSpec(axes=(("elevation_deg", ()),), fixed=dict(FIG3_FIXED, scenario="rural"))
        with pytest.raises(SpecError):
            run_sweep(spec, atm_table)

    def test_unknown_axis(self, atm_table):
        spec = SweepSpec(axes=(("tilt_deg", (1.0,)),), fixed=dict(FIG3_FIXED, scenario="rural"))
        with pytest.raises(SpecError):
            run_sweep(spec, atm_table)

    def test_axis_and_fixed_conflict(self, atm_table):
        spec = fig3_rural_spec(fixed={"elevation_deg": 10.0})
        with pytest.raises(SpecError):
            run_sweep(spec, atm_table)

    def test_missing_parameter(self, atm_table):
        fixed = dict(FIG3_FIXED, scenario="rural")
        del fixed["fc_ghz"]
        spec = SweepSpec(axes=(("elevation_deg", ELEVATIONS),), fixed=fixed)
        with pytest.raises(SpecError) as err:
            run_sweep(spec, atm_table)
        assert "fc_ghz" in str(err.value)

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param({"g_rx_dbi": 40.0}, id="g_rx_and_g_over_t"),
            pytest.param({}, id="g_over_t_and_temperature"),
        ],
    )
    def test_rx_gain_forms_exclusive(self, atm_table, extra):
        fixed = dict(FIG3_FIXED, scenario="rural", noise_temperature_k=290.0, **extra)
        spec = SweepSpec(axes=(("elevation_deg", ELEVATIONS),), fixed=fixed)
        with pytest.raises(SpecError):
            run_sweep(spec, atm_table)

    def test_relay_requires_hap_altitude(self, atm_table):
        spec = SweepSpec(
            axes=(("mode", ("direct", "relay")),),
            fixed=dict(FIG3_FIXED, scenario="dense_urban", elevation_deg=10.0),
        )
        with pytest.raises(SpecError) as err:
            run_sweep(spec, atm_table)
        assert "hap_altitude_km" in str(err.value)

    def test_sampled_mode_requires_seed(self, atm_table):
        spec = fig3_rural_spec(fixed={"excess_mode": "sampled"})
        with pytest.raises(SpecError):
            run_sweep(spec, atm_table)

    @pytest.mark.parametrize("spec, message, file_message", [
        pytest.param(fig3_rural_spec()._replace(axes=(
            ("elevation_deg", (10.0,)), ("elevation_deg", (20.0,)))),
            "axis 'elevation_deg' declared twice", "s.cfg:3: duplicate key 'elevation_deg'",
            id="axis-twice"),
        pytest.param(fig3_rural_spec(fixed={"tilt_deg": 1.0}),
                     "unknown fixed parameter 'tilt_deg'", None, id="unknown-fixed"),
        pytest.param(fig3_rural_spec(fixed={"seed": 3}),
                     "unknown fixed parameter 'seed'", None, id="seed-in-fixed"),
        pytest.param(fig3_rural_spec()._replace(fixed={
            k: v for k, v in fig3_rural_spec().fixed.items() if k != "tx_power_dbm"}),
            "fixed parameter 'tx_power_dbm' is required", None, id="tx-power-missing"),
        pytest.param(fig3_rural_spec(output_schema=("elevation_deg", "snrdb")),
                     "unknown output column 'snrdb'", None, id="unknown-column"),
    ])
    def test_whole_spec_rules_raise_their_message(
            self, tmp_path, capsys, atm_table, scen_table, spec, message, file_message):
        # run_sweep raises SpecError with the rule's message, and `ntnsim sweep` on the
        # spec's file exits 3 with it (file_message: the file's rule that comes first)
        # and writes no row.
        with pytest.raises(SpecError) as err:
            run_sweep(spec, atm_table, scen_table)
        assert str(err.value) == message
        path = tmp_path / "s.cfg"
        path.write_text(spec_text(spec), encoding="utf-8")
        code = main(["sweep", "--spec", str(path)])
        expected = f"ntnsim: spec error: {file_message or message}\n"
        assert (code, *capsys.readouterr()) == (3, "", expected)


class TestRunSweep:
    def test_fig3_rural_slice(self, atm_table, scen_table):
        result = run_sweep(fig3_rural_spec(), atm_table, scen_table)
        assert len(result.rows) == 9
        caps = [r["capacity_bps"] for r in result.rows]
        assert all(a <= b for a, b in zip(caps, caps[1:]))
        assert not result.error_rows()

    def test_row_order_follows_axis_declaration(self, atm_table, scen_table):
        spec = SweepSpec(
            axes=(
                ("scenario", ("dense_urban", "rural")),
                ("elevation_deg", (10.0, 50.0, 90.0)),
            ),
            fixed=FIG3_FIXED,
        )
        result = run_sweep(spec, atm_table, scen_table)
        combos = [(r["scenario"], r["elevation_deg"]) for r in result.rows]
        assert combos == [
            ("dense_urban", 10.0),
            ("dense_urban", 50.0),
            ("dense_urban", 90.0),
            ("rural", 10.0),
            ("rural", 50.0),
            ("rural", 90.0),
        ]

    def test_error_rows_keep_the_run_alive(self, atm_table, scen_table):
        spec = SweepSpec(
            axes=(("altitude_km", (300.0, 50.0, 600.0)),),  # 50 km is a gap
            fixed=dict(
                fc_ghz=20.0,
                elevation_deg=30.0,
                scenario="rural",
                g_over_t_dbi_per_k=15.9,
                tx_power_dbm=18.0,
            ),
        )
        result = run_sweep(spec, atm_table, scen_table)
        assert len(result.rows) == 3
        errors = result.error_rows()
        assert len(errors) == 1
        assert errors[0]["altitude_km"] == 50.0
        assert "gap" in errors[0]["error"]
        assert errors[0]["capacity_bps"] is None
        ok_rows = [r for r in result.rows if not r["error"]]
        assert len(ok_rows) == 2

    def test_relay_hap_altitude_in_gap_is_error_row(self, atm_table, scen_table):
        spec = SweepSpec(
            axes=(("mode", ("direct", "relay")),),
            fixed=dict(
                FIG3_FIXED, scenario="rural", elevation_deg=30.0, hap_altitude_km=50.0
            ),
        )
        direct, relay = run_sweep(spec, atm_table, scen_table).rows
        assert direct["error"] == ""
        assert "gap (25, 200) km between HAP and LEO" in relay["error"]
        assert relay["capacity_bps"] is None

    def test_output_columns_of_unswept_axes_carry_their_values(
        self, tmp_path, atm_table, scen_table
    ):
        # A fixed axis carries its value as given, mode its default; g_rx_dbi,
        # neither swept nor fixed in the G/T form, stays empty.
        def body(spec):
            lines = csv_bytes(run_sweep(spec, atm_table, scen_table)).decode().splitlines()
            return [line for line in lines if not line.startswith("#")]

        columns = (
            "elevation_deg", "altitude_km", "fc_ghz", "scenario", "mode", "g_rx_dbi", "snr_db"
        )
        snrs = [r["snr_db"] for r in run_sweep(fig3_rural_spec(), atm_table, scen_table).rows]
        assert body(fig3_rural_spec(output_schema=columns)) == [",".join(columns)] + [
            f"{e:g},300,20,rural,direct,,{snr:.6g}" for e, snr in zip(ELEVATIONS, snrs)
        ]
        path = tmp_path / "sweep.cfg"
        path.write_text(TestSweepSpecFiles.SPEC_TEXT.replace(
            "columns = elevation_deg, scenario, capacity_bps, error",
            "columns = altitude_km, elevation_deg, fc_ghz, mode, scenario",
        ))
        spec = load_sweep_spec(path)
        rows = run_sweep(spec, atm_table, scen_table).rows
        assert [(r["altitude_km"], r["fc_ghz"], r["mode"]) for r in rows] == [
            (300.0, 20.0, "direct")
        ] * 6
        assert body(spec)[1:] == [
            f"300,{e},20,direct,{s}" for e in (10, 50, 90) for s in ("dense_urban", "rural")
        ]

    def test_rerun_is_byte_identical(self, atm_table, scen_table):
        spec = preset("fig4")
        a = csv_bytes(run_sweep(spec, atm_table, scen_table))
        b = csv_bytes(run_sweep(spec, atm_table, scen_table))
        assert a == b

    def test_sampled_mode_deterministic_per_seed(self, atm_table, scen_table):
        spec = fig3_rural_spec(fixed={"excess_mode": "sampled"}, seed=7)
        a = csv_bytes(run_sweep(spec, atm_table, scen_table))
        b = csv_bytes(run_sweep(spec, atm_table, scen_table))
        assert a == b
        other = fig3_rural_spec(fixed={"excess_mode": "sampled"}, seed=8)
        assert csv_bytes(run_sweep(other, atm_table, scen_table)) != a

    def test_sampled_rows_differ_across_grid(self, atm_table, scen_table):
        # per-row seeds: identical parameters at different row indices
        # should not collapse to one shadowing draw
        spec = SweepSpec(
            axes=(("elevation_deg", (10.0, 10.000001)),),
            fixed=dict(
                FIG3_FIXED, scenario="dense_urban", excess_mode="sampled"
            ),
            seed=3,
        )
        result = run_sweep(spec, atm_table, scen_table)
        a, b = (r["excess_db"] for r in result.rows)
        assert a != b


class TestEmitCsv:
    def test_empty_table_is_header_only(self, tmp_path):
        result = SweepResult(schema=("a", "b"), rows=SweepRows((("a", ()),), ()))
        out = tmp_path / "empty.csv"
        emit_csv(result, out)
        assert out.read_text() == "a,b\n"
        with pytest.raises(IndexError):
            result.rows[0]

    def test_fig3_rural_slice_has_ten_lines(self, atm_table, scen_table, tmp_path):
        result = run_sweep(fig3_rural_spec(), atm_table, scen_table)
        out = tmp_path / "fig3_rural.csv"
        emit_csv(result, out)
        lines = out.read_text().splitlines()
        data_lines = [l for l in lines if not l.startswith("#")]
        assert len(data_lines) == 10  # header + 9 rows

    def test_same_table_same_bytes(self, atm_table, scen_table, tmp_path):
        result = run_sweep(fig3_rural_spec(), atm_table, scen_table)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(result, p1)
        emit_csv(result, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_six_significant_digits_and_lf(self, tmp_path):
        # An axis cell and a record's float cell.
        record = {**dict.fromkeys(RESULT_COLUMNS, 1.0), "snr_db": 0.000123456789,
                  "label": "direct", "error": ""}
        rows = SweepRows((("x", (1234567.89,)),), (tuple(record.values()),))
        result = SweepResult(schema=("x", "snr_db"), rows=rows)
        out = tmp_path / "fmt.csv"
        emit_csv(result, out)
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw == b"x,snr_db\n1.23457e+06,0.000123457\n"

    def test_lone_empty_cell_is_quoted(self):
        # As csv.writer writes a row of one empty cell.
        failed = (None,) * 9 + ("", "error")
        rows = SweepRows((("x", ("", None)),), (failed, failed))
        assert csv_bytes(SweepResult(schema=("x",), rows=rows)) == b'x\n""\n""\n'

    def test_provenance_comments(self, atm_table, scen_table):
        data = csv_bytes(run_sweep(preset("fig3"), atm_table, scen_table))
        text = data.decode("utf-8")
        comments = [l for l in text.splitlines() if l.startswith("#")]
        assert any("fig3" in c for c in comments)
        assert any("g_over_t_dbi_per_k = 15.9" in c for c in comments)
        assert any("calibration fixture" in c for c in comments)


class TestPresets:
    def test_fig2_definition(self):
        spec = preset("fig2")
        axes = dict(spec.axes)
        assert axes["altitude_km"] == (300.0, 600.0, 1200.0, 35786.0)
        assert axes["fc_ghz"] == (2.0, 6.0, 20.0, 30.0, 50.0, 70.0, 90.0)
        assert axes["g_rx_dbi"] == (30.0, 40.0, 50.0, 60.0)
        assert spec.fixed["elevation_deg"] == 10.0
        assert spec.fixed["scenario"] == "dense_urban"
        assert spec.grid_size() == 112

    def test_fig3_definition(self):
        spec = preset("fig3")
        assert spec.fixed["g_over_t_dbi_per_k"] == 15.9
        assert spec.fixed["altitude_km"] == 300.0
        assert dict(spec.axes)["scenario"] == ("dense_urban", "rural")

    def test_fig4_definition(self):
        spec = preset("fig4")
        assert spec.fixed["hap_altitude_km"] == 20.0
        assert spec.fixed["relay_mode"] == "af"
        assert dict(spec.axes)["mode"] == ("direct", "relay")

    # sha256 of each preset's CSV header and rows joined by "\n", without
    # the '#' provenance lines; the benchmark checks the same digests.
    DIGESTS = {
        "fig2": "3e16d3ad741c50e97026e5956838a232dbf2ca7eaacb550f38641f4d428d3f0f",
        "fig3": "8a7467b40b3bf41eef63ca76de52dfdf5e926eb705602748f0e4585738a35c9d",
        "fig4": "e8c08a21bd744bbf4de65b2e5d6cd2927776dc3e600e70db772e5813df5803a4",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_csv_body_is_pinned(self, name, atm_table, scen_table):
        text = csv_bytes(run_sweep(preset(name), atm_table, scen_table)).decode()
        body = [l for l in text.split("\n") if l and not l.startswith("#")]
        digest = hashlib.sha256("\n".join(body).encode("utf-8")).hexdigest()
        assert digest == self.DIGESTS[name]

    def test_unknown_preset_lists_names(self):
        with pytest.raises(PresetError) as err:
            preset("fig9")
        message = str(err.value)
        assert "fig2" in message and "fig3" in message and "fig4" in message


class TestSweepSpecFiles:
    SPEC_TEXT = """\
seed = 5
[axes]
elevation_deg = 10, 50, 90
scenario = dense_urban, rural
[fixed]
altitude_km = 300
fc_ghz = 20
tx_power_dbm = 18
g_over_t_dbi_per_k = 15.9
[output]
columns = elevation_deg, scenario, capacity_bps, error
"""

    def test_roundtrip(self, tmp_path, atm_table, scen_table):
        path = tmp_path / "sweep.cfg"
        path.write_text(self.SPEC_TEXT)
        spec = load_sweep_spec(path)
        assert spec.seed == 5
        assert spec.grid_size() == 6
        result = run_sweep(spec, atm_table, scen_table)
        assert result.schema == ("elevation_deg", "scenario", "capacity_bps", "error")
        assert len(result.rows) == 6

    def test_unknown_section(self, tmp_path, atm_table):
        path = tmp_path / "bad.cfg"
        columns = "columns = elevation_deg, scenario, capacity_bps, error"
        # Each text and its message: [output] is checked as [fixed] is. Its
        # lines fail as the file is read; a repeated column, a rule of the
        # whole spec, when run_sweep checks it.
        for text, message in [
            ("[axis]\nelevation_deg = 10\n", "bad.cfg: unknown sections ['axis']"),
            (self.SPEC_TEXT.replace("columns", "colums"),
             "bad.cfg:11: unknown output key 'colums'; expected 'columns'"),
            (self.SPEC_TEXT.replace(columns, "columns = ,"), "bad.cfg:11: columns lists no column"),
            (self.SPEC_TEXT.replace(columns, "columns = elevation_deg, scenario, elevation_deg"),
             "output column 'elevation_deg' listed twice"),
        ]:
            path.write_text(text)
            with pytest.raises(SpecError) as err:
                run_sweep(load_sweep_spec(path), atm_table)
            assert str(err.value) == message

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "bad2.cfg"
        path.write_text("[axes]\nelevation_deg = 10, twenty\n[fixed]\ntx_power_dbm = 18\n")
        with pytest.raises(SpecError) as err:
            load_sweep_spec(path)
        assert ":2:" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError):
            load_sweep_spec(tmp_path / "absent.cfg")

    def test_seed_applies_only_to_sampled_spec(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(self.SPEC_TEXT)
        with pytest.raises(ConfigError, match="--seed applies only to a spec with excess_mode"):
            load_sweep_spec(path, seed=3)
        path.write_text(self.SPEC_TEXT.replace("[fixed]\n", "[fixed]\nexcess_mode = Sampled\n"))
        assert load_sweep_spec(path, seed=3).seed == 3
