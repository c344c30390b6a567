"""CLI tests: subcommands, output shape, exit codes."""

import argparse
import contextlib
import csv
import io
import math
import os
import re
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import ntnsim
from ntnsim import harness
from ntnsim.errors import ConfigError, NtnSimError, SpecError, TableDomainError
from ntnsim.geometry import LinkGeometry, finite_number
from ntnsim.harness import sweep
from ntnsim.harness.cli import _radio_from_args, build_parser, main
from ntnsim.harness.config import PARAMETERS, PRESET_NAMES, load_fig_defaults
from ntnsim.harness.presets import preset
from ntnsim.harness.rows import (
    EXTRA_COLUMNS, METRIC_COLUMNS, RESULT_COLUMNS, csv_bytes, format_value)
from ntnsim.harness.sweep import SweepSpec, load_sweep_spec, run_sweep
from ntnsim.linkbudget import RadioConfig
from ntnsim.relay import RelayChain, RelayHop, evaluate_chain
from strategies import FLAG_KEYS, SAMPLED_SPEC, SPEC, chain_record, config_texts


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestLink:
    def test_basic_evaluation(self, capsys):
        code, out, err = run_cli(
            capsys,
            "link", "--alt", "600", "--elev", "30", "--fc", "20",
            "--got", "15.9", "--txpow", "18",
        )
        assert code == 0
        (row,) = csv_rows(out)
        assert row["bandwidth_hz"] == "8e+08"
        assert float(row["capacity_bps"]) > 0

    def test_grx_uses_fixture_temperature(self, capsys):
        code, out, _ = run_cli(
            capsys, "link", "--alt", "600", "--elev", "30", "--fc", "20",
            "--grx", "40",
        )
        assert code == 0

    def test_bandwidth_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "link", "--alt", "600", "--elev", "30", "--fc", "20",
            "--got", "15.9", "--bandwidth", "400e6",
        )
        assert code == 0
        (row,) = csv_rows(out)
        assert row["bandwidth_hz"] == "4e+08"

    def test_missing_gain_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "link", "--alt", "600", "--elev", "30", "--fc", "20"
        )
        assert code == 1
        assert "grx" in err or "got" in err

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "link", "--alt", "600")
        assert code == 1

    def test_bad_elevation_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "link", "--alt", "600", "--elev", "5", "--fc", "20",
            "--got", "15.9",
        )
        assert code == 1

    def test_gap_altitude_is_rejected_like_the_sweep(self, capsys):
        code, out, err = run_cli(
            capsys, "link", "--alt", "100", "--elev", "30", "--fc", "20",
            "--got", "15.9",
        )
        assert code == 1
        assert out == ""
        assert "gap (25, 200) km between HAP and LEO" in err


class TestChain:
    def test_two_hop_chain(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "chain", "--hop", "1200:10", "--hop", "20:10", "--mode", "af",
            "--fc", "20", "--got", "15.9", "--scenario", "dense_urban",
        )
        assert code == 0
        (row,) = csv_rows(out)
        assert row["label"] == "af:2hop"

    def test_malformed_hop(self, capsys):
        code, _, err = run_cli(
            capsys, "chain", "--hop", "1200", "--fc", "20", "--got", "15.9"
        )
        assert code == 1
        assert "ALT:ELEV" in err

    @pytest.mark.parametrize(
        "hops, message",
        [
            (("nan:10", "20:10"), "--hop"),
            (("1200:10", "100:10"), "gap (25, 200) km between HAP and LEO"),
            (("1200:10", "14:10"), "gap (10, 17) km between UAV and HAP"),
        ],
    )
    def test_bad_hop_exits_1_without_output(self, capsys, hops, message):
        argv = ["chain", "--fc", "20", "--got", "15.9"]
        for hop in hops:
            argv += ["--hop", hop]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert message in err


class TestSweepCommand:
    SPEC = """\
[axes]
elevation_deg = 10, 50, 90
[fixed]
altitude_km = 300
fc_ghz = 20
scenario = rural
tx_power_dbm = 18
g_over_t_dbi_per_k = 15.9
"""

    def test_sweep_to_file(self, tmp_path, capsys):
        spec = tmp_path / "s.cfg"
        spec.write_text(self.SPEC)
        out_file = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--spec", str(spec), "--out", str(out_file)
        )
        assert code == 0
        rows = csv_rows(out_file.read_text())
        assert len(rows) == 3

    def test_bad_spec_is_spec_error(self, tmp_path, capsys):
        spec = tmp_path / "s.cfg"
        spec.write_text("[axes]\nelevation_deg =\n")
        code, _, _ = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == 3

    def test_unexpected_top_level_key_is_spec_error(self, tmp_path, capsys):
        # A misspelt seed is neither a parameter nor ignored.
        spec = tmp_path / "s.cfg"
        spec.write_text("sed = 7\n" + self.SPEC)
        with pytest.raises(SpecError) as err:
            load_sweep_spec(spec)
        assert type(err.value) is SpecError
        assert str(err.value) == "s.cfg: unexpected top-level keys ['sed']"
        assert run_cli(capsys, "sweep", "--spec", str(spec)) == (
            3, "", f"ntnsim: spec error: {err.value}\n")

    @pytest.mark.parametrize("text, message", [
        # A trailing empty header would hold nothing, and one before keys would make them top-level.
        (SPEC + "[ ]\n", "s.cfg:9: empty section header"),
        # Read as key '', it would fail later as an unknown fixed parameter, without its line.
        (SPEC.replace("[fixed]\n", "[fixed]\n= 5\n"), "s.cfg:4: empty key or value in '= 5'"),
    ], ids=["empty-section-header", "empty-key"])
    def test_grammar_rules_name_their_line(self, tmp_path, capsys, text, message):
        spec = tmp_path / "s.cfg"
        spec.write_text(text)
        with pytest.raises(SpecError) as err:
            load_sweep_spec(spec)
        assert type(err.value) is SpecError
        assert str(err.value) == message
        assert run_cli(capsys, "sweep", "--spec", str(spec)) == (
            3, "", f"ntnsim: spec error: {message}\n")

    def test_unknown_scenario_is_spec_error(self, tmp_path, capsys):
        spec = tmp_path / "s.cfg"
        spec.write_text(self.SPEC.replace("rural", "rurall"))
        code, out, err = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == 3
        assert out == ""
        assert "s.cfg:6: scenario: unknown scenario 'rurall'" in err

    @pytest.mark.parametrize("mode_line", ["", "excess_mode = expected\n"])
    def test_seed_without_sampled_mode_is_usage_error(self, tmp_path, capsys, mode_line):
        spec = tmp_path / "s.cfg"
        spec.write_text(self.SPEC + mode_line)
        code, out, err = run_cli(capsys, "sweep", "--spec", str(spec), "--seed", "3")
        assert code == 1
        assert out == ""
        assert "--seed" in err

    def test_seed_overrides_sampled_spec_in_any_case(self, tmp_path, capsys):
        spec = tmp_path / "s.cfg"
        spec.write_text("seed = 1\n" + self.SPEC + "excess_mode = Sampled\n")
        code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec), "--seed", "3")
        assert code == 0
        assert "# sampled excess mode, seed 3" in out

    def test_seed_supplies_seed_of_sampled_spec_without_one(self, tmp_path, capsys):
        spec = tmp_path / "s.cfg"
        spec.write_text(self.SPEC + "excess_mode = sampled\n")
        code, out, err = run_cli(capsys, "sweep", "--spec", str(spec), "--seed", "3")
        assert code == 0, err
        assert "# sampled excess mode, seed 3, per-point streams blake2b(seed:index)\n" in out
        assert len(csv_rows(out)) == 3
        spec.write_text("seed = 3\n" + self.SPEC + "excess_mode = sampled\n")
        assert run_cli(capsys, "sweep", "--spec", str(spec)) == (code, out, err)

    def test_spec_is_checked_once(self, tmp_path, capsys, monkeypatch):
        # load_sweep_spec checks each line; run_sweep alone checks the whole spec.
        checked, check = [], sweep._validate_spec

        def counted(spec):
            checked.append(spec)
            return check(spec)

        monkeypatch.setattr(sweep, "_validate_spec", counted)
        spec = tmp_path / "s.cfg"
        spec.write_text(self.SPEC)
        assert run_cli(capsys, "sweep", "--spec", str(spec))[0] == 0
        assert len(checked) == 1

    def test_seed_rule_comes_before_the_whole_spec(self, tmp_path, capsys):
        # An empty spec breaks a rule of the whole spec; --seed on it breaks
        # --seed's rule first.
        spec = tmp_path / "s.cfg"
        spec.write_text("")
        assert run_cli(capsys, "sweep", "--spec", str(spec)) == (
            3, "", "ntnsim: spec error: parameter 'altitude_km' missing from axes and fixed\n")
        assert run_cli(capsys, "sweep", "--spec", str(spec), "--seed", "3") == (
            1, "", "ntnsim: error: --seed applies only to a spec with excess_mode = sampled\n")

    def test_missing_spec_file(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.cfg"  # not UTF-8
        latin1.write_bytes(self.SPEC.encode() + b"# caf\xe9\n")
        for spec in (tmp_path / "nope.cfg", latin1):
            code, out, err = run_cli(capsys, "sweep", "--spec", str(spec))
            assert (code, out) == (3, "")
            assert err.startswith(f"ntnsim: spec error: cannot read sweep spec {spec}: ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, value", [("noise_temperature_k", 0), ("noise_temperature_k", -1),
                       ("bandwidth_hz", 0), ("bandwidth_hz", -5)]
    )
    def test_bad_fixed_radio_value_is_spec_error(self, tmp_path, capsys, atm_table, key, value):
        fixed = {"altitude_km": 300, "fc_ghz": 20, "scenario": "rural", "tx_power_dbm": 18,
                 "g_rx_dbi": 40, "noise_temperature_k": 290, key: value}
        with pytest.raises(SpecError, match=f"{key} must be > 0"):
            run_sweep(SweepSpec(axes=(("elevation_deg", (10, 50)),), fixed=fixed), atm_table)
        spec = tmp_path / "s.cfg"
        text = "".join(f"{k} = {v}\n" for k, v in fixed.items())
        spec.write_text("[axes]\nelevation_deg = 10, 50\n[fixed]\n" + text)
        code, out, err = run_cli(capsys, "sweep", "--spec", str(spec))
        assert (code, out) == (3, "") and f"{key} must be > 0" in err


class TestPresetCommand:
    def test_runs_and_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "preset", "--name", "fig3", "--out", str(a))[0] == 0
        assert run_cli(capsys, "preset", "--name", "fig3", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "preset", "--name", "fig9")
        assert code == 3
        assert "fig2" in err


class TestTablesFlag:
    def _copy_tables(self, dest):
        data = resources.files("ntnsim") / "data"
        for name in ("atmosphere.tsv", "scenario.tsv"):
            (dest / name).write_text((data / name).read_text())

    def test_tables_directory_override(self, tmp_path, capsys):
        # A copy of the packaged tables gives the packaged tables' bytes.
        self._copy_tables(tmp_path)
        code, out, err = run_cli(capsys, *LINK, "--tables", str(tmp_path))
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *LINK)[1]

    def test_corrupted_table_is_data_error(self, tmp_path, capsys):
        self._copy_tables(tmp_path)
        atm = tmp_path / "atmosphere.tsv"
        atm.write_text(atm.read_text().replace("0.5 0.032 0.08", "0.5 0.05 0.08"))
        code, _, err = run_cli(
            capsys, "link", "--alt", "600", "--elev", "30", "--fc", "20",
            "--got", "15.9", "--tables", str(tmp_path),
        )
        assert code == 2
        assert "checksum" in err

    def test_unknown_scenario_in_table_is_data_error(self, tmp_path, capsys):
        import hashlib

        self._copy_tables(tmp_path)
        scen = tmp_path / "scenario.tsv"
        lines = scen.read_text().splitlines()
        data = [l.replace("rural", "megacity") for l in lines if l and not l.startswith("#")]
        digest = hashlib.sha256("\n".join(data).encode()).hexdigest()
        scen.write_text(f"# version: 1\n# checksum: sha256={digest}\n" + "\n".join(data) + "\n")
        code, out, err = run_cli(
            capsys, "link", "--alt", "600", "--elev", "30", "--fc", "20",
            "--got", "15.9", "--tables", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert "table error" in err and "megacity" in err

    @pytest.mark.parametrize("name", ["atmosphere.tsv", "scenario.tsv"])
    def test_non_utf8_table_is_data_error(self, tmp_path, capsys, name):
        self._copy_tables(tmp_path)
        table = tmp_path / name
        table.write_bytes(table.read_bytes() + b"# \xff\n")
        code, out, err = run_cli(
            capsys, "link", "--alt", "600", "--elev", "30", "--fc", "20",
            "--got", "15.9", "--tables", str(tmp_path),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"ntnsim: table error: {table}: ") and err.count("\n") == 1

    def test_missing_tables_dir_is_data_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "link", "--alt", "600", "--elev", "30", "--fc", "20",
            "--got", "15.9", "--tables", str(tmp_path / "absent"),
        )
        assert code == 2


@pytest.mark.parametrize("command", ["link", "chain"])
def test_checks_run_tables_radio_stations_hops(tmp_path, capsys, command):
    # Two faults each: the first check in that order decides, for link and chain alike.
    def argv(altitude, elevation, *flags):
        if command == "link":
            return ["link", "--alt", altitude, "--elev", elevation, *flags]
        return ["chain", "--hop", f"{altitude}:{elevation}", "--hop", "20:10", *flags]

    absent = str(tmp_path / "absent")
    code, out, err = run_cli(capsys, *argv("600", "5", *LINK[-4:], "--tables", absent))
    assert (code, out) == (2, "") and err.startswith("ntnsim: i/o error: ")
    code, out, err = run_cli(capsys, *argv("100", "10", "--fc", "-1", "--got", "15.9"))
    assert (code, out, err) == (1, "", "ntnsim: error: fc_ghz must be > 0, got -1.0\n")


@pytest.mark.parametrize("command", ["link", "chain"])
def test_sweep_rows_carry_the_errors_link_and_chain_print(atm_table, scen_table, capsys, command):
    # At 100 km, in a gap, a -1 GHz carrier fails the radio check, which comes first: a
    # sweep row says so as link and chain do. Each other point's error, or none, matches too.
    fixed = {"elevation_deg": 30.0, "scenario": "dense_urban", "g_over_t_dbi_per_k": 15.9,
             "tx_power_dbm": 18.0}
    if command == "chain":
        fixed.update(mode="relay", hap_altitude_km=20.0)
    spec = SweepSpec(axes=(("altitude_km", (100.0, 600.0)), ("fc_ghz", (-1.0, 20.0))),
                     fixed=fixed)
    rows = run_sweep(spec, atm_table, scen_table).rows
    assert rows[0]["error"] == "fc_ghz must be > 0, got -1.0"
    for row in rows:
        altitude, fc = f"{row['altitude_km']:g}", f"{row['fc_ghz']:g}"
        stations = (["--alt", altitude, "--elev", "30"] if command == "link"
                    else ["--hop", f"{altitude}:30", "--hop", "20:30"])
        code, _, err = run_cli(capsys, command, *stations, "--fc", fc, *LINK[-2:], "--txpow", "18")
        assert (code, err) == ((1, f"ntnsim: error: {row['error']}\n") if row["error"] else (0, ""))


class TestSingleRowMatchesSweep:
    """link and chain rows equal the run_sweep row for the same point."""

    COLUMNS = METRIC_COLUMNS + tuple(c for c in EXTRA_COLUMNS if c != "error")

    def sweep_row(self, atm_table, scen_table, **fixed):
        fx = load_fig_defaults()
        spec = SweepSpec(
            axes=(("altitude_km", (fixed.pop("altitude_km"),)),),
            fixed=dict(
                fc_ghz=20.0,
                scenario="dense_urban",
                g_over_t_dbi_per_k=15.9,
                tx_power_dbm=fx["tx_power_dbm"],
                g_tx_dbi=fx["g_tx_dbi"],
                **fixed,
            ),
        )
        (row,) = run_sweep(spec, atm_table, scen_table).rows
        assert not row["error"]
        return {c: format_value(row[c]) for c in self.COLUMNS}

    def test_link_row(self, capsys, atm_table, scen_table):
        code, out, _ = run_cli(
            capsys,
            "link", "--alt", "600", "--elev", "30", "--fc", "20",
            "--scenario", "dense_urban", "--got", "15.9", "--txpow", "18",
        )
        assert code == 0
        (row,) = csv_rows(out)
        expected = self.sweep_row(
            atm_table, scen_table, altitude_km=600.0, elevation_deg=30.0
        )
        assert {c: row[c] for c in self.COLUMNS} == expected

    def test_chain_row(self, capsys, atm_table, scen_table):
        code, out, _ = run_cli(
            capsys,
            "chain", "--hop", "1200:10", "--hop", "20:10", "--mode", "af",
            "--fc", "20", "--scenario", "dense_urban", "--got", "15.9",
        )
        assert code == 0
        (row,) = csv_rows(out)
        expected = self.sweep_row(
            atm_table,
            scen_table,
            altitude_km=1200.0,
            elevation_deg=10.0,
            mode="relay",
            hap_altitude_km=20.0,
            relay_mode="af",
        )
        assert {c: row[c] for c in self.COLUMNS} == expected


README = Path(__file__).parents[1] / "README.md"


def readme_block(heading, language):
    """The first ```language block of README.md's "## heading" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


# Each command of the README's CLI block, as ntnsim's argv, and each file
# its `cat > NAME <<'EOF'` lines write. CI runs the same block through the
# installed entry point.
README_CLI = readme_block("CLI", "sh")
README_COMMANDS = [
    shlex.split(line)[1:]
    for line in README_CLI.replace("\\\n", " ").splitlines()
    if line.startswith("ntnsim ")
]
README_FILES = re.findall(r"^cat > (\S+) <<'EOF'\n(.*?\n)EOF$", README_CLI, re.M | re.S)
README_LINK_CHAIN = [argv for argv in README_COMMANDS if argv[0] in ("link", "chain")]


def test_readme_blocks_run(tmp_path, monkeypatch, capsys):
    # Every README command in an empty directory, where the block writes its
    # spec file and the commands their files; then the README's library example.
    monkeypatch.chdir(tmp_path)
    for name, text in README_FILES:
        (tmp_path / name).write_text(text, encoding="utf-8")
    commands = [argv[0] for argv in README_COMMANDS]
    assert commands == ["link", "link", "chain", "sweep", *["preset"] * 3]
    for argv in README_COMMANDS:
        assert run_cli(capsys, *argv)[::2] == (0, ""), argv
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == ["examples.cfg", "fig2.csv", "fig3.csv", "fig4.csv", "rows.csv"]
    assert len(csv_rows((tmp_path / "rows.csv").read_text())) == 18
    exec(readme_block("Library", "python"), {})
    # No name of the deleted config-file loader is left in the docs or the package.
    stale = re.compile("load_config|ResolvedParams|parse_kv_lines")
    package = Path(ntnsim.__file__).parent
    files = [README, *(path for path in sorted(package.rglob("*"))
                       if path.is_file() and "__pycache__" not in path.parts)]
    assert [str(path) for path in files if stale.search(path.read_text(encoding="utf-8"))] == []


def test_readme_spec_is_the_formats_example():
    # The spec the README's block writes, and CI's install step runs, is the
    # example of the packaged FORMATS.md that the spec fuzz starts from.
    assert README_FILES == [("examples.cfg", SPEC)]


LINK = ("link", "--alt", "600", "--elev", "30", "--fc", "20", "--got", "15.9")
GRX_LINK = (
    "link", "--alt", "600", "--elev", "30", "--fc", "20", "--grx", "50",
    "--temp", "290",
)
CHAIN = ("chain", "--hop", "1200:10", "--hop", "20:10", "--fc", "20", "--got", "15.9")


@pytest.mark.parametrize("flag", ["--tables", "--out"])
@pytest.mark.parametrize("argv", [LINK, ("preset", "--name", "fig2")], ids=["link", "preset"])
def test_empty_path_flag_is_a_usage_error(capsys, argv, flag):
    # Path("") names the working directory: an empty value is refused, not read as no flag
    # (the packaged tables, stdout) or as ".".
    code, out, err = run_cli(capsys, *argv, f"{flag}=")
    assert (code, out) == (1, "")
    assert err.endswith(f" error: argument {flag}: expected a path, got ''\n")


HEADER = (
    "fspl_db,gas_db,scintillation_db,excess_db,total_db,snr_db,capacity_bps,"
    "slant_range_km,bandwidth_hz,label\n"
)
LINK_HEADER = "altitude_km,elevation_deg,fc_ghz,scenario," + HEADER
CHAIN_HEADER = "hops,mode,fc_ghz,scenario," + HEADER


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (
            README_LINK_CHAIN[0],
            LINK_HEADER + "600,30,20,dense_urban,179.099,0.76,0.174274,19.8,199.834,"
            "-16.6647,2.46128e+07,1075.09,8e+08,direct\n",
        ),
        (
            README_LINK_CHAIN[1],
            LINK_HEADER + "600,30,20,dense_urban,179.099,0.76,0.174274,19.8,199.834,"
            "-4.17833,1.86741e+08,1075.09,4e+08,direct\n",
        ),
        (
            README_LINK_CHAIN[2],
            CHAIN_HEADER + "1200:10 20:10,af,20,dense_urban,347.583,2.40717,0.682,27.04,"
            "377.712,-13.2522,5.33299e+07,3208.06,8e+08,af:2hop\n",
        ),
        (
            (*CHAIN, "--mode", "df", "--scenario", "Rural", "--seed", "5"),
            CHAIN_HEADER + "1200:10 20:10,df,20,rural,347.583,2.40717,0.682,3.34199,"
            "354.014,-5.4044,2.92205e+08,3208.06,8e+08,df:2hop\n",
        ),
        (
            (*LINK, "--scenario", "suburban", "--seed", "-3"),
            LINK_HEADER + "600,30,20,suburban,179.099,0.76,0.174274,24.2197,204.253,"
            "-21.0844,8.9566e+06,1075.09,8e+08,direct\n",
        ),
    ],
    ids=["link-got", "link-grx-bandwidth", "chain-af", "chain-df-seed", "link-seed"],
)
def test_readme_examples_print_exact_bytes(capsys, argv, stdout):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == stdout


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main builds its parser once; no flag of one call reaches the next.
    assert build_parser() is build_parser()
    plain = run_cli(capsys, *LINK)
    out = tmp_path / "seeded.csv"
    seeded = (*LINK, "--seed", "7", "--tables", PACKAGED_TABLES, "--out", str(out))
    assert run_cli(capsys, *seeded) == (0, "", "")
    assert plain[0] == 0 and out.read_text() != plain[1]
    assert run_cli(capsys, *LINK) == plain


class TestFlagValidation:
    @pytest.mark.parametrize(
        "extra",
        [("--txpow", "nan"), ("--bandwidth", "inf"), ("--bandwidth", "abc")],
    )
    def test_bad_float_exits_1_without_traceback(self, extra):
        env = dict(os.environ, PYTHONPATH=str(Path(ntnsim.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "ntnsim.harness.cli", *LINK, *extra],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "finite number" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "flag",
        ["--alt", "--elev", "--fc", "--txpow", "--gtx", "--grx", "--got",
         "--temp", "--bandwidth"],
    )
    @pytest.mark.parametrize("value", ["nan", "-inf", "1e999", "x"])
    def test_every_float_flag_rejects_bad_values(self, capsys, flag, value):
        argv = list(LINK if flag == "--got" else GRX_LINK)
        if flag in argv:
            del argv[argv.index(flag):argv.index(flag) + 2]
        argv.append(f"{flag}={value}")  # '=' lets argparse take "-inf"
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"argument {flag}: expected a finite number" in err

    @pytest.mark.parametrize("argv", [LINK, CHAIN])
    def test_temp_with_got_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--temp", "290")
        assert code == 1
        assert out == ""
        assert "noise_temperature_k only applies to the g_rx_dbi form" in err

    def test_bandwidth_auto_still_accepted(self, capsys):
        code, out, _ = run_cli(capsys, *LINK, "--bandwidth", "AUTO")
        assert code == 0
        (row,) = csv_rows(out)
        assert row["bandwidth_hz"] == "8e+08"

    @pytest.mark.parametrize(
        "argv",
        [
            ("preset", "--name", "fig3", "--workers", "2"),
            ("preset", "--name", "fig3", "--seed", "1"),
            ("preset", "--name", "fig3", "--format", "csv"),
            (*LINK, "--format", "csv"),
        ],
    )
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""


class TestSnrOverflow:
    # 10^(SNR/10) overflows a float for an SNR above about 3083 dB.
    @pytest.mark.parametrize(
        "argv", [LINK, (*CHAIN, "--mode", "af"), (*CHAIN, "--mode", "df")]
    )
    def test_overflow_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--txpow", "4000")
        assert code == 1
        assert out == ""
        assert err.startswith("ntnsim: error: SNR ")
        assert "too large for a linear power ratio" in err

    @pytest.mark.parametrize(
        "argv", [LINK, (*CHAIN, "--mode", "af"), (*CHAIN, "--mode", "df")]
    )
    @pytest.mark.parametrize("power", ["1e308", "-1e308"])
    def test_overflowing_budget_is_usage_error(self, capsys, argv, power):
        # txpow + G/T is inf at +1e308 and -inf at -1e308: the SNR is not
        # finite, so no row is written (AF once folded two inf hops to nan).
        code, out, err = run_cli(capsys, *argv, f"--got={power}", f"--txpow={power}")
        assert code == 1
        assert out == ""
        snr = "inf" if power == "1e308" else "-inf"
        message = f"SNR {snr} dB is not finite: the link budget overflows a float"
        assert err == f"ntnsim: error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            (*LINK, "--bandwidth", "1e308", "--txpow", "3200"),
            *[("chain", "--hop", "1200:10", "--hop", "20:10", "--mode", mode, "--fc", "20",
               "--got", "1e-320", "--txpow", "3035", "--bandwidth", "1e308")
              for mode in ("af", "df")],
        ],
        ids=["link", "chain-af", "chain-df"],
    )
    def test_overflowing_capacity_is_usage_error(self, capsys, argv):
        # At 1e308 Hz a capacity overflows a float above an SNR of about
        # 3.9 dB. Both hops of the chain pass that, by about 1 dB, and their
        # AF fold does not: the chain fails at hop 0's capacity.
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert re.fullmatch(r"ntnsim: error: capacity at 1e\+308 Hz and SNR \S+ dB "
                            r"overflows a float\n", err)

    @pytest.mark.parametrize("relay_mode", ["af", "df"])
    def test_overflowing_budget_is_every_sweep_rows_error(self, tmp_path, capsys, relay_mode):
        spec = tmp_path / "s.cfg"
        spec.write_text(
            "[axes]\nmode = direct, relay\nelevation_deg = 10, 60\n[fixed]\n"
            "altitude_km = 1200\nfc_ghz = 20\nscenario = rural\nhap_altitude_km = 20\n"
            f"relay_mode = {relay_mode}\ntx_power_dbm = 1e308\ng_over_t_dbi_per_k = 1e308\n"
        )
        code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == 0
        rows = csv_rows(out)
        assert [(row["snr_db"], row["capacity_bps"], row["error"]) for row in rows] == [
            ("", "", "SNR inf dB is not finite: the link budget overflows a float")
        ] * 4

    @pytest.mark.parametrize(
        "argv, row",
        [
            (LINK, "600,30,20,dense_urban,179.099,0.76,0.174274,19.8,199.834,"
                   "2965.34,7.8805e+11,1075.09,8e+08,direct"),
            ((*CHAIN, "--mode", "df"), "1200:10 20:10,df,20,dense_urban,347.583,"
                   "2.40717,0.682,27.04,377.712,2976.03,7.90893e+11,3208.06,8e+08,df:2hop"),
        ],
    )
    def test_largest_finite_snr_row_unchanged(self, capsys, argv, row):
        code, out, _ = run_cli(capsys, *argv, "--txpow", "3000")
        assert code == 0
        assert out.splitlines()[-1] == row

    @pytest.mark.parametrize("txpow", ["3000", "-2900"])
    def test_af_product_overflow_gives_a_finite_row(self, capsys, atm_table, scen_table, txpow):
        # Each hop's linear SNR fits a float; their product, the AF fold's
        # numerator, does not: it overflows at 3000 dBm and underflows to
        # zero at -2900 dBm.
        argv = (*CHAIN, "--mode", "af", "--txpow", txpow)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        (row,) = csv_rows(out)
        radio = _radio_from_args(build_parser().parse_args(argv))
        hops = (RelayHop(LinkGeometry.from_endpoints(20.0, 1200.0, 10.0), radio),
                RelayHop(LinkGeometry.from_endpoints(0.0, 20.0, 10.0), radio))
        result = evaluate_chain(RelayChain(hops), atm_table, scen_table)
        hop_snrs = [hop.snr_db for hop in result.hops]
        sign = 1 if float(txpow) > 0 else -1  # past the product's overflow, or its underflow
        assert sign * sum(hop_snrs) > 3100
        assert math.isfinite(result.snr_db) and result.snr_db <= min(hop_snrs)
        assert math.isfinite(result.capacity_bps)
        assert row["snr_db"] == format_value(result.snr_db)
        assert row["capacity_bps"] == format_value(result.capacity_bps)


def importable(name):
    try:
        __import__(name)
    except ImportError:
        return False
    return True


# The table checksums and the sampled streams hash with CPython's own sha256
# and blake2b, where the interpreter has them: hashlib would load OpenSSL's
# libcrypto at every start.
OPENSSL = (("hashlib", "_hashlib")
           if importable("_blake2") and (importable("_sha256") or importable("_sha2")) else ())


def sampled_spec(tmp_path):
    spec = tmp_path / "sampled.cfg"
    spec.write_text(TestSweepCommand.SPEC + "excess_mode = sampled\n")
    return spec


@pytest.mark.parametrize("command", ["preset", "link", "chain", "sweep"])
def test_cli_imports_no_numpy_or_dataclasses(tmp_path, command):
    # numpy's import alone would about triple a cold one-slice `ntnsim` run;
    # dataclasses, which imports inspect, would add about a fifth to every command.
    # The writer quotes its cells by hand, the same on every Python, without csv.
    # link and chain compile no sweep engine and read the packaged tables without
    # importlib.resources, and only preset compiles the presets. No command loads
    # OpenSSL, sampled streams included.
    # The child runs without site, which may import any of these.
    spec = tmp_path / "s.cfg"
    spec.write_text(TestSweepCommand.SPEC)
    argvs = {
        "preset": [["preset", "--name", "fig2"]],
        "link": [[*LINK, "--txpow", "18", "--seed", "7"]],
        "chain": [[*CHAIN, "--txpow", "18"]],
        "sweep": [["sweep", "--spec", str(spec)],
                  ["sweep", "--spec", str(sampled_spec(tmp_path)), "--seed", "7"]],
    }[command]
    unused = ("numpy", "dataclasses", "inspect", "csv", *OPENSSL)
    if command != "preset":
        unused += ("ntnsim.harness.presets",)
    if command in ("link", "chain"):
        unused += ("ntnsim.harness.sweep", "importlib.resources")
    code = (
        "import contextlib, io, sys\n"
        "from ntnsim.harness.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {argvs!r}]\n"
        f"print(set(codes), [m for m in {unused!r} if m in sys.modules])\n"
    )
    assert run_without_site(code) == "{0} []\n"


def run_without_site(code):
    """code's stdout, run by a child `python -S` that imports ntnsim from this tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(ntnsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.stderr == ""
    return proc.stdout


def test_setup_path_and_harness_names_import_only_their_homes():
    # The fig-defaults fixture and both tables, as every command loads them,
    # import neither the sweep engine nor csv, and check their sha256 without OpenSSL.
    unused = ("ntnsim.harness.sweep", "ntnsim.harness.presets", "csv", *OPENSSL)
    code = (
        "import sys\n"
        "import ntnsim\n"
        "from ntnsim.harness.config import load_fig_defaults\n"
        "ntnsim.load_atmosphere_table(), ntnsim.load_scenario_table(), load_fig_defaults()\n"
        f"print([m for m in {unused!r} if m in sys.modules])\n"
    )
    assert run_without_site(code) == "[]\n"
    # ntnsim.harness is only its modules: each name is read from the module that defines it.
    names = ("AXIS_NAMES", "PRESET_NAMES", "SweepResult", "SweepSpec", "csv_bytes", "emit_csv",
             "load_fig_defaults", "load_sweep_spec", "preset", "run_sweep")
    assert [name for name in names if hasattr(harness, name)] == []


def test_hashlib_fallback_prints_the_same_bytes(tmp_path):
    # Where CPython's own hash modules are missing, channel.py takes sha256 and
    # blake2b from hashlib: the same table checks and the same sampled streams.
    argvs = [[*LINK, "--txpow", "18", "--seed", "7"],
             ["sweep", "--spec", str(sampled_spec(tmp_path)), "--seed", "7"]]
    run = (
        "import ntnsim\n"
        "from ntnsim.harness.cli import main\n"
        "print(ntnsim.load_atmosphere_table().version, ntnsim.load_scenario_table().version)\n"
        f"print([main(argv) for argv in {argvs!r}])\n"
    )
    fallback = (
        "import hashlib, sys\n"
        "sys.modules.update(_blake2=None, _sha256=None, _sha2=None)  # their imports now fail\n"
        f"{run}"
        "from ntnsim import channel\n"
        "assert (channel.blake2b, channel.sha256) == (hashlib.blake2b, hashlib.sha256)\n"
    )
    out = run_without_site(run)
    assert out.endswith("[0, 0]\n") and "per-point streams blake2b(seed:index)" in out
    assert run_without_site(fallback) == out


def subcommands(parser):
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


# Every parameter flag of each subcommand, given a value; --grx and --got
# exclude each other, so each takes its own argv.
FULL_ARGVS = {
    "link": [
        ("link", "--alt", "600", "--elev", "30", "--fc", "20", "--scenario", "Rural",
         "--txpow", "18", "--gtx", "30", "--grx", "40", "--temp", "290",
         "--bandwidth", "4e8", "--seed", "7", "--tables", "dir", "--out", "file"),
        ("link", "--alt", "1200", "--elev", "10", "--fc", "2", "--got", "15.9",
         "--bandwidth", "AUTO"),
    ],
    "chain": [
        ("chain", "--hop", "1200:10", "--hop", "20:10", "--mode", "DF", "--fc", "20",
         "--scenario", "dense-urban", "--txpow", "18", "--gtx", "30", "--got", "15.9",
         "--temp", "290", "--bandwidth", "auto", "--seed", "-3"),
        ("chain", "--hop", "20:10", "--fc", "6", "--grx", "40", "--bandwidth", "1e6"),
    ],
    "sweep": [("sweep", "--spec", "s.cfg", "--seed", "3")],
    "preset": [("preset", "--name", "fig2")],
}
NOT_PARAMETERS = {"-h", "--hop", "--tables", "--out", "--spec", "--name"}


@pytest.mark.parametrize("command", FULL_ARGVS)
def test_parameter_flags_store_their_parameter_keys(command):
    parser = build_parser()
    flags = {
        action.option_strings[-1]: action.dest
        for action in subcommands(parser)[command]._actions
        if not NOT_PARAMETERS & set(action.option_strings)
    }
    given = set()
    for argv in FULL_ARGVS[command]:
        args = vars(parser.parse_args(argv))
        for flag, value in zip(argv[1::2], argv[2::2]):
            if flag in flags:
                assert flags[flag] in PARAMETERS, flag
                assert args[flags[flag]] == PARAMETERS[flags[flag]](value), flag
                given.add(flag)
    assert given == set(flags)


def test_flag_keys_are_the_parsers_numeric_link_flags():
    numeric = {finite_number, PARAMETERS["bandwidth_hz"]}
    link = subcommands(build_parser())["link"]
    flags = {
        action.option_strings[-1]: action.dest
        for action in link._actions
        if PARAMETERS.get(action.dest) in numeric
    }
    assert flags == FLAG_KEYS


@pytest.mark.parametrize(
    "argv, usage",
    [
        ((), "ntnsim [-h] {link,chain,sweep,preset} ..."),
        (("link",), "ntnsim link [-h] --alt ALT --elev ELEV --fc FC [--scenario SCENARIO] "
         "[--txpow TXPOW] [--gtx GTX] [--grx GRX | --got GOT] [--temp TEMP] "
         "[--bandwidth BANDWIDTH] [--tables DIR] [--out FILE] [--seed SEED]"),
        (("chain",), "ntnsim chain [-h] --hop ALT:ELEV [--mode {af,df}] --fc FC "
         "[--scenario SCENARIO] [--txpow TXPOW] [--gtx GTX] [--grx GRX | --got GOT] "
         "[--temp TEMP] [--bandwidth BANDWIDTH] [--tables DIR] [--out FILE] [--seed SEED]"),
        (("sweep",), "ntnsim sweep [-h] --spec FILE [--tables DIR] [--out FILE] [--seed SEED]"),
        (("preset",), "ntnsim preset [-h] --name NAME [--tables DIR] [--out FILE]"),
    ],
    ids=["ntnsim", "link", "chain", "sweep", "preset"],
)
def test_help_usage_line(capsys, argv, usage):
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "-h"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    # The usage paragraph, however the terminal's width wraps it.
    assert " ".join(out.split("\n\n")[0].split()) == f"usage: {usage}"


# The CLI property's texts for link's and chain's flags: valid ones, some of
# which fail a check of the link model (a gap altitude, 5 deg, a carrier off
# the table, 0 Hz), and BOUNDARY's, which one flag of about one argv in three
# takes instead, as does a number of one --hop in six. --alt's are top-down.
BOUNDARY = ("nan", "inf", "-inf", "1e308", "-1e308", "-0", "1e-320", "3000", "", "word")
PACKAGED_TABLES = str(Path(ntnsim.__file__).parent / "data")
VALUES = {
    "--alt": ("35786", "1200", "600", "300", "100", "20"),
    "--elev": ("30", "10", "90", "45.5", "5"),
    "--fc": ("20", "2", "90", "0.4"),
    "--scenario": ("dense_urban", "Rural", "dense-urban"),
    "--txpow": ("18", "40", "-10", "3000", "4000"),
    "--gtx": ("30", "0"),
    "--grx": ("40", "50"),
    "--got": ("15.9", "-10"),
    "--temp": ("290", "0"),
    "--bandwidth": ("auto", "4e8", "1e308", "0"),
    "--seed": ("3", "-5"),
    "--tables": (PACKAGED_TABLES,) * 3 + ("absent",),
    "--mode": ("af", "DF"),
}
# The receiver flags: each form, and the three ways to break the rule (none,
# both, --temp with --got).
RECEIVERS = [("--got",)] * 4 + [("--grx",)] * 3 + [
    ("--grx", "--temp"), (), ("--grx", "--got"), ("--got", "--temp")]
CLI_PARSER = build_parser()
CLI_FLAGS = {  # each parser's flags but -h and --out, and the receiver flags RECEIVERS picks
    command: [action.option_strings[-1] for action in subcommands(CLI_PARSER)[command]._actions
              if action.option_strings[-1] not in ("--help", "--out", "--grx", "--got", "--temp")]
    for command in ("link", "chain")
}
# Each flag's texts, and None to leave it out: rarely for a required flag
# (or one RECEIVERS picked), one time in two for another.
REQUIRED = ("--alt", "--elev", "--fc", "--grx", "--got", "--temp")
POOLS = {flag: values * 5 + (None,) if flag in REQUIRED else (None,) * len(values) + values
         for flag, values in VALUES.items()}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(("link", "chain")))
    flags = CLI_FLAGS[command] + list(draw(st.sampled_from(RECEIVERS)))
    spoiled = draw(st.sampled_from([None] * 2 * len(flags) + flags))
    argv = [command]
    for flag in flags:
        if flag == "--hop":
            argv += draw(hops())
            continue
        text = draw(st.sampled_from(BOUNDARY if flag == spoiled else POOLS[flag]))
        if text is not None:
            argv.append(f"{flag}={text}")  # '=' lets argparse take "-1e308"
    return argv


@st.composite
def hops(draw):
    """None to three --hop flags, top-down four times in five; one hop in six
    takes a boundary text for one of its numbers."""
    count = draw(st.sampled_from((1, 2, 3) * 5 + (0,)))
    altitudes = draw(st.lists(st.sampled_from(VALUES["--alt"]), min_size=count, max_size=count,
                              unique=True))
    if draw(st.sampled_from(range(5))) < 4:
        altitudes.sort(key=VALUES["--alt"].index)
    flags = []
    for altitude in altitudes:
        station = [altitude, draw(st.sampled_from(VALUES["--elev"]))]
        if not draw(st.sampled_from(range(6))):
            station[draw(st.sampled_from(range(2)))] = draw(st.sampled_from(BOUNDARY))
        flags.append("--hop={}:{}".format(*station))
    return flags


def by_hand(args, table, scenario_table):
    """The record of link's or chain's parsed args, in the CLI's check order but tables:
    the receiver form, then chain_record's order."""
    flags = vars(args)
    radio = load_fig_defaults()
    if flags["g_rx_dbi"] is None:
        if flags["g_over_t_dbi_per_k"] is None:
            raise ConfigError("one of --grx or --got is required")
        del radio["noise_temperature_k"]
    radio.update((key, flags[key]) for key in RadioConfig._fields if flags[key] is not None)
    if args.command == "link":
        stations, mode = [(args.altitude_km, args.elevation_deg)], "af"
    else:
        stations = [(altitude, elevation) for _, altitude, elevation in args.hop]
        for text, *station in args.hop:  # typed as the text says, or argparse refused it
            assert station == [finite_number(part) for part in text.split(":")]
        mode = args.relay_mode
    return chain_record(radio, stations, mode, args.scenario, table, scenario_table, args.seed)


def main_in_process(argv, kinds):
    """main(argv)'s (code, stdout, stderr), which exits 0-3 and raises nothing. A
    nonzero exit writes no output and one error line, of kinds (ntnsim: KIND
    error) or ntnsim's own, after the usage text if argparse refused argv."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2, 3)
    if code:
        assert out == ""
        *usage, line = err.splitlines()
        assert re.fullmatch(rf"ntnsim(( {argv[0]})?: error|: ({kinds}) error): .+", line)
        assert usage == [] or err.startswith("usage: ntnsim ")
    return code, out, err


@settings(max_examples=100, deadline=None)
@given(argv=cli_argvs())
# A capacity that overflows a float, which the pools reach in 2 of 2,000 draws.
@example(argv=["link", "--alt=20", "--elev=90", "--fc=2", "--gtx=30", "--got=15.9",
               "--txpow=3000", "--bandwidth=1e308"])
def test_link_and_chain_exit_as_their_inputs_say(atm_table, scen_table, argv):
    code, out, err = main_in_process(argv, "i/o|table")
    usage_error = io.StringIO()
    try:
        with contextlib.redirect_stderr(usage_error):
            args = CLI_PARSER.parse_args(argv)
    except SystemExit as exc:  # main exits 1 with argparse's whole text
        assert (code, err, exc.code) == (1, usage_error.getvalue(), 2)
        return
    if args.tables not in (None, Path(PACKAGED_TABLES)):
        assert code == 2 and err.startswith("ntnsim: i/o error: ")
        return
    try:
        record = by_hand(args, atm_table, scen_table)
    except NtnSimError as exc:
        kind = "table error" if isinstance(exc, TableDomainError) else "error"
        assert (code, err) == (1 + (kind != "error"), f"ntnsim: {kind}: {exc}\n")
        return
    assert (code, err) == (0, "")
    header, row = list(csv.reader(io.StringIO(out)))
    cells = dict(zip(header, row))
    assert all(math.isfinite(float(cells[column])) for column in RESULT_COLUMNS[:-2])
    if args.command == "link":
        inputs = [args.altitude_km, args.elevation_deg]
    else:
        inputs = [" ".join(text for text, _, _ in args.hop), args.relay_mode]
    expected = dict(zip(RESULT_COLUMNS, record))
    expected.update(zip(header, [*inputs, args.fc_ghz, args.scenario]))
    assert row == [format_value(expected[column]) for column in header]


# The CLI property for sweep and preset: sweep --spec with the spec fuzz's
# texts (FORMATS.md's example, also sampled, with lines inserted, or grammar
# lines alone) and a --seed two times in three; preset --name one argv in five.
SWEEP_SEEDS = (None,) * 4 + ("3", "-1", "0") * 2 + ("x", "2.5", "nan")
PRESETS = (None,) * 16 + PRESET_NAMES + ("fig9",)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=config_texts(SPEC, SAMPLED_SPEC), seed=st.sampled_from(SWEEP_SEEDS),
       name=st.sampled_from(PRESETS))
def test_sweep_and_preset_exit_as_their_inputs_say(
        tmp_path, atm_table, scen_table, text, seed, name):
    path = tmp_path / "spec.cfg"
    path.write_text(text, encoding="utf-8")
    if name is None:
        argv = ["sweep", f"--spec={path}"] + ([] if seed is None else [f"--seed={seed}"])
    else:
        argv = ["preset", f"--name={name}"]
    code, out, err = main_in_process(argv, "spec")
    if code == 0:  # each row: finite metrics and no error, or no metrics and an error
        lines = [line for line in out.splitlines(True) if not line.startswith("#")]
        for row in csv.DictReader(lines):
            cells = [row[c] for c in row if c in RESULT_COLUMNS and c not in ("label", "error")]
            error = row.get("error")
            finite = all(cell and math.isfinite(float(cell)) for cell in cells)
            assert (finite and not error) or (not any(cells) and error != "")
    usage_error = io.StringIO()
    try:
        with contextlib.redirect_stderr(usage_error):
            args = CLI_PARSER.parse_args(argv)
    except SystemExit as exc:  # main exits 1 with argparse's whole text
        assert (code, err, exc.code) == (1, usage_error.getvalue(), 2)
        return
    # The checks' order: each line of the spec file, --seed, the whole spec.
    try:
        spec = preset(args.name) if name else load_sweep_spec(path)
        if not name and args.seed is not None:
            mode = spec.fixed.get("excess_mode", "expected")
            if PARAMETERS["excess_mode"](mode) != "sampled":
                message = "--seed applies only to a spec with excess_mode = sampled"
                assert (code, out, err) == (1, "", f"ntnsim: error: {message}\n")
                return
            spec = spec._replace(seed=args.seed)
        expected = csv_bytes(run_sweep(spec, atm_table, scen_table)).decode()
    except NtnSimError as exc:
        assert (code, out, err) == (3, "", f"ntnsim: spec error: {exc}\n")
        return
    assert (code, out, err) == (0, expected, "")
