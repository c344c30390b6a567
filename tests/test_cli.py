"""CLI tests: subcommands, output shape, exit codes."""

import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import ntnsim
from ntnsim.errors import SpecError
from ntnsim.harness import SweepSpec, load_fig_defaults, run_sweep
from ntnsim.harness.cli import _parse_hops, _radio_from_args, build_parser, main
from ntnsim.harness.sweep import EXTRA_COLUMNS, METRIC_COLUMNS, format_value
from ntnsim.relay import RelayChain, evaluate_chain


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

    def test_missing_spec_file(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--spec", str(tmp_path / "nope.cfg"))
        assert code == 3

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
        self._copy_tables(tmp_path)
        code, out, _ = run_cli(
            capsys, "link", "--alt", "600", "--elev", "30", "--fc", "20",
            "--got", "15.9", "--tables", str(tmp_path),
        )
        assert code == 0

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

    def test_missing_tables_dir_is_data_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "link", "--alt", "600", "--elev", "30", "--fc", "20",
            "--got", "15.9", "--tables", str(tmp_path / "absent"),
        )
        assert code == 2


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
                tx_power_dbm=fx.tx_power_dbm,
                g_tx_dbi=fx.g_tx_dbi,
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


LINK = ("link", "--alt", "600", "--elev", "30", "--fc", "20", "--got", "15.9")
GRX_LINK = (
    "link", "--alt", "600", "--elev", "30", "--fc", "20", "--grx", "50",
    "--temp", "290",
)
CHAIN = ("chain", "--hop", "1200:10", "--hop", "20:10", "--fc", "20", "--got", "15.9")


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
            (*LINK, "--scenario", "dense_urban", "--txpow", "18"),
            LINK_HEADER + "600,30,20,dense_urban,179.099,0.76,0.174274,19.8,199.834,"
            "-16.6647,2.46128e+07,1075.09,8e+08,direct\n",
        ),
        (
            (*GRX_LINK, "--bandwidth", "400e6"),
            LINK_HEADER + "600,30,20,dense_urban,179.099,0.76,0.174274,19.8,199.834,"
            "-4.17833,1.86741e+08,1075.09,4e+08,direct\n",
        ),
        (
            (*CHAIN, "--mode", "af", "--scenario", "dense_urban"),
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
        args = build_parser().parse_args(argv)
        hops = _parse_hops(args.hop, _radio_from_args(args))
        result = evaluate_chain(RelayChain(hops), atm_table, scen_table)
        hop_snrs = [hop.snr_db for hop in result.hops]
        sign = 1 if float(txpow) > 0 else -1  # past the product's overflow, or its underflow
        assert sign * sum(hop_snrs) > 3100
        assert math.isfinite(result.snr_db) and result.snr_db <= min(hop_snrs)
        assert math.isfinite(result.capacity_bps)
        assert row["snr_db"] == format_value(result.snr_db)
        assert row["capacity_bps"] == format_value(result.capacity_bps)


@pytest.mark.parametrize("command", ["preset", "link", "chain", "sweep"])
def test_cli_imports_no_numpy_or_dataclasses(tmp_path, command):
    # numpy's import alone would about triple a cold one-slice `ntnsim` run;
    # dataclasses, which imports inspect, would add about a fifth to every command.
    spec = tmp_path / "s.cfg"
    spec.write_text(TestSweepCommand.SPEC)
    argv = {
        "preset": ["preset", "--name", "fig2"],
        "link": [*LINK, "--txpow", "18"],
        "chain": [*CHAIN, "--txpow", "18"],
        "sweep": ["sweep", "--spec", str(spec)],
    }[command]
    code = (
        "import contextlib, io, sys\n"
        "from ntnsim.harness.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, [m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ntnsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.stderr == ""
    assert proc.stdout == "0 []\n"
