"""Parameter values: the fig-defaults fixture, spec files, Python specs and CLI flags agree."""

import hashlib
import math
import sys

import pytest
from hypothesis import given, strategies as st

from ntnsim import (
    ChainError, ConfigError, DomainError, LinkGeometry, RadioConfig, RelayChain, RelayHop,
    RelayMode, Scenario, SpecError, evaluate_chain, excess_loss_db)
from ntnsim.channel import _data_text
from ntnsim.geometry import finite_number
from ntnsim.harness import config
from ntnsim.harness.cli import main
from ntnsim.harness.config import PARAMETERS, load_fig_defaults
from ntnsim.harness.sweep import SweepSpec, load_sweep_spec, run_sweep
from strategies import FLAG_KEYS

FIXTURE_KEYS = ("tx_power_dbm", "g_tx_dbi", "noise_temperature_k")
BAD_VALUES = ("nan", "-inf", "1e999", "x")

BASE = {
    "altitude_km": "600",
    "elevation_deg": "30",
    "fc_ghz": "20",
    "scenario": "rural",
    "tx_power_dbm": "18",
}
GRX_FORM = {"g_rx_dbi": "50", "noise_temperature_k": "290"}
GOT_FORM = {"g_over_t_dbi_per_k": "15.9"}


def fixed_with(key, value):
    """A valid set of fixed parameters (as text) with key set to value."""
    form = GRX_FORM if key in GRX_FORM else GOT_FORM
    return {**BASE, **form, key: value}


def fixed_text(fixed):
    """A spec file's [fixed] section of fixed."""
    return "[fixed]\n" + "".join(f"{k} = {v}\n" for k, v in fixed.items())


@pytest.mark.parametrize("key", FIXTURE_KEYS)
@pytest.mark.parametrize("value", BAD_VALUES)
def test_config_file_rejects(monkeypatch, key, value):
    lines = _data_text("fig_defaults.cfg").splitlines()
    line = next(i for i, text in enumerate(lines, 1) if text.startswith(f"{key} ="))
    lines[line - 1] = f"{key} = {value}"
    monkeypatch.setattr(config, "_data_text", lambda name: "\n".join(lines))
    with pytest.raises(ConfigError) as err:
        load_fig_defaults()
    assert f"fig_defaults.cfg:{line}: {key}: expected a finite number" in str(err.value)


@pytest.mark.parametrize("key", FLAG_KEYS.values())
@pytest.mark.parametrize("value", BAD_VALUES)
def test_spec_file_rejects(tmp_path, key, value):
    fixed = fixed_with(key, value)
    path = tmp_path / "s.cfg"
    path.write_text(fixed_text(fixed))
    with pytest.raises(SpecError) as err:
        load_sweep_spec(path)
    line = list(fixed).index(key) + 2
    assert f"s.cfg:{line}: {key}: expected a finite number" in str(err.value)


@pytest.mark.parametrize("key", FLAG_KEYS.values())
@pytest.mark.parametrize("value", [math.nan, -math.inf, float("1e999"), "x"])
def test_python_spec_rejects(atm_table, scen_table, key, value):
    fixed = {k: v if k == "scenario" else float(v) for k, v in fixed_with(key, "0").items()}
    fixed[key] = value
    spec = SweepSpec(axes=(), fixed=fixed)
    with pytest.raises(SpecError) as err:
        run_sweep(spec, atm_table, scen_table)
    assert f"{key}: expected a finite number" in str(err.value)


def test_python_spec_rejects_unknown_scenario(atm_table, scen_table):
    fixed = {k: float(v) for k, v in {**BASE, **GOT_FORM}.items() if k != "scenario"}
    spec = SweepSpec(axes=(("scenario", ("rural", "rurall")),), fixed=fixed)
    with pytest.raises(SpecError) as err:
        run_sweep(spec, atm_table, scen_table)
    assert "unknown scenario 'rurall'" in str(err.value)


def test_capitalised_words_accepted_everywhere(tmp_path, atm_table, scen_table):
    fixed = fixed_with("excess_mode", "Sampled")
    fixed.update(mode="Relay", relay_mode="DF", hap_altitude_km="20")
    spec_file = tmp_path / "s.cfg"
    spec_file.write_text(
        "seed = 4\n[fixed]\n" + "".join(f"{k} = {v}\n" for k, v in fixed.items())
    )
    (row,) = run_sweep(load_sweep_spec(spec_file), atm_table, scen_table).rows
    assert row["error"] == ""
    assert row["label"] == "df:2hop"


LONG = f"expected an integer of at most {sys.get_int_max_str_digits()} digits, got a longer one"
# A flag's command line but the flag.
FLAG_ARGV = {
    "--mode": ("chain", "--hop", "1200:10", "--hop", "20:10", "--fc", "20", "--got", "15.9"),
    "--seed": ("link", "--alt", "600", "--elev", "30", "--fc", "20", "--got", "15.9"),
}


@pytest.mark.parametrize("key, text, value, flag, message", [
    pytest.param(*case, id=case[0]) for case in [
        ("mode", "xx", "xx", None, "expected one of direct, relay, got 'xx'"),
        ("relay_mode", "xx", "xx", "--mode", "expected one of af, df, got 'xx'"),
        ("excess_mode", "xx", "xx", None, "expected one of expected, sampled, got 'xx'"),
        # Too long to convert, and so to echo: 5,000 digits would fill the message.
        ("seed", "9" * 5000, 10**5000, "--seed", LONG),
    ]
])
def test_word_and_integer_rules_raise_their_message(
        tmp_path, capsys, atm_table, scen_table, key, text, value, flag, message):
    # A Python spec's value (SpecError), a spec file's line (exit 3, naming file:line)
    # and a flag (exit 1, argparse's one error line after the usage) give one message.
    fixed = {k: v if k == "scenario" else float(v) for k, v in {**BASE, **GOT_FORM}.items()}
    spec = SweepSpec(axes=(), fixed=fixed)
    spec = spec._replace(seed=value) if key == "seed" else spec._replace(fixed={**fixed, key: value})
    with pytest.raises(SpecError) as err:
        run_sweep(spec, atm_table, scen_table)
    assert str(err.value) == f"{key}: {message}"
    lines = ["[fixed]", *(f"{k} = {v}" for k, v in fixed.items())]
    at = 0 if key == "seed" else len(lines)  # a seed is a top-level key
    lines.insert(at, f"{key} = {text}")
    path = tmp_path / "s.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["sweep", "--spec", str(path)])
    expected = f"ntnsim: spec error: s.cfg:{at + 1}: {key}: {message}\n"
    assert (code, *capsys.readouterr()) == (3, "", expected)
    if flag:
        command = FLAG_ARGV[flag]
        code, out, err = main([*command, flag, text]), *capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.endswith(f"\nntnsim {command[0]}: error: argument {flag}: {message}\n")


X = "x" * 5000
ECHO = f"'{'x' * 39}... (5002 characters)"  # geometry.echo of X


def spec_argv(text):
    """A sweep command line, its spec file written under tmp_path with text."""

    def argv(tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(text)
        return ("sweep", "--spec", str(path))

    return argv


def table_argv(name, line):
    """A link command line on tables under tmp_path, where table name holds
    line as its one row, checksummed, and the atmosphere table is otherwise
    the packaged one."""

    def argv(tmp_path):
        (tmp_path / "atmosphere.tsv").write_text(_data_text("atmosphere.tsv"))
        digest = hashlib.sha256(line.encode()).hexdigest()
        (tmp_path / name).write_text(f"# version: 1\n# checksum: sha256={digest}\n{line}\n")
        return (*FLAG_ARGV["--seed"], "--tables", str(tmp_path))

    return argv


# Values of 5,000 characters, which would fill the message that echoed them whole:
# command lines, or for files a function that writes them and gives the command line.
LONG_VALUES = {
    "txpow": ((*FLAG_ARGV["--seed"], "--txpow", "9" * 5000), 1),
    "mode": ((*FLAG_ARGV["--mode"], "--mode", X), 1),
    "scenario": ((*FLAG_ARGV["--seed"], "--scenario", X), 1),
    "hop": (("chain", "--hop", "9" * 5000 + ":10", *FLAG_ARGV["--mode"][3:]), 1),
    "seed": ((*FLAG_ARGV["--seed"], "--seed", "x" * 4000), 1),  # below the digit limit
    "spec-file": (spec_argv(fixed_text(fixed_with("tx_power_dbm", "9" * 5000))), 3),
    "spec-line": (spec_argv(f"{X}\n"), 3),
    "spec-empty-value": (spec_argv(f"{X} =\n"), 3),
    "duplicate-key": (spec_argv(f"[fixed]\n{X} = 1\n{X} = 1\n"), 3),
    "unknown-section": (spec_argv(f"[{X}]\n"), 3),
    "top-level-key": (spec_argv(f"{X} = 1\n"), 3),
    "output-key": (spec_argv(f"[output]\n{X} = 1\n"), 3),
    "unknown-axis": (spec_argv(f"[axes]\n{X} = 1\n"), 3),
    "unknown-fixed": (spec_argv(f"[fixed]\n{X} = 1\n"), 3),
    "unknown-column": (spec_argv(fixed_text(fixed_with("tx_power_dbm", "18"))
                                 + f"[output]\ncolumns = {X}\n"), 3),
    "preset": (("preset", "--name", X), 3),
    "table-columns": (table_argv("atmosphere.tsv", f"20 0.1 0.1 {X}"), 2),
    "table-number": (table_argv("atmosphere.tsv", f"20 0.1 {X}"), 2),
    "table-scenario": (table_argv("scenario.tsv", f"{X} 10 0.5 1 2 3"), 2),
}


@pytest.mark.parametrize("case", LONG_VALUES)
def test_a_long_value_is_echoed_in_a_bounded_message(tmp_path, capsys, case):
    argv, exit_code = LONG_VALUES[case]
    if callable(argv):
        argv = argv(tmp_path)
    code, out, err = main(list(argv)), *capsys.readouterr()
    assert (code, out) == (exit_code, "")
    (line,) = [line for line in err.splitlines() if "error" in line]
    assert err.endswith(f"{line}\n") and len(line.encode()) < 400
    assert "Traceback" not in err


def test_a_long_library_value_is_echoed_in_a_bounded_message(atm_table, scen_table, got_radio):
    with pytest.raises(DomainError) as err:
        scen_table.cell(Scenario.RURAL, 30.0).sampler(X)(0)
    assert str(err.value) == f"sampled_seed must be an integer, got {ECHO}"
    with pytest.raises(DomainError) as err:
        excess_loss_db(X, 30.0, scen_table)
    assert str(err.value) == f"unknown scenario: {ECHO}"
    hop = RelayHop(LinkGeometry.from_endpoints(0.0, 600.0, 30.0), got_radio())
    with pytest.raises(ChainError) as err:
        evaluate_chain(RelayChain((hop,), X), atm_table, scen_table)
    assert str(err.value) == f"relay mode must be a RelayMode, not {ECHO}"


def test_an_integer_too_long_to_print_raises_the_typed_error():
    # repr refuses an int of more digits than sys.get_int_max_str_digits().
    with pytest.raises(ConfigError) as err:
        RadioConfig(fc_ghz=10**5000, tx_power_dbm=18.0, g_over_t_dbi_per_k=15.9)
    assert str(err.value) == "fc_ghz: expected a finite number, got an integer too long to print"


# Valid values of every key of PARAMETERS, as text and as typed values.
VALID = {
    **{key: ["0", "-2.5", "1e300", 7, 600.0] for key in PARAMETERS},
    "bandwidth_hz": ["auto", "AUTO", None, "4e8", 4e8],
    "scenario": ["dense_urban", "Dense Urban", "rural", *Scenario],
    "mode": ["direct", "Relay"],
    "relay_mode": ["af", "DF", *RelayMode],
    "excess_mode": ["expected", "Sampled"],
    "seed": ["3", "-7", 2**70, 0],
}


@pytest.mark.parametrize("key", sorted(PARAMETERS))
def test_every_parser_returns_its_own_output_unchanged(key):
    assert set(VALID) == set(PARAMETERS)
    for value in VALID[key]:
        parsed = PARAMETERS[key](value)
        assert PARAMETERS[key](parsed) == parsed, value


def test_relay_mode_member_gives_the_rows_of_its_word(atm_table, scen_table):
    fixed = {k: v if k == "scenario" else float(v) for k, v in {**BASE, **GOT_FORM}.items()}
    del fixed["altitude_km"], fixed["elevation_deg"]
    fixed.update(mode="relay", hap_altitude_km=20.0)
    axes = (("elevation_deg", (30.0, 50.0)), ("altitude_km", (600.0, 100.0)))  # 100 km: a gap
    rows = [
        list(run_sweep(SweepSpec(axes, {**fixed, "relay_mode": mode}), atm_table, scen_table).rows)
        for mode in ("df", RelayMode.DECODE_FORWARD)
    ]
    assert rows[0] == rows[1]
    assert {row["label"] for row in rows[1]} == {"", "df:2hop"}


@given(st.one_of(
    st.floats().map(repr),
    st.text(),
    st.sampled_from(["NaN", "-Infinity", "1e999", "-1e-999", " 7 ", "1_000", "0x10"]),
))
def test_number_parser_accepts_exactly_finite_texts(text):
    try:
        finite = math.isfinite(float(text))
    except ValueError:
        finite = False
    try:
        finite_number(text)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == finite
