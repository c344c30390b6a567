"""CSV bytes of every result equal csv.writer with format_value over its rows.

The reference writes every row dict through csv.writer and format_value.
_write_csv writes every result from its per-point records instead,
through one format string per kind of row that writes every float column
with "%.6g"; its bytes must equal the reference's.
"""

import csv
import io
import math
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ntnsim import RelayMode, Scenario
from ntnsim.harness import SweepResult, SweepSpec, csv_bytes, emit_csv, run_sweep
from ntnsim.harness.cli import main
from ntnsim.harness.sweep import (
    AXIS_NAMES, EXTRA_COLUMNS, METRIC_COLUMNS, RESULT_COLUMNS, SweepRows, format_value,
)

# Axis names as run_sweep, link and chain give them; a schema column that
# is neither an axis nor a result column is an empty cell.
AXES = ("altitude_km", "hops", "mode")
COLUMNS = AXES + ("fspl_db", "snr_db", "capacity_bps", "label", "error")

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1234567.0, 1e16]),
)
others = st.one_of(
    st.integers(-10**8, 10**8),
    st.just(1234567),
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.fractions(),
    st.decimals(allow_nan=True),
    st.sampled_from([*Scenario, *RelayMode, True, False, None]),
    st.text(alphabet=st.sampled_from('ab,"\n\r x1.e'), max_size=8),
)


# A point's record: its floats, its label and an empty error; a failed
# point's: no values, an empty label and its message.
records = st.one_of(
    st.tuples(*[floats] * 9, st.sampled_from(["direct", "af:2hop", "df:3hop"]), st.just("")),
    st.tuples(*[st.none()] * 9, st.just(""), st.text(min_size=1)),
)


@st.composite
def results(draw):
    # Axis values of any type, empty text and an empty axis (no rows) included.
    axis = st.lists(st.one_of(floats, others, st.sampled_from(["", None])), max_size=3)
    names = draw(st.lists(st.sampled_from(AXES), unique=True, max_size=3))
    axes = tuple((name, tuple(draw(axis))) for name in names)
    size = math.prod(len(values) for _, values in axes)
    width = draw(st.sampled_from([1, 7]))  # one column often: csv quotes a lone empty cell
    return SweepResult(
        schema=tuple(draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=width))),
        rows=SweepRows(axes, tuple(draw(st.lists(records, min_size=size, max_size=size)))),
        provenance=("spec: x",),
    )


def reference_csv(result):
    buffer = io.StringIO()
    for line in result.provenance:
        buffer.write(f"# {line}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(result.schema)
    for row in result.rows:
        writer.writerow([format_value(row.get(col)) for col in result.schema])
    return buffer.getvalue().encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(results())
def test_csv_equals_csv_writer_with_format_value(result):
    assert csv_bytes(result) == reference_csv(result)


# Values as a Python spec may give them: ints, numpy floats, words with
# capitals, spaces or a trailing newline (which csv quotes), enum members.
# 100 km is a gap altitude, 0.3 and 120 GHz lie outside the atmosphere
# table and 5 deg below the elevation range: their rows carry an error
# message with commas.
SPEC_VALUES = {
    "altitude_km": (600, 100.0, np.float64(1200.0), 35786.0, 20.0),
    "fc_ghz": (20, 2.0, np.float64(60.0), 0.3, 120.0),
    "elevation_deg": (30, 10.0, np.float64(45.5), 5.0, 90.0),
    "g_rx_dbi": (50, 30.0, np.float64(40.0)),
    "scenario": ("dense_urban", "Dense Urban", " rural\n", Scenario.SUBURBAN),
    "mode": ("direct", "Relay", "relay"),
}
FIXED = {"tx_power_dbm": 18.0, "noise_temperature_k": 290.0, "hap_altitude_km": 20.0}


@st.composite
def sweep_specs(draw):
    axes, fixed = [], dict(FIXED)
    for name in draw(st.permutations(AXIS_NAMES)):
        values = draw(st.lists(st.sampled_from(SPEC_VALUES[name]), min_size=1, max_size=3))
        if name in ("altitude_km", "fc_ghz", "elevation_deg") or draw(st.booleans()):
            axes.append((name, tuple(values)))
        else:  # a fixed parameter, which a schema may still name
            fixed[name] = values[0]
    fixed["relay_mode"] = draw(st.sampled_from(["af", "df"]))
    fixed["excess_mode"] = draw(st.sampled_from(["expected", "sampled"]))
    columns = AXIS_NAMES + METRIC_COLUMNS + EXTRA_COLUMNS
    schema = draw(st.one_of(
        st.just(()),  # the default schema
        st.lists(st.sampled_from(columns), min_size=1, max_size=1),
        st.permutations(columns).flatmap(lambda c: st.lists(st.sampled_from(c), min_size=1)),
    ))
    seed = draw(st.integers(-2**40, 2**40)) if fixed["excess_mode"] == "sampled" else None
    return SweepSpec(
        axes=tuple(axes), fixed=fixed, output_schema=tuple(schema), seed=seed,
        provenance=("spec: random",),
    )


@contextmanager
def no_row_dicts():
    """Make building a row dict of a SweepRows fail."""

    def build(*args):
        raise AssertionError("row dicts built")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SweepRows, "__getitem__", build)
        patch.setattr(SweepRows, "__iter__", build)
        yield


@settings(max_examples=150, deadline=None)
@given(sweep_specs())
def test_records_csv_equals_csv_writer_over_rows(atm_table, scen_table, spec):
    result = run_sweep(spec, atm_table, scen_table)
    written = csv_bytes(result)  # of a result whose rows were never read
    assert written == reference_csv(result)
    assert csv_bytes(result) == written  # after reference_csv read the rows

    # Reading rows every way changes nothing the CSV is written from.
    rows = result.rows
    listed = list(rows)
    # "%.6g" gives format_value's text only of a Python float.
    float_columns = RESULT_COLUMNS[:-2]  # but label and error
    assert all(type(row[c]) is float for row in listed if not row["error"] for c in float_columns)
    assert [rows[i] for i in range(len(rows))] == listed
    assert [rows[i] for i in range(-len(rows), 0)] == listed
    assert rows[-1] == listed[-1]
    assert rows[::-2] == tuple(listed[::-2]) and rows[1::3] == tuple(listed[1::3])
    assert result.error_rows() == tuple(row for row in listed if row["error"])
    with pytest.raises(IndexError):
        rows[len(rows)]
    with no_row_dicts():
        assert csv_bytes(result) == written


SPEC = SweepSpec(
    axes=(
        ("altitude_km", (100.0, 600.0)), ("fc_ghz", (20.0, 120.0)), ("mode", ("direct", "relay")),
    ),
    fixed={**FIXED, "elevation_deg": 30.0, "scenario": "urban", "g_rx_dbi": 40.0},
)


@pytest.fixture
def rows_forbidden():
    with no_row_dicts():
        yield


def test_emit_csv_builds_no_row_dicts(atm_table, scen_table, rows_forbidden):
    out = io.StringIO()
    emit_csv(run_sweep(SPEC, atm_table, scen_table), out)
    assert len(out.getvalue().splitlines()) == 3 + 8  # provenance, header, rows


@pytest.mark.parametrize("value", [np.float32(1234.5678), Fraction(2469, 2), Decimal("1234.5678")])
def test_axis_cell_of_any_real_has_six_digits(atm_table, scen_table, value):
    spec = SweepSpec(axes=(("altitude_km", (value,)),), fixed={**SPEC.fixed, "fc_ghz": 20.0})
    result = run_sweep(spec, atm_table, scen_table)
    assert result.rows[0]["altitude_km"] is value  # rows keep the value as given
    assert csv_bytes(result).decode().splitlines()[-1].split(",")[0] == "%.6g" % float(value)


def test_sweep_command_builds_no_row_dicts(tmp_path, capsys, rows_forbidden):
    spec = tmp_path / "s.cfg"
    spec.write_text(
        "[axes]\naltitude_km = 100, 600\nelevation_deg = 10, 50\n"
        "[fixed]\nfc_ghz = 20\nscenario = rural\ntx_power_dbm = 18\n"
        "g_over_t_dbi_per_k = 15.9\n"
    )
    assert main(["sweep", "--spec", str(spec)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3 + 5


def test_rows_are_built_once(atm_table, scen_table):
    result = run_sweep(SPEC, atm_table, scen_table)
    rows = result.rows
    assert result.rows is rows
    assert len(rows) == 8 and sum(1 for row in rows if row["error"]) == 6
