"""CSV bytes of every result equal csv.writer with format_value over its rows.

The reference writes every row dict through csv.writer, with its default
terminator, and format_value (see csv_line).
_write_csv writes every result from its per-point records instead,
through one format string per kind of row that writes every float column
with "%.6g", or as the text an ok record carries for it (SweepRows'
texts); its bytes must equal the reference's.
"""

import csv
import io
import math
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ntnsim import RelayMode, Scenario
from ntnsim.harness.cli import main
from ntnsim.harness.rows import (
    RESULT_COLUMNS, SweepResult, SweepRows, csv_bytes, emit_csv, format_value)
from ntnsim.harness.sweep import SweepSpec, run_sweep
from strategies import FIXED, sweep_specs

# Axis names as run_sweep, link and chain give them; a schema column that
# is neither an axis nor a result column is an empty cell.
AXES = ("altitude_km", "hops", "mode")
COLUMNS = AXES + ("fspl_db", "snr_db", "capacity_bps", "label", "error")
FLOAT_COLUMNS = RESULT_COLUMNS[:-2]  # but label and error

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
# point's: no values, an empty label and its message, often from a small
# pool of messages that csv quotes, so one result repeats a message.
messages = st.one_of(
    st.sampled_from([
        "altitude 140.0 km lies in the gap (25, 200) km between HAP and LEO bands",
        'a "quoted" word', "two\nlines", "carriage\rreturn", "no quotes",
    ]),
    st.text(min_size=1),
)
records = st.one_of(
    st.tuples(*[floats] * 9, st.sampled_from(["direct", "af:2hop", "df:3hop"]), st.just("")),
    st.tuples(*[st.none()] * 9, st.just(""), messages),
)


@st.composite
def results(draw):
    # Axis values of any type, empty text and an empty axis (no rows) included.
    axis = st.lists(st.one_of(floats, others, st.sampled_from(["", None])), max_size=3)
    names = draw(st.lists(st.sampled_from(AXES), unique=True, max_size=3))
    axes = tuple((name, tuple(draw(axis))) for name in names)
    size = math.prod(len(values) for _, values in axes)
    width = draw(st.sampled_from([1, 7]))  # one column often: csv quotes a lone empty cell
    # Float columns, in any order, whose "%.6g" text an ok record carries after its values.
    texts = tuple(draw(st.lists(st.sampled_from(FLOAT_COLUMNS), unique=True)))
    drawn = draw(st.lists(records, min_size=size, max_size=size))
    return SweepResult(
        schema=tuple(draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=width))),
        rows=SweepRows(axes, tuple(map(partial(with_texts, texts), drawn)), texts),
        provenance=("spec: x",),
    )


def with_texts(texts, record):
    """record, and if it is ok, the "%.6g" text of its values of texts, in that order."""
    if record[0] is None:
        return record
    return record + tuple("%.6g" % record[RESULT_COLUMNS.index(name)] for name in texts)


def csv_line(cells):
    """cells as csv.writer writes a row with its default terminator, then LF for its CRLF.

    Quoting for that terminator takes in both CR and LF on every Python;
    with lineterminator="\n", Pythons before 3.13 leave a lone CR unquoted.
    """
    buffer = io.StringIO()
    csv.writer(buffer).writerow(cells)
    text = buffer.getvalue()
    assert text.endswith("\r\n")
    return text[:-2] + "\n"


def reference_csv(result):
    lines = [f"# {line}\n" for line in result.provenance] + [csv_line(result.schema)]
    for row in result.rows:
        lines.append(csv_line([format_value(row.get(col)) for col in result.schema]))
    return "".join(lines).encode("utf-8")


# A word-axis cell, then an error cell, that is exactly one character csv
# quotes: the property then catches a quoting fault confined to one of them.
OK, FAILED = (1.0,) * 9 + ("direct", ""), (None,) * 9 + ("",)
SPECIAL_CELLS = [SweepResult(("mode", "error"), SweepRows((("mode", (word,)),), (record,)))
                 for char in '\r\n,"' for word, record in [(char, OK), ("x", FAILED + (char,))]]


def special_cell_examples(test):
    for result in SPECIAL_CELLS:
        test = example(result)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(results())
@special_cell_examples
def test_csv_equals_csv_writer_with_format_value(result):
    assert csv_bytes(result) == reference_csv(result)


def read_back(result):
    """The header and rows csv.reader reads from result's CSV, provenance left out."""
    body = csv_bytes(result).decode("utf-8").split("\n", len(result.provenance))[-1]
    return list(csv.reader(io.StringIO(body, newline="")))


def test_every_special_character_is_quoted_in_header_axes_and_errors():
    words = ('say "hi", twice', "two\nlines", "carriage\rreturn", "cr\r\nlf", '"', "plain")
    failed = (None,) * 9 + ("", 'a "quoted", message\r')
    ok = (1.0,) * 9 + ("direct", "")
    schema = ("scenario", 'odd "name", here', "capacity_bps", "error")
    result = SweepResult(schema, SweepRows((("scenario", words),), (failed, ok) * 3))
    assert csv_bytes(result) == reference_csv(result)
    expected = [[word, "", "", failed[-1]] if i % 2 == 0 else [word, "", "1", ""]
                for i, word in enumerate(words)]
    assert read_back(result) == [list(schema), *expected]


def test_a_carriage_return_in_a_word_axis_stays_in_its_row(atm_table, scen_table):
    # csv.writer(lineterminator="\n") leaves a lone CR unquoted before Python
    # 3.13, and csv.reader then ends the row at it.
    spec = SweepSpec(axes=(("scenario", ("rural\r", "urban")),),
                     fixed={**FIXED, "altitude_km": 600.0, "fc_ghz": 20.0,
                            "elevation_deg": 30.0, "g_rx_dbi": 40.0})
    result = run_sweep(spec, atm_table, scen_table)
    header, *rows = read_back(result)
    assert len(rows) == 2
    assert [row[header.index("scenario")] for row in rows] == ["rural\r", "urban"]


@contextmanager
def no_row_dicts():
    """Make building a row dict of a SweepRows fail."""

    def build(*args):
        raise AssertionError("row dicts built")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SweepRows, "__getitem__", build)
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
    assert all(type(row[c]) is float for row in listed if not row["error"] for c in FLOAT_COLUMNS)
    assert [rows[i] for i in range(len(rows))] == listed
    assert [rows[i] for i in range(-len(rows), 0)] == listed
    assert rows[-1] == listed[-1]
    assert rows[::-2] == tuple(listed[::-2]) and rows[1::3] == tuple(listed[1::3])
    assert tuple(row for row in rows if row.get("error")) == tuple(r for r in listed if r["error"])
    with pytest.raises(IndexError):
        rows[len(rows)]
    with no_row_dicts():
        assert csv_bytes(result) == written


# A bandwidth past the fused points' bound (2**1013 Hz) sends every point
# to the scalar fallback; at -200 dBi the capacity stays finite.
FALLBACK = {"bandwidth_hz": 1e306, "g_rx_dbi": -200.0}


@pytest.mark.parametrize("fallback", [False, True], ids=["fused", "fallback"])
@pytest.mark.parametrize("excess_mode", ["expected", "sampled"])
@pytest.mark.parametrize("mode", ["direct", "relay"])
def test_ok_records_carry_the_six_digit_text_of_their_stages(
    atm_table, scen_table, mode, excess_mode, fallback
):
    spec = SweepSpec(
        axes=(("altitude_km", (600.0, 1200.0)), ("fc_ghz", (20.0, 30.0, 60.0)),
              ("elevation_deg", (10.0, 35.0, 90.0)), ("scenario", ("dense_urban", "rural"))),
        fixed={**FIXED, "mode": mode, "excess_mode": excess_mode, "g_rx_dbi": 40.0,
               **(FALLBACK if fallback else {})},
        seed=7 if excess_mode == "sampled" else None,
    )
    result = run_sweep(spec, atm_table, scen_table)
    rows = result.rows
    texts = ("gas_db", "scintillation_db") + (("excess_db",) if excess_mode == "expected" else ())
    assert rows.texts == texts
    assert not any(row["error"] for row in rows)
    for record in rows.records:
        assert record == with_texts(texts, record[:len(RESULT_COLUMNS)])
    assert csv_bytes(result) == reference_csv(result)


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


def test_a_signaling_nan_axis_cell_is_written_as_its_text():
    # float() refuses a signaling NaN, so format_value falls back to str().
    snan = Decimal("sNaN")
    assert format_value(snan) == "sNaN"
    ok = (1.0,) * 9 + ("direct", "")
    out = io.StringIO()
    emit_csv(SweepResult(("x", "snr_db"), SweepRows((("x", (snan,)),), (ok,))), out)
    assert out.getvalue() == "x,snr_db\nsNaN,1\n"


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
