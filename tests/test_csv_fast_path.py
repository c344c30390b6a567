"""CSV rows of floats take one format string; the bytes must not change.

The reference writes every row through csv.writer and format_value,
which is what _write_csv does for any row that is not all floats with
an empty error.
"""

import csv
import io

import numpy as np
from hypothesis import given, settings, strategies as st

from ntnsim import RelayMode, Scenario
from ntnsim.harness import SweepResult, csv_bytes
from ntnsim.harness.sweep import format_value

COLUMNS = ("altitude_km", "fspl_db", "snr_db", "capacity_bps", "label", "error")

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1234567.0, 1e16]),
)
others = st.one_of(
    st.integers(-10**8, 10**8),
    st.just(1234567),
    floats.map(np.float64),
    st.sampled_from([*Scenario, *RelayMode, True, False, None]),
    st.text(alphabet=st.sampled_from('ab,"\n\r x1.e'), max_size=8),
)


@st.composite
def rows(draw, schema):
    if draw(st.booleans()):  # floats, and an empty error or a message
        row = {col: draw(floats) for col in schema}
        row["error"] = draw(st.one_of(st.sampled_from(["", None]), st.text(min_size=1)))
    else:
        row = {col: draw(st.one_of(floats, others)) for col in schema}
    for col in draw(st.lists(st.sampled_from(schema), max_size=2)):
        row.pop(col, None)  # a missing column is an empty cell
    return row


@st.composite
def results(draw):
    schema = tuple(draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=7)))
    return SweepResult(
        schema=schema,
        rows=tuple(draw(st.lists(rows(schema), max_size=12))),
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
