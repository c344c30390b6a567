"""Sweep and link/chain output: the result, its row view and the CSV writer.

link and chain write their one row with this module, not the sweep engine (sweep.py).
"""

import enum
import io
from collections.abc import Sequence
from itertools import product
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from ..linkbudget import LinkResult

METRIC_COLUMNS = (
    "fspl_db", "gas_db", "scintillation_db", "excess_db", "total_db", "snr_db", "capacity_bps",
)
# Columns a schema may request beyond axes and metrics.
EXTRA_COLUMNS = ("slant_range_km", "bandwidth_hz", "label", "error")
# Metric and extra columns of an evaluated point, in row order.
RESULT_COLUMNS = ("slant_range_km",) + METRIC_COLUMNS + EXTRA_COLUMNS[1:]
_FAILED = (None,) * (len(RESULT_COLUMNS) - 2) + ("",)  # a failed point's record but its error
FLOAT_FORMAT = "%.6g"  # a float's CSV text: format_value's, the writer's and the sweep stages'


class SweepResult(NamedTuple):
    """A sweep's output schema, rows and CSV provenance lines.

    rows is a SweepRows: one dict per grid point, its axis values, then
    RESULT_COLUMNS, or empty metrics and the error of a point that
    failed. emit_csv writes it from its records; tuple(result.rows) gives
    a tuple.
    """

    schema: tuple[str, ...]
    rows: "SweepRows"
    provenance: tuple[str, ...] = ()


class SweepRows(Sequence):
    """A result's rows: a read-only view over its per-point records.

    axes are the spec's axes as given, then the schema's unswept axes with
    one value each (link's and chain's: their inputs, one value each, over
    result_record). A point's record holds its values of RESULT_COLUMNS,
    in that order; a failed point's are None but for an empty label and
    its error. texts names RESULT_COLUMNS whose CSV text, FLOAT_FORMAT of the
    value, follows an ok record's values, in that order, for emit_csv to
    write as it is; a failed record has none. A row dict zips its columns
    with the record, so it stops before the texts. Row i's axis values are
    decoded from i by mixed radix. Each row dict is built when read and
    never kept.
    """

    __slots__ = ("axes", "records", "texts", "columns")

    def __init__(self, axes: tuple[tuple[str, tuple], ...], records: tuple[tuple, ...],
                 texts: tuple[str, ...] = ()) -> None:
        self.axes, self.records, self.texts = axes, records, texts
        self.columns = tuple(name for name, _ in axes) + RESULT_COLUMNS

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        record = self.records[index]  # IndexError before an empty view's % 0
        combo = _combo([values for _, values in self.axes], index % len(self))
        return dict(zip(self.columns, combo + record))


def _combo(axes, index: int) -> tuple:
    """Row index's values, one from each of axes' value sequences, the last fastest."""
    combo = ()
    for values in reversed(axes):
        index, digit = divmod(index, len(values))
        combo = (values[digit],) + combo
    return combo


def _quoted(text: str) -> str:
    """text as a CSV cell: in double quotes, each doubled, if it holds , " LF or CR."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"%s"' % text.replace('"', '""')
    return text


def result_record(result: LinkResult) -> tuple:
    """The record (see SweepRows) of one evaluated link or chain."""
    slant = sum(h.geometry.slant_range_km for h in result.hops or (result,))
    b = result.breakdown
    return (
        slant, b.fspl_db, b.gas_db, b.scintillation_db, b.excess_db, b.total_db,
        result.snr_db, result.capacity_bps, result.bandwidth_hz, result.label, "",
    )


def format_value(value: object) -> str:
    """Fixed CSV cell formatting: reals but integers at 6 significant digits."""
    if type(value) is float:  # most axis values (_write_csv formats metric cells itself)
        return FLOAT_FORMAT % value
    if value is None:
        return ""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, bool):
        return str(value).lower()
    if hasattr(value, "__float__") and not hasattr(value, "__index__"):
        try:  # any other real (numpy floats, Fraction, Decimal) as a float
            return FLOAT_FORMAT % float(value)
        except ValueError:  # a signaling NaN refuses conversion
            pass
    return str(value)  # ints, numpy's too, keep their digits


def emit_csv(result: SweepResult, destination) -> None:
    """Write a sweep result as CSV: provenance comments, header, rows.

    destination is a path or a text file object. Output is UTF-8 with
    LF line endings, its cells quoted as csv.writer quotes them with its
    default terminator (see _quoted) on every Python, and byte-identical
    for identical results.
    """
    if hasattr(destination, "write"):
        return _write_csv(result, destination)
    with Path(destination).open("w", encoding="utf-8", newline="") as handle:
        _write_csv(result, handle)


def _write_csv(result: SweepResult, handle) -> None:
    for line in result.provenance:
        handle.write(f"# {line}\n")
    schema = result.schema
    empty = '""' if len(schema) == 1 else ""  # a row's only cell is quoted when empty
    handle.write(",".join(_quoted(name) or empty for name in schema) + "\n")
    # Records: one format string per kind of row, over its axis texts and
    # record; FLOAT_FORMAT gives format_value's text of a float, which needs no
    # quotes, and an ok record's texts hold it already.
    axes, records, texts = result.rows.axes, result.rows.records, result.rows.texts
    names = [name for name, _ in axes]
    n = len(names)

    def line(failed):  # a kind of row's format string, and its cells of axis texts + record
        formats, indices = [], []
        for col in schema:
            if col in names:
                formats.append("%s")
                indices.append(names.index(col))
            elif col not in RESULT_COLUMNS or (col == "error") != failed:
                formats.append(empty)  # a point's error, a failed point's metrics and label
            elif col in texts:
                formats.append("%s")
                indices.append(n + len(RESULT_COLUMNS) + texts.index(col))
            else:
                formats.append("%s" if col in ("label", "error") else FLOAT_FORMAT)
                indices.append(n + RESULT_COLUMNS.index(col))
        return ",".join(formats) + "\n", itemgetter(*indices) if indices else lambda _: ()

    (point, point_cells), (failed, failed_cells) = line(False), line(True)
    write = handle.write
    texts = (tuple(_quoted(format_value(v)) or empty for v in values) for _, values in axes)
    for cells, record in zip(product(*texts), records):
        if record[0] is None:  # failed: its error is the last cell
            write(failed % failed_cells(cells + record[:-1] + (_quoted(record[-1]),)))
        else:
            write(point % point_cells(cells + record))


def csv_bytes(result: SweepResult) -> bytes:
    buffer = io.StringIO()
    _write_csv(result, buffer)
    return buffer.getvalue().encode("utf-8")
