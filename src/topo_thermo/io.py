"""Deterministic CSV/JSON emission of tables.

Both formats render a table (column names and rows) through one path,
rows -> blocks -> columns. Sweep records become tuples in the fixed
`CSV_COLUMNS` order, one per polarization mode (one row without
polarization); a plain dict, such as a parsed JSON row, gives its cells
by column name, and any other row is a sequence already in column order.
Rows are taken `BLOCK_ROWS` at a time and transposed, and each column is
formatted by one list comprehension, so the cells held beside the output
text never exceed one block, however long the table. Numbers render at a
configurable number of significant digits with zero as "0"; JSON writes
non-finite numbers as null. Lines end with a bare newline and JSON key
order is fixed, so identical inputs give identical bytes, and parsing an
emitted JSON file and re-emitting it reproduces them.
"""

from __future__ import annotations

import csv
import io as _io
import itertools
import json
import math
from typing import Iterable

from .sweep import ResultRecord

CSV_COLUMNS = (
    "T", "v", "w", "z", "N", "boundary", "mode",
    "P", "P_defined", "magnitude",
    "M_xx", "M_xy", "M_xz", "M_yy", "M_yz", "M_zz",
    "i_p", "dir_x", "dir_y", "dir_z",
    "purity", "entropy", "error",
)

DEFAULT_PRECISION = 12

# Rows formatted together; bounds the intermediate cells of a render.
BLOCK_ROWS = 1024

FORMAT_CSV = "csv"
FORMAT_JSON = "json"
FORMATS = (FORMAT_CSV, FORMAT_JSON)


def format_number(value, precision: int = DEFAULT_PRECISION) -> str:
    """Significant-digit rendering shared by both output formats."""
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    if value == 0.0:
        return "0"
    return f"{value:.{precision}g}"


def _record_rows(records: Iterable, columns):
    """One row per output line, as a sequence in `columns` order."""
    for record in records:
        if not isinstance(record, ResultRecord):
            yield tuple(map(record.get, columns)) if isinstance(record, dict) else record
            continue
        head = (record.temperature, record.v, record.w, record.z, record.n_cells, record.boundary)
        if record.error is not None:
            yield head + (None,) * 16 + (record.error,)
            continue
        qfi, power = (None,) * 6, (None,) * 4
        if record.qfi is not None:
            (xx, xy, xz), (_, yy, yz), (_, _, zz) = record.qfi.tolist()
            qfi = (xx, xy, xz, yy, yz, zz)
        if record.i_p is not None:
            power = (record.i_p, *record.optimal_direction.tolist())
        tail = qfi + power + (record.purity, record.entropy, None)
        if not record.polarization:
            yield head + (None,) * 4 + tail
        for mode, result in record.polarization.items():
            yield head + (mode, result.polarization, result.defined, result.magnitude) + tail


def _cell(value, precision: int, as_json: bool) -> str:
    """Text of one cell that is not part of an all-finite-float column."""
    if value is None:
        return "null" if as_json else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value) if as_json else value
    if as_json and not math.isfinite(value):
        return "null"
    return format_number(value, precision)


def _column(values: tuple, precision: int, as_json: bool) -> list[str]:
    # An overflowing sum only sends finite floats down the general path.
    if set(map(type, values)) == {float} and math.isfinite(sum(values)):
        spec = f".{precision}g"
        return ["0" if x == 0.0 else format(x, spec) for x in values]
    return [_cell(x, precision, as_json) for x in values]


def _formatted_rows(rows: Iterable, precision: int, as_json: bool):
    """Rows of cell text, formatted a block of BLOCK_ROWS rows at a time."""
    rows = iter(rows)
    while True:
        block = list(itertools.islice(rows, BLOCK_ROWS))
        if not block:
            return
        yield from zip(*(_column(values, precision, as_json) for values in zip(*block)))


def render_csv(records: Iterable, precision: int = DEFAULT_PRECISION, columns=CSV_COLUMNS) -> str:
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(_formatted_rows(_record_rows(records, columns), precision, False))
    return buffer.getvalue()


def render_json(records: Iterable, precision: int = DEFAULT_PRECISION, columns=CSV_COLUMNS) -> str:
    keys = [json.dumps(name) + ": " for name in columns]
    lines = [
        "  {" + ", ".join(map(str.__add__, keys, row)) + "}"
        for row in _formatted_rows(_record_rows(records, columns), precision, True)
    ]
    if not lines:
        return "[]\n"
    return "[\n" + ",\n".join(lines) + "\n]\n"


def read_json_records(text: str) -> list[dict]:
    """Rows from an emitted JSON document (round-trips byte-identically)."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("expected a JSON array of records")
    return [dict(item) for item in data]


def write_text(text: str, destination) -> None:
    """Write to a path, an open file object, or '-' for stdout."""
    if destination == "-":
        import sys

        sys.stdout.write(text)
        return
    if hasattr(destination, "write"):
        destination.write(text)
        return
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def emit_records(
    records, output_format: str, precision: int, destination, columns=CSV_COLUMNS
) -> None:
    """Write a table as CSV or JSON to a path, file object, or '-' (stdout).

    `records` are sweep records or dicts under the default columns, or
    rows in the order of `columns` for auxiliary tables. Unwritable
    destinations raise OSError for the caller to map onto the
    numerical-failure exit code.
    """
    if output_format not in FORMATS:
        raise ValueError(f"unknown format {output_format!r}, expected one of {FORMATS}")
    render = render_csv if output_format == FORMAT_CSV else render_json
    write_text(render(records, precision, columns), destination)
