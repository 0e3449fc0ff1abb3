"""Deterministic CSV/JSON emission of tables.

Both formats render a table (column names and rows) through one path,
blocks of columns of cell text. A SweepTable gives every number it
prints, its parameters included, through `SweepTable.columns()`: a
failed point gives one row with its error, a point without error one row
per polarization mode (one row without polarization), in the fixed
`CSV_COLUMNS` order, which follows the sweep's declared outputs. Any other
table is rows: a plain dict, such as a parsed JSON row, gives its cells
by column name, and any other row is a sequence already in column
order; rows are transposed into columns.
Either way `BLOCK_ROWS` rows are formatted together, so the cells held
beside the output text never exceed one block, however long the table.

Each column of a block is formatted by `_column` at once. An all-finite
float column is formatted once per distinct value (np.unique) at a
configurable number of significant digits, with zero as "0", and
expanded by index, so the parameters, QFI entries and directions that
repeat along a grid cost one format each per block; a mode or a flag is
likewise formatted once per distinct value, and an integer column, such
as N, prints whole, as format_number prints an int.
JSON writes non-finite numbers as null. Lines end with a bare newline
and JSON key order is fixed, so identical inputs give identical bytes,
and parsing an emitted JSON file and re-emitting it reproduces them.
"""

from __future__ import annotations

import csv
import io as _io
import itertools
import json
import math
from typing import Iterable

import numpy as np

from .sweep import _OUTPUTS, _POLARIZATION_COLUMNS, AXIS_NAMES, SweepTable

# A sweep row: the parameters, the boundary and mode, every declared output, the error.
CSV_COLUMNS = (
    *AXIS_NAMES, "boundary", "mode", *_POLARIZATION_COLUMNS,
    *(name for output in _OUTPUTS.values() for name in output.columns), "error",
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


def _csv_text(text: str) -> str:
    """A text cell as the csv module writes it inside a row: quoted only where it must be."""
    if not text:
        return text
    buffer = _io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text,))
    return buffer.getvalue()[:-1]


def _cell(value, precision: int, as_json: bool) -> str:
    """Text of one cell that is not part of an all-finite-float column."""
    if value is None:
        return "null" if as_json else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value) if as_json else _csv_text(value)
    if as_json and not math.isfinite(value):
        return "null"
    return format_number(value, precision)


def _column(values, precision: int, as_json: bool) -> list[str]:
    """Text of each cell: floats (an array or a sequence of floats), flags, or any cells."""
    spec = f".{precision}g"
    if not isinstance(values, np.ndarray) and set(map(type, values)) == {float}:
        values = np.array(values)
    if isinstance(values, np.ndarray):
        if values.dtype == bool:
            return _expand(["false", "true"], values)
        if values.dtype.kind == "i":  # whole at any precision, as format_number prints an int
            return list(map(str, values.tolist()))
        if np.isfinite(values).all():
            # Adding 0.0 turns -0.0 into 0.0, so every zero prints as "0".
            distinct, index = np.unique(values + 0.0, return_inverse=True)
            return _expand([format(x, spec) for x in distinct.tolist()], index)
        values = values.tolist()
    return [_cell(x, precision, as_json) for x in values]


def _expand(texts: list[str], index: np.ndarray) -> list[str]:
    """texts[i] for each i of index."""
    if len(texts) == 1:
        return texts * len(index)
    return list(map(texts.__getitem__, index.tolist()))


def _row_blocks(rows: Iterable, columns, precision: int, as_json: bool):
    """Generic rows, BLOCK_ROWS at a time, as lists of column text."""
    rows = iter(rows)
    while True:
        block = list(itertools.islice(rows, BLOCK_ROWS))
        if not block:
            return
        block = [tuple(map(row.get, columns)) if isinstance(row, dict) else row for row in block]
        yield [_column(values, precision, as_json) for values in zip(*block)]


def _table_blocks(table: SweepTable, columns, precision: int, as_json: bool):
    """A sweep table's output rows, BLOCK_ROWS at a time, as lists of column text.

    The rows are every point x polarization mode (one mode without
    polarization), a failed point keeping only its first row, whose cells
    other than its parameters and boundary are empty. Every number (or
    flag) is a column of `table.columns()`, one entry per point, or per
    point and mode.
    """
    none = _cell(None, precision, as_json)
    numbers = table.columns()
    modes = [_cell(mode, precision, as_json) for mode in table.polarization]
    failed = table.failed()
    keep = ~failed[:, None] | (np.arange(max(len(modes), 1)) == 0)
    row_point, row_mode = np.nonzero(keep)
    boundary = _cell(table.spec.boundary, precision, as_json)
    for start in range(0, len(row_point), BLOCK_ROWS):
        point = row_point[start : start + BLOCK_ROWS]
        mode = row_mode[start : start + BLOCK_ROWS]
        block = {"mode": _expand(modes, mode)} if modes else {}
        for name, values in numbers.items():
            picked = values[point, mode] if values.ndim == 2 else values[point]
            block[name] = _column(picked, precision, as_json)
        bad = np.flatnonzero(failed[point]).tolist()
        if bad:
            for name, cells in block.items():
                if name not in AXIS_NAMES:
                    for row in bad:
                        cells[row] = none
            errors = map(table.errors.get, point.tolist())
            block["error"] = [_cell(error, precision, as_json) for error in errors]
        block["boundary"] = [boundary] * len(point)
        empty = [none] * len(point)
        yield [block.get(name, empty) for name in columns]


def _blocks(records, columns, precision: int, as_json: bool):
    if isinstance(records, SweepTable):
        return _table_blocks(records, columns, precision, as_json)
    return _row_blocks(records, columns, precision, as_json)


def render_csv(records, precision: int = DEFAULT_PRECISION, columns=CSV_COLUMNS) -> str:
    # Every cell is already CSV text, so a row is its cells joined by commas.
    lines = [",".join(map(_csv_text, columns))]
    for block in _blocks(records, columns, precision, False):
        lines.extend(map(",".join, zip(*block)))
    return "\n".join(lines) + "\n"


def render_json(records, precision: int = DEFAULT_PRECISION, columns=CSV_COLUMNS) -> str:
    line = "  {" + ", ".join(json.dumps(name).replace("%", "%%") + ": %s" for name in columns) + "}"
    blocks = _blocks(records, columns, precision, True)
    lines = [line % row for block in blocks for row in zip(*block)]
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
    """Write to a path, or '-' for stdout."""
    if destination == "-":
        import sys

        sys.stdout.write(text)
        return
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def emit_records(
    records, output_format: str, precision: int, destination, columns=CSV_COLUMNS
) -> None:
    """Write a table as CSV or JSON to a path, or '-' (stdout).

    `records` is a SweepTable, or rows: dicts under the default columns,
    or sequences in the order of `columns` for auxiliary tables.
    Unwritable destinations raise OSError for the caller to map onto the
    numerical-failure exit code.
    """
    if output_format not in FORMATS:
        raise ValueError(f"unknown format {output_format!r}, expected one of {FORMATS}")
    render = render_csv if output_format == FORMAT_CSV else render_json
    write_text(render(records, precision, columns), destination)
