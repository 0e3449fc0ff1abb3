"""Deterministic CSV/JSON emission of sweep records.

Both formats share one flat row schema (fixed column order below). A
record expands to one row per polarization mode, or a single row when no
polarization was requested. Emission is byte-identical for identical
inputs: numbers render through one formatter at a configurable number of
significant digits, lines end with a bare newline, and JSON key order is
fixed, so parsing an emitted JSON file and re-emitting it reproduces the
bytes.
"""

from __future__ import annotations

import csv
import io as _io
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


def flatten_record(record: ResultRecord) -> list[dict]:
    """Expand one record into flat rows (one per polarization mode)."""
    base = {name: None for name in CSV_COLUMNS}
    base["T"] = record.temperature
    base["v"] = record.v
    base["w"] = record.w
    base["z"] = record.z
    base["N"] = record.n_cells
    base["boundary"] = record.boundary
    if record.error is not None:
        base["error"] = record.error
        return [base]
    if record.qfi is not None:
        matrix = record.qfi
        base["M_xx"], base["M_xy"], base["M_xz"] = matrix[0, 0], matrix[0, 1], matrix[0, 2]
        base["M_yy"], base["M_yz"] = matrix[1, 1], matrix[1, 2]
        base["M_zz"] = matrix[2, 2]
    if record.i_p is not None:
        base["i_p"] = record.i_p
        direction = record.optimal_direction
        base["dir_x"], base["dir_y"], base["dir_z"] = direction[0], direction[1], direction[2]
    base["purity"] = record.purity
    base["entropy"] = record.entropy
    if not record.polarization:
        return [base]
    rows = []
    for mode, result in record.polarization.items():
        row = dict(base)
        row["mode"] = mode
        row["P"] = result.polarization
        row["P_defined"] = result.defined
        row["magnitude"] = result.magnitude
        rows.append(row)
    return rows


def _iter_rows(records: Iterable):
    for record in records:
        if isinstance(record, ResultRecord):
            yield from flatten_record(record)
        else:
            yield dict(record)


def _csv_cell(value, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return format_number(value, precision)


def render_rows_csv(rows: Iterable[dict], columns, precision: int = DEFAULT_PRECISION) -> str:
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(name), precision) for name in columns])
    return buffer.getvalue()


def render_csv(records: Iterable, precision: int = DEFAULT_PRECISION) -> str:
    return render_rows_csv(_iter_rows(records), CSV_COLUMNS, precision)


def _json_value(value, precision: int) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if not math.isfinite(value):
        return "null"
    return format_number(value, precision)


def render_rows_json(rows: Iterable[dict], columns, precision: int = DEFAULT_PRECISION) -> str:
    lines = []
    for row in rows:
        pairs = ", ".join(
            f"{json.dumps(name)}: {_json_value(row.get(name), precision)}" for name in columns
        )
        lines.append("  {" + pairs + "}")
    if not lines:
        return "[]\n"
    return "[\n" + ",\n".join(lines) + "\n]\n"


def render_json(records: Iterable, precision: int = DEFAULT_PRECISION) -> str:
    return render_rows_json(_iter_rows(records), CSV_COLUMNS, precision)


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


def emit_records(records, output_format: str, precision: int, destination) -> None:
    """Write records as CSV or JSON to a path, file object, or '-' (stdout).

    Unwritable destinations raise OSError for the caller to map onto the
    numerical-failure exit code.
    """
    if output_format not in FORMATS:
        raise ValueError(f"unknown format {output_format!r}, expected one of {FORMATS}")
    render = render_csv if output_format == FORMAT_CSV else render_json
    write_text(render(records, precision), destination)


def emit_rows(rows, columns, output_format: str, precision: int, destination) -> None:
    """Row-level variant of emit_records for auxiliary tables."""
    if output_format not in FORMATS:
        raise ValueError(f"unknown format {output_format!r}, expected one of {FORMATS}")
    render = render_rows_csv if output_format == FORMAT_CSV else render_rows_json
    write_text(render(rows, columns, precision), destination)
