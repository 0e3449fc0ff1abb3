"""CSV/JSON emission: schema, determinism, round trips."""

import csv
import io
import itertools

import numpy as np
import pytest

import topo_thermo.io as io_mod
import topo_thermo.sweep as sweep_mod
from topo_thermo.io import (
    BLOCK_ROWS,
    CSV_COLUMNS,
    emit_records,
    format_number,
    read_json_records,
    render_csv,
    render_json,
)
from topo_thermo.sweep import SweepSpec, locate_extremum, run_sweep

EXPECTED_HEADER = (
    "T,v,w,z,N,boundary,mode,P,P_defined,magnitude,"
    "M_xx,M_xy,M_xz,M_yy,M_yz,M_zz,i_p,dir_x,dir_y,dir_z,purity,entropy,error"
)

ALL_QUANTITIES = ("polarization", "qfi_matrix", "interferometric_power", "diagnostics")
ALL_MODES = ("literal", "weighted", "determinant")


def qfi_table(temperatures=(0.1,)):
    return run_sweep(SweepSpec(
        axes=(("T", temperatures),),
        fixed={"v": 0.3, "w": 0.5, "z": 0.0, "N": 50},
        quantities=("qfi_matrix", "interferometric_power", "diagnostics"),
    ))


def polarization_table():
    # A topological ring at low T: determinant defined, literal undefined.
    return run_sweep(SweepSpec(
        axes=(("T", (0.02,)),),
        fixed={"v": 0.1, "w": 0.5, "z": 0.2, "N": 50},
        quantities=("polarization",),
        polarization_modes=("determinant", "literal"),
    ))


def failing_gibbs_weights(bad_temperature, message):
    """gibbs_weights that raises whenever its temperatures include `bad_temperature`."""
    real = sweep_mod.gibbs_weights

    def explode(spectrum, temperature):
        if np.any(np.asarray(temperature) == bad_temperature):
            raise ArithmeticError(message)
        return real(spectrum, temperature)

    return explode


def mixed_table(monkeypatch):
    """An open chain with every quantity and mode, one error point and one non-finite cell."""
    monkeypatch.setattr(
        sweep_mod, "gibbs_weights", failing_gibbs_weights(0.2, 'bad "x", y\nat T = 0.2')
    )
    table = run_sweep(SweepSpec(
        axes=(("T", (0.0, 0.05, 0.2, 0.8)),),
        fixed={"v": 0.3, "w": 0.5, "z": 0.2, "N": 5},
        boundary="open",
        quantities=ALL_QUANTITIES,
        polarization_modes=ALL_MODES,
    ))
    table.entropy[3] = np.inf
    return table


def test_empty_records_yield_header_only_csv():
    assert render_csv([]) == EXPECTED_HEADER + "\n"


def test_single_record_yields_two_lines():
    text = render_csv(qfi_table())
    lines = text.split("\n")
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 3 and lines[2] == ""


def test_polarization_record_expands_one_row_per_mode():
    text = render_csv(polarization_table())
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert ",determinant," in lines[1]
    assert ",literal," in lines[2]
    assert ",true," in lines[1] and ",false," in lines[2]


def test_emission_is_byte_deterministic():
    for table in (qfi_table(), polarization_table()):
        assert render_csv(table) == render_csv(table)
        assert render_json(table) == render_json(table)


def test_json_round_trip_is_byte_identical():
    for table in (qfi_table((0.0, 0.1, 0.5)), polarization_table()):
        text = render_json(table)
        rows = read_json_records(text)
        assert render_json(rows) == text
        assert render_csv(rows) == render_csv(table)


def test_no_trailing_whitespace_and_unix_newlines():
    for text in (render_csv(qfi_table()), render_json(qfi_table())):
        assert "\r" not in text
        assert text.endswith("\n")
        assert all(line == line.rstrip() for line in text.split("\n"))


def test_precision_controls_significant_digits():
    table = qfi_table()
    table.i_p[0] = 0.123456789012345
    wide = render_csv(table, precision=12)
    narrow = render_csv(table, precision=3)
    assert "0.123456789012" in wide
    assert "0.123," in narrow


def test_error_record_leaves_value_columns_empty(monkeypatch):
    monkeypatch.setattr(
        sweep_mod, "gibbs_weights", failing_gibbs_weights(0.1, "did not converge")
    )
    line = render_csv(qfi_table()).strip().split("\n")[1]
    cells = line.split(",")
    assert cells[-1] == "ArithmeticError: did not converge"
    assert all(cell == "" for cell in cells[6:-1])


def test_format_number_normalizations():
    assert format_number(0.0) == "0"
    assert format_number(-0.0) == "0"
    assert format_number(1.0) == "1"
    assert format_number(50) == "50"
    assert format_number(0.30000000000000004) == "0.3"
    assert format_number(1.5e-22) == "1.5e-22"


def test_negative_zero_prints_as_zero_in_table_columns():
    table = qfi_table((0.1, 0.5))
    table.i_p[:] = -0.0
    rows = read_json_records(render_json(table))
    assert [row["i_p"] for row in rows] == [0, 0]
    assert [line.split(",")[16] for line in render_csv(table).split("\n")[1:3]] == ["0", "0"]


def test_emit_records_to_path_and_unwritable_destination(tmp_path):
    target = tmp_path / "out.csv"
    emit_records(qfi_table(), "csv", 12, str(target))
    assert target.read_text().startswith(EXPECTED_HEADER)
    with pytest.raises(OSError):
        emit_records(qfi_table(), "csv", 12, str(tmp_path / "missing" / "out.csv"))
    with pytest.raises(ValueError):
        emit_records(qfi_table(), "yaml", 12, str(target))


def test_no_records_render_as_an_empty_json_array_and_only_an_array_reads_back():
    assert render_json([]) == "[]\n"
    assert read_json_records(render_json([])) == []
    with pytest.raises(ValueError, match="expected a JSON array of records"):
        read_json_records('{"T": 0.1}')


def test_non_finite_numbers_are_null_in_json_and_spelled_out_in_csv():
    table = qfi_table((0.1, 0.5))
    table.i_p[1], table.purity[1], table.entropy[1] = np.nan, np.inf, -np.inf
    table.qfi[1, 2, 2] = np.nan
    rows = read_json_records(render_json(table))
    assert [rows[1][name] for name in ("i_p", "purity", "entropy", "M_zz")] == [None] * 4
    assert rows[0]["i_p"] == float(format_number(table.i_p[0])) and rows[0]["M_zz"] is not None
    cells = dict(zip(CSV_COLUMNS, render_csv(table).split("\n")[2].split(",")))
    assert [cells[name] for name in ("i_p", "purity", "entropy", "M_zz")] == [
        "nan", "inf", "-inf", "nan"
    ]


def test_error_text_is_csv_quoted_and_json_escaped(monkeypatch):
    monkeypatch.setattr(sweep_mod, "gibbs_weights", failing_gibbs_weights(0.1, 'bad "x", y'))
    table = qfi_table()
    message = 'ArithmeticError: bad "x", y'
    assert table[0].error == message
    line = render_csv(table).split("\n")[1]
    assert line.endswith(',"ArithmeticError: bad ""x"", y"')
    assert '"error": "ArithmeticError: bad \\"x\\", y"}' in render_json(table)
    assert read_json_records(render_json(table))[0]["error"] == message


def test_numpy_and_python_floats_render_the_same_bytes():
    rows = read_json_records(render_json(polarization_table()))
    rows += read_json_records(render_json(qfi_table()))
    numpy_rows = [
        {k: np.float64(v) if type(v) is float else v for k, v in row.items()} for row in rows
    ]
    assert isinstance(numpy_rows[0]["T"], np.float64)
    for render in (render_csv, render_json):
        for precision in (3, 12, 17):
            assert render(numpy_rows, precision) == render(rows, precision)


def test_table_renders_as_its_rows_through_the_generic_path(monkeypatch):
    # Two independent paths to the same bytes: the table's columns, and its
    # rows parsed back from the output and re-emitted as generic rows.
    table = mixed_table(monkeypatch)
    assert len(table) == 4 and list(table.errors) == [2]
    text = render_json(table)
    rows = read_json_records(text)
    assert render_json(rows) == text
    text = render_csv(table)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert render_csv(parsed) == text
    # An error point gives one row, every other point one row per mode.
    assert len(rows) == len(parsed) == 3 * len(ALL_MODES) + 1
    (failed,) = [row for row in rows if row["error"] is not None]
    assert failed["error"] == 'ArithmeticError: bad "x", y\nat T = 0.2'
    assert failed["T"] == 0.2 and failed["mode"] is None and failed["P"] is None
    assert [row["mode"] for row in rows if row["T"] == 0.8] == list(ALL_MODES)
    assert {row["entropy"] for row in rows if row["T"] == 0.8} == {None}
    assert {row["entropy"] for row in parsed if row["T"] == "0.8"} == {"inf"}


def test_large_table_renders_as_its_records_one_by_one(monkeypatch):
    table = run_sweep(SweepSpec(
        axes=(("T", tuple(np.linspace(0.0, 1.0, BLOCK_ROWS + 3).tolist())), ("z", (0.0, 0.3))),
        fixed={"v": 0.3, "w": 0.5, "N": 4},
        quantities=ALL_QUANTITIES,
        polarization_modes=("determinant", "literal"),
    ))
    for index in range(0, len(table), 301):
        table.errors[index] = f'LinAlgError: "{index}", did not converge'
    table.entropy[7] = np.nan
    csv_text, json_text = render_csv(table), render_json(table)
    # Blocks of one row format every row alone.
    monkeypatch.setattr(io_mod, "BLOCK_ROWS", 1)
    assert render_csv(table) == csv_text
    assert render_json(table) == json_text
    # One row per error point, two per other point.
    failed = len(table.errors)
    assert csv_text.count("\n") - 1 == failed + 2 * (len(table) - failed) > 2 * BLOCK_ROWS
    assert render_json(read_json_records(json_text)) == json_text


# Columns whose cells are text, not numbers.
TEXT_COLUMNS = ("boundary", "mode", "P_defined", "error")


def test_locate_extremum_agrees_with_every_rendered_number_column():
    # The extremum of each column as read back from the CSV: the first row of
    # the mode in the file's order that holds the max or min. Seventeen
    # digits print every float exactly, so ties are the table's own.
    modes = ("weighted", "determinant")
    table = run_sweep(SweepSpec(
        axes=(("T", (0.0, 0.05, 0.3, 0.9)), ("z", (0.0, 0.2, 0.55, 0.9))),
        fixed={"v": 0.3, "w": 0.5, "N": 6},
        boundary="open",
        quantities=ALL_QUANTITIES,
        polarization_modes=modes,
    ))
    rows = list(csv.DictReader(io.StringIO(render_csv(table, precision=17))))
    assert len(rows) == len(modes) * len(table)
    names = [name for name in CSV_COLUMNS if name not in TEXT_COLUMNS]
    for mode, name, objective in itertools.product(modes, names, ("max", "min")):
        own = [row for row in rows if row["mode"] == mode]
        values = [float(row[name]) for row in own]
        pick = np.argmax(values) if objective == "max" else np.argmin(values)
        best, value = locate_extremum(table, name, objective, mode=mode)
        assert value == values[pick], (mode, name, objective)
        assert (best.temperature, best.z) == (float(own[pick]["T"]), float(own[pick]["z"]))
    with pytest.raises(ValueError, match="not a number"):
        locate_extremum(table, "P_defined", "max", mode="weighted")


@pytest.mark.parametrize("size", range(1, len(ALL_QUANTITIES) + 1))
def test_columns_are_the_printed_values_in_csv_order(size):
    for quantities in itertools.combinations(ALL_QUANTITIES, size):
        modes = ("determinant", "literal") if "polarization" in quantities else ()
        table = run_sweep(SweepSpec(
            axes=(("T", (0.1, 0.4)),),
            fixed={"v": 0.3, "w": 0.5, "z": 0.2, "N": 4},
            quantities=quantities,
            polarization_modes=modes,
        ))
        rows = list(csv.DictReader(io.StringIO(render_csv(table))))
        printed = [name for name in CSV_COLUMNS if any(row[name] for row in rows)]
        columns = table.columns()
        assert list(columns) == [name for name in printed if name not in ("boundary", "mode")]
        for name, column in columns.items():
            per_mode = name in ("P", "P_defined", "magnitude")
            assert column.shape == ((len(table), len(modes)) if per_mode else (len(table),))
