"""CSV/JSON emission: schema, determinism, round trips."""

import numpy as np
import pytest

from topo_thermo.io import (
    BLOCK_ROWS,
    CSV_COLUMNS,
    emit_records,
    format_number,
    read_json_records,
    render_csv,
    render_json,
)
from topo_thermo.polarization import PolarizationResult
from topo_thermo.sweep import ResultRecord

EXPECTED_HEADER = (
    "T,v,w,z,N,boundary,mode,P,P_defined,magnitude,"
    "M_xx,M_xy,M_xz,M_yy,M_yz,M_zz,i_p,dir_x,dir_y,dir_z,purity,entropy,error"
)


def qfi_record():
    return ResultRecord(
        temperature=0.1, v=0.3, w=0.5, z=0.0, n_cells=50, boundary="periodic",
        qfi=np.array([[0.1, 0.01, 0.0], [0.01, 0.2, 0.0], [0.0, 0.0, 0.3]]),
        i_p=0.0999, optimal_direction=np.array([1.0, 0.0, 0.0]),
        purity=0.5, entropy=0.7,
    )


def polarization_record():
    def result(mode, value, defined):
        return PolarizationResult(
            expectation=complex(value), magnitude=abs(value), phase=0.0,
            polarization=value, defined=defined, mode=mode,
        )

    return ResultRecord(
        temperature=0.02, v=0.1, w=0.5, z=0.2, n_cells=50, boundary="periodic",
        polarization={
            "determinant": result("determinant", 0.5, True),
            "literal": result("literal", 0.0, False),
        },
    )


def test_empty_records_yield_header_only_csv():
    assert render_csv([]) == EXPECTED_HEADER + "\n"


def test_single_record_yields_two_lines():
    text = render_csv([qfi_record()])
    lines = text.split("\n")
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 3 and lines[2] == ""


def test_polarization_record_expands_one_row_per_mode():
    text = render_csv([polarization_record()])
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert ",determinant," in lines[1]
    assert ",literal," in lines[2]
    assert ",true," in lines[1] and ",false," in lines[2]


def test_emission_is_byte_deterministic():
    records = [qfi_record(), polarization_record()]
    assert render_csv(records) == render_csv(records)
    assert render_json(records) == render_json(records)


def test_json_round_trip_is_byte_identical():
    records = [qfi_record(), polarization_record()]
    text = render_json(records)
    rows = read_json_records(text)
    assert render_json(rows) == text
    assert render_csv(rows) == render_csv(records)


def test_no_trailing_whitespace_and_unix_newlines():
    for text in (render_csv([qfi_record()]), render_json([qfi_record()])):
        assert "\r" not in text
        assert text.endswith("\n")
        assert all(line == line.rstrip() for line in text.split("\n"))


def test_precision_controls_significant_digits():
    record = qfi_record()
    record.i_p = 0.123456789012345
    wide = render_csv([record], precision=12)
    narrow = render_csv([record], precision=3)
    assert "0.123456789012" in wide
    assert "0.123," in narrow


def test_error_record_leaves_value_columns_empty():
    record = ResultRecord(
        temperature=0.1, v=0.3, w=0.5, z=0.0, n_cells=4, boundary="open",
        error="LinAlgError: did not converge",
    )
    line = render_csv([record]).strip().split("\n")[1]
    cells = line.split(",")
    assert cells[-1] == "LinAlgError: did not converge"
    assert all(cell == "" for cell in cells[6:-1])


def test_format_number_normalizations():
    assert format_number(0.0) == "0"
    assert format_number(-0.0) == "0"
    assert format_number(1.0) == "1"
    assert format_number(50) == "50"
    assert format_number(0.30000000000000004) == "0.3"
    assert format_number(1.5e-22) == "1.5e-22"


def test_emit_records_to_path_and_unwritable_destination(tmp_path):
    target = tmp_path / "out.csv"
    emit_records([qfi_record()], "csv", 12, str(target))
    assert target.read_text().startswith(EXPECTED_HEADER)
    with pytest.raises(OSError):
        emit_records([qfi_record()], "csv", 12, str(tmp_path / "missing" / "out.csv"))
    with pytest.raises(ValueError):
        emit_records([qfi_record()], "yaml", 12, str(target))


def test_non_finite_numbers_are_null_in_json_and_spelled_out_in_csv():
    finite, odd = qfi_record(), qfi_record()
    odd.i_p, odd.purity, odd.entropy = float("nan"), float("inf"), -float("inf")
    odd.qfi = odd.qfi.copy()
    odd.qfi[2, 2] = np.nan
    rows = read_json_records(render_json([finite, odd]))
    assert [rows[1][name] for name in ("i_p", "purity", "entropy", "M_zz")] == [None] * 4
    assert rows[0]["i_p"] == 0.0999 and rows[0]["M_zz"] == 0.3
    cells = dict(zip(CSV_COLUMNS, render_csv([finite, odd]).split("\n")[2].split(",")))
    assert [cells[name] for name in ("i_p", "purity", "entropy", "M_zz")] == [
        "nan", "inf", "-inf", "nan"
    ]


def test_error_text_is_csv_quoted_and_json_escaped():
    message = 'ValueError: bad "x", y'
    record = ResultRecord(
        temperature=0.1, v=0.3, w=0.5, z=0.0, n_cells=4, boundary="open", error=message,
    )
    line = render_csv([record]).split("\n")[1]
    assert line.endswith(',"ValueError: bad ""x"", y"')
    assert '"error": "ValueError: bad \\"x\\", y"}' in render_json([record])
    assert read_json_records(render_json([record]))[0]["error"] == message


def as_numpy_scalars(record):
    record.temperature, record.v, record.w, record.z = map(
        np.float64, (record.temperature, record.v, record.w, record.z)
    )
    if record.i_p is not None:
        record.i_p = np.float64(record.i_p)
    if record.purity is not None:
        record.purity, record.entropy = np.float64(record.purity), np.float64(record.entropy)
    for mode, result in record.polarization.items():
        record.polarization[mode] = PolarizationResult(
            expectation=result.expectation, magnitude=np.float64(result.magnitude),
            phase=result.phase, polarization=np.float64(result.polarization),
            defined=result.defined, mode=result.mode,
        )
    return record


def test_numpy_and_python_floats_render_the_same_bytes():
    plain = [qfi_record(), polarization_record()]
    numpy = [as_numpy_scalars(qfi_record()), as_numpy_scalars(polarization_record())]
    assert isinstance(numpy[0].temperature, np.float64)
    for render in (render_csv, render_json):
        for precision in (3, 12, 17):
            assert render(numpy, precision) == render(plain, precision)
    rows = read_json_records(render_json(plain))
    numpy_rows = [
        {k: np.float64(v) if type(v) is float else v for k, v in row.items()} for row in rows
    ]
    assert render_json(numpy_rows) == render_json(rows)


def mixed_records(count):
    records = []
    for index in range(count):
        kind = index % 3
        if kind == 0:
            record = qfi_record()
            record.i_p = 0.0999 + index * 1e-7
            if index % 301 == 0:
                record.entropy = float("nan")
        elif kind == 1:
            record = polarization_record()
        else:
            record = ResultRecord(
                temperature=0.1, v=0.3, w=0.5, z=0.0, n_cells=4, boundary="open",
                error=f'LinAlgError: "{index}", did not converge',
            )
        record.temperature = 0.01 * index
        records.append(record)
    return records


def test_large_table_renders_as_its_records_one_by_one():
    records = mixed_records(2 * BLOCK_ROWS + 7)
    csv_rows = "".join(render_csv([record]).split("\n", 1)[1] for record in records)
    assert render_csv(records) == EXPECTED_HEADER + "\n" + csv_rows
    json_rows = ",\n".join(render_json([record])[2:-3] for record in records)
    assert render_json(records) == "[\n" + json_rows + "\n]\n"
    # One row per QFI or error record, two per polarization record.
    assert csv_rows.count("\n") == len(records) + len(records) // 3 > 2 * BLOCK_ROWS
