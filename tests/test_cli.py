"""CLI behavior: flags, config precedence, exit codes, output wiring."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import argparse

import numpy as np
import pytest

import topo_thermo
import topo_thermo.sweep as sweep_mod
from topo_thermo.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    RunConfig,
    _options,
    assemble_config,
    build_parser,
    cli_main,
)
from topo_thermo.figures import FIGURE_IDS, FIGURE_PRESETS, build_figure_spec


def run_cli(args, capsys):
    code = cli_main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


MODEL_ARGS = ["--n-cells", "50", "--v", "0.3", "--w", "0.5"]


def test_qfi_at_hopping_crossing_reports_tiny_power(capsys):
    code, out, _ = run_cli(
        ["qfi", *MODEL_ARGS, "--z", "0.5", "--temperature", "0.1"], capsys
    )
    assert code == EXIT_OK
    (row,) = read_csv(out)
    assert float(row["i_p"]) <= 1e-6
    assert row["mode"] == "" and row["P"] == ""


def test_polarization_literal_is_undefined_for_periodic_ring(capsys):
    code, out, _ = run_cli(
        [
            "polarization", "--mode", "literal", *MODEL_ARGS,
            "--z", "0", "--temperature", "0.1", "--boundary", "periodic",
        ],
        capsys,
    )
    assert code == EXIT_OK
    (row,) = read_csv(out)
    assert row["P_defined"] == "false"
    assert float(row["magnitude"]) <= 1e-10


def test_polarization_defaults_to_determinant_with_notice(capsys):
    code, out, err = run_cli(
        ["polarization", "--n-cells", "6", "--v", "0.1", "--w", "0.5", "--z", "0",
         "--temperature", "0.02"],
        capsys,
    )
    assert code == EXIT_OK
    (row,) = read_csv(out)
    assert row["mode"] == "determinant"
    assert "determinant" in err


def test_figure_2b_power_peaks_at_smallest_intracell_hopping(tmp_path, capsys):
    target = tmp_path / "fig2b.csv"
    code, _, _ = run_cli(["figure", "2b", "--out", str(target)], capsys)
    assert code == EXIT_OK
    rows = read_csv(target.read_text())
    assert len(rows) == 101
    best = max(rows, key=lambda row: float(row["i_p"]))
    assert float(best["v"]) == 0.0


def test_exit_codes_for_bad_invocations(capsys, tmp_path):
    assert run_cli(["warp"], capsys)[0] == EXIT_CONFIG
    assert run_cli(["qfi", "--frobnicate"], capsys)[0] == EXIT_CONFIG
    assert run_cli(["qfi", "--temperature", "0.1"], capsys)[0] == EXIT_CONFIG  # no model
    assert run_cli(["qfi", *MODEL_ARGS, "--z", "0"], capsys)[0] == EXIT_CONFIG  # no T
    assert (
        run_cli(["figure", "3b", "--out", str(tmp_path / "no" / "dir" / "x.csv")], capsys)[0]
        == EXIT_NUMERIC
    )


def failing_gibbs_weights(bad_temperature):
    """gibbs_weights that raises whenever its temperatures include `bad_temperature`."""
    real = sweep_mod.gibbs_weights

    def explode(spectrum, temperature):
        if np.any(np.asarray(temperature) == bad_temperature):
            raise ArithmeticError("synthetic failure")
        return real(spectrum, temperature)

    return explode


@pytest.mark.parametrize(
    "args",
    [
        ["qfi", *MODEL_ARGS, "--z", "0.2", "-T", "0.1", "-T", "0.5"],
        ["polarization", "--mode", "literal", *MODEL_ARGS, "--z", "0.2", "-T", "0.1", "-T", "0.5"],
        ["sweep", *MODEL_ARGS, "--z", "0.2", "--axis", "T=0.1,0.5", "--quantities", "diagnostics"],
    ],
    ids=["qfi", "polarization", "sweep"],
)
def test_error_rows_are_written_and_exit_3(args, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sweep_mod, "gibbs_weights", failing_gibbs_weights(0.5))
    target = tmp_path / "out.csv"
    code, _, err = run_cli([*args, "--out", str(target)], capsys)
    assert code == EXIT_NUMERIC
    assert "1 of 2 points failed" in err
    first, second = read_csv(target.read_text())
    assert first["error"] == "" and second["error"] == "ArithmeticError: synthetic failure"


def test_figure_with_failed_points_exits_3(tmp_path, capsys, monkeypatch):
    def explode(params):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(sweep_mod, "bloch_spectrum", explode)
    target = tmp_path / "fig3b.csv"
    code, _, err = run_cli(["figure", "3b", "--out", str(target)], capsys)
    assert code == EXIT_NUMERIC
    assert "101 of 101 points failed" in err
    rows = read_csv(target.read_text())
    assert len(rows) == 101 and all("did not converge" in row["error"] for row in rows)


def test_a_linalg_failure_in_spectrum_exits_3(monkeypatch, capsys):
    # LinAlgError is a ValueError, yet it is a numerical failure, not a configuration error.
    def explode(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr("topo_thermo.cli.diagonalize", explode)
    code, out, err = run_cli(
        ["spectrum", "--n-cells", "4", "--v", "0.3", "--w", "0.5", "--z", "0.2"], capsys
    )
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err == "numerical failure: Eigenvalues did not converge\n"


def test_modes_rejected_outside_polarization(tmp_path, capsys):
    config = tmp_path / "qfi.json"
    config.write_text(json.dumps({"modes": ["literal"]}))
    code, _, err = run_cli(
        ["qfi", "--config", str(config), *MODEL_ARGS, "--z", "0", "--temperature", "0.1"],
        capsys,
    )
    assert code == EXIT_CONFIG and "modes" in err


def test_bad_config_files_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli(["qfi", "--config", str(broken)], capsys)[0] == EXIT_CONFIG

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"n_cells": 4, "flux": 1}))
    assert run_cli(["qfi", "--config", str(unknown)], capsys)[0] == EXIT_CONFIG

    assert run_cli(["qfi", "--config", str(tmp_path / "absent.json")], capsys)[0] == EXIT_CONFIG


@pytest.mark.parametrize("text,key", [
    ('{"n_cells": 4, "n_cells": 5, "v": 0.3, "w": 0.5, "z": 0.2, "axes": {"T": [0.1]}, '
     '"quantities": "diagnostics"}', "n_cells"),
    ('{"n_cells": 4, "v": 0.3, "w": 0.5, "z": 0.2, "axes": {"T": [0.1, 0.2], "T": [0.5]}, '
     '"quantities": "diagnostics"}', "T"),
], ids=["top-level", "nested"])
def test_a_repeated_config_key_is_refused_not_overwritten(text, key, tmp_path, capsys):
    config, target = tmp_path / "config.json", tmp_path / "out.csv"
    config.write_text(text)
    code, out, err = run_cli(["sweep", "--config", str(config), "--out", str(target)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"error: config file {config} repeats key {key!r}\n"
    assert not target.exists()


def test_an_undecodable_config_file_is_named_as_not_json(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'\xff{"n_cells": 4}')
    code, out, err = run_cli(["qfi", "--config", str(config)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith(f"error: config file {config} is not valid JSON: ")


@pytest.mark.parametrize("args,config,message", [
    ([], {"quantities": 5},
     "bad value for quantities: quantities must be a list or comma-separated string, got 5"),
    (["--axis", "T0.1"], {},
     "bad value for axes: axis must look like NAME=START:STOP:COUNT, got 'T0.1'"),
    (["--axis", "T=0.1,x"], {}, "bad value for axes: could not parse axis grid '0.1,x'"),
    ([], {"axes": [5]}, "bad value for axes: bad axis entry 5"),
    ([], {"axes": [["T", [0.1, 0.5]]]}, "bad value for axes: bad axis entry ['T', [0.1, 0.5]]"),
    ([], {"axes": 5}, "bad value for axes: axes must be an object or list, got 5"),
    ([], {"axes": {"T": 0.1}}, "bad value for axes: axis 'T' grid must be a list, got 0.1"),
    ([], [1, 2], "config file {config} must hold a JSON object"),
    (["--axis", "T=0.1,0.2", "--quantities", "qfi_matrix", "--mode", "literal"], {},
     "polarization modes are only meaningful for polarization output"),
], ids=["list", "axis-no-equals", "axis-grid", "axis-entry", "axis-pair", "axes-type",
        "axis-grid-type", "config-not-object", "modes-without-polarization"])
def test_each_sweep_refusal_exits_2_with_its_message(args, config, message, tmp_path, capsys):
    path, target = tmp_path / "config.json", tmp_path / "out.csv"
    path.write_text(json.dumps(config))
    model = ["--n-cells", "4", "--v", "0.3", "--w", "0.5", "--z", "0.2"]
    code, out, err = run_cli(
        ["sweep", "--config", str(path), *model, *args, "--out", str(target)], capsys
    )
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "error: " + message.format(config=path) + "\n"
    assert not target.exists()


def test_sweep_subcommand_from_config(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "axes": {"T": [0.1, 0.5]},
        "n_cells": 5, "v": 0.3, "w": 0.5, "z": 0.0,
        "quantities": "qfi_matrix,interferometric_power,diagnostics",
        "format": "json",
    }))
    code, out, _ = run_cli(["sweep", "--config", str(config)], capsys)
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [row["T"] for row in rows] == [0.1, 0.5]
    assert all(row["purity"] is not None for row in rows)


def test_sweep_axis_flag_overrides_config(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "axes": {"T": [0.1, 0.5]},
        "n_cells": 4, "v": 0.3, "w": 0.5, "z": 0.0,
        "quantities": ["interferometric_power"],
    }))
    code, out, _ = run_cli(
        ["sweep", "--config", str(config), "--axis", "T=0.2:0.4:3"], capsys
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert [row["T"] for row in rows] == ["0.2", "0.3", "0.4"]


def test_sweep_logs_point_and_spectrum_counts(capsys):
    args = ["sweep", *MODEL_ARGS, "--axis", "T=0.1:0.5:3", "--axis", "z=0,0.2",
            "--quantities", "interferometric_power"]
    code, out, err = run_cli([*args, "--verbose"], capsys)
    assert code == EXIT_OK and len(read_csv(out)) == 6
    assert err == "INFO swept 6 points on 2 unique spectra: 0 error rows, 0 undefined-P rows\n"
    assert run_cli(args, capsys) == (EXIT_OK, out, "")


def test_sweep_logs_error_and_undefined_rows(capsys, monkeypatch):
    # T = 0.5 fails on both spectra. The literal mode of a ring is undefined
    # on every other point; the determinant is defined at T = 0.02 and
    # washed out at T = 0.7.
    monkeypatch.setattr(sweep_mod, "gibbs_weights", failing_gibbs_weights(0.5))
    code, out, err = run_cli(
        ["sweep", *MODEL_ARGS, "--axis", "T=0.02,0.5,0.7", "--axis", "z=0,0.2",
         "--quantities", "polarization", "--mode", "literal", "--mode", "determinant",
         "--verbose"],
        capsys,
    )
    assert code == EXIT_NUMERIC
    rows = read_csv(out)
    assert len(rows) == 2 + 2 * 2 * 2
    assert sum(row["error"] != "" for row in rows) == 2
    undefined = [(row["mode"], row["T"]) for row in rows if row["P_defined"] == "false"]
    assert sorted(set(undefined)) == [
        ("determinant", "0.7"), ("literal", "0.02"), ("literal", "0.7")
    ]
    assert err.splitlines() == [
        "INFO swept 6 points on 2 unique spectra: 2 error rows, 6 undefined-P rows",
        "2 of 6 points failed",
    ]


def test_nan_temperature_is_a_config_error(tmp_path, capsys):
    model = ["--n-cells", "4", "--v", "0.3", "--w", "0.5", "--z", "0.2"]
    code, out, err = run_cli(["qfi", *model, "--temperature", "nan", "--out", "-"], capsys)
    assert (code, out) == (EXIT_CONFIG, "") and "temperature" in err
    config = tmp_path / "nan-axis.json"
    config.write_text(
        '{"n_cells": 4, "v": 0.3, "w": 0.5, "z": 0.2, "axes": {"T": [0.1, NaN]},'
        ' "quantities": ["diagnostics"]}'
    )
    code, out, err = run_cli(["sweep", "--config", str(config)], capsys)
    assert (code, out) == (EXIT_CONFIG, "") and "temperature" in err


@pytest.mark.parametrize(
    "model",
    [
        ["--v", "nan", "--w", "0.5", "--axis", "T=0.1,0.2"],
        ["--v", "0.3", "--w", "inf", "--axis", "T=0.1,0.2"],
        ["--axis", "v=nan,0.5", "--w", "0.5", "-T", "0.1"],
    ],
)
def test_non_finite_hoppings_are_config_errors(model, capsys):
    code, out, err = run_cli(
        ["sweep", "--n-cells", "4", "--z", "0.2", *model, "--quantities", "diagnostics"], capsys
    )
    assert (code, out) == (EXIT_CONFIG, "") and "must be finite" in err


def test_nan_tau_mag_is_a_config_error(tmp_path, capsys):
    point = ["polarization", "--n-cells", "4", "--v", "0.3", "--w", "0.5", "--z", "0.2",
             "-T", "0.1"]
    code, out, err = run_cli([*point, "--tau-mag", "nan"], capsys)
    assert (code, out) == (EXIT_CONFIG, "") and "bad value for tau_mag: must be >= 0" in err
    config = tmp_path / "nan-tau.json"
    config.write_text('{"tau_mag": NaN}')
    code, out, err = run_cli([*point, "--config", str(config)], capsys)
    assert (code, out) == (EXIT_CONFIG, "") and "bad value for tau_mag: must be >= 0" in err


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_overflowing_bands_are_error_rows_and_exit_3(boundary, capsys):
    model = ["--n-cells", "4", "--v", "1e308", "--w", "1e308", "--z", "0.2", "--boundary", boundary]
    for command in (["qfi"], ["polarization", "--mode", "determinant"]):
        code, out, err = run_cli([*command, *model, "-T", "0.1", "-T", "1"], capsys)
        assert code == EXIT_NUMERIC and "2 of 2 points failed" in err
        rows = read_csv(out)
        assert len(rows) == 2
        assert all(row["error"].startswith("FloatingPointError: non-finite") for row in rows)
        assert all(row["P"] == row["i_p"] == row["purity"] == "" for row in rows)


@pytest.mark.filterwarnings("error")
def test_a_spread_beyond_float64_prints_the_limit_rows_not_nan(capsys):
    # At w = 1e308 the band spread overflows float64; every printed cell but
    # w must equal the w = 1e300 row, at T = inf too, where the weights are
    # uniform.
    code, out, err = run_cli(
        ["sweep", "--n-cells", "4", "--v", "0.3", "--z", "0.2",
         "--axis", "w=1e300,1e308", "--axis", "T=0,0.1,0.5,inf",
         "--quantities", "polarization,qfi_matrix,interferometric_power,diagnostics",
         "--mode", "literal", "--mode", "weighted", "--mode", "determinant"],
        capsys,
    )
    assert (code, err) == (EXIT_OK, "")
    rows = read_csv(out)
    assert len(rows) == 2 * 4 * 3 and not any("nan" in row.values() for row in rows)
    assert all(row["error"] == "" for row in rows)
    lower, upper = rows[:12], rows[12:]
    assert {row["w"] for row in lower} == {"1e+300"} and {row["w"] for row in upper} == {"1e+308"}
    for a, b in zip(lower, upper):
        assert {**a, "w": None} == {**b, "w": None}
    code, out, _ = run_cli(
        ["qfi", "--n-cells", "4", "--v", "0.3", "--w", "1e308", "--z", "0.2", "-T", "inf"], capsys
    )
    (row,) = read_csv(out)
    assert code == EXIT_OK and (row["purity"], row["i_p"]) == ("0.125", "0")


def test_an_integer_axis_prints_whole_at_any_precision(capsys):
    args = ["sweep", "--v", "0.3", "--w", "0.5", "--z", "0.2", "-T", "0.1",
            "--axis", "N=2,3,12,123", "--quantities", "diagnostics", "--precision", "1"]
    code, out, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    assert [(row["N"], row["T"]) for row in read_csv(out)] == [
        ("2", "0.1"), ("3", "0.1"), ("12", "0.1"), ("123", "0.1")
    ]
    code, out, _ = run_cli([*args, "--format", "json"], capsys)
    assert code == EXIT_OK and [row["N"] for row in json.loads(out)] == [2, 3, 12, 123]


@pytest.mark.parametrize("n_cells", ["9223372036854775808", "100000000000000000000"])
def test_a_cell_count_beyond_int64_is_a_config_error(n_cells, capsys):
    args = ["qfi", "--n-cells", n_cells, "--v", "0.3", "--w", "0.5", "--z", "0.2", "-T", "0.1"]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"error: N must be an integer from 2 to 2**63 - 1, got {n_cells}\n"


def test_sweep_requires_axes_and_quantities(capsys):
    code, _, err = run_cli(["sweep", *MODEL_ARGS, "--z", "0"], capsys)
    assert code == EXIT_CONFIG and "axis" in err
    code, _, err = run_cli(
        ["sweep", *MODEL_ARGS, "--z", "0", "--axis", "T=0.1:0.5:2"], capsys
    )
    assert code == EXIT_CONFIG and "quantities" in err


def test_sweep_takes_a_fixed_temperature_of_one_value(capsys):
    model = ["--n-cells", "8", "--v", "0.3", "--w", "0.5", "--axis", "z=0,0.2"]
    code, out, _ = run_cli(
        ["sweep", *model, "-T", "0.1", "--quantities", "interferometric_power"], capsys
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert [(row["T"], row["z"]) for row in rows] == [("0.1", "0"), ("0.1", "0.2")]
    assert all(row["i_p"] != "" for row in rows)

    code, out, err = run_cli(
        ["sweep", *model, "-T", "0.1", "-T", "0.2", "--quantities", "interferometric_power"],
        capsys,
    )
    assert (code, out) == (EXIT_CONFIG, "") and "temperature" in err


def test_sweep_names_a_parameter_that_is_neither_axis_nor_fixed(capsys):
    code, out, err = run_cli(
        ["sweep", *MODEL_ARGS, "--axis", "T=0.1:0.5:3", "--quantities", "interferometric_power"],
        capsys,
    )
    assert (code, out) == (EXIT_CONFIG, "")
    assert "z" in err.split(":", 1)[1]


@pytest.mark.parametrize("args,config,named", [
    (["--axis", "T=0.1,0.2", "-T", "0.5", "--v", "0.3"], {}, ("T", "temperature")),
    (["--axis", "v=0.1", "--v", "0.3", "-T", "0.1"], {}, ("v", "v")),
    (["--axis", "v=0.1", "-T", "0.1"], {"v": 0.3}, ("v", "v")),
    (["-T", "0.5", "--v", "0.3"], {"axes": {"T": [0.1, 0.2]}}, ("T", "temperature")),
])
def test_sweep_refuses_a_fixed_value_of_a_swept_parameter(args, config, named, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    model = ["--n-cells", "4", "--w", "0.5", "--z", "0.2", "--quantities", "diagnostics"]
    code, out, err = run_cli(["sweep", *args, *model, "--config", str(path)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert "parameter %r is swept by an axis and also fixed by %r" % named in err


def test_sweep_polarization_defaults_to_determinant_with_notice(capsys):
    code, out, err = run_cli(
        ["sweep", *MODEL_ARGS, "--z", "0.2", "--axis", "T=0.02,0.1",
         "--quantities", "polarization"],
        capsys,
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert [row["mode"] for row in rows] == ["determinant", "determinant"]
    assert err.startswith("note:") and "determinant" in err


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_a_polarization_figure_notes_its_determinant_mode(figure_id, tmp_path, capsys):
    # The note follows the preset's spec: only a polarization map prints it.
    target = tmp_path / "figure.csv"
    code, out, err = run_cli(["figure", figure_id, "--out", str(target)], capsys)
    assert (code, out) == (EXIT_OK, "")
    rows = read_csv(target.read_text())
    if figure_id in ("1a", "1b"):
        assert err == (
            f"note: figure {figure_id} uses determinant-mode polarization; "
            "the ensemble-trace reading is available via the polarization subcommand\n"
        )
        assert len(rows) == 101 * 101 and {row["mode"] for row in rows} == {"determinant"}
    else:
        assert err == ""
        assert rows and {row["mode"] for row in rows} == {""}


def test_sweep_axes_from_config_as_an_object_keep_their_order(tmp_path, capsys):
    config = tmp_path / "axes.json"
    config.write_text(json.dumps({
        "axes": {"T": [0.1, 0.5], "N": [4.0, 6]},
        "v": 0.3, "w": 0.5, "z": 0.2,
        "quantities": ["diagnostics"],
    }))
    code, out, _ = run_cli(["sweep", "--config", str(config)], capsys)
    assert code == EXIT_OK
    rows = read_csv(out)
    assert [(row["T"], row["N"]) for row in rows] == [
        ("0.1", "4"), ("0.1", "6"), ("0.5", "4"), ("0.5", "6")
    ]


def test_spectrum_subcommand(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--n-cells", "3", "--v", "0.2", "--w", "0.7", "--z", "0.1"], capsys
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 6
    energies = [float(row["energy"]) for row in rows]
    assert energies == sorted(energies)

    code, out, _ = run_cli(
        ["spectrum", "--n-cells", "3", "--v", "0.2", "--w", "0.7", "--z", "0.1",
         "--eigenvectors", "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data) == 6 and "c5" in data[0]


def test_frozen_figure_parameter_table():
    assert FIGURE_PRESETS == {
        "1a": {"quantity": "polarization", "fixed": {"v": 0.3, "w": 0.5}, "axes": ("T", "z")},
        "1b": {"quantity": "polarization", "fixed": {"v": 0.5, "w": 0.3}, "axes": ("T", "z")},
        "2a": {"quantity": "qfi", "fixed": {"w": 0.5, "z": 0.0}, "axes": ("T", "v")},
        "2b": {"quantity": "qfi", "fixed": {"w": 0.5, "z": 0.0, "T": 0.05}, "axes": ("v",)},
        "3a": {"quantity": "qfi", "fixed": {"v": 0.3, "w": 0.5}, "axes": ("T", "z")},
        "3b": {"quantity": "qfi", "fixed": {"v": 0.3, "w": 0.5, "T": 0.05}, "axes": ("z",)},
        "3c": {"quantity": "qfi", "fixed": {"v": 0.5, "w": 0.3}, "axes": ("T", "z")},
        "3d": {"quantity": "qfi", "fixed": {"v": 0.5, "w": 0.3, "T": 0.05}, "axes": ("z",)},
    }
    for figure_id, preset in FIGURE_PRESETS.items():
        spec = build_figure_spec(figure_id)
        spec.validate()
        assert spec.fixed["N"] == 50
        for name, grid in spec.axes:
            assert len(grid) == 101
            low, high = (0.01, 1.0) if name == "T" else (0.0, 1.0)
            assert grid[0] == low and grid[-1] == high
    with pytest.raises(ValueError):
        build_figure_spec("9z")


# Each subcommand's flags, option string -> dest; a subcommand's config keys are the same dests.
COMMON_FLAGS = {
    "-h": "help", "--help": "help", "--config": "config", "--out": "out", "-o": "out",
    "--format": "format", "--precision": "precision", "--workers": "workers",
    "--label": "label",
}
MODEL_FLAGS = {
    **COMMON_FLAGS, "--n-cells": "n_cells", "--v": "v", "--w": "w", "--z": "z",
    "--boundary": "boundary",
}
# Sweep-backed runs summarize with --verbose; those that can print P take --tau-mag.
VERBOSE_FLAG = {"--verbose": "verbosity"}
TAU_MAG_FLAG = {"--tau-mag": "tau_mag"}
THERMAL_FLAGS = {**MODEL_FLAGS, "--temperature": "temperature", "-T": "temperature",
                 **VERBOSE_FLAG}
SUBCOMMAND_FLAGS = {
    "spectrum": {**MODEL_FLAGS, "--eigenvectors": "eigenvectors"},
    "polarization": {**THERMAL_FLAGS, "--mode": "modes", **TAU_MAG_FLAG},
    "qfi": THERMAL_FLAGS,
    "sweep": {**THERMAL_FLAGS, "--axis": "axes", "--quantities": "quantities", "--mode": "modes",
              **TAU_MAG_FLAG},
    "figure": {**COMMON_FLAGS, **VERBOSE_FLAG, **TAU_MAG_FLAG},
}
# The config keys of each subcommand.
SUBCOMMAND_KEYS = {
    name: set(flags.values()) - {"help", "config"} for name, flags in SUBCOMMAND_FLAGS.items()
}


def test_each_subcommand_keeps_its_flag_set():
    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert set(subparsers.choices) == set(SUBCOMMAND_FLAGS)
    for name, parser in subparsers.choices.items():
        flags = {flag: action.dest for action in parser._actions for flag in action.option_strings}
        assert flags == SUBCOMMAND_FLAGS[name], name
        positionals = [action.dest for action in parser._actions if not action.option_strings]
        assert positionals == (["figure_id"] if name == "figure" else []), name


PRECEDENCE_CASES = [
    ("n_cells", 10, 20, 10, 20),
    ("v", 0.1, 0.9, 0.1, 0.9),
    ("w", 0.2, 0.8, 0.2, 0.8),
    ("z", 0.0, 0.4, 0.0, 0.4),
    ("boundary", "open", "periodic", "open", "periodic"),
    ("temperature", [0.1, 0.2], [0.5], [0.1, 0.2], [0.5]),
    ("modes", ["literal"], ["determinant"], ["literal"], ["determinant"]),
    ("axes", {"T": [0.1, 0.2]}, ["z=0:1:3"], [("T", (0.1, 0.2))],
     [("z", (0.0, 0.5, 1.0))]),
    ("quantities", "qfi_matrix", "diagnostics,qfi_matrix", ["qfi_matrix"],
     ["diagnostics", "qfi_matrix"]),
    ("label", "from-config", "from-flag", "from-config", "from-flag"),
    ("out", "a.csv", "b.csv", "a.csv", "b.csv"),
    ("format", "json", "csv", "json", "csv"),
    ("precision", 8, 6, 8, 6),
    ("workers", 3, 5, 3, 5),
    ("tau_mag", 1e-2, 1e-4, 1e-2, 1e-4),
    ("verbosity", 1, 2, 1, 2),
    ("eigenvectors", True, True, True, True),
]


def test_every_option_has_a_precedence_case():
    options = {f.name for f in dataclasses.fields(RunConfig)} - {"subcommand"}
    assert {case[0] for case in PRECEDENCE_CASES} == options
    assert set().union(*SUBCOMMAND_KEYS.values()) == options


def flag_argv(name, value):
    """The command-line words that give option `name` the config value `value`."""
    flag = next(flag for flags in SUBCOMMAND_FLAGS.values() for flag, dest in flags.items()
                if dest == name)
    if name in ("verbosity", "eigenvectors"):  # counted and on/off flags take no argument
        return [flag] * int(value)
    return [arg for item in (value if isinstance(value, list) else [value])
            for arg in (flag, str(item))]


def parsed_flags(subcommand, argv):
    """The flag values of `argv` given to `subcommand`, parsed as cli_main does."""
    prefix = [subcommand, "1a"] if subcommand == "figure" else [subcommand]
    flags = vars(build_parser().parse_args([*prefix, *argv]))
    for key in ("subcommand", "config", "figure_id"):
        flags.pop(key, None)
    return flags


@pytest.mark.parametrize("name,cfg,flag,cfg_want,flag_want", PRECEDENCE_CASES)
def test_flag_overrides_config_overrides_default(name, cfg, flag, cfg_want, flag_want):
    for subcommand in [sub for sub, keys in SUBCOMMAND_KEYS.items() if name in keys]:
        base = assemble_config(subcommand, {}, {})
        flags = parsed_flags(subcommand, flag_argv(name, flag))
        from_config = assemble_config(subcommand, {}, {name: cfg})
        from_flag = assemble_config(subcommand, flags, {name: cfg})
        assert getattr(from_config, name) == cfg_want
        assert from_flag == dataclasses.replace(base, **{name: flag_want})
        # A flag and the same value in a config file give the same RunConfig.
        assert assemble_config(subcommand, flags, {}) == from_flag
        assert assemble_config(subcommand, {}, {name: flag}) == from_flag
        if name not in ("eigenvectors",):
            assert getattr(base, name) != cfg_want or getattr(base, name) != flag_want


# Two entries of each list setting, as they read.
LIST_ENTRIES = {
    "temperature": [0.1, 0.5],
    "modes": ["literal", "weighted"],
    "quantities": ["polarization", "diagnostics"],
}


@pytest.mark.parametrize("name", LIST_ENTRIES)
def test_a_list_setting_reads_alike_in_every_form(name):
    # One rule for every list setting: repeated flags, one comma-separated
    # flag, a config string (blank entries skipped) and a config list.
    first, second = LIST_ENTRIES[name]
    flag = flag_argv(name, first)[0]
    forms = [
        assemble_config("sweep", parsed_flags("sweep", flag_argv(name, [first, second])), {}),
        assemble_config("sweep", parsed_flags("sweep", [flag, f"{first},{second}"]), {}),
        assemble_config("sweep", {}, {name: f" {first} , ,{second},"}),
        assemble_config("sweep", {}, {name: [first, second]}),
    ]
    assert getattr(forms[0], name) == [first, second]
    assert all(form == forms[0] for form in forms)


# A command line of each subcommand that runs; the refused keys are added to it.
RUNNABLE = {
    "spectrum": ["spectrum", "--n-cells", "4", "--v", "0.3", "--w", "0.5", "--z", "0.2"],
    "polarization": ["polarization", "--n-cells", "4", "--v", "0.3", "--w", "0.5", "--z", "0.2",
                     "-T", "0.1"],
    "qfi": ["qfi", "--n-cells", "4", "--v", "0.3", "--w", "0.5", "--z", "0.2", "-T", "0.1"],
    "sweep": ["sweep", "--n-cells", "4", "--v", "0.3", "--w", "0.5", "--z", "0.2",
              "--axis", "T=0.1,0.2", "--quantities", "diagnostics"],
    "figure": ["figure", "2b"],
}
REFUSED_KEYS = {
    "figure": ["n_cells", "v", "w", "z", "boundary", "temperature", "modes", "axes", "quantities",
               "eigenvectors"],
    "spectrum": ["temperature", "axes", "quantities", "modes", "tau_mag", "verbosity"],
    "polarization": ["axes", "quantities", "eigenvectors"],
    "qfi": ["axes", "quantities", "eigenvectors", "modes", "tau_mag"],
    "sweep": ["eigenvectors"],
}


@pytest.mark.parametrize(
    "subcommand,key",
    [(subcommand, key) for subcommand, keys in REFUSED_KEYS.items() for key in keys],
)
def test_config_key_the_subcommand_does_not_take_is_refused(subcommand, key, tmp_path, capsys):
    assert key not in SUBCOMMAND_KEYS[subcommand]
    value = next(case[1] for case in PRECEDENCE_CASES if case[0] == key)
    target = tmp_path / "out.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    code, out, err = run_cli(
        [*RUNNABLE[subcommand], "--config", str(config), "--out", str(target)], capsys
    )
    assert (code, out) == (EXIT_CONFIG, "")
    assert f"{subcommand} does not take config key {key!r}" in err
    assert not target.exists()
    # The same key as its flag is refused alike, naming the flags the subcommand takes;
    # flags are never abbreviated, so figure reads no --v or --w as --verbose or --workers.
    argv = flag_argv(key, next(case[2] for case in PRECEDENCE_CASES if case[0] == key))
    code, out, err = run_cli([*RUNNABLE[subcommand], *argv, "--out", str(target)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    refusal, _, taken = err.partition("; it takes ")
    assert refusal == f"error: {subcommand} does not take argument {argv[0]!r}"
    assert set(taken.rstrip("\n").split(", ")) == {
        flag for flag in SUBCOMMAND_FLAGS[subcommand] if flag.startswith("--") and flag != "--help"
    }
    assert not target.exists()
    config.write_text("{}")
    assert run_cli([*RUNNABLE[subcommand], "--config", str(config), "--out", "-"], capsys)[0] == (
        EXIT_OK
    )


# A run of each subcommand, given as a config file, on which each setting it takes can act.
HOPPINGS = {"n_cells": 4, "v": 0.3, "w": 0.5}
POINT_RUN = {**HOPPINGS, "z": 0.2, "temperature": [0.1]}
SETTING_RUNS = {
    "spectrum": (["spectrum"], {**HOPPINGS, "z": 0.2}),
    "polarization": (["polarization"], POINT_RUN),
    "qfi": (["qfi"], POINT_RUN),
    "sweep": (["sweep"], {**HOPPINGS, "z": 0.2, "axes": {"T": [0.1, 0.2]},
                          "quantities": ["polarization"]}),
    "figure": (["figure", "2b"], {}),
}
# The settings whose run above is not where they act: the sweep's T is an axis, so a fixed
# temperature would only be refused, and figure 2b prints no P.
SETTING_RUN_OF = {
    ("sweep", "temperature"): (["sweep"], {**HOPPINGS, "temperature": [0.1],
                                           "axes": {"z": [0.1, 0.6]},
                                           "quantities": ["polarization"]}),
    ("figure", "tau_mag"): (["figure", "1a"], {}),
}
# A second value of each setting: not its default, and not the value in the runs above.
OTHER_VALUES = {
    "n_cells": 5, "v": 0.4, "w": 0.6, "z": 0.3, "boundary": "open", "temperature": [0.3],
    "modes": ["literal"], "axes": {"T": [0.3]}, "quantities": ["diagnostics"],
    "label": "other", "out": "other.csv", "format": "json", "precision": 3, "workers": 2,
    "tau_mag": 0.99, "verbosity": 1, "eigenvectors": True,
}
# Documented to change nothing: workers is kept for compatibility, and label is not recorded.
NO_OP_SETTINGS = ("workers", "label")


@pytest.mark.parametrize(
    "subcommand,key",
    [(subcommand, key) for subcommand in SUBCOMMAND_FLAGS for key in _options(subcommand)],
)
def test_every_setting_a_subcommand_takes_acts_on_its_run(subcommand, key, tmp_path, capsys):
    argv, config = SETTING_RUN_OF.get((subcommand, key), SETTING_RUNS[subcommand])
    value = str(tmp_path / OTHER_VALUES[key]) if key == "out" else OTHER_VALUES[key]
    path = tmp_path / "config.json"
    runs = []
    for settings in (config, {**config, key: value}):
        path.write_text(json.dumps(settings))
        runs.append(run_cli([*argv, "--config", str(path)], capsys))
    base, changed = runs
    assert base[0] == EXIT_OK, base[2]
    assert (changed == base) == (key in NO_OP_SETTINGS)
    if key == "out":  # the rows move from stdout to the file
        written = (tmp_path / OTHER_VALUES["out"]).read_text()
        assert (changed, written) == ((EXIT_OK, "", base[2]), base[1])


@pytest.mark.parametrize(
    "name,flag,bad",
    [("boundary", "--boundary", "bogus"), ("format", "--format", "yaml"),
     ("precision", "--precision", "0"), ("workers", "--workers", "0"),
     ("tau_mag", "--tau-mag", "-1")],
)
def test_a_bad_flag_and_config_value_fail_alike(name, flag, bad, tmp_path, capsys):
    # qfi where it takes the key; tau_mag, which qfi refuses, on polarization.
    subcommand = next(sub for sub in ("qfi", "polarization") if name in SUBCOMMAND_KEYS[sub])
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({name: bad}))
    from_flag = run_cli([*RUNNABLE[subcommand], flag, bad], capsys)
    from_config = run_cli([*RUNNABLE[subcommand], "--config", str(config)], capsys)
    assert from_flag == from_config
    code, out, err = from_flag
    assert (code, out) == (EXIT_CONFIG, "") and err.startswith(f"error: bad value for {name}: ")


def test_documented_defaults():
    config = assemble_config("qfi", {}, {})
    assert config.boundary == "periodic"
    assert config.out == "-"
    assert config.format == "csv"
    assert config.precision == 12
    assert config.workers == 1
    assert config.tau_mag == 1e-3
    assert config.verbosity == 0


SRC = str(Path(topo_thermo.__file__).resolve().parents[1])


def python_child(*argv):
    """A child `python *argv` that imports this package's source tree, with one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, check=False)


def test_importing_the_cli_does_not_load_scipy():
    # Nothing in the package needs SciPy: importing the CLI and running a
    # periodic determinant sweep (the Bloch trace formula) load none of it.
    loaded = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"
    sweep = (
        "topo_thermo.cli.cli_main(['sweep', '--n-cells', '8', '--v', '0.3', '--w', '0.5',"
        " '--z', '0.2', '--boundary', 'periodic', '--axis', 'T=0,0.1,1', '--mode', 'determinant',"
        " '--quantities', 'polarization', '--out', os.devnull])"
    )
    for code, want in (
        (f"import sys, topo_thermo.cli; print({loaded})", "[]"),
        (f"import os, sys, topo_thermo.cli; print({sweep}, {loaded})", f"{EXIT_OK} []"),
    ):
        done = python_child("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode().strip() == want


SMALL_SWEEP = [
    "sweep", "--n-cells", "6", "--v", "0.3", "--w", "0.5", "--z", "0.2", "--axis", "T=0,0.1,1",
    "--quantities", "polarization,interferometric_power", "--mode", "determinant",
]
# argv, exit code, start of stderr; {dir} is the test's directory and {who}
# names the run, so the two runs write different files.
ENTRY_POINT_CASES = {
    "ring-stdout": ([*SMALL_SWEEP, "--boundary", "periodic", "--out", "-"], EXIT_OK, ""),
    "ring-file": (
        [*SMALL_SWEEP, "--boundary", "periodic", "--out", "{dir}/{who}.csv"], EXIT_OK, "",
    ),
    "open-stdout": ([*SMALL_SWEEP, "--boundary", "open", "--out", "-"], EXIT_OK, ""),
    "open-file": ([*SMALL_SWEEP, "--boundary", "open", "--out", "{dir}/{who}.csv"], EXIT_OK, ""),
    "figure-2b": (["figure", "2b"], EXIT_OK, ""),
    "config-key": (
        ["sweep", "--config", "{dir}/config.json"], EXIT_CONFIG,
        "error: sweep does not take config key 'eigenvectors'",
    ),
    "overflow": (
        ["qfi", "--n-cells", "4", "--v", "1e308", "--w", "1e308", "--z", "1e308", "-T", "0.1"],
        EXIT_NUMERIC, "1 of 1 points failed\n",
    ),
    "unwritable-out": (
        [*SMALL_SWEEP, "--out", "{dir}/no/dir/x.csv"], EXIT_NUMERIC, "output failure: ",
    ),
}


@pytest.mark.parametrize(
    "args, want, err_start", ENTRY_POINT_CASES.values(), ids=ENTRY_POINT_CASES.keys()
)
def test_the_process_entry_point_matches_cli_main(args, want, err_start, tmp_path, capsys):
    # `python -m topo_thermo.cli` exits through main(); its exit code, stdout,
    # output file and stderr are those of an in-process cli_main call.
    (tmp_path / "config.json").write_text('{"eigenvectors": true}')
    outcomes = {}
    for who in ("in-process", "child"):
        argv = [arg.format(dir=tmp_path, who=who) for arg in args]
        if who == "child":
            done = python_child("-m", "topo_thermo.cli", *argv)
            code, out, err = done.returncode, done.stdout, done.stderr.decode()
        else:
            code = cli_main(argv)
            captured = capsys.readouterr()
            out, err = captured.out.encode(), captured.err
        written = tmp_path / f"{who}.csv"
        outcomes[who] = code, out, err, written.read_bytes() if written.exists() else None
    assert outcomes["child"] == outcomes["in-process"]
    code, out, err, written = outcomes["child"]
    assert code == want and err.startswith(err_start) and (err == "") == (want == EXIT_OK)
    if want == EXIT_OK:
        assert (out == b"") == (written is not None)


def test_only_the_process_entry_point_freezes_the_collector():
    # Importing the package and calling cli_main leave the garbage collector
    # as they found it; main() freezes it just before the process exits.
    sweep = [*SMALL_SWEEP, "--out", os.devnull]
    done = python_child(
        "-c",
        "import gc, topo_thermo; import topo_thermo.cli; "
        f"code = topo_thermo.cli.cli_main({sweep!r}); "
        "print(code, gc.get_freeze_count(), gc.isenabled())",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().split() == [str(EXIT_OK), "0", "True"]

    for argv, want in ((sweep, EXIT_OK), ([*sweep, "--precision", "0"], EXIT_CONFIG)):
        done = python_child(
            "-c",
            "import atexit, gc, sys, topo_thermo.cli; "
            "atexit.register(lambda: print(gc.get_freeze_count())); "
            f"sys.argv = ['topo-thermo', *{argv!r}]; topo_thermo.cli.main()",
        )
        assert done.returncode == want, done.stderr
        assert int(done.stdout) > 0


def test_assemble_rejects_inconsistent_values():
    for bad in (
        {"format": "yaml"},
        {"precision": 0},
        {"workers": -2},
        {"tau_mag": -1.0},
        {"boundary": "twisted"},
        {"temperature": []},
        {"temperature": [-0.5]},
        {"n_cells": 4.7},
        {"n_cells": True},
        {"precision": 2.9},
        {"workers": 1.5},
        {"verbosity": 0.5},
        {"eigenvectors": "false"},
        {"eigenvectors": 1},
        {"axes": {"T": [0.1], "N": [2, 4.5]}},
        {"axes": {"N": [float("inf")]}},
        {"v": True},
        {"tau_mag": False},
        {"temperature": [False]},
        {"axes": {"z": [0.0, True]}},
    ):
        ((key, _),) = bad.items()
        subcommand = next(name for name, keys in SUBCOMMAND_KEYS.items() if key in keys)
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            assemble_config(subcommand, {}, bad)


def test_integral_config_values_are_kept_exactly():
    config = assemble_config(
        "spectrum", {}, {"n_cells": 4.0, "precision": "7", "eigenvectors": False}
    )
    assert (config.n_cells, config.precision, config.eigenvectors) == (4, 7, False)
    config = assemble_config("sweep", {}, {"axes": {"N": [2.0, 10]}})
    assert config.axes == [("N", (2, 10))]
    assert all(type(n) is int for n in config.axes[0][1])


def test_integral_numeric_strings_are_integers(tmp_path, capsys):
    args = ["spectrum", "--v", "0.3", "--w", "0.5", "--z", "0.2"]
    want = run_cli([*args, "--n-cells", "4"], capsys)
    assert want[0] == EXIT_OK
    assert run_cli([*args, "--n-cells", "4.0"], capsys) == want
    config = tmp_path / "cells.json"
    config.write_text(json.dumps({"n_cells": "4.0"}))
    assert run_cli([*args, "--config", str(config)], capsys) == want


@pytest.mark.parametrize("value", ["4.5", True])
def test_fractional_or_boolean_cell_counts_name_the_rule(tmp_path, value, capsys):
    config = tmp_path / "cells.json"
    config.write_text(json.dumps({"n_cells": value}))
    code, out, err = run_cli(
        ["spectrum", "--v", "0.3", "--w", "0.5", "--z", "0.2", "--config", str(config)], capsys
    )
    assert code == EXIT_CONFIG and out == ""
    assert f"expected an integer, got {value!r}" in err
    assert "fractions are refused, not truncated, and so are booleans" in err


def test_fractional_cell_count_axis_is_a_config_error(capsys):
    code, out, err = run_cli(
        ["sweep", "--v", "0.3", "--w", "0.5", "--z", "0", "-T", "0.1",
         "--axis", "N=2:10:4", "--quantities", "interferometric_power"],
        capsys,
    )
    assert code == EXIT_CONFIG and out == ""
    assert "expected an integer, got 4.66666" in err


def test_axis_flag_count_takes_the_integer_rule(capsys):
    args = ["sweep", "--n-cells", "4", "--v", "0.3", "--w", "0.5", "--z", "0.2",
            "--quantities", "diagnostics"]
    code, out, _ = run_cli([*args, "--axis", "T=0.1:0.5:3.0"], capsys)
    assert code == EXIT_OK
    assert [row["T"] for row in read_csv(out)] == ["0.1", "0.3", "0.5"]
    code, out, err = run_cli([*args, "--axis", "T=0.1:0.5:3.5"], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert "expected an integer, got '3.5'" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("axis", ["T=0.1:inf:2", "T=nan:1:3"])
def test_axis_range_with_a_non_finite_endpoint_is_a_config_error(axis, capsys):
    sweep = ["sweep", "--n-cells", "4", "--v", "0.3", "--w", "0.5", "--z", "0.2",
             "--quantities", "diagnostics"]
    code, out, err = run_cli([*sweep, "--axis", axis], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == (
        f"error: bad value for axes: axis range {axis[2:]!r} needs a finite START and STOP; "
        "list a non-finite value instead, as in T=0.1,inf\n"
    )
    code, out, _ = run_cli([*sweep, "--axis", "T=0.1,inf"], capsys)
    assert code == EXIT_OK and [row["T"] for row in read_csv(out)] == ["0.1", "inf"]


@pytest.mark.filterwarnings("error")
def test_ring_without_contributing_states_prints_washed_out_weighted_p(capsys):
    # At 2N = 1.2e6 and T = 1e6 every Gibbs weight lies below the 1e-6
    # contributing cutoff of the weighted mode.
    code, out, _ = run_cli(
        ["sweep", "--n-cells", "600000", "--v", "0.3", "--w", "0.5", "--z", "0.2",
         "--axis", "T=1e6", "--quantities", "polarization", "--mode", "weighted"],
        capsys,
    )
    assert code == EXIT_OK
    (row,) = read_csv(out)
    assert (row["P"], row["P_defined"], row["magnitude"]) == ("0", "false", "0")


# Names that bench/spans.py rebinds to time the layers of a traced run.
TRACE_SEAMS = {
    "topo_thermo.sweep": ("gibbs_weights", "ensemble_diagnostics", "interferometric_power"),
    "topo_thermo.cli": ("run_sweep",),
    "topo_thermo.io": ("render_csv", "render_json", "write_text"),
}


def test_trace_seams_stay_module_attributes_that_a_run_calls(tmp_path, monkeypatch, capsys):
    # Each seam must exist and be looked up when called, so that rebinding
    # it times every call a CLI sweep makes.
    calls = []
    for module_name, names in TRACE_SEAMS.items():
        module = sys.modules[module_name]
        for name in names:
            real = getattr(module, name, None)
            assert callable(real), f"{module_name}.{name} is gone"

            def counted(*args, _name=f"{module_name}.{name}", _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    for fmt in ("csv", "json"):
        code, _, _ = run_cli(
            ["sweep", "--n-cells", "4", "--v", "0.3", "--w", "0.5", "--z", "0.2",
             "--axis", "T=0.1,0.5", "--quantities", "interferometric_power,diagnostics",
             "--format", fmt, "--out", str(tmp_path / f"out.{fmt}")],
            capsys,
        )
        assert code == EXIT_OK
    want = {f"{module}.{name}" for module, names in TRACE_SEAMS.items() for name in names}
    assert set(calls) == want


def test_a_config_key_named_subcommand_is_refused(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"subcommand": "figure", "n_cells": 4, "v": 0.3, "w": 0.5, "z": 0.2}
    ))
    target = tmp_path / "out.csv"
    code, out, err = run_cli(
        ["qfi", "--config", str(config), "-T", "0.1", "--out", str(target)], capsys
    )
    assert (code, out) == (EXIT_CONFIG, "")
    assert "qfi does not take config key 'subcommand'" in err
    assert not target.exists()


def test_verbosity_must_not_be_negative(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"verbosity": -1}))
    code, out, err = run_cli([*RUNNABLE["qfi"], "--config", str(config)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: bad value for verbosity: must be >= 0")
    quiet = run_cli(RUNNABLE["qfi"], capsys)
    assert quiet[0] == EXIT_OK and quiet[2] == ""
    summary = "INFO swept 1 points on 1 unique spectra: 0 error rows, 0 undefined-P rows\n"
    for flags in (["--verbose"], ["--verbose", "--verbose"]):
        assert run_cli([*RUNNABLE["qfi"], *flags], capsys) == (EXIT_OK, quiet[1], summary)


@pytest.mark.parametrize("args,repeated", [
    (["polarization", "--mode", "literal", "--mode", "literal", "-T", "0.1", "-T", "0.2"],
     "mode 'literal'"),
    (["sweep", "--axis", "T=0.1,0.2", "--quantities", "qfi_matrix,diagnostics,qfi_matrix"],
     "quantity 'qfi_matrix'"),
])
def test_a_repeated_mode_or_quantity_is_refused(args, repeated, tmp_path, capsys):
    target = tmp_path / "out.csv"
    model = ["--n-cells", "4", "--v", "0.3", "--w", "0.5", "--z", "0.2"]
    code, out, err = run_cli([*args, *model, "--out", str(target)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert f"{repeated} is requested more than once" in err
    assert not target.exists()


@pytest.mark.parametrize("temperatures", [["0.5", "0.1"], ["0.1", "0.1"]],
                         ids=["descending", "repeated"])
def test_a_temperature_list_keeps_its_order_and_follows_the_axis_rules(
    temperatures, tmp_path, capsys
):
    # A -T list is the point subcommand's T axis: it is read as given, never
    # sorted or merged, and must be strictly ascending like any axis grid. It
    # is refused when it is read, under the setting's own name.
    target = tmp_path / "out.csv"
    model = ["--n-cells", "4", "--v", "0.3", "--w", "0.5", "--z", "0.2"]
    argv = [arg for temperature in temperatures for arg in ("-T", temperature)]
    code, out, err = run_cli(["qfi", *model, *argv, "--out", str(target)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    given = [float(temperature) for temperature in temperatures]
    assert err == (
        f"error: bad value for temperature: temperatures must be strictly ascending, got {given}\n"
    )
    assert not target.exists()


def test_repeated_quantities_flags_fill_every_quantity(capsys):
    code, out, _ = run_cli(
        ["sweep", "--n-cells", "4", "--v", "0.3", "--w", "0.5", "--z", "0.2",
         "--axis", "T=0.1,0.2", "--quantities", "polarization", "--quantities", "diagnostics"],
        capsys,
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 2
    assert all(row["P"] != "" and row["purity"] != "" for row in rows)
