"""Command-line front end.

Subcommands: spectrum, polarization, qfi, sweep, figure. Options resolve
with the precedence command-line flag > config-file value > documented
default. The config file (--config) is a flat JSON object whose keys
mirror the RunConfig field names; flag values pass through the same
coercion as config values. Exit codes: 0 success, 2 configuration
error, 3 numerical failure or unwritable output. A polarization, qfi,
sweep or figure run in which any point failed still writes every row,
with the failure in the error column, then reports "k of n points
failed" on stderr and exits 3. --workers (config key `workers`) is
validated and accepted for compatibility; it changes neither the output
nor the speed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import io as io_mod
from .figures import FIGURE_IDS, build_figure_spec
from .lattice import BOUNDARIES, PERIODIC, ModelParams, build_hamiltonian
from .polarization import DEFAULT_MAGNITUDE_CUTOFF, MODE_DETERMINANT
from .sweep import (
    QUANTITIES,
    QUANTITY_DIAGNOSTICS,
    QUANTITY_INTERFEROMETRIC_POWER,
    QUANTITY_POLARIZATION,
    QUANTITY_QFI_MATRIX,
    SweepSpec,
    SweepTable,
    run_sweep,
)
from .thermal import diagonalize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

log = logging.getLogger("topo_thermo")


class ConfigError(ValueError):
    """Bad flags, config file, or inconsistent run configuration."""


@dataclass
class RunConfig:
    subcommand: str
    n_cells: int | None = None
    v: float | None = None
    w: float | None = None
    z: float | None = None
    boundary: str = PERIODIC
    temperature: list | None = None
    modes: list | None = None
    axes: list | None = None
    quantities: list | None = None
    label: str = ""
    out: str = "-"
    format: str = io_mod.FORMAT_CSV
    precision: int = io_mod.DEFAULT_PRECISION
    workers: int = 1
    tau_mag: float = DEFAULT_MAGNITUDE_CUTOFF
    verbosity: int = 0
    eigenvectors: bool = False


def _coerce_float(value) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"expected a number, got {value!r}")
    return float(value)


def _coerce_temperature(value) -> list:
    values = value if isinstance(value, (list, tuple)) else [value]
    try:
        temps = [_coerce_float(t) for t in values]
    except (TypeError, ValueError):
        raise ConfigError(f"temperature must be a number or list of numbers, got {value!r}")
    if not temps:
        raise ConfigError("temperature list is empty")
    if not all(t >= 0.0 for t in temps):
        raise ConfigError(f"temperatures must be >= 0, got {value!r}")
    return sorted(set(temps))


def _coerce_int(value) -> int:
    """An int, a numeric string or an integral float; fractions are refused, not truncated."""
    number = value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:  # "4.0": parsed as a float, then held to the integral rule
            number = float(value)
    if isinstance(value, bool) or int(number) != number:
        raise ConfigError(
            f"expected an integer, got {value!r}: an integral number or numeric string "
            "such as 4 or '4.0'; fractions are refused, not truncated, and so are booleans"
        )
    return int(number)


def _coerce_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected true or false, got {value!r}")
    return value


def _coerce_list(value, name: str) -> list:
    if isinstance(value, str):
        return [item.strip() for item in value.split(",") if item.strip()]
    if isinstance(value, (list, tuple)):
        return list(value)
    raise ConfigError(f"{name} must be a list or comma-separated string, got {value!r}")


def _parse_axis_flag(text: str) -> tuple:
    """'T=0.01:1.0:101' (linspace) or 'z=0,0.5,1' (explicit grid)."""
    if "=" not in text:
        raise ConfigError(f"axis must look like NAME=START:STOP:COUNT, got {text!r}")
    name, _, rhs = text.partition("=")
    name = name.strip()
    try:
        if ":" in rhs:
            start, stop, count = rhs.split(":")
            grid = np.linspace(float(start), float(stop), _coerce_int(count))
        else:
            grid = np.array([float(item) for item in rhs.split(",")])
    except ConfigError:  # a fractional count, refused by _coerce_int with its own message
        raise
    except (ValueError, OverflowError):
        raise ConfigError(f"could not parse axis grid {rhs!r}")
    return name, tuple(grid.tolist())


def _coerce_axes(value) -> list:
    if isinstance(value, dict):
        pairs = list(value.items())
    elif isinstance(value, (list, tuple)):
        pairs = []
        for item in value:
            if isinstance(item, str):
                pairs.append(_parse_axis_flag(item))
            elif isinstance(item, (list, tuple)) and len(item) == 2:
                pairs.append((item[0], item[1]))
            else:
                raise ConfigError(f"bad axis entry {item!r}")
    else:
        raise ConfigError(f"axes must be an object or list, got {value!r}")
    axes = []
    for name, grid in pairs:
        if not isinstance(grid, (list, tuple)):
            raise ConfigError(f"axis {name!r} grid must be a list, got {grid!r}")
        values = [_coerce_int(x) if name == "N" else _coerce_float(x) for x in grid]
        axes.append((str(name), tuple(values)))
    return axes


_COERCERS = {
    "n_cells": _coerce_int,
    "v": _coerce_float,
    "w": _coerce_float,
    "z": _coerce_float,
    "boundary": lambda v: str(v),
    "temperature": _coerce_temperature,
    "modes": lambda v: _coerce_list(v, "modes"),
    "axes": _coerce_axes,
    "quantities": lambda v: _coerce_list(v, "quantities"),
    "label": lambda v: str(v),
    "out": lambda v: str(v),
    "format": lambda v: str(v),
    "precision": _coerce_int,
    "workers": _coerce_int,
    "tau_mag": _coerce_float,
    "verbosity": _coerce_int,
    "eigenvectors": _coerce_bool,
}


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def assemble_config(subcommand: str, flag_values: dict, config_values: dict) -> RunConfig:
    """Resolve defaults, then config-file values, then explicit flags."""
    known = {f.name for f in fields(RunConfig)} - {"subcommand"}
    for key in config_values:
        if key == "subcommand":
            continue
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    config = RunConfig(subcommand=subcommand)
    for source in (config_values, flag_values):
        for key, value in source.items():
            if key == "subcommand" or value is None:
                continue
            try:
                setattr(config, key, _COERCERS[key](value))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for {key}: {exc}")
    if config.boundary not in BOUNDARIES:
        raise ConfigError(f"boundary must be one of {BOUNDARIES}, got {config.boundary!r}")
    if config.format not in io_mod.FORMATS:
        raise ConfigError(f"format must be one of {io_mod.FORMATS}, got {config.format!r}")
    if config.precision < 1:
        raise ConfigError(f"precision must be >= 1, got {config.precision}")
    if config.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {config.workers}")
    if not config.tau_mag >= 0.0:
        raise ConfigError(f"tau_mag must be >= 0, got {config.tau_mag}")
    return config


# Sweep parameter name -> RunConfig field that holds its fixed value.
_PARAMETERS = {"T": "temperature", "v": "v", "w": "w", "z": "z", "N": "n_cells"}

# The point subcommands: a sweep whose only axis is the --temperature list.
_POINT_QUANTITIES = {
    "polarization": (QUANTITY_POLARIZATION, QUANTITY_DIAGNOSTICS),
    "qfi": (QUANTITY_QFI_MATRIX, QUANTITY_INTERFEROMETRIC_POWER, QUANTITY_DIAGNOSTICS),
}


def _fixed_parameters(config: RunConfig, names) -> dict:
    """Fixed values of the named sweep parameters; any missing one is a ConfigError."""
    fixed = {name: getattr(config, _PARAMETERS[name]) for name in names}
    missing = [_PARAMETERS[name] for name, value in fixed.items() if value is None]
    if missing:
        raise ConfigError(f"missing required parameters: {', '.join(missing)}")
    if "T" in fixed:
        if len(fixed["T"]) != 1:
            raise ConfigError("a fixed temperature must be a single value")
        fixed["T"] = fixed["T"][0]
    return fixed


def _polarization_modes(config: RunConfig, quantities) -> tuple:
    """The requested modes, or the determinant with a note; modes need polarization output."""
    if QUANTITY_POLARIZATION not in quantities:
        if config.modes:
            raise ConfigError("polarization modes are only meaningful for polarization output")
        return ()
    if config.modes:
        return tuple(config.modes)
    print(
        "note: polarization mode defaulted to 'determinant'; "
        "the ensemble-trace reading is available via --mode literal",
        file=sys.stderr,
    )
    return (MODE_DETERMINANT,)


def _sweep_spec(config: RunConfig, axes, quantities) -> SweepSpec:
    """The sweep over `axes`; every other parameter takes its fixed value from `config`."""
    axis_names = {name for name, _ in axes}
    return SweepSpec(
        axes=axes,
        fixed=_fixed_parameters(config, [name for name in _PARAMETERS if name not in axis_names]),
        boundary=config.boundary,
        quantities=quantities,
        polarization_modes=_polarization_modes(config, quantities),
        magnitude_cutoff=config.tau_mag,
    )


def _emit(config: RunConfig, table: SweepTable) -> int:
    """Write every row, then turn error rows into the numerical-failure exit code."""
    failed = len(table.errors)
    log.info(
        "swept %d points on %d unique spectra: %d error rows, %d undefined-P rows",
        len(table), table.spectra, failed, table.undefined_p_rows(),
    )
    io_mod.emit_records(table, config.format, config.precision, config.out)
    if failed:
        print(f"{failed} of {len(table)} points failed", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _run_spectrum(config: RunConfig) -> int:
    _polarization_modes(config, ())
    model = _fixed_parameters(config, ("N", "v", "w", "z"))
    params = ModelParams(
        n_cells=model["N"], v=model["v"], w=model["w"], z=model["z"], boundary=config.boundary
    )
    spectrum = diagonalize(build_hamiltonian(params))
    columns = ["n", "energy"]
    rows = list(enumerate(spectrum.energies.tolist()))
    if config.eigenvectors:
        columns += [f"c{i}" for i in range(spectrum.dimension)]
        rows = [row + tuple(vector) for row, vector in zip(rows, spectrum.vectors.T.tolist())]
    io_mod.emit_records(rows, config.format, config.precision, config.out, columns)
    return EXIT_OK


def _spec(config: RunConfig, figure_id: str | None) -> SweepSpec:
    """The SweepSpec of a polarization, qfi, sweep or figure run."""
    if config.subcommand == "figure":
        if figure_id.startswith("1"):
            print(
                f"note: figure {figure_id} uses determinant-mode polarization; "
                "the ensemble-trace reading is available via the polarization subcommand",
                file=sys.stderr,
            )
        return build_figure_spec(figure_id, magnitude_cutoff=config.tau_mag)
    if config.subcommand in _POINT_QUANTITIES:
        axes = [("T", config.temperature)] if config.temperature else []
        return _sweep_spec(config, axes, _POINT_QUANTITIES[config.subcommand])
    if not config.axes:
        raise ConfigError("sweep needs at least one axis (config 'axes' or --axis)")
    if not config.quantities:
        raise ConfigError("sweep needs 'quantities' (config key or --quantities)")
    return _sweep_spec(config, config.axes, config.quantities)


def _add_common_flags(parser: argparse.ArgumentParser, model: bool = True) -> None:
    parser.add_argument("--config", help="flat JSON config file")
    if model:
        parser.add_argument("--n-cells", dest="n_cells")
        parser.add_argument("--v", help="intra-cell hopping")
        parser.add_argument("--w", help="inter-cell hopping")
        parser.add_argument("--z", help="second-neighbor hopping")
        parser.add_argument("--boundary", choices=BOUNDARIES)
    parser.add_argument("--out", "-o", help="output path, '-' for stdout")
    parser.add_argument("--format", choices=io_mod.FORMATS)
    parser.add_argument("--precision", help="significant digits (default 12)")
    parser.add_argument("--workers", help="accepted for compatibility, no effect (default 1)")
    parser.add_argument("--tau-mag", dest="tau_mag", help="magnitude cutoff")
    parser.add_argument("--label", help="free-text run identifier; accepted, not recorded yet")
    parser.add_argument("--verbose", dest="verbosity", action="count", help="more logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topo-thermo",
        description="Thermal extended SSH chain: polarization and quantum Fisher information.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_spectrum = sub.add_parser("spectrum", help="energies (and optionally eigenvectors)")
    _add_common_flags(p_spectrum)
    p_spectrum.add_argument("--eigenvectors", action="store_true", default=None)

    p_pol = sub.add_parser("polarization", help="polarization at a single parameter point")
    _add_common_flags(p_pol)
    p_pol.add_argument("--temperature", "-T", action="append")
    p_pol.add_argument("--mode", dest="modes", action="append", help="repeatable")

    p_qfi = sub.add_parser("qfi", help="QFI matrix and interferometric power at a point")
    _add_common_flags(p_qfi)
    p_qfi.add_argument("--temperature", "-T", action="append")

    p_sweep = sub.add_parser("sweep", help="grid sweep from a config file plus overrides")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--temperature", "-T", action="append")
    p_sweep.add_argument("--axis", dest="axes", action="append", help="NAME=START:STOP:COUNT")
    p_sweep.add_argument("--quantities", help="comma list from: " + ", ".join(QUANTITIES))
    p_sweep.add_argument("--mode", dest="modes", action="append")

    p_fig = sub.add_parser("figure", help="emit a bundled phase-diagram preset")
    p_fig.add_argument("figure_id", choices=FIGURE_IDS)
    _add_common_flags(p_fig, model=False)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK

    flag_values = {
        key: value
        for key, value in vars(args).items()
        if key not in ("subcommand", "config", "figure_id")
    }
    try:
        config_values = load_config_file(args.config) if getattr(args, "config", None) else {}
        config = assemble_config(args.subcommand, flag_values, config_values)
        logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
        log.setLevel(
            logging.WARNING if config.verbosity == 0
            else logging.INFO if config.verbosity == 1
            else logging.DEBUG
        )
        if args.subcommand == "spectrum":
            return _run_spectrum(config)
        return _emit(config, run_sweep(_spec(config, getattr(args, "figure_id", None))))
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
