"""Command-line front end.

Subcommands: spectrum, polarization, qfi, sweep, figure. `spectrum`
prints the levels of chiral.chiral_spectrum, on either boundary, in
ascending order, with --eigenvectors each state in site order as
ChiralSpectrum forms it; every other subcommand is a sweep. Each option is
one RunConfig field that declares its default, the reader of its flag
and config values (type and range), its flags and the subcommands that
take it; `build_parser` and `assemble_config` work from these alone.
Options resolve as flag > config file (a flat JSON object keyed by field
name) > default; a config key or flag its subcommand does not take is an
error with one message, naming what it does take, and so is a key
repeated in any object of the file. Flags are never abbreviated. The list
settings `temperature`, `modes` and `quantities` take a list, a
comma-separated string, or repeated flags of either; blank entries are
skipped, each other entry is read as the key's single value, and order
and repetition are kept: a temperature list must be strictly ascending
when it is read, and a repeated mode or quantity is left for
SweepSpec.validate to refuse. A subcommand takes
only the options that act on its run: `tau_mag` only where P can print
(polarization, sweep, figure) and `verbosity` only on sweep-backed runs,
so `spectrum` takes neither and `qfi` takes no `tau_mag`. The settings
that still change nothing are `workers` and `label` everywhere, and
`tau_mag` on a sweep or figure run without polarization output. `_spec`
builds the SweepSpec of every sweep-backed run (polarization, qfi, sweep,
figure) in one pass; the rules it shares with library callers, such as
"polarization modes need polarization output", are stated only in
SweepSpec.validate.
Exit codes: 0 success, 2 configuration error, 3 numerical failure or
unwritable output. A run in which any point failed still writes every
row, with the failure in the error column, then reports "k of n points
failed" on stderr and exits 3. --verbose writes a one-line summary of
the sweep to stderr.

The `topo-thermo` script and `python -m topo_thermo.cli` enter through
`main`, which leaves the import-time object graph to the operating system
at exit instead of collecting it; `cli_main` callers (tests, the benchmark
trace, library use) find the garbage collector as they left it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import io as io_mod
from .chiral import ChiralSpectrum, chiral_spectrum
from .figures import FIGURE_IDS, build_figure_spec
from .lattice import BOUNDARIES, PERIODIC, ModelParams
from .polarization import DEFAULT_MAGNITUDE_CUTOFF, MODE_DETERMINANT
from .sweep import (
    QUANTITIES,
    QUANTITY_DIAGNOSTICS,
    QUANTITY_INTERFEROMETRIC_POWER,
    QUANTITY_POLARIZATION,
    QUANTITY_QFI_MATRIX,
    SweepSpec,
    SweepTable,
    _PARAMETER_FIELDS,
    run_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_SUBCOMMANDS = {
    "spectrum": "energies (and optionally eigenvectors)",
    "polarization": "polarization at a single parameter point",
    "qfi": "QFI matrix and interferometric power at a point",
    "sweep": "grid sweep from a config file plus overrides",
    "figure": "emit a bundled phase-diagram preset",
}
_MODEL = ("spectrum", "polarization", "qfi", "sweep")
_THERMAL = ("polarization", "qfi", "sweep")
_SWEPT = ("polarization", "qfi", "sweep", "figure")


class ConfigError(ValueError):
    """Bad flags, config file, or inconsistent run configuration."""


def _coerce_float(value) -> float:
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


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


def _coerce_list(read, rule: str):
    """The reader of a list setting: `temperature`, `modes` or `quantities`.

    A value is a list, a comma-separated string, or (from repeated flags) a
    list of either. Blank entries are skipped and every other entry is read
    by `read`, the key's scalar reader; a value with an entry that `read`
    cannot read is refused as `rule`, and a ConfigError of `read` itself
    (a range rule) passes through. Order and repetition are left as given.
    """
    def read_list(value) -> list:
        try:
            return [read(item) for entry in (value if isinstance(value, (list, tuple)) else [value])
                    for item in (entry.split(",") if isinstance(entry, str) else [entry])
                    if not isinstance(item, str) or item.strip()]
        except ConfigError:
            raise
        except (TypeError, ValueError):
            raise ConfigError(f"{rule}, got {value!r}")
    return read_list


def _parse_axis_flag(text: str) -> tuple:
    """'T=0.01:1.0:101' (linspace) or 'z=0,0.5,1' (explicit grid)."""
    if not isinstance(text, str):
        raise ConfigError(f"bad axis entry {text!r}")
    if "=" not in text:
        raise ConfigError(f"axis must look like NAME=START:STOP:COUNT, got {text!r}")
    name, _, rhs = text.partition("=")
    name = name.strip()
    try:
        if ":" in rhs:
            start, stop, count = rhs.split(":")
            start, stop = float(start), float(stop)
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise ConfigError(
                    f"axis range {rhs!r} needs a finite START and STOP; "
                    f"list a non-finite value instead, as in {name}=0.1,inf"
                )
            grid = np.linspace(start, stop, _coerce_int(count))
        else:
            grid = np.array([float(item) for item in rhs.split(",")])
    except ConfigError:  # a non-finite endpoint or a fractional count, with its own message
        raise
    except (ValueError, OverflowError):
        raise ConfigError(f"could not parse axis grid {rhs!r}")
    return name, tuple(grid.tolist())


def _coerce_axes(value) -> list:
    if isinstance(value, dict):
        pairs = list(value.items())
    elif isinstance(value, (list, tuple)):
        pairs = [_parse_axis_flag(item) for item in value]
    else:
        raise ConfigError(f"axes must be an object or list, got {value!r}")
    axes = []
    for name, grid in pairs:
        if not isinstance(grid, (list, tuple)):
            raise ConfigError(f"axis {name!r} grid must be a list, got {grid!r}")
        values = [_coerce_int(x) if name == "N" else _coerce_float(x) for x in grid]
        axes.append((str(name), tuple(values)))
    return axes


def _checked(read, ok, rule: str):
    """`read`, then refuse a value for which `ok` is false, naming `rule`."""
    def read_checked(value):
        result = read(value)
        if not ok(result):
            raise ConfigError(f"{rule}, got {result!r}")
        return result
    return read_checked


_temperature = _checked(_coerce_float, lambda t: t >= 0, "temperatures must be >= 0")
_temperatures = _coerce_list(_temperature, "temperature must be a number or list of numbers")


def _option(default, read, flags: str, takes=tuple(_SUBCOMMANDS), **argparse_kwargs):
    """A RunConfig field: default, reader, flags, subcommands that take it, argparse keywords."""
    metadata = {"read": read, "flags": flags.split(), "takes": takes, "argparse": argparse_kwargs}
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    subcommand: str
    n_cells: int | None = _option(None, _coerce_int, "--n-cells", _MODEL)
    v: float | None = _option(None, _coerce_float, "--v", _MODEL, help="intra-cell hopping")
    w: float | None = _option(None, _coerce_float, "--w", _MODEL, help="inter-cell hopping")
    z: float | None = _option(None, _coerce_float, "--z", _MODEL, help="second-neighbor hopping")
    boundary: str = _option(
        PERIODIC, _checked(str, lambda b: b in BOUNDARIES, f"must be one of {BOUNDARIES}"),
        "--boundary", _MODEL,
    )
    temperature: list | None = _option(
        None,
        _checked(_checked(_temperatures, bool, "temperature list is empty"),
                 lambda ts: ts == sorted(set(ts)), "temperatures must be strictly ascending"),
        "--temperature -T", _THERMAL, action="append", help="repeatable",
    )
    modes: list | None = _option(
        None, _coerce_list(str.strip, "modes must be a list or comma-separated string"),
        "--mode", ("polarization", "sweep"), action="append", help="repeatable",
    )
    axes: list | None = _option(
        None, _coerce_axes, "--axis", ("sweep",), action="append", help="NAME=START:STOP:COUNT"
    )
    quantities: list | None = _option(
        None, _coerce_list(str.strip, "quantities must be a list or comma-separated string"),
        "--quantities", ("sweep",), action="append",
        help="repeatable; comma list from: " + ", ".join(QUANTITIES),
    )
    label: str = _option(
        "", str, "--label", help="free-text run identifier; accepted, not recorded yet"
    )
    out: str = _option("-", str, "--out -o", help="output path, '-' for stdout")
    format: str = _option(
        io_mod.FORMAT_CSV,
        _checked(str, lambda f: f in io_mod.FORMATS, f"must be one of {io_mod.FORMATS}"),
        "--format",
    )
    precision: int = _option(
        io_mod.DEFAULT_PRECISION, _checked(_coerce_int, lambda n: n >= 1, "must be >= 1"),
        "--precision", help="significant digits (default 12)",
    )
    workers: int = _option(
        1, _checked(_coerce_int, lambda n: n >= 1, "must be >= 1"), "--workers",
        help="accepted for compatibility, no effect (default 1)",
    )
    tau_mag: float = _option(
        DEFAULT_MAGNITUDE_CUTOFF, _checked(_coerce_float, lambda x: x >= 0, "must be >= 0"),
        "--tau-mag", ("polarization", "sweep", "figure"), help="magnitude cutoff",
    )
    verbosity: int = _option(
        0, _checked(_coerce_int, lambda n: n >= 0, "must be >= 0"), "--verbose", _SWEPT,
        action="count", help="write a one-line summary of the sweep to stderr",
    )
    eigenvectors: bool = _option(
        False, _coerce_bool, "--eigenvectors", ("spectrum",), action="store_true"
    )


def _options(subcommand: str) -> dict:
    """The RunConfig fields that `subcommand` takes, by name."""
    return {f.name: f for f in fields(RunConfig) if subcommand in f.metadata.get("takes", ())}


def load_config_file(path: str) -> dict:
    """The JSON object in `path`; a key repeated in any object of it is a ConfigError."""
    def unique_keys(pairs: list) -> dict:
        for index, (key, _) in enumerate(pairs):
            if key in dict(pairs[:index]):
                raise ConfigError(f"config file {path} repeats key {key!r}")
        return dict(pairs)

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _not_taken(subcommand: str, what: str, names) -> ConfigError:
    """The refusal of a config key or flag `what`, naming the ones `subcommand` takes."""
    return ConfigError(f"{subcommand} does not take {what}; it takes " + ", ".join(names))


def assemble_config(subcommand: str, flag_values: dict, config_values: dict) -> RunConfig:
    """Resolve defaults, then config-file values, then explicit flags.

    Every value goes through its option's reader; a key that `subcommand`
    does not take is a ConfigError.
    """
    options = _options(subcommand)
    config = RunConfig(subcommand=subcommand)
    for source in (config_values, flag_values):
        for key, value in source.items():
            if key not in options:
                raise _not_taken(subcommand, f"config key {key!r}", options)
            if value is None:
                continue
            try:
                setattr(config, key, options[key].metadata["read"](value))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for {key}: {exc}")
    return config


# The point subcommands: a sweep whose only axis is the --temperature list.
_POINT_QUANTITIES = {
    "polarization": (QUANTITY_POLARIZATION, QUANTITY_DIAGNOSTICS),
    "qfi": (QUANTITY_QFI_MATRIX, QUANTITY_INTERFEROMETRIC_POWER, QUANTITY_DIAGNOSTICS),
}


def _fixed_parameters(config: RunConfig, names) -> dict:
    """Fixed values of the named sweep parameters; any missing one is a ConfigError."""
    fixed = {name: getattr(config, _PARAMETER_FIELDS[name]) for name in names}
    missing = [_PARAMETER_FIELDS[name] for name, value in fixed.items() if value is None]
    if missing:
        raise ConfigError(f"missing required parameters: {', '.join(missing)}")
    if "T" in fixed:
        if len(fixed["T"]) != 1:
            raise ConfigError("a fixed temperature must be a single value")
        fixed["T"] = fixed["T"][0]
    return fixed


def _emit(config: RunConfig, table: SweepTable) -> int:
    """Write every row, then turn error rows into the numerical-failure exit code."""
    failed = len(table.errors)
    if config.verbosity >= 1:
        print(f"INFO swept {len(table)} points on {table.spectra} unique spectra: {failed} error "
              f"rows, {table.undefined_p_rows()} undefined-P rows", file=sys.stderr)
    io_mod.emit_records(table, config.format, config.precision, config.out)
    if failed:
        print(f"{failed} of {len(table)} points failed", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _site_vectors(spectrum: ChiralSpectrum) -> np.ndarray:
    """The eigenvectors of a chiral spectrum in site order, column n <-> energies[n].

    State k is (u_k, -v_k) / sqrt(2) and state N + k is (u_k, +v_k) / sqrt(2),
    with U = Q on the A sites and V = J Q diag(sigma) on the B sites; site
    2m is A of cell m and site 2m + 1 is B of cell m.
    """
    u = spectrum.fold_vectors
    v = u[::-1] * spectrum.signs
    vectors = np.empty((spectrum.dimension, spectrum.dimension))
    vectors[0::2] = np.hstack([u, u])
    vectors[1::2] = np.hstack([-v, v])
    return vectors / np.sqrt(2.0)


def _run_spectrum(config: RunConfig) -> int:
    model = _fixed_parameters(config, ("N", "v", "w", "z"))
    params = {_PARAMETER_FIELDS[name]: value for name, value in model.items()}
    spectrum = chiral_spectrum(ModelParams(**params, boundary=config.boundary))
    order = np.argsort(spectrum.energies, kind="stable")
    columns = ["n", "energy"]
    rows = list(enumerate(spectrum.energies[order].tolist()))
    if config.eigenvectors:
        columns += [f"c{i}" for i in range(spectrum.dimension)]
        vectors = _site_vectors(spectrum)[:, order]
        rows = [row + tuple(vector) for row, vector in zip(rows, vectors.T.tolist())]
    io_mod.emit_records(rows, config.format, config.precision, config.out, columns)
    return EXIT_OK


def _spec(config: RunConfig, figure_id: str | None) -> SweepSpec:
    """The SweepSpec of a polarization, qfi, sweep or figure run.

    A point subcommand sweeps its temperature list; a `sweep` run sweeps
    its axes and refuses a fixed value of a swept parameter rather than
    drop it. Every other parameter takes its fixed value from `config`.
    """
    if config.subcommand == "figure":
        spec = build_figure_spec(figure_id, magnitude_cutoff=config.tau_mag)
        if QUANTITY_POLARIZATION in spec.quantities:
            print(
                f"note: figure {figure_id} uses determinant-mode polarization; "
                "the ensemble-trace reading is available via the polarization subcommand",
                file=sys.stderr,
            )
        return spec
    if config.subcommand in _POINT_QUANTITIES:
        axes = [("T", config.temperature)] if config.temperature else []
        quantities = _POINT_QUANTITIES[config.subcommand]
    else:
        if not config.axes:
            raise ConfigError("sweep needs at least one axis (config 'axes' or --axis)")
        if not config.quantities:
            raise ConfigError("sweep needs 'quantities' (config key or --quantities)")
        axes, quantities = config.axes, config.quantities
        for name, _ in axes:
            if name not in _PARAMETER_FIELDS:  # validate's refusal, before any missing parameter
                SweepSpec(axes=[(name, ())]).validate()
            key = _PARAMETER_FIELDS[name]
            if getattr(config, key) is not None:
                raise ConfigError(
                    f"parameter {name!r} is swept by an axis and also fixed by {key!r}"
                )
    fixed = _fixed_parameters(config, [n for n in _PARAMETER_FIELDS if n not in dict(axes)])
    modes = tuple(config.modes or ())
    if QUANTITY_POLARIZATION in quantities and not modes:
        print(
            "note: polarization mode defaulted to 'determinant'; "
            "the ensemble-trace reading is available via --mode literal",
            file=sys.stderr,
        )
        modes = (MODE_DETERMINANT,)
    # SweepSpec.validate refuses modes without polarization output.
    return SweepSpec(
        axes=axes, fixed=fixed, boundary=config.boundary, quantities=quantities,
        polarization_modes=modes, magnitude_cutoff=config.tau_mag,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topo-thermo",
        description="Thermal extended SSH chain: polarization and quantum Fisher information.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for subcommand, help_text in _SUBCOMMANDS.items():
        p_sub = sub.add_parser(subcommand, help=help_text, allow_abbrev=False)
        if subcommand == "figure":
            p_sub.add_argument("figure_id", choices=FIGURE_IDS)
        p_sub.add_argument("--config", help="flat JSON config file")
        for option in _options(subcommand).values():
            # An absent flag stays None and leaves the config value or default.
            meta = option.metadata
            p_sub.add_argument(*meta["flags"], dest=option.name, default=None, **meta["argparse"])
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK

    flag_values = vars(args)
    subcommand, config_path = flag_values.pop("subcommand"), flag_values.pop("config")
    figure_id = flag_values.pop("figure_id", None)
    try:
        if unknown:  # a flag the subcommand does not take, or a stray value
            flags = [f.metadata["flags"][0] for f in _options(subcommand).values()]
            raise _not_taken(subcommand, f"argument {unknown[0]!r}", ["--config", *flags])
        config_values = load_config_file(config_path) if config_path else {}
        config = assemble_config(subcommand, flag_values, config_values)
        if subcommand == "spectrum":
            return _run_spectrum(config)
        return _emit(config, run_sweep(_spec(config, figure_id)))
    except (np.linalg.LinAlgError, ArithmeticError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    code = cli_main()
    # Every object still alive dies with the process, Python does not promise
    # to run __del__ for objects alive at exit, and io.write_text has already
    # closed the output file. Frozen objects skip the exit collection, so the
    # reference cycles of the loaded modules are left to the OS to reclaim;
    # finalization still flushes stdout and stderr and runs atexit hooks.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
