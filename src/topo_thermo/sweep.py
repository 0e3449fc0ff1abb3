"""Cartesian parameter sweeps with deterministic ordering.

Each unique (v, w, z, N, boundary) gets one spectrum, and the whole
temperature column of its grid points is evaluated in one call of each
public function: weights of shape (n_T, 2N), one QFI contraction, one
batched 3x3 eigh. Every per-temperature row is computed exactly as it
would be alone, so outputs do not depend on how the grid groups
temperatures. The grid of point indices, reshaped with the T axis last,
gives the points of one spectrum per row. The results go straight into
the preallocated columns of a SweepTable at those points, and each
spectrum is dropped once they are written. Each boundary has one
evaluation path, whose functions _engine returns in one place, as one
record with four named fields: spectrum, qfi_matrix,
polarization_determinant and state_expectations. Periodic rings use the
Bloch engine (bloch.py), open chains the chiral block D = H[A, B]
(chiral.py), decomposed by one eigh of the symmetric folded block D J,
through the same public functions a caller would use. Both engines give
per-state <n|X|n>, which polarization_from_states reduces to the literal
and weighted modes. The dense eigendecomposition is their oracle: the
tests build the same record from the dense functions and run whole
sweeps through it. A failing column is evaluated again one temperature
at a time, so a failure lands in the error of exactly the points that
fail.

Every output but polarization is declared once, in `_OUTPUTS`: its
SweepTable and ResultRecord attribute, the quantity that requests it, its
shape per point, its printed columns and its source, the attribute path
of its value on the spectrum's `_Work`. The table's columns, its row
view, `SweepTable.columns()` and so the renderer and `locate_extremum`
all read that declaration, `QUANTITIES` is derived from it, and
`_evaluate` writes each requested output through its source; polarization
keeps one PolarizationResult of arrays per mode. `_Work` forms each
shared intermediate (Gibbs ensemble, QFI matrices, their report, the
diagnostics, per-state <n|X|n>) at most once, on first use. So a new
output is one `_OUTPUTS` entry, plus one `_Work` property if it reads an
intermediate no output reads yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .bloch import (
    bloch_polarization_determinant,
    bloch_qfi_matrix,
    bloch_spectrum,
    bloch_state_expectations,
)
from .chiral import (
    chiral_polarization_determinant,
    chiral_qfi_matrix,
    chiral_spectrum,
    chiral_state_expectations,
)
from .lattice import BOUNDARIES, PERIODIC, ModelParams
from .polarization import (
    DEFAULT_MAGNITUDE_CUTOFF,
    MODE_DETERMINANT,
    MODES,
    RESULT_FIELDS,
    _make_result,
    polarization_from_states,
)
from .qfi import interferometric_power
from .thermal import ensemble_diagnostics, gibbs_weights

AXIS_NAMES = ("T", "v", "w", "z", "N")

QUANTITY_POLARIZATION = "polarization"
QUANTITY_QFI_MATRIX = "qfi_matrix"
QUANTITY_INTERFEROMETRIC_POWER = "interferometric_power"
QUANTITY_DIAGNOSTICS = "diagnostics"


@dataclass
class SweepSpec:
    """Declarative sweep: ordered axes, fixed parameters, quantities.

    Records are emitted in row-major order of the axes as declared (the
    first axis varies slowest). Every parameter in {T, v, w, z, N} must
    appear exactly once, either as an axis or in `fixed`.
    """

    axes: tuple = ()
    fixed: dict = field(default_factory=dict)
    boundary: str = PERIODIC
    quantities: tuple = ()
    polarization_modes: tuple = ()
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF

    def __post_init__(self):
        self.axes = tuple((str(name), tuple(grid)) for name, grid in self.axes)
        self.fixed = dict(self.fixed)
        self.quantities = tuple(self.quantities)
        self.polarization_modes = tuple(self.polarization_modes)

    def grids(self) -> dict:
        """Values of each parameter: the axes as declared, then each fixed value as one value."""
        return {**dict(self.axes), **{name: (value,) for name, value in self.fixed.items()}}

    def validate(self) -> None:
        seen = []
        for name, grid in self.axes:
            if name not in AXIS_NAMES:
                raise ValueError(f"unknown axis {name!r}, expected one of {AXIS_NAMES}")
            if len(grid) == 0:
                raise ValueError(f"axis {name!r} has an empty grid")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"axis {name!r} grid must be strictly ascending")
            seen.append(name)
        for name in self.fixed:
            if name not in AXIS_NAMES:
                raise ValueError(f"unknown fixed parameter {name!r}")
            seen.append(name)
        for name in AXIS_NAMES:
            count = seen.count(name)
            if count != 1:
                raise ValueError(f"parameter {name!r} must appear exactly once, found {count}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if not self.quantities:
            raise ValueError("no quantities requested")
        for kind, values in (("quantity", self.quantities), ("mode", self.polarization_modes)):
            for index, value in enumerate(values):
                if value in values[:index]:
                    raise ValueError(f"{kind} {value!r} is requested more than once")
        for quantity in self.quantities:
            if quantity not in QUANTITIES:
                raise ValueError(f"unknown quantity {quantity!r}, expected one of {QUANTITIES}")
        if QUANTITY_POLARIZATION in self.quantities:
            if not self.polarization_modes:
                raise ValueError("polarization requested without polarization_modes")
            for mode in self.polarization_modes:
                if mode not in MODES:
                    raise ValueError(f"unknown polarization mode {mode!r}")
        elif self.polarization_modes:
            raise ValueError("polarization modes are only meaningful for polarization output")
        grids = self.grids()
        if not all(t >= 0.0 for t in grids["T"]):
            raise ValueError("temperatures must be >= 0")
        for name in ("v", "w", "z"):
            for value in grids[name]:
                if not math.isfinite(float(value)):
                    raise ValueError(f"parameter {name!r} must be finite, got {value!r}")
        for n in grids["N"]:
            # The table stores N as int64; the range refuses NaN and inf before int() sees them.
            if not (2 <= n < 2**63 and int(n) == n):
                raise ValueError(f"N must be an integer from 2 to 2**63 - 1, got {n!r}")
        if not self.magnitude_cutoff >= 0.0:
            raise ValueError(f"magnitude_cutoff must be >= 0, got {self.magnitude_cutoff!r}")


# Type of each parameter's per-point column; .item() gives a record's float or int.
PARAMETER_TYPES = {**dict.fromkeys(AXIS_NAMES, np.float64), "N": np.int64}

# Field of each parameter in ResultRecord, and in ModelParams and cli.RunConfig.
_PARAMETER_FIELDS = {"T": "temperature", "v": "v", "w": "w", "z": "z", "N": "n_cells"}

# Printed polarization column -> PolarizationResult field, one value per point and mode.
_POLARIZATION_COLUMNS = {"P": "polarization", "P_defined": "defined", "magnitude": "magnitude"}


class _Output(NamedTuple):
    """An output other than polarization: its quantity, shape, printed columns and source."""

    quantity: str
    shape: tuple  # of one point's value
    columns: dict  # printed column -> index of its entry in one point's value
    source: str  # attribute path of its value on a spectrum's _Work


# Every output but polarization, by its SweepTable and ResultRecord attribute.
_OUTPUTS = {
    "qfi": _Output(QUANTITY_QFI_MATRIX, (3, 3), {
        "M_xx": (0, 0), "M_xy": (0, 1), "M_xz": (0, 2),
        "M_yy": (1, 1), "M_yz": (1, 2), "M_zz": (2, 2),
    }, "qfi"),
    "i_p": _Output(QUANTITY_INTERFEROMETRIC_POWER, (), {"i_p": ()}, "report.i_p"),
    "optimal_direction": _Output(QUANTITY_INTERFEROMETRIC_POWER, (3,), {
        "dir_x": (0,), "dir_y": (1,), "dir_z": (2,),
    }, "report.optimal_direction"),
    "purity": _Output(QUANTITY_DIAGNOSTICS, (), {"purity": ()}, "diagnostics.purity"),
    "entropy": _Output(QUANTITY_DIAGNOSTICS, (), {"entropy": ()}, "diagnostics.entropy"),
}

QUANTITIES = (QUANTITY_POLARIZATION, *dict.fromkeys(o.quantity for o in _OUTPUTS.values()))


class ResultRecord(SimpleNamespace):
    """One grid point of a SweepTable as a row, built only by SweepTable[i].

    Its attributes are the table's declarations at that point: each
    parameter by its `_PARAMETER_FIELDS` name, `boundary`, `polarization`
    (a scalar PolarizationResult per mode), every `_OUTPUTS` attribute
    (None when not requested or at a failed point) and `error`.
    """


class SweepTable:
    """Results of a sweep as columns, one entry per grid point.

    Points are in row-major order of the axes as declared. Each output of
    `_OUTPUTS` is a NumPy array preallocated for every point and written at
    the points of one spectrum at a time; an output the spec did not
    request is None. `polarization` maps each mode to a PolarizationResult
    of arrays. `columns()` gives every printed number by column name.
    `errors` maps the index of each failed point to its message; the
    columns hold no meaning there. Each parameter is a per-point column
    too (float64, int64 for N), built once from `spec.grids()`; `columns()`,
    `parameters(i)`, the rows and the sweep read it.
    len() counts points; indexing and iteration give ResultRecord rows.
    """

    def __init__(self, spec: SweepSpec):
        self.spec = spec
        grids = spec.grids()
        arrays = [np.array(grid, PARAMETER_TYPES[name]) for name, grid in grids.items()]
        mesh = dict(zip(grids, np.meshgrid(*arrays, indexing="ij")))
        self._parameters = {name: mesh[name].ravel() for name in AXIS_NAMES}
        self.size = n = self._parameters["T"].size
        modes = spec.polarization_modes if QUANTITY_POLARIZATION in spec.quantities else ()
        cutoff = spec.magnitude_cutoff
        self.polarization = {
            mode: _make_result(np.zeros(n), np.zeros(n), mode, cutoff) for mode in modes
        }
        for name, output in _OUTPUTS.items():
            requested = output.quantity in spec.quantities
            setattr(self, name, np.zeros((n, *output.shape)) if requested else None)
        self.errors: dict[int, str] = {}

    def _outputs(self) -> dict:
        """Column of each requested output of `_OUTPUTS`, by attribute."""
        return {name: getattr(self, name) for name in _OUTPUTS if getattr(self, name) is not None}

    def columns(self) -> dict:
        """Every printed number by column name, in CSV_COLUMNS order.

        These are the parameters and the requested outputs. P, P_defined
        and magnitude are (points, modes) arrays, modes in the order of
        `polarization`; every other column is one entry per point. At a
        failed point the outputs hold no meaning.
        """
        columns = dict(self._parameters)
        if self.polarization:
            results = self.polarization.values()
            for name, attribute in _POLARIZATION_COLUMNS.items():
                columns[name] = np.stack([getattr(r, attribute) for r in results], axis=1)
        for name, column in self._outputs().items():
            for label, entry in _OUTPUTS[name].columns.items():
                columns[label] = column[(slice(None), *entry)]
        return columns

    def __len__(self) -> int:
        return self.size

    def parameters(self, index: int) -> dict:
        """Parameter values of one point, as Python floats and an int N."""
        return {name: column[index].item() for name, column in self._parameters.items()}

    @property
    def spectra(self) -> int:
        """Number of unique spectra: every (v, w, z, N) combination."""
        return self.size // len(self.spec.grids()["T"])

    def failed(self) -> np.ndarray:
        """Boolean mask of the points that carry an error."""
        mask = np.zeros(self.size, dtype=bool)
        mask[list(self.errors)] = True
        return mask

    def undefined_p_rows(self) -> int:
        """Rows of points without error whose polarization is undefined, over all modes."""
        ok = ~self.failed()
        return sum(int(np.count_nonzero(ok & ~r.defined)) for r in self.polarization.values())

    def __getitem__(self, index: int) -> ResultRecord:
        index = range(self.size)[index]
        error = self.errors.get(index)
        outputs = {
            name: column[index].copy() if column.ndim > 1 else column[index].item()
            for name, column in self._outputs().items() if error is None
        }
        return ResultRecord(
            **{_PARAMETER_FIELDS[name]: value for name, value in self.parameters(index).items()},
            boundary=self.spec.boundary,
            polarization={
                mode: r.row(index) for mode, r in self.polarization.items() if error is None
            },
            **{name: outputs.get(name) for name in _OUTPUTS},
            error=error,
        )

    def __iter__(self):
        return map(self.__getitem__, range(self.size))


def _engine(boundary: str) -> SimpleNamespace:
    """The engine record of a boundary: its four functions, by name.

    `spectrum(params)`, `qfi_matrix(ensemble)`,
    `polarization_determinant(spectrum, T, cutoff)` and
    `state_expectations(spectrum)` are the boundary's `bloch_` or
    `chiral_` function of that name. The QFI matrix takes a GibbsEnsemble,
    as the dense qfi.qfi_matrix does.

    The names resolve when called, so a function rebound on this module
    after import, to trace or to test it, is the one a sweep then calls.
    """
    if boundary == PERIODIC:
        return SimpleNamespace(
            spectrum=bloch_spectrum, polarization_determinant=bloch_polarization_determinant,
            qfi_matrix=bloch_qfi_matrix, state_expectations=bloch_state_expectations,
        )
    return SimpleNamespace(
        spectrum=chiral_spectrum, polarization_determinant=chiral_polarization_determinant,
        qfi_matrix=chiral_qfi_matrix, state_expectations=chiral_state_expectations,
    )


class _Work:
    """One spectrum's intermediates at `temperatures`, each formed at most once, on first use.

    The Gibbs ensemble, the engine's QFI matrices, their interferometric
    power report, the ensemble diagnostics and the engine's per-state
    <n|X|n> are cached properties, so an output reads exactly the ones it
    needs and a determinant-only request builds none of them. `engine` is
    the boundary's record from `_engine`, taken when the work is made.
    """

    def __init__(self, boundary: str, spectrum, temperatures: np.ndarray, cutoff: float):
        self.engine, self.spectrum = _engine(boundary), spectrum
        self.temperatures, self.cutoff = temperatures, cutoff

    @cached_property
    def ensemble(self):
        return gibbs_weights(self.spectrum, self.temperatures)

    @cached_property
    def qfi(self):
        return self.engine.qfi_matrix(self.ensemble)

    @cached_property
    def report(self):
        return interferometric_power(self.qfi)

    @cached_property
    def diagnostics(self):
        return ensemble_diagnostics(self.ensemble)

    @cached_property
    def per_state(self):
        return self.engine.state_expectations(self.spectrum)

    def polarization(self, mode: str):
        """One mode's PolarizationResult: the engine's determinant, or the reduction of <n|X|n>."""
        if mode != MODE_DETERMINANT:
            return polarization_from_states(self.ensemble, self.per_state, mode, self.cutoff)
        return self.engine.polarization_determinant(self.spectrum, self.temperatures, self.cutoff)


def _evaluate(table: SweepTable, points: np.ndarray, spectrum, temperatures: np.ndarray) -> None:
    """Write one spectrum's outputs at `temperatures` into the table's columns at `points`."""
    work = _Work(table.spec.boundary, spectrum, temperatures, table.spec.magnitude_cutoff)
    for mode, column in table.polarization.items():
        result = work.polarization(mode)
        for name in RESULT_FIELDS:
            getattr(column, name)[points] = getattr(result, name)
    for name, column in table._outputs().items():
        column[points] = attrgetter(_OUTPUTS[name].source)(work)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _evaluate_column(table: SweepTable, points: np.ndarray) -> None:
    """Outputs at `points`, the points of one spectrum in T order; failures become errors.

    A failed spectrum flags every point. A failed column is evaluated again
    one temperature at a time through the same call, so exactly the
    failing temperatures are flagged.
    """
    boundary = table.spec.boundary
    temperatures = table._parameters["T"][points]
    try:
        model = {
            _PARAMETER_FIELDS[name]: value
            for name, value in table.parameters(points[0]).items() if name != "T"
        }
        spectrum = _engine(boundary).spectrum(ModelParams(**model, boundary=boundary))
    except Exception as exc:  # degrade to flagged points, never abort the sweep
        table.errors.update(dict.fromkeys(points.tolist(), _failure(exc)))
        return
    try:
        _evaluate(table, points, spectrum, temperatures)
        return
    except Exception:
        pass
    for index, point in enumerate(points.tolist()):
        try:
            _evaluate(table, points[index : index + 1], spectrum, temperatures[index : index + 1])
        except Exception as exc:
            table.errors[point] = _failure(exc)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate every grid point, one spectrum at a time, into a SweepTable."""
    spec.validate()
    table = SweepTable(spec)
    grids = spec.grids()
    points = np.arange(table.size).reshape([len(grid) for grid in grids.values()])
    spectra = np.moveaxis(points, list(grids).index("T"), -1).reshape(-1, len(grids["T"]))
    for column in spectra:
        _evaluate_column(table, column)
    return table


def locate_extremum(
    table: SweepTable,
    quantity: str,
    objective: str = "max",
    mode: str | None = None,
) -> tuple[ResultRecord, float]:
    """First point (in sweep order) attaining the min or max of a quantity, as (row, value).

    `quantity` names any number the table prints (a key of `table.columns()`
    other than the P_defined flag); `mode` picks the polarization mode when
    the table holds several, and must name a swept mode whatever the
    column. Only meaningful cells are ranked: a NaN cell never is, and `P`
    only where `P_defined` is true, since an undefined P holds 0. With no
    cell left, and for a table with error rows, whose columns hold no
    meaning, it raises ValueError.
    """
    if objective not in ("min", "max"):
        raise ValueError(f"objective must be 'min' or 'max', got {objective!r}")
    columns = table.columns()
    if quantity not in columns or quantity == "P_defined":
        numbers = ", ".join(name for name in columns if name != "P_defined")
        raise ValueError(f"quantity {quantity!r} is not a number this table prints: {numbers}")
    column, modes = columns[quantity], list(table.polarization)
    if mode is not None and mode not in modes:
        raise ValueError(f"mode={mode!r} names no swept mode; the table holds {modes}")
    if column.ndim == 2:
        if mode is None and len(modes) == 1:
            mode = modes[0]
        if mode not in modes:
            raise ValueError(f"{quantity} needs mode= naming one of {modes}, got {mode!r}")
        column = column[:, modes.index(mode)]
    if table.errors:
        raise ValueError(f"{len(table.errors)} points carry an error")
    ranked = ~np.isnan(column)
    if quantity == "P":
        ranked &= table.polarization[mode].defined
    points = np.flatnonzero(ranked)
    if not points.size:
        why = "P is undefined or NaN" if quantity == "P" else f"{quantity} is NaN"
        raise ValueError(f"no point to rank: {why} at every point")
    values = column[points]
    index = int(points[np.argmax(values) if objective == "max" else np.argmin(values)])
    return table[index], float(column[index])
