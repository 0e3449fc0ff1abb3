"""Cartesian parameter sweeps with deterministic ordering.

Each unique (v, w, z, N, boundary) gets one spectrum, and the whole
temperature column of its grid points is evaluated in one call of each
public function: weights of shape (n_T, 2N), one QFI contraction, one
batched 3x3 eigh. Every per-temperature row is computed exactly as it
would be alone, so outputs do not depend on how the grid groups
temperatures. The results go straight into the preallocated columns of
a SweepTable, one index slice per spectrum, and each spectrum is dropped
once its slice is written. Each boundary has one evaluation path, whose
functions _engine picks in one place: periodic rings use the Bloch engine
(bloch.py), open chains the chiral block D = H[A, B] (chiral.py),
decomposed by one eigh of the symmetric folded block D J, through the
same public functions a caller would use. Both engines give per-state
<n|X|n>, which polarization_from_states reduces to the literal and
weighted modes. The dense eigendecomposition is their oracle. A failing
column is evaluated again one temperature at a time, so a failure lands
in the error of exactly the points that fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    PolarizationResult,
    polarization_from_states,
)
from .qfi import interferometric_power
from .thermal import ensemble_diagnostics, gibbs_weights

AXIS_NAMES = ("T", "v", "w", "z", "N")

QUANTITY_POLARIZATION = "polarization"
QUANTITY_QFI_MATRIX = "qfi_matrix"
QUANTITY_INTERFEROMETRIC_POWER = "interferometric_power"
QUANTITY_DIAGNOSTICS = "diagnostics"
QUANTITIES = (
    QUANTITY_POLARIZATION,
    QUANTITY_QFI_MATRIX,
    QUANTITY_INTERFEROMETRIC_POWER,
    QUANTITY_DIAGNOSTICS,
)


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
            raise ValueError("polarization_modes given but polarization not requested")
        axis_grids = dict(self.axes)
        temperatures = axis_grids.get("T", (self.fixed.get("T"),))
        if not all(t >= 0.0 for t in temperatures):
            raise ValueError("temperatures must be >= 0")
        for n in axis_grids.get("N", (self.fixed.get("N"),)):
            if int(n) != n or n < 2:
                raise ValueError(f"N must be an integer >= 2, got {n!r}")


@dataclass
class ResultRecord:
    """One grid point of a SweepTable as a row: parameters plus requested outputs."""

    temperature: float
    v: float
    w: float
    z: float
    n_cells: int
    boundary: str
    polarization: dict = field(default_factory=dict)
    qfi: np.ndarray | None = None
    i_p: float | None = None
    optimal_direction: np.ndarray | None = None
    purity: float | None = None
    entropy: float | None = None
    error: str | None = None


# Type of each parameter's values in records and output.
PARAMETER_TYPES = {"T": float, "v": float, "w": float, "z": float, "N": int}

RESULT_FIELDS = ("expectation", "magnitude", "phase", "polarization", "defined")


class SweepTable:
    """Results of a sweep as columns, one entry per grid point.

    Points are in row-major order of the axes as declared. Each output is
    a NumPy array preallocated for every point and written by index slice,
    once per spectrum; an output the spec did not request is None.
    `polarization` maps each mode to a PolarizationResult of arrays.
    `errors` maps the index of each failed point to its message; the
    columns hold no meaning there. Parameters are not stored per point:
    `parameter_index` derives them from the axis grids by index arithmetic.
    len() counts points; indexing and iteration give ResultRecord rows.
    """

    def __init__(self, spec: SweepSpec):
        self.spec = spec
        self.size = math.prod(len(grid) for _, grid in spec.axes)
        # name -> (distinct values, stride): point p holds values[p // stride % len(values)].
        self._grids = {
            name: ((PARAMETER_TYPES[name](value),), self.size) for name, value in spec.fixed.items()
        }
        stride = self.size
        for name, grid in spec.axes:
            stride //= len(grid)
            self._grids[name] = (tuple(map(PARAMETER_TYPES[name], grid)), stride)
        n = self.size
        self.polarization = {}
        if QUANTITY_POLARIZATION in spec.quantities:
            for mode in spec.polarization_modes:
                self.polarization[mode] = PolarizationResult(
                    expectation=np.zeros(n, dtype=complex),
                    magnitude=np.zeros(n),
                    phase=np.zeros(n),
                    polarization=np.zeros(n),
                    defined=np.zeros(n, dtype=bool),
                    mode=mode,
                )
        self.qfi = np.zeros((n, 3, 3)) if QUANTITY_QFI_MATRIX in spec.quantities else None
        self.i_p = self.optimal_direction = None
        if QUANTITY_INTERFEROMETRIC_POWER in spec.quantities:
            self.i_p, self.optimal_direction = np.zeros(n), np.zeros((n, 3))
        self.purity = self.entropy = None
        if QUANTITY_DIAGNOSTICS in spec.quantities:
            self.purity, self.entropy = np.zeros(n), np.zeros(n)
        self.errors: dict[int, str] = {}

    def __len__(self) -> int:
        return self.size

    def parameter_values(self, name: str) -> tuple:
        """Distinct values of a parameter: its grid, or its one fixed value."""
        return self._grids[name][0]

    def parameter_index(self, name: str, points: np.ndarray) -> np.ndarray:
        """Index of each point's value of a parameter in parameter_values(name)."""
        values, stride = self._grids[name]
        return points // stride % len(values)

    def parameters(self, index: int) -> dict:
        """Parameter values of one point."""
        return {
            name: self.parameter_values(name)[self.parameter_index(name, index)]
            for name in AXIS_NAMES
        }

    @property
    def spectra(self) -> int:
        """Number of unique spectra: every (v, w, z, N) combination."""
        return self.size // len(self._grids["T"][0])

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
        parameters = self.parameters(index)
        record = ResultRecord(
            temperature=parameters["T"],
            v=parameters["v"],
            w=parameters["w"],
            z=parameters["z"],
            n_cells=parameters["N"],
            boundary=self.spec.boundary,
            error=self.errors.get(index),
        )
        if record.error is not None:
            return record
        record.polarization = {mode: r.row(index) for mode, r in self.polarization.items()}
        if self.qfi is not None:
            record.qfi = self.qfi[index].copy()
        if self.i_p is not None:
            record.i_p = float(self.i_p[index])
            record.optimal_direction = self.optimal_direction[index].copy()
        if self.purity is not None:
            record.purity, record.entropy = float(self.purity[index]), float(self.entropy[index])
        return record

    def __iter__(self):
        return map(self.__getitem__, range(self.size))


def _needs_qfi(spec: SweepSpec) -> bool:
    return any(q in spec.quantities for q in (QUANTITY_QFI_MATRIX, QUANTITY_INTERFEROMETRIC_POWER))


def _engine(boundary: str) -> tuple:
    """(spectrum, QFI matrix from weights, determinant P, per-state <n|X|n>) of a boundary.

    The names resolve when called, so a function rebound on this module
    after import, to trace or to test it, is the one a sweep then calls.
    """
    if boundary == PERIODIC:
        return (
            bloch_spectrum, bloch_qfi_matrix, bloch_polarization_determinant,
            bloch_state_expectations,
        )
    return (
        chiral_spectrum, chiral_qfi_matrix, chiral_polarization_determinant,
        chiral_state_expectations,
    )


def _evaluate(table: SweepTable, points: slice, spectrum, temperatures: np.ndarray) -> None:
    """Write one spectrum's outputs at `temperatures` into the table's columns at `points`."""
    spec = table.spec
    _, qfi_matrix_of, determinant_of, state_expectations_of = _engine(spec.boundary)
    cutoff = spec.magnitude_cutoff
    need_qfi = _needs_qfi(spec)
    ensemble = None
    if (
        need_qfi
        or QUANTITY_DIAGNOSTICS in spec.quantities
        or any(mode != MODE_DETERMINANT for mode in table.polarization)
    ):
        ensemble = gibbs_weights(spectrum, temperatures)
    per_state = None
    for mode, column in table.polarization.items():
        if mode == MODE_DETERMINANT:
            result = determinant_of(spectrum, temperatures, cutoff)
        else:
            if per_state is None:
                per_state = state_expectations_of(spectrum)
            result = polarization_from_states(ensemble, per_state, mode, cutoff)
        for name in RESULT_FIELDS:
            getattr(column, name)[points] = getattr(result, name)
    if need_qfi:
        matrices = qfi_matrix_of(spectrum, ensemble.weights)
        if table.qfi is not None:
            table.qfi[points] = matrices
        if table.i_p is not None:
            report = interferometric_power(matrices)
            table.i_p[points] = report.i_p
            table.optimal_direction[points] = report.optimal_direction
    if table.purity is not None:
        diagnostics = ensemble_diagnostics(ensemble)
        table.purity[points] = diagnostics.purity
        table.entropy[points] = diagnostics.entropy


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _evaluate_column(table: SweepTable, first: int, stride: int, temperatures: np.ndarray) -> None:
    """Outputs of the spectrum of point `first` at every temperature; failures become errors.

    The column's points are first, first + stride, ... A failed spectrum
    flags every one of them. A failed column is evaluated again one
    temperature at a time through the same call, so exactly the failing
    temperatures are flagged.
    """
    points = range(first, first + len(temperatures) * stride, stride)
    boundary = table.spec.boundary
    try:
        parameters = table.parameters(first)
        params = ModelParams(
            n_cells=parameters["N"], v=parameters["v"], w=parameters["w"], z=parameters["z"],
            boundary=boundary,
        )
        spectrum = _engine(boundary)[0](params)
    except Exception as exc:  # degrade to flagged points, never abort the sweep
        table.errors.update(dict.fromkeys(points, _failure(exc)))
        return
    try:
        _evaluate(table, slice(points.start, points.stop, stride), spectrum, temperatures)
        return
    except Exception:
        pass
    for index, point in enumerate(points):
        try:
            _evaluate(table, slice(point, point + 1), spectrum, temperatures[index : index + 1])
        except Exception as exc:
            table.errors[point] = _failure(exc)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate every grid point, one spectrum at a time, into a SweepTable."""
    spec.validate()
    table = SweepTable(spec)
    grid, stride = table._grids["T"]
    temperatures = np.array(grid)
    firsts = np.flatnonzero(np.arange(len(table)) // stride % len(grid) == 0)
    for first in firsts.tolist():
        _evaluate_column(table, first, stride, temperatures)
    return table


def _quantity_column(table: SweepTable, quantity: str, mode: str | None) -> np.ndarray:
    if quantity in ("i_p", "purity", "entropy"):
        column = getattr(table, quantity)
    elif quantity in ("P", "magnitude"):
        if mode is None:
            if len(table.polarization) > 1:
                raise ValueError("table holds several polarization modes, pass mode=")
            result = next(iter(table.polarization.values()), None)
        else:
            result = table.polarization.get(mode)
        column = None
        if result is not None:
            column = result.polarization if quantity == "P" else result.magnitude
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    if column is None:
        raise ValueError(f"quantity {quantity!r} absent from the table")
    return column


def locate_extremum(
    table: SweepTable,
    quantity: str,
    objective: str = "max",
    mode: str | None = None,
) -> tuple[ResultRecord, float]:
    """First point (in sweep order) attaining the min or max of a quantity, as (row, value).

    A table with error rows raises ValueError: their columns hold no meaning.
    """
    if objective not in ("min", "max"):
        raise ValueError(f"objective must be 'min' or 'max', got {objective!r}")
    column = _quantity_column(table, quantity, mode)
    if table.errors:
        raise ValueError(f"{len(table.errors)} points carry an error")
    index = int(np.argmax(column) if objective == "max" else np.argmin(column))
    return table[index], float(column[index])
