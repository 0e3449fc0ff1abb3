"""Cartesian parameter sweeps with deterministic ordering.

Each unique (v, w, z, N, boundary) gets one spectrum, and the whole
temperature column of its grid points is evaluated in one call of each
public function: weights of shape (n_T, 2N), one QFI contraction, one
batched 3x3 eigh. Every per-temperature row is computed exactly as it
would be alone, so records do not depend on how the grid groups
temperatures. Spectra are built one at a time and dropped once their
records are written. Each boundary has one evaluation path: periodic
rings use the Bloch engine (bloch.py), open chains the SVD of the chiral
block (chiral.py), through the same public functions a caller would
use. The dense eigendecomposition is their oracle. A failing column
is evaluated again one temperature at a time, so a failure lands in the
error field of exactly the points that fail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .bloch import (
    bloch_polarization_determinant,
    bloch_polarization_vanishing,
    bloch_qfi_matrix,
    bloch_spectrum,
)
from .chiral import (
    chiral_polarization_determinant,
    chiral_qfi_matrix,
    chiral_spectrum,
    chiral_state_expectations,
)
from .lattice import BOUNDARIES, PERIODIC, ModelParams, position_phase_operator
from .polarization import (
    DEFAULT_MAGNITUDE_CUTOFF,
    MODE_DETERMINANT,
    MODE_LITERAL,
    MODE_WEIGHTED,
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
    label: str = ""

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
                if mode not in (MODE_LITERAL, MODE_WEIGHTED, MODE_DETERMINANT):
                    raise ValueError(f"unknown polarization mode {mode!r}")
        elif self.polarization_modes:
            raise ValueError("polarization_modes given but polarization not requested")
        axis_grids = dict(self.axes)
        temperatures = axis_grids.get("T", (self.fixed.get("T"),))
        if any(t < 0.0 for t in temperatures):
            raise ValueError("temperatures must be >= 0")
        for n in axis_grids.get("N", (self.fixed.get("N"),)):
            if int(n) != n or n < 2:
                raise ValueError(f"N must be an integer >= 2, got {n!r}")


@dataclass
class ResultRecord:
    """One grid point: full parameter tuple plus requested outputs."""

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


def _needs_qfi(spec: SweepSpec) -> bool:
    return any(q in spec.quantities for q in (QUANTITY_QFI_MATRIX, QUANTITY_INTERFEROMETRIC_POWER))


def _spectrum(key: tuple):
    """Bloch bands of a ring, or the chiral-block SVD of an open chain."""
    n_cells, v, w, z, boundary = key
    params = ModelParams(n_cells=n_cells, v=v, w=w, z=z, boundary=boundary)
    if boundary == PERIODIC:
        return bloch_spectrum(params)
    return chiral_spectrum(params)


def _evaluate(spectrum, temperatures: np.ndarray, spec: SweepSpec) -> list[dict]:
    """Requested outputs of one spectrum at each temperature, as ResultRecord fields."""
    rows = [{} for _ in temperatures]
    periodic = spec.boundary == PERIODIC
    cutoff = spec.magnitude_cutoff
    need_qfi = _needs_qfi(spec)
    ensemble = None
    if (
        need_qfi
        or QUANTITY_DIAGNOSTICS in spec.quantities
        or any(mode != MODE_DETERMINANT for mode in spec.polarization_modes)
    ):
        ensemble = gibbs_weights(spectrum, temperatures)
    if QUANTITY_POLARIZATION in spec.quantities:
        x_operator = None if periodic else position_phase_operator(spectrum.n_cells)
        per_state = None
        for row in rows:
            row["polarization"] = {}
        for mode in spec.polarization_modes:
            if periodic and mode == MODE_DETERMINANT:
                results = bloch_polarization_determinant(spectrum, temperatures, cutoff)
            elif periodic:
                results = [bloch_polarization_vanishing(mode, cutoff)] * len(temperatures)
            elif mode == MODE_DETERMINANT:
                results = chiral_polarization_determinant(
                    spectrum, temperatures, x_operator, cutoff
                )
            else:
                if per_state is None:
                    per_state = chiral_state_expectations(spectrum, x_operator)
                results = polarization_from_states(ensemble, per_state, mode, cutoff)
            for row, result in zip(rows, results):
                row["polarization"][mode] = result
    if need_qfi:
        if periodic:
            matrices = bloch_qfi_matrix(spectrum, ensemble.weights)
        else:
            matrices = chiral_qfi_matrix(spectrum, ensemble.weights)
        if QUANTITY_QFI_MATRIX in spec.quantities:
            for row, matrix in zip(rows, matrices):
                row["qfi"] = matrix
        if QUANTITY_INTERFEROMETRIC_POWER in spec.quantities:
            report = interferometric_power(matrices)
            for row, i_p, direction in zip(rows, report.i_p.tolist(), report.optimal_direction):
                row["i_p"] = i_p
                row["optimal_direction"] = direction
    if QUANTITY_DIAGNOSTICS in spec.quantities:
        diagnostics = ensemble_diagnostics(ensemble)
        purities, entropies = diagnostics.purity.tolist(), diagnostics.entropy.tolist()
        for row, purity, entropy in zip(rows, purities, entropies):
            row["purity"] = purity
            row["entropy"] = entropy
    return rows


def _spectrum_key(point: dict, boundary: str) -> tuple:
    return (int(point["N"]), point["v"], point["w"], point["z"], boundary)


def _failure(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _evaluate_column(key: tuple, temperatures: np.ndarray, spec: SweepSpec) -> list[dict]:
    """Record fields for one spectrum's temperatures; failures become error fields.

    A failed spectrum flags every temperature. A failed column is
    evaluated again one temperature at a time through the same call, so
    exactly the failing temperatures are flagged.
    """
    try:
        spectrum = _spectrum(key)
    except Exception as exc:  # degrade to flagged records, never abort the sweep
        return [_failure(exc)] * len(temperatures)
    try:
        return _evaluate(spectrum, temperatures, spec)
    except Exception:
        pass
    rows = []
    for index in range(len(temperatures)):
        try:
            rows.extend(_evaluate(spectrum, temperatures[index : index + 1], spec))
        except Exception as exc:
            rows.append(_failure(exc))
    return rows


def grid_points(spec: SweepSpec) -> list[dict]:
    """All parameter combinations in row-major axis order."""
    names = [name for name, _ in spec.axes]
    grids = [grid for _, grid in spec.axes]
    points = []
    for combination in itertools.product(*grids):
        point = dict(spec.fixed)
        point.update(zip(names, combination))
        points.append(point)
    return points


def run_sweep(spec: SweepSpec) -> list[ResultRecord]:
    """Evaluate every grid point, one spectrum at a time."""
    spec.validate()
    points = grid_points(spec)
    columns: dict[tuple, list[int]] = {}
    for index, point in enumerate(points):
        columns.setdefault(_spectrum_key(point, spec.boundary), []).append(index)
    records: list[ResultRecord | None] = [None] * len(points)
    for key, indices in columns.items():
        temperatures = np.array([float(points[index]["T"]) for index in indices])
        for index, fields in zip(indices, _evaluate_column(key, temperatures, spec)):
            point = points[index]
            records[index] = ResultRecord(
                temperature=float(point["T"]),
                v=float(point["v"]),
                w=float(point["w"]),
                z=float(point["z"]),
                n_cells=int(point["N"]),
                boundary=spec.boundary,
                **fields,
            )
    return records


def _quantity_value(record: ResultRecord, quantity: str, mode: str | None):
    if record.error is not None:
        return None
    if quantity == "i_p":
        return record.i_p
    if quantity == "purity":
        return record.purity
    if quantity == "entropy":
        return record.entropy
    if quantity in ("P", "magnitude"):
        if not record.polarization:
            return None
        if mode is None:
            if len(record.polarization) > 1:
                raise ValueError("record holds several polarization modes, pass mode=")
            result: PolarizationResult = next(iter(record.polarization.values()))
        else:
            if mode not in record.polarization:
                return None
            result = record.polarization[mode]
        return result.polarization if quantity == "P" else result.magnitude
    raise ValueError(f"unknown quantity {quantity!r}")


def locate_extremum(
    records: list[ResultRecord],
    quantity: str,
    objective: str = "max",
    mode: str | None = None,
) -> tuple[ResultRecord, float]:
    """First record (in sweep order) attaining the min or max of a quantity."""
    if not records:
        raise ValueError("no records given")
    if objective not in ("min", "max"):
        raise ValueError(f"objective must be 'min' or 'max', got {objective!r}")
    best_record = None
    best_value = None
    for record in records:
        value = _quantity_value(record, quantity, mode)
        if value is None:
            raise ValueError(f"quantity {quantity!r} absent from a record")
        better = (
            best_value is None
            or (objective == "max" and value > best_value)
            or (objective == "min" and value < best_value)
        )
        if better:
            best_record, best_value = record, value
    return best_record, float(best_value)
