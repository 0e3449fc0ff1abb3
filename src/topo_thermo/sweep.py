"""Cartesian parameter sweeps with deterministic ordering.

Grid points are pure functions of their parameters, so records are
byte-identical for any worker count. Each unique (v, w, z, N, boundary)
gets one model, shared across temperatures, and each boundary has one
evaluation path: periodic rings use the Bloch engine (bloch.py, O(N) per
spectrum and point), open chains the dense eigendecomposition with
eigenbasis-rotated generators. Per-point failures are captured in the
record's error field instead of aborting the sweep.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bloch import (
    bloch_polarization_determinant,
    bloch_polarization_vanishing,
    bloch_qfi_matrix,
    bloch_spectrum,
)
from .lattice import (
    BOUNDARIES,
    PERIODIC,
    ModelParams,
    build_hamiltonian,
    position_phase_operator,
)
from .polarization import (
    DEFAULT_MAGNITUDE_CUTOFF,
    MODE_DETERMINANT,
    MODE_LITERAL,
    MODE_WEIGHTED,
    PolarizationResult,
    thermal_polarization_determinant,
    thermal_polarization_literal,
    thermal_polarization_weighted,
)
from .qfi import interferometric_power, qfi_matrix_from_weights, transformed_paulis
from .thermal import diagonalize, ensemble_diagnostics, gibbs_weights

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


_POLARIZATION_DISPATCH = {
    MODE_LITERAL: thermal_polarization_literal,
    MODE_WEIGHTED: thermal_polarization_weighted,
}


class _DenseModel:
    """Open chain: dense eigendecomposition of the real-space Hamiltonian."""

    def __init__(self, params: ModelParams, need_paulis: bool):
        self.spectrum = diagonalize(build_hamiltonian(params))
        self.x_operator = position_phase_operator(params.n_cells)
        self.paulis = transformed_paulis(self.spectrum) if need_paulis else None

    def qfi_matrix(self, weights: np.ndarray) -> np.ndarray:
        return qfi_matrix_from_weights(weights, self.paulis)

    def polarization(self, mode: str, temperature: float, ensemble, cutoff: float):
        if mode == MODE_DETERMINANT:
            return thermal_polarization_determinant(
                self.spectrum, temperature, self.x_operator, magnitude_cutoff=cutoff
            )
        return _POLARIZATION_DISPATCH[mode](ensemble, self.x_operator, magnitude_cutoff=cutoff)


class _BlochModel:
    """Periodic ring: one 2x2 Bloch Hamiltonian per crystal momentum."""

    def __init__(self, params: ModelParams):
        self.spectrum = bloch_spectrum(params)

    def qfi_matrix(self, weights: np.ndarray) -> np.ndarray:
        return bloch_qfi_matrix(self.spectrum, weights)

    def polarization(self, mode: str, temperature: float, ensemble, cutoff: float):
        if mode == MODE_DETERMINANT:
            return bloch_polarization_determinant(self.spectrum, temperature, cutoff)
        return bloch_polarization_vanishing(mode, cutoff)


def _model_key(point: dict, boundary: str) -> tuple:
    return (int(point["N"]), point["v"], point["w"], point["z"], boundary)


def _build_model(key: tuple, need_paulis: bool) -> _DenseModel | _BlochModel:
    n_cells, v, w, z, boundary = key
    params = ModelParams(n_cells=n_cells, v=v, w=w, z=z, boundary=boundary)
    if boundary == PERIODIC:
        return _BlochModel(params)
    return _DenseModel(params, need_paulis)


def _evaluate_point(point: dict, spec: SweepSpec, model: _DenseModel | _BlochModel) -> ResultRecord:
    record = ResultRecord(
        temperature=float(point["T"]),
        v=float(point["v"]),
        w=float(point["w"]),
        z=float(point["z"]),
        n_cells=int(point["N"]),
        boundary=spec.boundary,
    )
    temperature = float(point["T"])
    need_qfi = (
        QUANTITY_QFI_MATRIX in spec.quantities
        or QUANTITY_INTERFEROMETRIC_POWER in spec.quantities
    )
    need_ensemble = (
        need_qfi
        or QUANTITY_DIAGNOSTICS in spec.quantities
        or any(mode in (MODE_LITERAL, MODE_WEIGHTED) for mode in spec.polarization_modes)
    )
    try:
        ensemble = gibbs_weights(model.spectrum, temperature) if need_ensemble else None
        if QUANTITY_POLARIZATION in spec.quantities:
            for mode in spec.polarization_modes:
                record.polarization[mode] = model.polarization(
                    mode, temperature, ensemble, spec.magnitude_cutoff
                )
        if need_qfi:
            matrix = model.qfi_matrix(ensemble.weights)
            if QUANTITY_QFI_MATRIX in spec.quantities:
                record.qfi = matrix
            if QUANTITY_INTERFEROMETRIC_POWER in spec.quantities:
                report = interferometric_power(matrix)
                record.i_p = report.i_p
                record.optimal_direction = report.optimal_direction
        if QUANTITY_DIAGNOSTICS in spec.quantities:
            diagnostics = ensemble_diagnostics(ensemble)
            record.purity = diagnostics.purity
            record.entropy = diagnostics.entropy
    except Exception as exc:  # degrade to a flagged record, never abort the sweep
        record.polarization = {}
        record.qfi = None
        record.i_p = None
        record.optimal_direction = None
        record.purity = None
        record.entropy = None
        record.error = f"{type(exc).__name__}: {exc}"
    return record


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


def run_sweep(spec: SweepSpec, worker_count: int = 1) -> list[ResultRecord]:
    """Evaluate every grid point; output is independent of worker_count."""
    spec.validate()
    if worker_count < 1:
        raise ValueError(f"worker_count must be >= 1, got {worker_count}")
    points = grid_points(spec)
    need_paulis = (
        QUANTITY_QFI_MATRIX in spec.quantities
        or QUANTITY_INTERFEROMETRIC_POWER in spec.quantities
    )
    keys = []
    for point in points:
        key = _model_key(point, spec.boundary)
        if key not in keys:
            keys.append(key)

    models: dict[tuple, _DenseModel | _BlochModel | str] = {}

    def build(key):
        try:
            return key, _build_model(key, need_paulis)
        except Exception as exc:
            return key, f"{type(exc).__name__}: {exc}"

    if worker_count == 1 or len(keys) == 1:
        built = [build(key) for key in keys]
    else:
        with ThreadPoolExecutor(max_workers=worker_count) as pool:
            built = list(pool.map(build, keys))
    models.update(built)

    def evaluate(point):
        model = models[_model_key(point, spec.boundary)]
        if isinstance(model, str):
            return ResultRecord(
                temperature=float(point["T"]),
                v=float(point["v"]),
                w=float(point["w"]),
                z=float(point["z"]),
                n_cells=int(point["N"]),
                boundary=spec.boundary,
                error=model,
            )
        return _evaluate_point(point, spec, model)

    if worker_count == 1 or len(points) == 1:
        return [evaluate(point) for point in points]
    with ThreadPoolExecutor(max_workers=worker_count) as pool:
        return list(pool.map(evaluate, points))


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
