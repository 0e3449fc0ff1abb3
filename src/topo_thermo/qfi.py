"""Quantum Fisher information over spectral ensembles.

Normalization: F[rho, A] = (1/2) sum_{m,n} (l_m - l_n)^2 / (l_m + l_n)
|<n|A|m>|^2, whose pure-state limit is the plain variance <A^2> - <A>^2
(one quarter of the conventional QFI). The 3x3 matrix over the sublattice
Pauli generators I_cells (x) sigma_l is real symmetric positive
semidefinite; its minimum eigenvalue is the interferometric power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import PauliObservable, pauli_observable
from .thermal import GibbsEnsemble, Spectrum

# Pairs with l_m + l_n below this are skipped; the induced error is
# bounded by (skipped pair count) * PAIR_WEIGHT_CUTOFF because
# (l_m - l_n)^2/(l_m + l_n) <= l_m + l_n.
PAIR_WEIGHT_CUTOFF = 1e-12

MATRIX_SYMMETRY_TOL = 1e-10
MATRIX_PSD_TOL = 1e-10
IMAG_CANCELLATION_TOL = 1e-10

GENERATOR_AXES = ("x", "y", "z")

ORACLE_MAX_DIMENSION = 64
ORACLE_STEP_RANGE = (1e-6, 1e-2)


@dataclass(frozen=True)
class QfiReport:
    """Interferometric power with its optimizing generator direction."""

    matrix: np.ndarray = field(repr=False)
    i_p: float
    optimal_direction: np.ndarray = field(repr=False)
    max_eigenvalue: float


def pair_weights(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Elementwise (l_m - l_n)^2 / (l_m + l_n) with near-empty pairs zeroed."""
    if np.any(left < 0.0) or np.any(right < 0.0):
        raise ValueError("ensemble weights must be nonnegative")
    total = left + right
    diff = left - right
    safe = np.where(total > 0.0, total, 1.0)
    return np.where(total >= PAIR_WEIGHT_CUTOFF, diff * diff / safe, 0.0)


def pair_weight_matrix(weights: np.ndarray) -> np.ndarray:
    """pair_weights over all (m, n) pairs of one ensemble."""
    return pair_weights(weights[:, None], weights[None, :])


def _generator_matrix(generator) -> np.ndarray:
    matrix = generator.matrix if isinstance(generator, PauliObservable) else np.asarray(generator)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"generator must be a square matrix, got shape {matrix.shape}")
    return matrix


def qfi_scalar(ensemble: GibbsEnsemble, generator) -> float:
    """QFI of one Hermitian generator against a Gibbs ensemble."""
    matrix = _generator_matrix(generator)
    if matrix.shape[0] != ensemble.dimension:
        raise ValueError(
            f"generator dimension {matrix.shape[0]} does not match "
            f"ensemble dimension {ensemble.dimension}"
        )
    vectors = ensemble.spectrum.vectors
    transformed = vectors.conj().T @ matrix @ vectors
    pair_weights = pair_weight_matrix(ensemble.weights)
    return float(0.5 * np.sum(pair_weights * np.abs(transformed) ** 2))


def transformed_paulis(spectrum: Spectrum) -> dict[str, np.ndarray]:
    """All three Pauli generators rotated into the eigenbasis.

    Precompute once per spectrum when evaluating many temperatures.
    """
    n_cells = spectrum.dimension // 2
    vectors = spectrum.vectors
    return {
        axis: vectors.conj().T @ pauli_observable(axis, n_cells).matrix @ vectors
        for axis in GENERATOR_AXES
    }


def qfi_matrix_from_weights(weights: np.ndarray, transformed: dict[str, np.ndarray]) -> np.ndarray:
    """QFI matrix from precomputed eigenbasis generators."""
    pair_weights = pair_weight_matrix(weights)
    matrix = np.zeros((3, 3))
    for i, axis_i in enumerate(GENERATOR_AXES):
        for j in range(i, 3):
            axis_j = GENERATOR_AXES[j]
            entry = 0.5 * np.sum(pair_weights * transformed[axis_i] * np.conj(transformed[axis_j]))
            if abs(entry.imag) > IMAG_CANCELLATION_TOL:
                raise ArithmeticError(
                    f"imaginary part {entry.imag:.3e} of M[{axis_i},{axis_j}] did not cancel"
                )
            matrix[i, j] = matrix[j, i] = entry.real
    return matrix


def qfi_matrix(ensemble: GibbsEnsemble) -> np.ndarray:
    """3x3 QFI matrix over the sublattice Pauli generators."""
    if ensemble.dimension % 2 != 0:
        raise ValueError("ensemble dimension must be even (two sublattices per cell)")
    return qfi_matrix_from_weights(ensemble.weights, transformed_paulis(ensemble.spectrum))


def interferometric_power(matrix: np.ndarray) -> QfiReport:
    """Minimum eigenvalue of the QFI matrix and its generator direction.

    Eigenvalues within -1e-10 of zero are clamped to zero; anything more
    negative indicates a defective matrix and raises. The direction sign
    is fixed so its first nonzero component is positive.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {matrix.shape}")
    asym = np.abs(matrix - matrix.T).max()
    if asym > MATRIX_SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric: max |M - M^T| = {asym:.3e}")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    smallest = float(eigenvalues[0])
    if smallest < -MATRIX_PSD_TOL:
        raise ArithmeticError(f"QFI matrix has negative eigenvalue {smallest:.3e}")
    direction = eigenvectors[:, 0].copy()
    for component in direction:
        if abs(component) > 1e-12:
            if component < 0.0:
                direction = -direction
            break
    return QfiReport(
        matrix=matrix,
        i_p=max(smallest, 0.0),
        optimal_direction=direction,
        max_eigenvalue=float(eigenvalues[-1]),
    )


def _bures_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    values, basis = np.linalg.eigh(rho)
    sqrt_rho = (basis * np.sqrt(np.clip(values, 0.0, None))) @ basis.conj().T
    inner = np.linalg.eigvalsh(sqrt_rho @ sigma @ sqrt_rho)
    return float(np.sum(np.sqrt(np.clip(inner, 0.0, None))) ** 2)


def qfi_fidelity_oracle(ensemble: GibbsEnsemble, generator, dtheta: float) -> float:
    """Finite-difference QFI from the Bures fidelity decay.

    Evolves rho by exp(-i A dtheta) and returns 2 (1 - sqrt(fid)) / dtheta^2,
    already rescaled to the variance normalization used by qfi_scalar.
    Dense route, intended as an independent cross-check for dimension <= 64.
    """
    low, high = ORACLE_STEP_RANGE
    if not (low <= dtheta <= high):
        raise ValueError(f"dtheta must lie in [{low}, {high}], got {dtheta}")
    if ensemble.dimension > ORACLE_MAX_DIMENSION:
        raise ValueError(
            f"oracle limited to dimension {ORACLE_MAX_DIMENSION}, got {ensemble.dimension}"
        )
    matrix = _generator_matrix(generator)
    if matrix.shape[0] != ensemble.dimension:
        raise ValueError(
            f"generator dimension {matrix.shape[0]} does not match "
            f"ensemble dimension {ensemble.dimension}"
        )
    vectors = ensemble.spectrum.vectors
    rho = (vectors * ensemble.weights) @ vectors.conj().T
    gen_values, gen_basis = np.linalg.eigh(matrix)
    evolution = (gen_basis * np.exp(-1j * gen_values * dtheta)) @ gen_basis.conj().T
    rho_evolved = evolution @ rho @ evolution.conj().T
    fidelity = _bures_fidelity(rho, rho_evolved)
    return 2.0 * (1.0 - np.sqrt(fidelity)) / dtheta**2
