"""Quantum Fisher information over spectral ensembles.

Normalization: F[rho, A] = (1/2) sum_{m,n} (l_m - l_n)^2 / (l_m + l_n)
|<n|A|m>|^2, whose pure-state limit is the plain variance <A^2> - <A>^2
(one quarter of the conventional QFI). The 3x3 matrix over the sublattice
Pauli generators I_cells (x) sigma_l is real symmetric positive
semidefinite; its minimum eigenvalue is the interferometric power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .thermal import GibbsEnsemble, Spectrum

# Pairs with l_m + l_n below this are skipped; the induced error is
# bounded by (skipped pair count) * PAIR_WEIGHT_CUTOFF because
# (l_m - l_n)^2/(l_m + l_n) <= l_m + l_n.
PAIR_WEIGHT_CUTOFF = 1e-12

MATRIX_SYMMETRY_TOL = 1e-10
MATRIX_PSD_TOL = 1e-10

ORACLE_MAX_DIMENSION = 64
ORACLE_STEP_RANGE = (1e-6, 1e-2)


@dataclass(frozen=True)
class QfiReport:
    """Interferometric power with its optimizing generator direction.

    Floats and a 3-vector for one matrix; arrays with a leading per-matrix
    axis for a stack.
    """

    matrix: np.ndarray = field(repr=False)
    i_p: float | np.ndarray
    optimal_direction: np.ndarray = field(repr=False)
    max_eigenvalue: float | np.ndarray


def pair_weights(left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise (l_m - l_n)^2 / (l_m + l_n) with near-empty pairs zeroed.

    `left` and `right` broadcast against each other. The result goes into
    `out` when given, a float array of the broadcast shape that a caller
    can reuse from call to call, and is returned; the values are the same
    either way.
    """
    if np.any(left < 0.0) or np.any(right < 0.0):
        raise ValueError("ensemble weights must be nonnegative")
    total = np.add(left, right)
    diff = np.subtract(left, right, out=out)
    diff *= diff
    empty = total < PAIR_WEIGHT_CUTOFF
    np.putmask(diff, empty, 0.0)
    np.putmask(total, empty, 1.0)
    diff /= total
    return diff


def pair_weight_matrix(weights: np.ndarray) -> np.ndarray:
    """pair_weights over all (m, n) pairs of one ensemble."""
    return pair_weights(weights[:, None], weights[None, :])


def _generator_matrix(generator, dimension: int) -> np.ndarray:
    """The generator as a square matrix of an ensemble's dimension; anything else raises."""
    matrix = np.asarray(generator)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"generator must be a square matrix, got shape {matrix.shape}")
    if matrix.shape[0] != dimension:
        raise ValueError(
            f"generator dimension {matrix.shape[0]} does not match ensemble dimension {dimension}"
        )
    return matrix


def qfi_scalar(ensemble: GibbsEnsemble, generator) -> float:
    """QFI of one Hermitian generator against a Gibbs ensemble."""
    matrix = _generator_matrix(generator, ensemble.dimension)
    vectors = ensemble.spectrum.vectors
    transformed = vectors.conj().T @ matrix @ vectors
    pair_weights = pair_weight_matrix(ensemble.weights)
    return float(0.5 * np.sum(pair_weights * np.abs(transformed) ** 2))


class EigenbasisPaulis(NamedTuple):
    """I_cells (x) sigma_l rotated into a real eigenbasis, stored as real arrays.

    g_x = x and g_z = z are real symmetric; g_y = 1j * y_imag with y_imag
    real antisymmetric.
    """

    x: np.ndarray
    y_imag: np.ndarray
    z: np.ndarray


def transformed_paulis(spectrum: Spectrum) -> EigenbasisPaulis:
    """All three Pauli generators rotated into the eigenbasis.

    With the sublattice rows A = V[0::2] and B = V[1::2] of the real
    eigenvectors, V^T (I (x) sigma_l) V is A^T B + B^T A for x,
    1j (B^T A - A^T B) for y and A^T A - B^T B for z: real products, no
    2N x 2N Kronecker matrix.
    """
    vectors = np.asarray(spectrum.vectors)
    if np.iscomplexobj(vectors):
        raise ValueError("the real-block Pauli rotation needs real eigenvectors")
    if vectors.shape[0] % 2 != 0:
        raise ValueError("dimension must be even (two sublattices per cell)")
    a, b = vectors[0::2], vectors[1::2]
    a_b = a.T @ b
    return EigenbasisPaulis(x=a_b + a_b.T, y_imag=a_b.T - a_b, z=a.T @ a - b.T @ b)


def qfi_matrix(ensemble: GibbsEnsemble) -> np.ndarray:
    """3x3 QFI matrix over the sublattice Pauli generators.

    A batched ensemble, weights (n_T, 2N), gives (n_T, 3, 3). M_xy and
    M_yz are exactly 0: g_x and g_z are real and g_y imaginary, so
    Re(g_x conj(g_y)) vanishes term by term.
    """
    if ensemble.dimension % 2 != 0:
        raise ValueError("ensemble dimension must be even (two sublattices per cell)")
    paulis = transformed_paulis(ensemble.spectrum)
    rows = np.atleast_2d(ensemble.weights)
    matrices = np.zeros((rows.shape[0], 3, 3))
    for matrix, row in zip(matrices, rows):
        pair = pair_weight_matrix(row)
        pair_x = pair * paulis.x
        matrix[0, 0] = 0.5 * np.sum(pair_x * paulis.x)
        matrix[0, 2] = matrix[2, 0] = 0.5 * np.sum(pair_x * paulis.z)
        matrix[1, 1] = 0.5 * np.sum(pair * paulis.y_imag * paulis.y_imag)
        matrix[2, 2] = 0.5 * np.sum(pair * paulis.z * paulis.z)
    return matrices if ensemble.weights.ndim == 2 else matrices[0]


def interferometric_power(matrix: np.ndarray) -> QfiReport:
    """Minimum eigenvalue of the QFI matrix and its generator direction.

    Eigenvalues within -1e-10 of zero are clamped to zero; anything more
    negative indicates a defective matrix and raises. The direction sign
    is fixed so its first component above 1e-12 in magnitude is positive.
    A stack of matrices (n, 3, 3) goes through one batched eigh, with the
    checks applied to every matrix; the report then holds arrays with one
    entry per matrix.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim not in (2, 3) or matrix.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix or a stack of them, got shape {matrix.shape}")
    stack = matrix.reshape(-1, 3, 3)
    asym = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
    if np.any(asym > MATRIX_SYMMETRY_TOL):
        raise ValueError(f"matrix is not symmetric: max |M - M^T| = {asym.max():.3e}")
    eigenvalues, eigenvectors = np.linalg.eigh(stack)
    smallest = eigenvalues[:, 0]
    if np.any(smallest < -MATRIX_PSD_TOL):
        raise ArithmeticError(f"QFI matrix has negative eigenvalue {smallest.min():.3e}")
    directions = eigenvectors[:, :, 0]
    significant = np.abs(directions) > 1e-12
    leading = directions[np.arange(len(stack)), np.argmax(significant, axis=1)]
    flip = significant.any(axis=1) & (leading < 0.0)
    directions = np.where(flip[:, None], -directions, directions)
    i_p = np.maximum(smallest, 0.0)
    if matrix.ndim == 2:
        return QfiReport(matrix, float(i_p[0]), directions[0], float(eigenvalues[0, -1]))
    return QfiReport(matrix, i_p, directions, eigenvalues[:, -1])


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
    matrix = _generator_matrix(generator, ensemble.dimension)
    vectors = ensemble.spectrum.vectors
    rho = (vectors * ensemble.weights) @ vectors.conj().T
    gen_values, gen_basis = np.linalg.eigh(matrix)
    evolution = (gen_basis * np.exp(-1j * gen_values * dtheta)) @ gen_basis.conj().T
    rho_evolved = evolution @ rho @ evolution.conj().T
    fidelity = _bures_fidelity(rho, rho_evolved)
    return 2.0 * (1.0 - np.sqrt(fidelity)) / dtheta**2
