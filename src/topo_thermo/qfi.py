"""Quantum Fisher information over spectral ensembles, computed as written.

With eigenvectors V, weights l_n and the matrix elements g_mn = (V^dagger G V)_mn
of a generator G, every QFI here is one spectral sum (Hauke, Heyl,
Tagliacozzo, Zoller, Nat. Phys. 12, 778 (2016)):

  M[G, H] = (1/2) sum_{m,n} pw_mn Re(g_mn conj h_mn),
  pw_mn   = (l_m - l_n)^2 / (l_m + l_n).

F[rho, G] = M[G, G] has the plain variance <G^2> - <G>^2 as its
pure-state limit (one quarter of the conventional QFI). qfi_scalar takes
any Hermitian G; qfi_matrix takes the sublattice Pauli generators
I_cells (x) sigma_l, built with np.kron, and is the dense oracle of the
Bloch and chiral engines. That 3x3 matrix is real symmetric positive
semidefinite; its minimum eigenvalue is the interferometric power.

qfi_fidelity_oracle checks qfi_scalar by another route, the decay of the
Uhlmann fidelity under a small rotation exp(-i G dtheta) (Zanardi,
Campos Venuti, Giorda, Phys. Rev. A 76, 062318 (2007)): sqrt(rho) comes
from the ensemble's spectral form, and the root fidelity is the sum of
the singular values of sqrt(rho) sqrt(sigma).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    either way. The weights are not checked here: every QFI path reads
    them from a GibbsEnsemble, which refuses negative weights when built.
    """
    total = np.add(left, right)
    diff = np.subtract(left, right, out=out)
    diff *= diff
    empty = total < PAIR_WEIGHT_CUTOFF
    np.putmask(diff, empty, 0.0)
    np.putmask(total, empty, 1.0)
    diff /= total
    return diff


def sublattice_paulis(n_cells: int) -> tuple:
    """The generators I_cells (x) sigma_l for l = x, y, z as dense 2N x 2N matrices."""
    paulis = ([[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]], [[1.0, 0.0], [0.0, -1.0]])
    return tuple(np.kron(np.eye(n_cells), block) for block in paulis)


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


def _eigenbasis(spectrum: Spectrum, generator: np.ndarray) -> np.ndarray:
    """V^dagger G V: the generator's matrix elements g_mn between eigenstates."""
    vectors = spectrum.vectors
    return vectors.conj().T @ generator @ vectors


def _spectral_sum(weights: np.ndarray, pairs) -> list:
    """(1/2) sum_mn pw_mn Re(g_mn conj h_mn) for each (g, h) in `pairs`, over one weight row."""
    pair = pair_weights(weights[:, None], weights[None, :])
    return [float(0.5 * np.sum(pair * (g.real * h.real + g.imag * h.imag))) for g, h in pairs]


def qfi_scalar(ensemble: GibbsEnsemble, generator) -> float:
    """QFI of one Hermitian generator against a Gibbs ensemble."""
    g = _eigenbasis(ensemble.spectrum, _generator_matrix(generator, ensemble.dimension))
    return _spectral_sum(ensemble.weights, [(g, g)])[0]


def qfi_matrix(ensemble: GibbsEnsemble) -> np.ndarray:
    """3x3 QFI matrix M_kl = (1/2) sum_mn pw_mn Re(g_k,mn conj g_l,mn) over I_cells (x) sigma_l.

    A batched ensemble, weights (n_T, 2N), gives (n_T, 3, 3). With real
    eigenvectors g_x and g_z are real and g_y imaginary, so M_xy and M_yz
    vanish term by term and are left at exactly 0.
    """
    if ensemble.dimension % 2 != 0:
        raise ValueError("ensemble dimension must be even (two sublattices per cell)")
    if np.iscomplexobj(ensemble.spectrum.vectors):
        raise ValueError("the QFI matrix needs real eigenvectors")
    g_x, g_y, g_z = (
        _eigenbasis(ensemble.spectrum, generator)
        for generator in sublattice_paulis(ensemble.dimension // 2)
    )
    rows = np.atleast_2d(ensemble.weights)
    matrices = np.zeros((rows.shape[0], 3, 3))
    for matrix, row in zip(matrices, rows):
        xx, yy, zz, xz = _spectral_sum(row, [(g_x, g_x), (g_y, g_y), (g_z, g_z), (g_x, g_z)])
        matrix[np.diag_indices(3)] = xx, yy, zz
        matrix[0, 2] = matrix[2, 0] = xz
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


def qfi_fidelity_oracle(ensemble: GibbsEnsemble, generator, dtheta: float) -> float:
    """Finite-difference QFI from the Bures fidelity decay.

    Evolves rho by U = exp(-i A dtheta) and returns 2 (1 - sqrt(F)) / dtheta^2,
    already rescaled to the variance normalization used by qfi_scalar.
    sqrt(rho) = V diag(sqrt(lambda)) V^dagger is read from the ensemble's
    own spectral form, the evolved state's root is U sqrt(rho) U^dagger,
    and the root fidelity sqrt(F) = Tr|sqrt(rho) sqrt(sigma)| is the sum
    of the singular values of their product (Uhlmann), with no clipping
    and no eigendecomposition of a rounded state. Dense route, intended as
    an independent cross-check for dimension <= 64.
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
    root = (vectors * np.sqrt(ensemble.weights)) @ vectors.conj().T
    gen_values, gen_basis = np.linalg.eigh(matrix)
    evolution = (gen_basis * np.exp(-1j * gen_values * dtheta)) @ gen_basis.conj().T
    root_evolved = evolution @ root @ evolution.conj().T
    root_fidelity = np.linalg.svd(root @ root_evolved, compute_uv=False).sum()
    return float(2.0 * (1.0 - root_fidelity) / dtheta**2)
