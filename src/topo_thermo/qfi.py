"""Quantum Fisher information: pair weights and the interferometric power.

With weights l_n and the matrix elements g_mn of a generator G between
eigenstates, every QFI is one spectral sum (Hauke, Heyl, Tagliacozzo,
Zoller, Nat. Phys. 12, 778 (2016)):

  M[G, H] = (1/2) sum_{m,n} pw_mn Re(g_mn conj h_mn),
  pw_mn   = (l_m - l_n)^2 / (l_m + l_n).

F[rho, G] = M[G, G] has the plain variance <G^2> - <G>^2 as its
pure-state limit (one quarter of the conventional QFI). The Bloch and
chiral engines evaluate the 3x3 matrix over the sublattice Pauli
generators I_cells (x) sigma_l in their own bases, with pair_weights;
the dense sum, as written, and a fidelity-decay check of it are their
oracle in `tests/dense_engine.py`. That matrix is real symmetric
positive semidefinite; its minimum eigenvalue is the interferometric
power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Pairs with l_m + l_n below this are skipped; the induced error is
# bounded by (skipped pair count) * PAIR_WEIGHT_CUTOFF because
# (l_m - l_n)^2/(l_m + l_n) <= l_m + l_n.
PAIR_WEIGHT_CUTOFF = 1e-12

MATRIX_SYMMETRY_TOL = 1e-10
MATRIX_PSD_TOL = 1e-10


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
