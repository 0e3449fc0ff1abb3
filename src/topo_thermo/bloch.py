"""Bloch (k-space) engine for periodic rings.

A periodic N-cell ring is translation invariant. In the Bloch basis
|k, s> = N^(-1/2) sum_m exp(ikm) |m, s>, k = 2*pi*j/N for j = 0..N-1, the
Hamiltonian is block diagonal with 2x2 blocks

  h(k) = [[0, a(k)], [conj(a(k)), 0]],   a(k) = v + w exp(-ik) + z exp(ik),

which is the convention of lattice.build_hamiltonian, the accumulated
bonds of N = 2 included. The bands are -|a(k)| and +|a(k)| with
eigenvectors u_-(k), u_+(k) = (exp(i phi), -1) / sqrt(2), (exp(i phi), 1) / sqrt(2),
phi = arg a(k). Each quantity the sweep needs then costs O(N):

  QFI          I (x) sigma_l couples only the two bands at the same k;
  determinant  X = exp(i 2 pi x / N) shifts k by 2 pi/N, so (1 - F) + F U
               is block-cyclic bidiagonal, with a banded LU;
  literal,     every Bloch state has <k,b|X|k,b> = 0 exactly.
  weighted

The dense path of the other modules serves open chains and is the oracle
these functions are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import PERIODIC, ModelParams
from .polarization import (
    DEFAULT_MAGNITUDE_CUTOFF,
    MODE_LITERAL,
    MODE_WEIGHTED,
    PolarizationResult,
    _determinant_result,
    _make_result,
)
from .qfi import pair_weights
from .thermal import fermi_occupations, per_temperature

# Block order 0, N-1, 1, N-2, ... puts every cyclic neighbor pair of
# 2x2 blocks at most two blocks apart: five sub- and superdiagonals.
BAND_WIDTH = 5


@dataclass(frozen=True)
class BlochSpectrum:
    """Band structure of one periodic ring.

    `coupling` holds a(k_j). The lower and upper band energies are -|a| and
    +|a|; `energies` lists all 2N of them in ascending order, the form
    gibbs_weights and fermi_occupations read, and `order` maps back:
    energies == concatenate([-|a|, |a|])[order]. `generators` has shape
    (9, N): column j is Re(g_l conj(g_m)) for l, m in x, y, z, flattened,
    with g_l = u_-(k_j)^dagger sigma_l u_+(k_j). Keeping k along the
    contiguous axis lets the QFI sum over k one row at a time.
    """

    n_cells: int
    coupling: np.ndarray = field(repr=False)
    energies: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)
    generators: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return 2 * self.n_cells

    def bands(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-state values in `energies` order, split into (lower, upper) bands.

        Works along the last axis, so rows of per-temperature values split
        row by row.
        """
        values = np.asarray(values)
        if values.shape[-1:] != (self.dimension,):
            raise ValueError(f"expected {self.dimension} per-state values, got shape {values.shape}")
        banded = np.empty_like(values)
        banded[..., self.order] = values
        return banded[..., : self.n_cells], banded[..., self.n_cells :]


def bloch_spectrum(params: ModelParams) -> BlochSpectrum:
    """Bands of a periodic ring; rejects open chains."""
    if params.boundary != PERIODIC:
        raise ValueError(f"the Bloch engine needs a periodic ring, got {params.boundary!r}")
    n = params.n_cells
    # k_j folded into (-pi, pi], so a(-k) = conj(a(k)) holds bit for bit and
    # the k, -k levels are exactly degenerate, as they are in the model.
    cells = np.arange(n)
    k = (2.0 * np.pi / n) * np.where(cells <= n // 2, cells, cells - n)
    coupling = params.v + (params.w + params.z) * np.cos(k) + 1j * (params.z - params.w) * np.sin(k)
    magnitude = np.abs(coupling)
    band_energies = np.concatenate([-magnitude, magnitude])
    order = np.argsort(band_energies, kind="stable")
    # g_x = -i sin(phi), g_y = -i cos(phi), g_z = 1.
    phi = np.angle(coupling)
    sin, cos = np.sin(phi), np.cos(phi)
    zero, one = np.zeros(n), np.ones(n)
    generators = np.stack([sin * sin, sin * cos, zero, sin * cos, cos * cos, zero, zero, zero, one])
    return BlochSpectrum(
        n_cells=n,
        coupling=coupling,
        energies=band_energies[order],
        order=order,
        generators=generators,
    )


def bloch_qfi_matrix(spectrum: BlochSpectrum, weights: np.ndarray) -> np.ndarray:
    """3x3 QFI matrix over I (x) sigma_l from weights in `energies` order.

    Same normalization and pair cutoff as qfi.qfi_matrix. The generators
    connect only the two bands at one k, and the (-, +) and (+, -) pairs
    contribute equally: M = sum_k pw_k Re(g_l conj(g_m)). Weights of shape
    (n_T, 2N) give (n_T, 3, 3); each matrix is a sum along the contiguous
    k axis, so it does not depend on how many temperatures share the call.
    """
    lower, upper = spectrum.bands(weights)
    pair = pair_weights(lower, upper)
    entries = np.sum(pair[..., None, :] * spectrum.generators, axis=-1)
    return entries.reshape(*pair.shape[:-1], 3, 3)


def _band_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions, in LAPACK band storage, of the diagonal and subdiagonal blocks.

    Block j sits at position pos[j] of the order 0, N-1, 1, N-2, ...; its
    diagonal block is (j, j) and its shift block is (j, j-1 mod N). Rows
    and columns move together, so the determinant does not change.
    """
    order = np.empty(n, dtype=int)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = n - 1 - np.arange(n // 2)
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n)
    sub = np.array([0, 1])
    rows = 2 * pos[:, None, None] + sub[None, :, None]
    diag_cols = 2 * pos[:, None, None] + sub[None, None, :]
    shift_cols = 2 * np.roll(pos, 1)[:, None, None] + sub[None, None, :]

    def flat(cols):
        rows_, cols_ = np.broadcast_arrays(rows, cols)
        return ((2 * BAND_WIDTH + rows_ - cols_) * (2 * n) + cols_).ravel()

    return flat(diag_cols), flat(shift_cols)


def bloch_polarization_determinant(
    spectrum: BlochSpectrum,
    temperature,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Determinant-mode polarization of a ring, in O(N).

    Same quantity, background phase and branch rule as
    polarization.thermal_polarization_determinant with
    X = position_phase_operator(N). With F(k) the 2x2 Fermi operator at
    mu = 0, (1 - F) + F U has diagonal blocks 1 - F(k) and blocks F(k + delta)
    one below; its determinant is the product of the pivots of a banded LU
    with partial pivoting, which stays stable where 1 - F(k) is singular
    at low T. An array of temperatures gives a list with one result per
    temperature: their band entries are built together, then each matrix
    is factored in turn.
    """
    from scipy.linalg.lapack import zgbtrf

    n = spectrum.n_cells
    occupations = fermi_occupations(spectrum, temperature)
    lower, upper = spectrum.bands(np.atleast_2d(occupations))
    mean = 0.5 * (lower + upper)
    off = 0.5 * (upper - lower) * np.exp(1j * np.angle(spectrum.coupling))
    fermi = np.empty((len(mean), n, 2, 2), dtype=complex)
    fermi[..., 0, 0] = fermi[..., 1, 1] = mean
    fermi[..., 0, 1] = off
    fermi[..., 1, 0] = off.conj()
    entries = np.concatenate(
        [(np.eye(2) - fermi).reshape(len(mean), -1), fermi.reshape(len(mean), -1)], axis=1
    )
    layout = np.concatenate(_band_layout(n))
    # storage.T is the (16, 2N) band storage in Fortran order, which zgbtrf
    # factors in place, so it is cleared for each temperature; `positions`
    # are the layout's entries in that order.
    positions = (layout % (2 * n)) * (3 * BAND_WIDTH + 1) + layout // (2 * n)
    storage = np.empty((2 * n, 3 * BAND_WIDTH + 1), dtype=complex)
    flat = storage.reshape(-1)
    diagonals = np.empty((len(mean), 2 * n), dtype=complex)
    swaps = np.empty(len(mean), dtype=int)
    for row, values in enumerate(entries):
        flat[:] = 0.0
        flat[positions] = values
        lu, pivots, info = zgbtrf(storage.T, BAND_WIDTH, BAND_WIDTH, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"zgbtrf rejected argument {-info}")
        diagonals[row] = lu[2 * BAND_WIDTH]
        swaps[row] = np.count_nonzero(pivots != np.arange(2 * n))
    dets = np.prod(diagonals, axis=1) * np.where(swaps % 2, -1.0, 1.0)
    delta = 2.0 * np.pi / n
    results = [_determinant_result(det, n, delta, magnitude_cutoff) for det in dets.tolist()]
    return per_temperature(results, temperature)


def bloch_polarization_vanishing(
    mode: str, magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF
) -> PolarizationResult:
    """Literal or weighted polarization of a ring, in the Bloch eigenbasis.

    X maps |k, b> onto momentum k + 2 pi/N, so <k,b|X|k,b> = 0 for every
    Bloch state. Tr[rho X] and every per-state phase magnitude are exactly
    zero, and the result is undefined for any positive cutoff. The dense
    modes return rounding noise here, or, inside degenerate clusters, the
    answer for whatever basis LAPACK picked there.
    """
    if mode not in (MODE_LITERAL, MODE_WEIGHTED):
        raise ValueError(f"mode must be {MODE_LITERAL!r} or {MODE_WEIGHTED!r}, got {mode!r}")
    return _make_result(0j, 0.0, mode, magnitude_cutoff)
