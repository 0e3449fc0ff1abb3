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
               is block-cyclic bidiagonal with 2x2 blocks, and at mu = 0
               its determinant is the closed form
               2 prod det F(k_j) + s tr[F(k_{N-1})^2 ... F(k_0)^2],
               s = (-1)^(N+1): a real trace of N ordered 2x2 matrices;
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
    _per_temperature,
)
from .qfi import pair_weights
from .thermal import _require_finite_energies, fermi_occupations


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
    """Bands of a periodic ring; rejects open chains and bands that overflow float64."""
    if params.boundary != PERIODIC:
        raise ValueError(f"the Bloch engine needs a periodic ring, got {params.boundary!r}")
    n = params.n_cells
    # k_j folded into (-pi, pi], so a(-k) = conj(a(k)) holds bit for bit and
    # the k, -k levels are exactly degenerate, as they are in the model.
    cells = np.arange(n)
    k = (2.0 * np.pi / n) * np.where(cells <= n // 2, cells, cells - n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises just below
        coupling = (
            params.v + (params.w + params.z) * np.cos(k) + 1j * (params.z - params.w) * np.sin(k)
        )
        magnitude = np.abs(coupling)
    _require_finite_energies(magnitude)
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


def _ordered_product(m: np.ndarray) -> np.ndarray:
    """Re p of Q_{N-1} ... Q_0, Q_j = [[p_j, q_j], [conj q_j, conj p_j]] along the last axis.

    Products of matrices of this form keep it, so one is held as the real
    arrays m = (Re p, Im p, Re q, Im q). Neighbors are multiplied
    pairwise, later k on the left, in log2(N) passes; an odd one out
    stays last. Every pass is elementwise real arithmetic, so each row is
    bitwise the same however many rows share the call.
    """
    while m.shape[-1] > 1:
        paired = m.shape[-1] // 2 * 2
        (lpr, lpi, lqr, lqi), (rpr, rpi, rqr, rqi) = m[..., 1:paired:2], m[..., 0:paired:2]
        # p' = lp rp + lq conj(rq), q' = lp rq + lq conj(rp)
        products = np.stack([
            lpr * rpr - lpi * rpi + lqr * rqr + lqi * rqi,
            lpr * rpi + lpi * rpr + lqi * rqr - lqr * rqi,
            lpr * rqr - lpi * rqi + lqr * rpr + lqi * rpi,
            lpr * rqi + lpi * rqr + lqi * rpr - lqr * rpi,
        ])
        m = np.concatenate([products, m[..., paired:]], axis=-1)
    return m[0, ..., 0]


def bloch_polarization_determinant(
    spectrum: BlochSpectrum,
    temperature,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Determinant-mode polarization of a ring, in O(N) per temperature.

    Same quantity, background phase and branch rule as
    polarization.thermal_polarization_determinant with
    X = position_phase_operator(N). Row block j of M = (1 - F) + F U is
    A_j y_j + B_j y_{j-1 mod N} with A_j = 1 - F_j, B_j = F_j, F_j = F(k_j)
    the 2x2 Fermi operator at mu = 0. For invertible A_j,
    det M = prod det A_j det(1 + s P) with P = prod A_j^-1 B_j and
    s = (-1)^(N+1), and det(1 + s P) = 1 + s tr P + det P for 2x2 P. As a
    polynomial identity this holds for every A_j:

      det M = prod det A_j + prod det B_j + s tr[adj(A_{N-1}) B_{N-1} ... adj(A_0) B_0].

    With t_j = f_-(k_j) - f_+(k_j) and h_j = [[0, e^(i phi_j)], [e^(-i phi_j), 0]],
    F_j = (1 - t_j h_j) / 2. tr F_j = 1 gives adj(1 - F_j) = F_j, and
    det(1 - F_j) = det F_j = (1 - t_j^2) / 4,
    F_j^2 = (1 + t_j^2) / 2 * (1 - r_j h_j) / 2 with r_j = 2 t_j / (1 + t_j^2):

      det M = 2 prod (1 - t_j^2) / 4
              + s prod (1 + t_j^2) / 2 * tr[(1 - r_{N-1} h_{N-1}) / 2 ... (1 - r_0 h_0) / 2].

    Nothing inverts 1 - F, which is singular in float64 at low T, and every
    factor has norm <= 1. At T = 0 with a gap (1 - h_j) / 2 projects on the
    lower band, and the trace is the occupied-band Wilson loop. t comes
    from fermi_occupations, so T = 0 follows its step rule. An array of
    temperatures gives one result of arrays with an entry per temperature,
    all evaluated together.
    """
    n = spectrum.n_cells
    occupations = fermi_occupations(spectrum, temperature)
    lower, upper = spectrum.bands(np.atleast_2d(occupations))
    t = lower - upper
    t2 = t * t
    r = 2.0 * t / (1.0 + t2)
    q = -0.5 * r * np.exp(1j * np.angle(spectrum.coupling))
    factors = np.stack([np.full_like(r, 0.5), np.zeros_like(r), q.real, q.imag])
    sign = 1.0 if n % 2 else -1.0
    dets = 2.0 * np.prod(0.25 * (1.0 - t2), axis=-1)
    dets += sign * np.prod(0.5 * (1.0 + t2), axis=-1) * 2.0 * _ordered_product(factors)
    delta = 2.0 * np.pi / n
    return _per_temperature(_determinant_result(dets, n, delta, magnitude_cutoff), temperature)


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
    return _make_result(np.zeros(1, dtype=complex), np.zeros(1), mode, magnitude_cutoff).row(0)
