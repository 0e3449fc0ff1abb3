"""Bloch (k-space) engine for periodic rings.

A periodic N-cell ring is translation invariant. In the Bloch basis
|k, s> = N^(-1/2) sum_m exp(ikm) |m, s>, k = 2*pi*j/N for j = 0..N-1, the
Hamiltonian is block diagonal with 2x2 blocks

  h(k) = [[0, a(k)], [conj(a(k)), 0]],   a(k) = v + w exp(-ik) + z exp(ik),

which is the convention of lattice.build_hamiltonian, the accumulated
bonds of N = 2 included. The bands are -|a(k)| and +|a(k)| with
eigenvectors u_-(k), u_+(k) = (exp(i phi), -1) / sqrt(2), (exp(i phi), 1) / sqrt(2),
phi = arg a(k). Each quantity the sweep needs then costs O(N):

  QFI          I (x) sigma_l couples only the two bands at the same k,
               and the 3x3 matrix is diagonal;
  determinant  X = exp(i 2 pi x / N) shifts k by 2 pi/N, so (1 - F) + F U
               is block-cyclic bidiagonal with 2x2 blocks, and at mu = 0
               its determinant is the closed form
               2 prod det F(k_j) + s tr[F(k_{N-1})^2 ... F(k_0)^2],
               s = (-1)^(N+1): a real trace of N ordered 2x2 matrices,
               multiplied pairwise in log2 N passes over complex arrays
               laid out k by temperature;
  literal,     every Bloch state has <k,b|X|k,b> = 0 exactly, and these
  weighted     per-state values go through polarization_from_states, the
               reduction open chains and the dense oracle share.

The spectrum lists the energies in band order, [-|a(k_j)|, +|a(k_j)|],
and every weight and occupation row follows it, so each quantity reads
the two bands as the two halves of a row. The dense path of the other
modules is the oracle these functions are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import PERIODIC, ModelParams
from .polarization import DEFAULT_MAGNITUDE_CUTOFF, _real_determinant_result
from .qfi import pair_weights
from .thermal import BandSpectrum, _require_finite_energies, band_contrast


@dataclass(frozen=True)
class BlochSpectrum(BandSpectrum):
    """Band structure of one periodic ring.

    `coupling` holds a(k_j), and `energies` = [-|a|, +|a|] the lower band
    at every k_j, then the upper band in the same order. With
    g_l = u_-(k_j)^dagger sigma_l u_+(k_j) = (-i sin phi_j, -i cos phi_j, 1),
    the diagonal of Re(g_l conj(g_m)) is sin^2 phi_j, cos^2 phi_j and 1.
    `generators` has shape (3, N), one row each. The xz and yz entries are
    0 term by term. The xy entry sin phi_j cos phi_j is odd in k, since
    a(-k) = conj(a(k)) flips phi, while the pair weights are even, so it
    sums to 0 over the ring and has no row. Keeping k along the contiguous
    axis lets the QFI sum over k one row at a time.
    """

    coupling: np.ndarray = field(repr=False)
    generators: np.ndarray = field(repr=False)


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
    # g_x = -i sin(phi), g_y = -i cos(phi), g_z = 1.
    phi = np.angle(coupling)
    sin, cos = np.sin(phi), np.cos(phi)
    generators = np.stack([sin * sin, cos * cos, np.ones(n)])
    return BlochSpectrum(
        n_cells=n,
        energies=np.concatenate([-magnitude, magnitude]),
        coupling=coupling,
        generators=generators,
    )


def bloch_qfi_matrix(spectrum: BlochSpectrum, weights: np.ndarray) -> np.ndarray:
    """3x3 QFI matrix over I (x) sigma_l from weights in `energies` order.

    Same normalization and pair cutoff as qfi.qfi_matrix. The generators
    connect only the two bands at one k, and the (-, +) and (+, -) pairs
    contribute equally: M = sum_k pw_k Re(g_l conj(g_m)). Only the
    diagonal is summed; every off-diagonal entry is exactly 0 (see
    BlochSpectrum). Weights of shape (n_T, 2N) give (n_T, 3, 3); each
    entry is a sum along the contiguous k axis, so it does not depend on
    how many temperatures share the call.
    """
    lower, upper = spectrum.bands(weights)
    pair = pair_weights(lower, upper)
    entries = np.sum(pair[..., None, :] * spectrum.generators, axis=-1)
    matrices = np.zeros((*pair.shape[:-1], 3, 3))
    matrices[..., (0, 1, 2), (0, 1, 2)] = entries
    return matrices


def _ordered_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Re p of Q_{N-1} ... Q_0, Q_j = [[p_j, q_j], [conj q_j, conj p_j]] along the first axis.

    Products of matrices of this form keep it, so one is held as the two
    complex arrays p, q, with k along the leading axis and the
    temperatures contiguous behind it. Neighbors are multiplied pairwise,
    later k on the left, in log2(N) passes of four complex products; an
    odd one out stays last. Every pass is elementwise, so each temperature
    is bitwise the same however many share the call.
    """
    while len(p) > 1:
        paired = len(p) // 2 * 2
        lp, lq, rp, rq = p[1:paired:2], q[1:paired:2], p[0:paired:2], q[0:paired:2]
        p_next, q_next = lp * rp + lq * rq.conj(), lp * rq + lq * rp.conj()
        if paired < len(p):
            p_next, q_next = np.concatenate([p_next, p[-1:]]), np.concatenate([q_next, q[-1:]])
        p, q = p_next, q_next
    return p[0].real


def bloch_polarization_determinant(
    spectrum: BlochSpectrum,
    temperature,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Determinant-mode polarization of a ring, in O(N) per temperature.

    Same quantity, background phase and branch rule as
    polarization.thermal_polarization_determinant, X = exp(i 2 pi x / N)
    of the ring's own N. Row block j of M = (1 - F) + F U is
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
    from thermal.band_contrast, transposed to k by temperature in C order.
    The background parity (-1)^(N-1) equals s, so E = s det M is real and
    its sign gives the branch. An array of temperatures gives one result
    of arrays with an entry per temperature, all evaluated together.
    """
    t = np.ascontiguousarray(np.atleast_2d(band_contrast(spectrum, temperature)).T)
    t2 = t * t
    r = 2.0 * t / (1.0 + t2)
    q = -0.5 * r * np.exp(1j * np.angle(spectrum.coupling))[:, None]
    trace = 2.0 * _ordered_product(np.full_like(q, 0.5), q)
    sign = 1.0 if spectrum.n_cells % 2 else -1.0
    dets = 2.0 * np.prod(0.25 * (1.0 - t2), axis=0)
    dets += sign * np.prod(0.5 * (1.0 + t2), axis=0) * trace
    return _real_determinant_result(dets * sign, magnitude_cutoff, temperature)


def bloch_state_expectations(spectrum: BlochSpectrum) -> np.ndarray:
    """<k,b|X|k,b> of every Bloch state, in `energies` order: exactly 0.

    X maps |k, b> onto momentum k + 2 pi/N, so every diagonal element
    vanishes. Through polarization_from_states, Tr[rho X] and every
    per-state phase magnitude are then exactly zero, and literal and
    weighted are undefined for any positive cutoff. The dense modes
    return rounding noise here, or, inside degenerate clusters, the
    answer for whatever basis LAPACK picked there.
    """
    return np.zeros(spectrum.dimension, dtype=complex)
