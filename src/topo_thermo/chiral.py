"""Chiral (sublattice) block evaluation of an extended SSH chain.

Every hopping v, w, z joins an A site to a B site, so in sublattice order
the Hamiltonian is H = [[0, D], [D^T, 0]] with D = H[A, B] an N x N real
matrix (Asboth, Oroszlany, Palyi, A Short Course on Topological
Insulators, Springer 2016, ch. 1). The singular value decomposition
D = U diag(s) V^T gives every eigenpair of H:

  E = -s_k   psi = (u_k, -v_k) / sqrt(2),
  E = +s_k   psi = (u_k, +v_k) / sqrt(2),

with u_k on the A sites and v_k on the B sites. Inversion maps A of cell
m to B of cell N - 1 - m, so D is persymmetric, D = J D^T J with J the
index reversal, and the folded block D J is exactly symmetric, open chain
or ring. lattice.build_folded_block fills D J from the bond table of
build_hamiltonian, so the 2N x 2N matrix is never formed. One symmetric
eigh D J = Q diag(lambda) Q^T, less than half the work of an SVD, gives
the decomposition: s = |lambda|, U = Q and V = J Q diag(sigma), with
sigma = -1 where lambda < 0 and +1 otherwise, so a zero lambda still
gives a unit column. ChiralSpectrum stores Q, sigma and the band-ordered
energies [-s, +s], s descending, and forms V = J Q diag(sigma) only as
far as a quantity needs it. Each quantity the sweep needs then costs
N x N work instead of 2N x 2N, the determinant two N x N products per
spectrum and one real (N + n_b)-square LU per temperature:

  QFI          with C = U^T V = Q^T (J Q diag(sigma)), S = C + C^T and
               A = C - C^T, the generators
               I (x) sigma_l have matrix elements (S or A) / 2 between
               states k and l, and sigma_z couples only chiral partners;
  determinant  tanh(H / 2T) = [[0, G], [G^T, 0]] with G = U diag(t) V^T
               and t_k = f(-s_k) - f(+s_k) of thermal.band_contrast;
               X is e^{i theta_m}, theta_m = 2 pi m / N, on both sites
               of cell m, so the spectrum's own N fixes it. In half
               angles every column of cell m in 1 + F (X - 1) carries
               e^{i theta_m / 2}, and their product cancels the
               neutralizing-background phase exactly, so the
               expectation is the determinant of a real 2N x 2N
               matrix. Eliminating the B sites leaves
               det(U^T cot U + diag(t) V^T tan V diag(t)) of the cell
               half angles times a prefactor; the two products depend
               on the spectrum alone, and the n_b cells near m = 0 and
               m = N/2, where cot or tan diverges, become border rows;
  literal,     <psi|X|psi> = (u.X_c u + v.X_c v) / 2, the same for both
  weighted     partners of a pair: with v = J u sigma, the sum of u^2
               against the folded cell phases (phi_m + phi_{N-1-m}) / 2.

Edge-mode basis rule: a topological open chain has one singular value s_0
exponentially close to 0, about (v / w)^N. Any float64 factorization
returns it as rounding noise: 4e-16 from the fold and 4e-18 from an SVD
at (v, w, z) = (0.3, 0.5, 0.2), N = 400. So the pair +-s_0 is degenerate
to rounding and a 2N x 2N eigh may return any rotation inside it. Here
the pair is always the equal-weight sublattice combinations
(u_0, +-v_0) / sqrt(2) of the left and right null vectors of D. Both
states then carry the same <X> = (u_0.X_c u_0 + v_0.X_c v_0) / 2, the
mean of the A-polarized and the B-polarized edge state, so the weighted
mode does not depend on a basis choice inside the pair.

The bulk invariant of the same chiral structure is the winding number
of h(k), given exactly by winding_number. By bulk-boundary
correspondence, |winding| is the number of singular values of D that
vanish as N grows.

Working set: besides Q, each function allocates its N x N arrays once
per call and rewrites them per temperature, so one spectrum's sweep
holds about 6 N x N float64 arrays at its peak, whatever the number of
temperatures: the QFI its two kernels and one pair-weight buffer, the
determinant its two products and the bordered matrix with the copy its
LU factors, the expectations one buffer of squares.

run_sweep evaluates open chains here. The dense functions of thermal,
qfi and polarization stay public; they are the `spectrum` subcommand's
path and the oracle these functions are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import ModelParams, build_folded_block, cell_phases
from .polarization import DEFAULT_MAGNITUDE_CUTOFF, _real_determinant_result
from .qfi import pair_weights
from .thermal import BandSpectrum, GibbsEnsemble, _require_finite_energies, band_contrast

# A cell whose |sin(theta_m / 2)| or |cos(theta_m / 2)| is below this
# leaves the determinant's cot or tan sum for a border row, so no cot or
# tan in the two sums exceeds 1 / BORDER_COSINE. At N = 400, 0.01 gives
# n_b = 6 and 0.1 gives n_b = 50, a larger LU per temperature, with the
# same accuracy against an extended-precision LU.
BORDER_COSINE = 0.01


@dataclass(frozen=True)
class ChiralSpectrum(BandSpectrum):
    """The folded block D J = Q diag(lambda) Q^T of one chain, pairs by descending |lambda|.

    `energies` = [-s, +s] with s = |lambda| descending, so the singular
    values of D are energies[N:]. `fold_vectors` is Q, whose columns are the
    left singular vectors u_k (A sites), and `signs` is sigma, so the
    right singular vectors (B sites) are V = J Q diag(sigma), the rows of
    Q reversed. State k is (u_k, -v_k) / sqrt(2) and its chiral partner,
    state N + k, is (u_k, +v_k) / sqrt(2).
    """

    fold_vectors: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)


def chiral_spectrum(params: ModelParams) -> ChiralSpectrum:
    """Chiral spectrum of a chain: the singular value decomposition of its A-to-B block D.

    Taken from one eigh of the folded block D J = H[A, B reversed],
    filled by lattice.build_folded_block from the bond table without the
    2N x 2N matrix (see the module docstring), with the pairs sorted by
    descending |lambda| and ties kept in eigh order. eigh reads one
    triangle only, so a D J that is not symmetric bit for bit raises
    ValueError. Singular values that overflow float64 raise
    FloatingPointError.
    """
    folded = build_folded_block(params)
    if not np.array_equal(folded, folded.T):
        raise ValueError("the folded chiral block D J is not symmetric: D is not persymmetric")
    eigenvalues, vectors = np.linalg.eigh(folded)
    del folded
    order = np.argsort(-np.abs(eigenvalues), kind="stable")
    eigenvalues, vectors = eigenvalues[order], np.take(vectors, order, axis=1)
    singular_values = np.abs(eigenvalues)
    _require_finite_energies(singular_values)
    return ChiralSpectrum(
        n_cells=params.n_cells,
        energies=np.concatenate([-singular_values, singular_values]),
        fold_vectors=vectors,
        signs=np.where(eigenvalues < 0.0, -1.0, 1.0),
    )


def chiral_qfi_matrix(ensemble: GibbsEnsemble) -> np.ndarray:
    """3x3 QFI matrix over I (x) sigma_l of an ensemble over a ChiralSpectrum.

    The signature of qfi.qfi_matrix, with the same normalization and pair
    cutoff; the ensemble's weights are in its spectrum's `energies` order.
    With pw_ab the pair weights between band a of state k and band b of
    state l,

      M_xx = 1/8 sum_kl [(pw_++ + pw_--) S^2 + 2 pw_+- A^2],
      M_yy = the same with S and A swapped,
      M_zz = sum_k pw(-s_k, +s_k),

    and M_xy = M_xz = M_yz = 0 exactly: g_x is real and g_y imaginary, and
    g_z joins only chiral partners, where g_x vanishes. The kernels S^2
    and A^2 are formed once per call, in one (2, N, N) array, from
    C = Q^T (J Q diag(sigma)). Per
    temperature, each of pw_++, pw_-- and pw_+- is written into one reused
    N x N buffer and contracted against both kernels by np.einsum, with
    no product array and no BLAS call. Weights of shape (n_T, 2N) give
    (n_T, 3, 3); each matrix is computed from its own row alone, so it
    does not depend on how many temperatures share the call or on the
    BLAS thread count.
    """
    spectrum = ensemble.spectrum
    lower, upper = spectrum.bands(ensemble.weights)
    n = spectrum.n_cells
    vectors = spectrum.fold_vectors
    coupling = vectors.T @ (vectors[::-1] * spectrum.signs)
    kernels = np.empty((2, n, n))
    np.add(coupling, coupling.T, out=kernels[0])
    np.subtract(coupling, coupling.T, out=kernels[1])
    del coupling
    kernels *= kernels
    pair = np.empty((n, n))
    rows_lower, rows_upper = np.atleast_2d(lower), np.atleast_2d(upper)
    matrices = np.zeros((len(rows_lower), 3, 3))
    for matrix, low, up in zip(matrices, rows_lower, rows_upper):
        # (sum pw S^2, sum pw A^2) of pw_++, pw_-- and pw_+-, one after the
        # other in `pair`; einsum sums in its own loop, never through BLAS.
        upper_pairs, lower_pairs, cross = (
            np.einsum("kl,ikl->i", pair_weights(a[:, None], b[None, :], out=pair), kernels)
            for a, b in ((up, up), (low, low), (up, low))
        )
        same = upper_pairs + lower_pairs
        matrix[0, 0] = 0.125 * same[0] + 0.25 * cross[1]
        matrix[1, 1] = 0.125 * same[1] + 0.25 * cross[0]
        matrix[2, 2] = np.sum(pair_weights(low, up))
    return matrices if np.ndim(ensemble.weights) == 2 else matrices[0]


def chiral_state_expectations(spectrum: ChiralSpectrum) -> np.ndarray:
    """<n|X|n> = (u.X_c u + v.X_c v) / 2 for every state, in `energies` order.

    With v_k = J u_k sigma_k this is sum_m Q_mk^2 (phi_m + phi_{N-1-m}) / 2,
    the same for state k and its chiral partner N + k. np.einsum sums the
    one N x N array of squares against the real and the imaginary folded
    phases, so the sums do not depend on how many states are evaluated
    together. The result feeds polarization.polarization_from_states.
    """
    phases = cell_phases(spectrum.n_cells)
    folded = 0.5 * (phases + phases[::-1])
    squares = np.square(spectrum.fold_vectors)
    sums = np.einsum("mk,jm->jk", squares, np.stack([folded.real, folded.imag]))
    per_pair = np.empty(spectrum.n_cells, dtype=complex)
    per_pair.real, per_pair.imag = sums
    return np.concatenate([per_pair, per_pair])


def chiral_polarization_determinant(
    spectrum: ChiralSpectrum,
    temperature,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Determinant-mode polarization of a chain from its chiral block.

    The same expectation as polarization.thermal_polarization_determinant,
    exp(-i 2 pi/N sum_m m) det[1 + F (X - 1)], as a prefactor times the
    determinant of one real (N + n_b)-square matrix per temperature. In
    sublattice order F = (1 - tanh(H / 2T)) / 2 with
    tanh(H / 2T) = [[0, G], [G^T, 0]], G = U diag(t) V^T and
    t_k = f(-s_k) - f(+s_k) taken from thermal.band_contrast, so the
    T = 0 step and the edge pair follow fermi_occupations. With
    theta_m = 2 pi m / N and the half-angle forms
    1 + X = 2 e^{i theta / 2} cos(theta / 2), X - 1 = 2i e^{i theta / 2}
    sin(theta / 2), every column of cell m carries e^{i theta_m / 2}; the
    2N of them multiply to exp(i 2 pi/N sum_m m), which the background
    phase cancels exactly, and a similarity by diag(1, -i) removes the
    remaining i:

      E = det [[C, G S], [-G^T S, C]],  C = diag cos(theta_m / 2),
                                         S = diag sin(theta_m / 2).

    Eliminating the B sites on C and taking S out of the Schur
    complement, with cot = C S^-1 and tan = S C^-1,

      E = det C det S det(U^T cot U + diag(t) V^T tan V diag(t)),

    where V^T tan V = sigma Q^T diag(tan, reversed) Q sigma, so V is never
    formed. Both products depend on the spectrum alone and are formed
    once per call; each temperature then costs N^2 elementwise work and
    one LU. cot diverges at m = 0 and tan at m = N/2. A cell with
    |sin(theta_m / 2)| or |cos(theta_m / 2)| below BORDER_COSINE leaves
    the cot or the tan sum. Its term is rank 1, p c p^T, with c the
    large cot or tan and p row m of Q, or row N - 1 - m of Q times
    sigma and t, and a border restores it:

      det(H + P Gamma P^T) = det Gamma det [[H, P], [-P^T, Gamma^-1]],

    with the small 1 / c = tan or cot on the border's diagonal. det Gamma
    joins det C det S in the prefactor: sin cos for every other cell,
    cos^2 for a cot border cell and sin^2 for a tan border cell. The
    prefactor is summed as logs, since at high T it alone underflows
    near N = 540, and the (N + n_b)-square matrix is factored by
    np.linalg.slogdet.

    Working set: besides Q, the two products, one N x N buffer while
    they are formed, and the (N + n_b)-square matrix, rewritten per
    temperature, with the copy slogdet factors.

    E is real by construction, so P is 0 or +1/2 from its sign. An array
    of temperatures gives one result of arrays with an entry per
    temperature, each row factored alone.
    """
    contrasts = np.atleast_2d(band_contrast(spectrum, temperature))
    n = spectrum.n_cells
    vectors = spectrum.fold_vectors
    half_angles = np.pi / n * np.arange(n)
    cosines, sines = np.cos(half_angles), np.sin(half_angles)
    cot_border, tan_border = sines < BORDER_COSINE, np.abs(cosines) < BORDER_COSINE
    interior = ~(cot_border | tan_border)
    cotangents = np.divide(cosines, sines, out=np.zeros(n), where=~cot_border)
    tangents = np.divide(sines, cosines, out=np.zeros(n), where=~tan_border)
    log_prefactor = (
        np.sum(np.log(sines[interior] * np.abs(cosines[interior])))
        + 2.0 * np.sum(np.log(np.abs(cosines[cot_border])))
        + 2.0 * np.sum(np.log(sines[tan_border]))
    )
    prefactor_sign = np.prod(np.sign(cosines[interior]))
    # U^T cot U, and Q^T diag(tan, reversed) Q, which sigma t scales per temperature.
    scaled = vectors * cotangents[:, None]
    cot_sum = scaled.T @ vectors
    np.multiply(vectors, tangents[::-1, None], out=scaled)
    tan_sum = scaled.T @ vectors
    del scaled
    cot_cells, tan_cells = np.flatnonzero(cot_border), np.flatnonzero(tan_border)
    split = n + len(cot_cells)
    size = split + len(tan_cells)
    matrix = np.zeros((size, size))
    matrix[:n, n:split] = vectors[cot_cells].T
    matrix[n:split, :n] = -vectors[cot_cells]
    border = np.arange(n, size)
    matrix[border, border] = np.concatenate([tangents[cot_cells], cotangents[tan_cells]])
    tan_rows = vectors[n - 1 - tan_cells].T
    top_left, tan_columns = matrix[:n, :n], matrix[:n, split:]
    expectations = np.empty(len(contrasts))
    for index, contrast in enumerate(contrasts):
        scale = contrast * spectrum.signs
        np.multiply(tan_sum, scale[:, None], out=top_left)
        top_left *= scale
        top_left += cot_sum
        np.multiply(tan_rows, scale[:, None], out=tan_columns)
        np.negative(tan_columns.T, out=matrix[split:, :n])
        sign, log_magnitude = np.linalg.slogdet(matrix)
        expectations[index] = prefactor_sign * sign * np.exp(log_prefactor + log_magnitude)
    return _real_determinant_result(expectations, magnitude_cutoff, temperature)


def winding_number(v: float, w: float, z: float) -> int:
    """Winding number of the bulk chain, (roots of w xi^2 + v xi + z in |xi| < 1) - 1.

    On |xi| = 1, xi = exp(ik), the polynomial is exp(ik) conj(a(k)) with
    a(k) = v + w exp(-ik) + z exp(ik) of bloch.py, so this counts the turns
    of conj(a(k)) around 0 as k goes once round the Brillouin zone: +1
    when w dominates (|v| < |w + z| and |w| > |z|), -1 when z dominates
    (|v| < |w + z| and |w| < |z|), 0 when v dominates (|v| > |w + z|). It
    does not depend on T or N. The roots are counted by these comparisons,
    not by root finding or a k grid; only w + z is rounded, so a chain
    built with v = w + z reads as gapless. A root on |xi| = 1 is a gap
    closing, where the winding is undefined: |v| = |w + z|, or w = z with
    |v| < |w + z|. Both raise ValueError.
    """
    reach = abs(w + z)
    if abs(v) > reach:
        return 0
    if abs(v) == reach or abs(w) == abs(z):
        raise ValueError(f"the gap closes at (v, w, z) = ({v}, {w}, {z}): winding is undefined")
    return 1 if abs(w) > abs(z) else -1
