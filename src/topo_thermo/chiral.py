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
N x N work instead of 2N x 2N, the determinant one real (N + n_b)-square
LU per temperature:

  QFI          with C = U^T V = Q^T (J Q diag(sigma)), S = C + C^T and
               A = C - C^T, the generators
               I (x) sigma_l have matrix elements (S or A) / 2 between
               states k and l, and sigma_z couples only chiral partners;
  determinant  tanh(H / 2T) = [[0, G], [G^T, 0]] with G = U diag(t) V^T
               and t_k = f(-s_k) - f(+s_k); X is e^{i theta_m} on both
               sites of cell m. In half angles every column of cell m in
               1 + F (X - 1) carries e^{i theta_m / 2}, and their product
               cancels the neutralizing-background phase exactly, so the
               expectation is the determinant of a real 2N x 2N matrix.
               Block elimination of the B sites, on pivots
               cos(theta_m / 2) of at least BORDER_COSINE, reduces it to
               N + n_b rows; the n_b border cells near m = N/2 keep
               their B site;
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
determinant its gathered rows of V, U diag(t), the product and the
reduced matrix, the expectations one buffer of squares.

run_sweep evaluates open chains here. The dense functions of thermal,
qfi and polarization stay public; they are the `spectrum` subcommand's
path and the oracle these functions are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import ModelParams, PositionPhaseOperator, build_folded_block
from .polarization import (
    DEFAULT_MAGNITUDE_CUTOFF,
    MODE_DETERMINANT,
    _check_dimension,
    _make_result,
    _per_temperature,
)
from .qfi import pair_weights
from .thermal import BandSpectrum, _require_finite_energies, fermi_occupations

# Cells with |cos(theta_m / 2)| below this keep their B site in the
# determinant's reduced matrix; every other B site is eliminated on a
# pivot at least this large, so |tan(theta_m / 2)| <= 10.
BORDER_COSINE = 0.1


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


def chiral_qfi_matrix(spectrum: ChiralSpectrum, weights: np.ndarray) -> np.ndarray:
    """3x3 QFI matrix over I (x) sigma_l from weights in `energies` order.

    Same normalization and pair cutoff as qfi.qfi_matrix. With pw_ab the
    pair weights between band a of state k and band b of state l,

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
    lower, upper = spectrum.bands(weights)
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
    return matrices if np.ndim(weights) == 2 else matrices[0]


def chiral_state_expectations(
    spectrum: ChiralSpectrum, x_operator: PositionPhaseOperator
) -> np.ndarray:
    """<n|X|n> = (u.X_c u + v.X_c v) / 2 for every state, in `energies` order.

    With v_k = J u_k sigma_k this is sum_m Q_mk^2 (phi_m + phi_{N-1-m}) / 2,
    the same for state k and its chiral partner N + k. np.einsum sums the
    one N x N array of squares against the real and the imaginary folded
    phases, so the sums do not depend on how many states are evaluated
    together. The result feeds polarization.polarization_from_states.
    """
    _check_dimension(spectrum.dimension, x_operator, "spectrum")
    cell_phases = x_operator.diagonal[0::2]
    folded = 0.5 * (cell_phases + cell_phases[::-1])
    squares = np.square(spectrum.fold_vectors)
    sums = np.einsum("mk,jm->jk", squares, np.stack([folded.real, folded.imag]))
    per_pair = np.empty(spectrum.n_cells, dtype=complex)
    per_pair.real, per_pair.imag = sums
    return np.concatenate([per_pair, per_pair])


def chiral_polarization_determinant(
    spectrum: ChiralSpectrum,
    temperature,
    x_operator: PositionPhaseOperator,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Determinant-mode polarization of a chain from its chiral block.

    The same expectation as polarization.thermal_polarization_determinant,
    exp(-i delta sum_m m) det[1 + F (X - 1)], as the determinant of one
    real (N + n_b)-square matrix per temperature. In sublattice order
    F = (1 - tanh(H / 2T)) / 2 with tanh(H / 2T) = [[0, G], [G^T, 0]],
    G = U diag(t) V^T and t_k = f(-s_k) - f(+s_k) taken from the
    occupation rows, so the T = 0 step and the edge pair follow
    fermi_occupations. With theta_m = delta m and the half-angle forms
    1 + X = 2 e^{i theta / 2} cos(theta / 2), X - 1 = 2i e^{i theta / 2}
    sin(theta / 2), every column of cell m carries e^{i theta_m / 2}; the
    2N of them multiply to exp(i delta sum_m m), which the background
    phase cancels exactly for any delta, and a similarity by diag(1, -i)
    removes the remaining i:

      E = det [[C, G S], [-G^T S, C]],  C = diag cos(theta_m / 2),
                                         S = diag sin(theta_m / 2).

    The B site of every cell m in g, the cells with |cos(theta_m / 2)| >=
    BORDER_COSINE, is eliminated on its diagonal pivot cos(theta_m / 2).
    Its multipliers are tan(theta_m / 2) times entries of G, and
    |G| <= 1, so they are at most 10 and element growth is bounded. The
    n_b border cells near m = N/2, whose pivots vanish, keep their B site:

      E = det [[R (C + G_g diag(tan) G_g^T S), R G_b S_b],
               [-G_b^T S,                      C_b      ]],

    where R scales the A row of each cell in g by its cos(theta_m / 2),
    which folds det C_g into the one LU. G_g diag(tan) G_g^T is formed as
    a a^T - b b^T with a and b the columns of G at positive and negative
    tangents scaled by sqrt|tan|, two symmetric rank-k updates.

    Working set: the scaled rows of V are gathered once per call into one
    array, and U diag(t), the product (U diag(t)) V^T[:, cells] that holds
    a, b and G_b, and the reduced matrix each get one buffer, allocated
    once per call and rewritten per temperature. a a^T goes straight into
    the top-left block of the reduced matrix, b b^T into the U diag(t)
    buffer, which the product has freed.

    E is real by construction, so P is 0 or +1/2 from its sign. An array
    of temperatures gives one result of arrays with an entry per
    temperature, each row factored alone.
    """
    _check_dimension(spectrum.dimension, x_operator, "spectrum")
    occupations = fermi_occupations(spectrum, temperature)
    n = spectrum.n_cells
    half_angles = 0.5 * x_operator.delta * np.arange(n)
    cosines, sines = np.cos(half_angles), np.sin(half_angles)
    border = np.abs(cosines) < BORDER_COSINE
    tangents = np.where(border, 0.0, sines / cosines)
    rising, falling = np.flatnonzero(tangents > 0.0), np.flatnonzero(tangents < 0.0)
    cells = np.concatenate([rising, falling, np.flatnonzero(border)])
    split_a, split_b = len(rising), len(rising) + len(falling)
    # Rows of V = J Q diag(sigma), scaled, so that one product with
    # U diag(t) gives the columns a, b and G_b of the elimination.
    scaled_rows = spectrum.fold_vectors[n - 1 - cells] * spectrum.signs
    scaled_rows[:split_b] *= np.sqrt(np.abs(tangents[cells[:split_b]]))[:, None]
    columns = scaled_rows.T
    row_scale = np.where(border, 1.0, cosines)[:, None]
    border_sines, negative_sines = sines[border], -sines
    matrix = np.diag(np.concatenate([np.zeros(n), cosines[border]]))
    top_left = matrix[:n, :n]
    scaled_left, product = np.empty((n, n)), np.empty((n, len(cells)))
    a, b, edge = product[:, :split_a], product[:, split_a:split_b], product[:, split_b:]
    rows = np.atleast_2d(occupations)
    expectations = np.empty(len(rows))
    for index, row in enumerate(rows):
        lower, upper = spectrum.bands(row)
        np.multiply(spectrum.fold_vectors, lower - upper, out=scaled_left)
        np.matmul(scaled_left, columns, out=product)
        np.matmul(a, a.T, out=top_left)
        top_left -= np.matmul(b, b.T, out=scaled_left)
        top_left *= sines
        top_left.flat[:: n + 1] += cosines
        np.multiply(edge, border_sines, out=matrix[:n, n:])
        matrix[:n] *= row_scale
        np.multiply(edge.T, negative_sines, out=matrix[n:, :n])
        expectations[index] = np.linalg.det(matrix)
    result = _make_result(expectations, np.abs(expectations), MODE_DETERMINANT, magnitude_cutoff)
    return _per_temperature(result, temperature)


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
