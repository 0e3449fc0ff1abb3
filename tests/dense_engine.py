"""The dense path: the test oracle of the Bloch and chiral engines, and every rule it holds them to.

The package evaluates each boundary one way: periodic rings in k-space
(`bloch.py`) and open chains, and the `spectrum` subcommand, on the
chiral block (`chiral.py`). This module keeps the independent dense
definitions they are tested against, as written:

- `diagonalize`, the full 2N x 2N eigendecomposition of the real-space
  Hamiltonian of `lattice.build_hamiltonian`, into a `Spectrum` of
  ascending energies and eigenvectors;
- every QFI as one spectral sum over eigenvectors V and weights l_n
  (Hauke, Heyl, Tagliacozzo, Zoller, Nat. Phys. 12, 778 (2016)), with
  g_mn = (V^dagger G V)_mn the matrix elements of a generator G:

    M[G, H] = (1/2) sum_{m,n} pw_mn Re(g_mn conj h_mn),
    pw_mn   = (l_m - l_n)^2 / (l_m + l_n),

  where `qfi_scalar` takes any Hermitian G and `qfi_matrix` the
  sublattice Pauli generators I_cells (x) sigma_l, built with np.kron;
- `qfi_fidelity_oracle`, which checks `qfi_scalar` by another route, the
  decay of the Uhlmann fidelity under a small rotation exp(-i G dtheta)
  (Zanardi, Campos Venuti, Giorda, Phys. Rev. A 76, 062318 (2007));
- the three polarization modes over a dense spectrum: `state_expectations`
  of its eigenvectors for literal and weighted, and
  `thermal_polarization_determinant`, det[(1 - F) + F U] as written, whose
  complex determinant rounds the real expectation with an imaginary part
  that its branch rule ignores.

`DENSE_ENGINE` is the record `sweep._engine` returns, with the same four
fields, built from these functions. A test that rebinds
`sweep._engine` to return it runs `run_sweep` through the dense path, so
a whole table of the Bloch or chiral engine can be held to a dense
table, column by column.

The properties the Bloch and chiral engines share are tested once, in
`tests/test_dense_engine.py`, parametrized over both boundaries through
`sweep._engine(boundary)`: each record field against this one, the
T = infinity determinant, and the refusals of bad input. Tests of one
engine's own construction stay in `tests/test_bloch.py` and
`tests/test_chiral.py`.

A new output gets its oracle here. If it reads an engine function, it
adds a field to this record (the dense function, as written) next to the
`bloch_` and `chiral_` fields of `sweep._engine`; the engine-against-dense
property test then fails until it states that field's rule, once, for
both boundaries. If it reads a new `sweep._Work` property, the property
is built from the record's fields and the dense table follows with no
edit. Either way its column then needs a rule in the table test, or that
test fails on the unknown column.

The constants and functions after `DENSE_ENGINE` are every agreement
rule of the fast engines against this one, used by the property test and
the table test alike.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from topo_thermo.lattice import PERIODIC, ModelParams, build_hamiltonian, cell_phases
from topo_thermo.polarization import (
    DEFAULT_MAGNITUDE_CUTOFF,
    MODE_DETERMINANT,
    MODE_LITERAL,
    MODE_WEIGHTED,
    PolarizationResult,
    _absolute,
    _make_result,
    polarization_from_states,
)
from topo_thermo.qfi import pair_weights
from topo_thermo.thermal import (
    GibbsEnsemble,
    _require_finite_energies,
    fermi_occupations,
    per_temperature,
)

SYMMETRY_TOL = 1e-12

ORACLE_MAX_DIMENSION = 64
ORACLE_STEP_RANGE = (1e-6, 1e-2)

# A determinant expectation with |Im E| at most this fraction of |E| is
# treated as real: its branch comes from the sign of Re E.
REAL_EXPECTATION_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with orthonormal eigenvectors (column n <-> E_n)."""

    energies: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.energies.shape[0]


def diagonalize(h: np.ndarray) -> Spectrum:
    """Full spectrum of a real symmetric matrix.

    Rejects non-square or non-symmetric input. Convergence failures inside
    LAPACK surface as numpy.linalg.LinAlgError rather than being truncated,
    and energies that overflow float64 as FloatingPointError.
    Output is deterministic for identical input bits.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    asym = np.abs(h - h.T).max() if h.size else 0.0
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric: max |H - H^T| = {asym:.3e}")
    energies, vectors = np.linalg.eigh(h)
    _require_finite_energies(energies)
    return Spectrum(energies=energies, vectors=vectors)


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


def _cell_count(dimension: int) -> int:
    """N of a 2N-dimensional chain; an odd dimension has no two-site cells."""
    if dimension % 2 != 0:
        raise ValueError(f"dimension must be even (two sublattices per cell), got {dimension}")
    return dimension // 2


def state_expectations(vectors: np.ndarray) -> np.ndarray:
    """<n|X|n> for every column n of `vectors`, in one pass.

    The 2N rows fix X; an odd row count raises ValueError. Each entry is
    a sum along a contiguous row, so it does not depend on how many
    states are evaluated together.
    """
    probabilities = np.ascontiguousarray(np.abs(vectors.T) ** 2)
    # X on the interleaved basis: each cell's phase on both of its sites.
    diagonal = np.repeat(cell_phases(_cell_count(vectors.shape[0])), 2)
    expectations = np.empty(probabilities.shape[0], dtype=complex)
    expectations.real = np.sum(probabilities * diagonal.real, axis=1)
    expectations.imag = np.sum(probabilities * diagonal.imag, axis=1)
    return expectations


def thermal_polarization_literal(
    ensemble: GibbsEnsemble,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Tr[rho X] with rho in spectral form (see polarization_from_states).

    For a periodic chain this trace is forced to zero by translation
    symmetry at any temperature, so the result is typically undefined;
    the computation is exposed precisely to document that behavior. A
    batched ensemble gives one result of arrays with an entry per
    temperature.
    """
    per_state = state_expectations(ensemble.spectrum.vectors)
    return polarization_from_states(ensemble, per_state, MODE_LITERAL, magnitude_cutoff)


def thermal_polarization_weighted(
    ensemble: GibbsEnsemble,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Weight-averaged per-state phases, P = sum_n lambda_n gamma_n / (2*pi).

    The reduction and its cutoffs are those of polarization_from_states,
    over the eigenvectors of a dense spectrum. A batched ensemble gives one
    result of arrays with an entry per temperature.
    """
    per_state = state_expectations(ensemble.spectrum.vectors)
    return polarization_from_states(ensemble, per_state, MODE_WEIGHTED, magnitude_cutoff)


def _determinant_result(dets, n: int, cutoff: float) -> PolarizationResult:
    """Determinant-mode results from an array of det[(1 - F) + F U], the dense path's.

    The neutralizing background, one unit of charge per cell at the cell
    coordinate, contributes exp(-i * 2*pi/N * sum_m m) = (-1)^(N-1). It is
    applied as an integer parity, so no float-pi noise enters the branch.

    For a real chiral Hamiltonian at mu = 0 the expectation is exactly
    real, but a complex 2N x 2N determinant rounds it with an imaginary
    part. One within REAL_EXPECTATION_TOL of |E| is rounding noise; the
    branch then follows the sign of Re E (P in {0, +1/2}) instead of the
    sign of that noise. The expectation is kept as computed.
    """
    parity = 1.0 if (n - 1) % 2 == 0 else -1.0
    expectation = (np.asarray(dets) * parity).astype(complex)
    magnitude = _absolute(expectation)
    real = np.abs(expectation.imag) <= REAL_EXPECTATION_TOL * magnitude
    branch = np.where(real, expectation.real, expectation)
    return _make_result(expectation, magnitude, MODE_DETERMINANT, cutoff, branch)


def thermal_polarization_determinant(
    spectrum: Spectrum,
    temperature,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Half-filled free-fermion expectation of the position phase.

    expectation = exp(-i 2 pi/N sum_m m) * det[(1 - F) + F U] with F the
    Fermi occupation operator at mu = 0 and U the diagonal position-phase
    unitary X. The prefactor is the phase of the neutralizing ionic
    background (one positive charge per cell at the cell coordinate),
    equal to (-1)^(N-1); without it the quantized values come out shifted
    by 1/2 for even N. At T = 0 this reduces to the occupied-band overlap
    determinant. A numerically real expectation takes its branch from the
    sign of its real part. An array of temperatures gives one result of
    arrays with an entry per temperature.

    Each temperature forms F = V diag(f) V^dagger from the eigenvectors V
    and the occupations f, and takes det[(1 - F) + F U] as written; U is
    diagonal, so F U scales the columns of F by its phases.
    """
    n = _cell_count(spectrum.dimension)
    occupations = fermi_occupations(spectrum, temperature)
    vectors, diagonal = spectrum.vectors, np.repeat(cell_phases(n), 2)
    identity = np.eye(spectrum.dimension)
    dets = []
    for row in np.atleast_2d(occupations):
        occupied = (vectors * row) @ vectors.conj().T
        dets.append(np.linalg.det(identity - occupied + occupied * diagonal))
    result = _determinant_result(np.array(dets), n, magnitude_cutoff)
    return per_temperature(result, temperature)


def dense_spectrum(params: ModelParams) -> Spectrum:
    """The dense engine's spectrum: diagonalize the 2N x 2N real-space Hamiltonian."""
    return diagonalize(build_hamiltonian(params))


def dense_state_expectations(spectrum: Spectrum) -> np.ndarray:
    """The dense engine's <n|X|n>: state_expectations of the spectrum's eigenvectors."""
    return state_expectations(spectrum.vectors)


DENSE_ENGINE = SimpleNamespace(
    spectrum=dense_spectrum,
    polarization_determinant=thermal_polarization_determinant,
    qfi_matrix=qfi_matrix,
    state_expectations=dense_state_expectations,
)

# Energies in ascending order: absolute.
ENERGY_TOL = 1e-13

# Gibbs weights, QFI entries, i_p, purity and entropy: absolute.
QFI_TOL = 1e-13

# The determinant expectation E: relative where |E| >= DET_SCALE, else absolute.
DET_RTOL = 1e-11
DET_ATOL = 1e-14
DET_SCALE = 1e-3

# T = 0 examples keep every level either degenerate with the ground level
# (by symmetry, so within rounding) or this far above it, and every level
# this far from 0: a zero mode is half occupied only if its energy is
# exactly 0, and near-degenerate dense eigenvectors mix by ~1e-16 / gap.
T0_MIN_GAP = 1e-3
SYMMETRY_DEGENERACY = 1e-12

# Dense eigenvectors inside a cluster of levels that X connects, closer
# than this, are mixed by up to ~1e-16 / gap, so per-state <X> and the
# weighted magnitude are compared only where such levels are this far apart.
WEIGHTED_MIN_GAP = 1e-4
PER_STATE_TOL = 1e-10
LITERAL_TOL = 1e-12
# Wrap distance of P between an open chain's fast and dense literal or weighted result.
STATE_P_TOL = 1e-8

# The two sweeps the table test holds tighter than the rules above: the
# QFI columns of a small ring sweep, and E and P of the literal and
# weighted modes of one open chain.
SWEEP_QFI_TOL = 1e-14
SWEEP_STATE_TOL = 1e-13


def assert_determinants_agree(dense, fast):
    """One temperature's determinant: E and |E| by the DET_* rule, P and P_defined exactly."""
    reference = dense.expectation
    bound = DET_RTOL * abs(reference) if abs(reference) >= DET_SCALE else DET_ATOL
    assert abs(fast.expectation - reference) <= bound
    assert abs(fast.magnitude - dense.magnitude) <= bound
    assert fast.defined == dense.defined
    assert fast.polarization == dense.polarization


def wrap_distance(a, b):
    """Distance between two polarizations on the circle P mod 1."""
    gap = abs(a - b) % 1.0
    return min(gap, 1.0 - gap)


def zero_temperature_comparable(fast) -> bool:
    """Whether a fast spectrum's T = 0 state can be held to the dense one (see T0_MIN_GAP)."""
    energies = fast.energies
    excitation = energies - energies.min()
    near_ground = (excitation > SYMMETRY_DEGENERACY) & (excitation < T0_MIN_GAP)
    return bool(np.abs(energies).min() >= T0_MIN_GAP and not near_ground.any())


def connected_gap(fast, boundary: str) -> float:
    """The least gap between two levels of a fast spectrum that X connects.

    On a ring X takes momentum k_j to k_{j+1}, so the gap is the least
    ||a(k_j)| - |a(k_{j-1})|| (a level of the other band is farther off).
    On an open chain X connects any two levels.
    """
    if boundary == PERIODIC:
        magnitude = fast.energies[fast.n_cells :]
        return float(np.abs(magnitude - np.roll(magnitude, 1)).min())
    return float(np.diff(np.sort(fast.energies)).min())


def weighted_comparable(fast, boundary: str) -> bool:
    """Whether the dense weighted P and P_defined are basis independent on this chain.

    On a ring every fast <k,b|X|k,b> is exactly 0, so P = 0 and undefined,
    and the dense <X> of levels that X connects stays far below the
    magnitude cutoff once they are 1e-9 apart. That excludes the degenerate
    clusters, where the dense answer depends on the basis LAPACK picks: the
    k, -k pairs of odd N, flat bands, and the k, pi - k pairs of v = 0. An
    open chain is compared when its levels are WEIGHTED_MIN_GAP apart.
    """
    return connected_gap(fast, boundary) >= (1e-9 if boundary == PERIODIC else WEIGHTED_MIN_GAP)


def assert_state_mode_agrees(fast, dense, boundary, bound):
    """Literal or weighted at one point: P_defined exactly, P, and the magnitude within `bound`.

    P is exact on a ring and within STATE_P_TOL of wrap distance on an
    open chain. A `bound` of None leaves the magnitude unchecked.
    """
    if bound is not None:
        assert abs(fast.magnitude - dense.magnitude) <= bound
    assert fast.defined == dense.defined
    if boundary == PERIODIC:
        assert fast.polarization == dense.polarization
    else:
        assert wrap_distance(fast.polarization, dense.polarization) <= STATE_P_TOL


def assert_mode_agrees(mode, fast, dense, boundary, spectrum, state_bound=None):
    """One mode's results at one point of the fast `spectrum`, by that mode's rule.

    A `state_bound` holds E, P and P_defined of literal and weighted to
    that bound instead of their rules.
    """
    if mode == "determinant":
        assert_determinants_agree(dense, fast)
    elif state_bound is not None:
        assert abs(fast.expectation - dense.expectation) <= state_bound
        assert abs(fast.polarization - dense.polarization) <= state_bound
        assert fast.defined == dense.defined
    elif mode == "literal":
        assert abs(fast.expectation - dense.expectation) <= LITERAL_TOL
        assert_state_mode_agrees(fast, dense, boundary, LITERAL_TOL)
    elif weighted_comparable(spectrum, boundary):
        # The magnitude, the least per-state |<X>|, is off by the mixing.
        tight = connected_gap(spectrum, boundary) >= WEIGHTED_MIN_GAP
        assert_state_mode_agrees(fast, dense, boundary, PER_STATE_TOL if tight else None)
