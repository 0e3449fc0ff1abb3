"""Determinant polarization of the three engines, and the Gaussian QFI, against the Fock space.

The Gaussian QFI of the half-filled state at mu = 0 is the pair-weight
sum over single-particle levels with occupations f of fermi_occupations,

  M_lm = (1/2) sum_(m != n) w^G_mn Re(g_l,mn conj g_m,mn),
  w^G_mn = (f_m - f_n)^2 / (f_m (1 - f_n) + f_n (1 - f_m)),

in the quarter normalization of qfi.qfi_matrix, and is held to the exact
Fock-space QFI of the same state.
"""

import numpy as np
import pytest
from fock import PAIR_CUTOFF, position_phase_expectations, qfi_matrices
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from topo_thermo.bloch import bloch_polarization_determinant, bloch_spectrum
from topo_thermo.chiral import chiral_polarization_determinant, chiral_spectrum
from topo_thermo.lattice import OPEN, PERIODIC, ModelParams, build_hamiltonian
from topo_thermo.polarization import thermal_polarization_determinant
from topo_thermo.qfi import sublattice_paulis
from topo_thermo.thermal import diagonalize, fermi_occupations

TOL = 1e-12
TEMPERATURES = (0.05, 0.2, 0.7, 3.0, 1e6)
# T = 0 is compared only where every single-particle level is this far
# from 0, so the many-body ground state is unique. The oracle's ground
# state then errs by about 1e-16 / gap: 1.2e-13 against the dense path at
# the gap 1.8e-3 of one seeded N = 4 open chain.
ZERO_MODE_GAP = 1e-3
# A winding +1, a winding -1 and a trivial chain, then seeded draws.
HOPPINGS = ((0.3, 0.5, 0.2), (0.3, 0.2, 0.5), (0.5, 0.3, 0.1)) + tuple(
    map(tuple, np.random.default_rng(20261018).uniform(-1.0, 1.0, size=(4, 3)))
)


def test_fock_oracle_without_hopping():
    # At v = w = z = 0 every Fock state has energy 0, so rho is uniform at
    # any T > 0 and E averages the 2^(2N) phases: prod_j (1 + e^{i delta x_j}) / 2
    # times the background exp(-i delta N (N - 1) / 2). At T = 0 the ground
    # state is 2^(2N)-fold degenerate.
    params = ModelParams(n_cells=3, v=0.0, w=0.0, z=0.0, boundary=OPEN)
    delta = 2.0 * np.pi / 3
    cells = np.arange(6) // 2
    expected = np.prod((1.0 + np.exp(1j * delta * cells)) / 2.0) * np.exp(-1j * delta * 3)
    assert abs(position_phase_expectations(params, [1e6])[0] - expected) <= TOL
    with pytest.raises(ValueError, match="degenerate"):
        position_phase_expectations(params, [0.0])


# N = 2 and N = 4 have a border cell at m = N / 2, where the chiral
# determinant's tan diverges, and every N one at m = 0, where its cot does.
@pytest.mark.parametrize("boundary", (OPEN, PERIODIC))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_determinants_match_the_fock_space_expectation(n, boundary):
    compared = 0
    for v, w, z in HOPPINGS:
        params = ModelParams(n_cells=n, v=v, w=w, z=z, boundary=boundary)
        h = build_hamiltonian(params)
        temperatures = list(TEMPERATURES)
        if np.abs(np.linalg.eigvalsh(h)).min() >= ZERO_MODE_GAP:
            temperatures.insert(0, 0.0)
        dense = diagonalize(h)
        chiral = chiral_spectrum(params)
        bands = bloch_spectrum(params) if boundary == PERIODIC else None
        exact_values = position_phase_expectations(params, temperatures)
        for temperature, exact in zip(temperatures, exact_values):
            results = [
                thermal_polarization_determinant(dense, temperature),
                chiral_polarization_determinant(chiral, temperature),
            ]
            if bands is not None:
                results.append(bloch_polarization_determinant(bands, temperature))
            for result in results:
                assert abs(result.expectation - exact) <= TOL, (v, w, z, temperature)
            compared += temperature == 0.0
    assert compared >= 2


hopping = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


# Up to 2N = 10 sites. At N = 2 both cells are border cells of the chiral
# determinant (sin = 0 at m = 0, cos = 0 at m = 1); N = 4 has two of four.
@seed(20261020)
@settings(max_examples=150, deadline=None, database=None)
@given(
    n=st.integers(2, 5),
    v=hopping,
    w=hopping,
    z=hopping,
    temperature=st.one_of(st.just(0.0), st.floats(0.02, 5.0), st.just(1e9)),
)
def test_chiral_determinant_matches_the_fock_space_expectation(n, v, w, z, temperature):
    params = ModelParams(n_cells=n, v=v, w=w, z=z, boundary=OPEN)
    if temperature == 0.0:
        assume(np.abs(np.linalg.eigvalsh(build_hamiltonian(params))).min() >= ZERO_MODE_GAP)
    (exact,) = position_phase_expectations(params, [temperature])
    result = chiral_polarization_determinant(chiral_spectrum(params), temperature)
    assert abs(result.expectation - exact) <= TOL


def gaussian_qfi_matrix(params: ModelParams, temperature: float) -> np.ndarray:
    """The Gaussian state's 3x3 QFI matrix over I_cells (x) sigma_l, from the dense spectrum.

    Pairs with f_m (1 - f_n) + f_n (1 - f_m) below the Fock oracle's
    cutoff are skipped, as are the diagonal pairs m = n.
    """
    spectrum = diagonalize(build_hamiltonian(params))
    occupations = fermi_occupations(spectrum, temperature)
    left, right = occupations[:, None], occupations[None, :]
    spread = left * (1.0 - right) + right * (1.0 - left)
    kept = (spread >= PAIR_CUTOFF) & ~np.eye(len(occupations), dtype=bool)
    pair = np.where(kept, (left - right) ** 2 / np.where(kept, spread, 1.0), 0.0)
    vectors = spectrum.vectors
    g = [vectors.T @ generator @ vectors for generator in sublattice_paulis(params.n_cells)]
    return np.array([[0.5 * np.sum(pair * (a * b.conj()).real) for b in g] for a in g])


@pytest.mark.parametrize("boundary", (OPEN, PERIODIC))
@pytest.mark.parametrize(
    "v,w,z", [(0.3, 0.5, 0.2), (0.7, 0.3, 0.2), (0.3, 0.5, 0.8), (0.2, 0.2, 0.5)]
)
def test_gaussian_qfi_is_the_fock_space_qfi(v, w, z, boundary):
    # Measured: at most 1.7e-12 absolute.
    params = ModelParams(n_cells=3, v=v, w=w, z=z, boundary=boundary)
    temperatures = (0.1, 0.2, 0.5, 2.0)
    for temperature, exact in zip(temperatures, qfi_matrices(params, temperatures)):
        assert np.abs(gaussian_qfi_matrix(params, temperature) - exact).max() <= 1e-10


def test_gaussian_qfi_is_at_most_the_cell_separable_bound():
    # Each cell's part of a unit-direction generator has its spectrum in
    # [-1, 1], so a state separable between cells has F <= N in every
    # direction: the largest eigenvalue of M is at most N. The Gaussian
    # state stays within that bound. Measured: at most 1.0000000000000007 N
    # over these 320 matrices.
    rng = np.random.default_rng(20261021)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        v, w, z = rng.uniform(-1.0, 1.0, 3)
        for boundary in (OPEN, PERIODIC):
            params = ModelParams(n_cells=n, v=v, w=w, z=z, boundary=boundary)
            for temperature in (0.02, 0.1, 0.5, 2.0):
                largest = np.linalg.eigvalsh(gaussian_qfi_matrix(params, temperature))[-1]
                assert largest <= n * (1.0 + 1e-12), (n, v, w, z, boundary, temperature)
