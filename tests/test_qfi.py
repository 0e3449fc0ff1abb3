"""QFI scalar, 3x3 generator matrix, interferometric power, and oracles."""

import numpy as np
import pytest

from topo_thermo.lattice import ModelParams, build_hamiltonian
from topo_thermo.qfi import (
    PAIR_WEIGHT_CUTOFF,
    interferometric_power,
    pair_weights,
    qfi_fidelity_oracle,
    qfi_matrix,
    qfi_scalar,
    sublattice_paulis,
)
from topo_thermo.thermal import GibbsEnsemble, Spectrum, diagonalize, gibbs_weights


PAULI_BLOCKS = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def sublattice_pauli(axis, n_cells):
    """Dense 2N x 2N generator I_cells (x) sigma_axis."""
    return np.kron(np.eye(n_cells), PAULI_BLOCKS[axis])


def random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2.0


def random_basis(rng, dim):
    return np.linalg.qr(rng.standard_normal((dim, dim)))[0]


def seeded_ensemble(rng, dim, temperature=None):
    energies = np.sort(rng.standard_normal(dim))
    spectrum = Spectrum(energies=energies, vectors=random_basis(rng, dim))
    t = rng.uniform(0.3, 3.0) if temperature is None else temperature
    return gibbs_weights(spectrum, t)


def pure_ensemble(rng, dim):
    energies = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 2.0, dim - 1))])
    spectrum = Spectrum(energies=energies, vectors=random_basis(rng, dim))
    return gibbs_weights(spectrum, 0.0)


def dense_qfi_reference(weights, vectors, generator, skip_cutoff=0.0):
    """Independent double-loop evaluation, optionally keeping all pairs."""
    transformed = vectors.conj().T @ generator @ vectors
    dim = len(weights)
    total = 0.0
    for m in range(dim):
        for n in range(dim):
            denom = weights[m] + weights[n]
            if denom <= 0.0 or denom < skip_cutoff:
                continue
            total += 0.5 * (weights[m] - weights[n]) ** 2 / denom * abs(transformed[n, m]) ** 2
    return total


def test_maximally_mixed_gives_zero():
    spectrum = Spectrum(energies=np.arange(6.0), vectors=np.eye(6))
    ensemble = GibbsEnsemble(temperature=np.inf, weights=np.full(6, 1.0 / 6.0), spectrum=spectrum)
    rng = np.random.default_rng(0)
    assert qfi_scalar(ensemble, random_hermitian(rng, 6)) <= 1e-12


def test_pure_state_reduces_to_variance():
    rng = np.random.default_rng(8)
    for _ in range(10):
        dim = int(rng.integers(2, 17))
        ensemble = pure_ensemble(rng, dim)
        generator = random_hermitian(rng, dim)
        state = ensemble.spectrum.vectors[:, 0]
        mean = (state.conj() @ generator @ state).real
        second = (state.conj() @ (generator @ generator) @ state).real
        assert qfi_scalar(ensemble, generator) == pytest.approx(second - mean**2, abs=1e-9)


def test_two_level_closed_form():
    spectrum = Spectrum(energies=np.array([0.0, 1.0]), vectors=np.eye(2))
    ensemble = GibbsEnsemble(
        temperature=1.0, weights=np.array([0.8, 0.2]), spectrum=spectrum
    )
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert qfi_scalar(ensemble, sigma_x) == pytest.approx(0.36, abs=1e-12)


def test_qfi_scalar_validation():
    rng = np.random.default_rng(1)
    ensemble = seeded_ensemble(rng, 4)
    with pytest.raises(ValueError):
        qfi_scalar(ensemble, np.eye(6))
    with pytest.raises(ValueError):
        GibbsEnsemble(
            temperature=1.0,
            weights=np.array([1.2, -0.2, 0.0, 0.0]),
            spectrum=ensemble.spectrum,
        )


def test_matrix_vanishes_at_infinite_temperature():
    params = ModelParams(n_cells=6, v=0.3, w=0.5, z=0.2)
    spectrum = diagonalize(build_hamiltonian(params))
    uniform = GibbsEnsemble(
        temperature=np.inf, weights=np.full(12, 1.0 / 12.0), spectrum=spectrum
    )
    assert np.abs(qfi_matrix(uniform)).max() <= 1e-10


def test_matrix_x_row_vanishes_when_hoppings_cross():
    # w = z makes the sublattice-x generator a symmetry of the chain.
    params = ModelParams(n_cells=50, v=0.3, w=0.5, z=0.5)
    ensemble = gibbs_weights(diagonalize(build_hamiltonian(params)), 0.1)
    matrix = qfi_matrix(ensemble)
    assert np.abs(matrix[0, :]).max() <= 1e-10
    assert np.abs(matrix[:, 0]).max() <= 1e-10
    assert interferometric_power(matrix).i_p <= 1e-8


def test_flat_band_closed_form():
    params = ModelParams(n_cells=50, v=0.0, w=0.5, z=0.0)
    ensemble = gibbs_weights(diagonalize(build_hamiltonian(params)), 5e-4)
    matrix = qfi_matrix(ensemble)
    assert np.abs(matrix - np.diag([0.5, 0.5, 1.0])).max() <= 1e-3
    assert interferometric_power(matrix).i_p == pytest.approx(0.5, abs=1e-3)


def test_flat_band_brute_force_small_chain():
    params = ModelParams(n_cells=6, v=0.0, w=0.5, z=0.0)
    spectrum = diagonalize(build_hamiltonian(params))
    ensemble = gibbs_weights(spectrum, 5e-4)
    for axis, expected in (("x", 0.5), ("y", 0.5), ("z", 1.0)):
        generator = sublattice_pauli(axis, 6)
        reference = dense_qfi_reference(ensemble.weights, spectrum.vectors, generator)
        assert reference == pytest.approx(expected, abs=1e-6)
        assert qfi_scalar(ensemble, generator) == pytest.approx(reference, abs=1e-10)


def test_matrix_symmetric_and_psd_on_seeded_grid():
    rng = np.random.default_rng(12)
    for _ in range(12):
        params = ModelParams(
            n_cells=int(rng.integers(3, 9)),
            v=rng.uniform(0.0, 1.0),
            w=rng.uniform(0.0, 1.0),
            z=rng.uniform(0.0, 1.0),
        )
        ensemble = gibbs_weights(diagonalize(build_hamiltonian(params)), rng.uniform(0.02, 2.0))
        matrix = qfi_matrix(ensemble)
        assert np.abs(matrix - matrix.T).max() <= 1e-10
        assert np.linalg.eigvalsh(matrix)[0] >= -1e-10


def test_matrix_invariant_under_degenerate_cluster_rotation():
    params = ModelParams(n_cells=8, v=0.0, w=0.5, z=0.0)
    spectrum = diagonalize(build_hamiltonian(params))
    ensemble = gibbs_weights(spectrum, 0.05)
    base = qfi_matrix(ensemble)
    rng = np.random.default_rng(77)
    rotation = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    rotated_vectors = spectrum.vectors.copy()
    rotated_vectors[:, :8] = rotated_vectors[:, :8] @ rotation
    rotated = gibbs_weights(Spectrum(spectrum.energies, rotated_vectors), 0.05)
    assert np.abs(qfi_matrix(rotated) - base).max() <= 1e-9


@pytest.mark.parametrize("boundary", ["periodic", "open"])
@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_real_block_rotation_matches_kron_oracle(n, boundary):
    # In a real eigenbasis the Kronecker generators stay real (x, z) or
    # imaginary (y), so M_xy and M_yz vanish term by term and print as 0.
    params = ModelParams(n_cells=n, v=0.3, w=0.5, z=0.2, boundary=boundary)
    spectrum = diagonalize(build_hamiltonian(params))
    vectors = spectrum.vectors
    assert np.isrealobj(vectors)
    for axis, generator in zip("xyz", sublattice_paulis(n)):
        assert np.array_equal(generator, sublattice_pauli(axis, n))
        rotated = vectors.T @ generator @ vectors
        assert np.all((rotated.real if axis == "y" else rotated.imag) == 0.0)

    for matrix in qfi_matrix(gibbs_weights(spectrum, np.array([0.0, 0.05, 0.7]))):
        assert matrix[0, 1] == matrix[1, 0] == 0.0
        assert matrix[1, 2] == matrix[2, 1] == 0.0


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_matrix_entries_are_qfi_scalar_sums(boundary):
    # The diagonal is F(g_l) and M_xz the polarization identity
    # [F(g_x + g_z) - F(g_x) - F(g_z)] / 2, each from qfi_scalar.
    rng = np.random.default_rng(41 if boundary == "periodic" else 42)
    temperatures = np.array([0.0, 0.05, 0.7])
    for _ in range(6):
        n = int(rng.integers(2, 13))
        params = ModelParams(
            n_cells=n, v=rng.uniform(0.0, 1.0), w=rng.uniform(0.0, 1.0),
            z=rng.uniform(0.0, 1.0), boundary=boundary,
        )
        spectrum = diagonalize(build_hamiltonian(params))
        matrices = qfi_matrix(gibbs_weights(spectrum, temperatures))
        x, y, z = (sublattice_pauli(axis, n) for axis in "xyz")
        for t, matrix in zip(temperatures, matrices):
            ensemble = gibbs_weights(spectrum, t)
            diagonal = [qfi_scalar(ensemble, generator) for generator in (x, y, z)]
            assert np.abs(np.diag(matrix) - diagonal).max() <= 1e-12
            cross = (qfi_scalar(ensemble, x + z) - diagonal[0] - diagonal[2]) / 2.0
            assert matrix[0, 2] == matrix[2, 0]
            assert abs(matrix[0, 2] - cross) <= 1e-12


def test_pair_skip_error_is_bounded():
    # Deep low-T weights land between the skip cutoff and zero.
    rng = np.random.default_rng(21)
    params = ModelParams(n_cells=4, v=0.3, w=0.9, z=0.1)
    spectrum = diagonalize(build_hamiltonian(params))
    ensemble = gibbs_weights(spectrum, 0.02)
    assert np.any((ensemble.weights > 0.0) & (ensemble.weights < PAIR_WEIGHT_CUTOFF))
    generator = random_hermitian(rng, 8)
    skipped = qfi_scalar(ensemble, generator)
    dense = dense_qfi_reference(ensemble.weights, spectrum.vectors, generator)
    pair_total = ensemble.weights[:, None] + ensemble.weights[None, :]
    n_skipped = int(((pair_total > 0.0) & (pair_total < PAIR_WEIGHT_CUTOFF)).sum())
    assert n_skipped > 0
    scale = np.abs(generator).max() ** 2
    assert abs(skipped - dense) <= n_skipped * PAIR_WEIGHT_CUTOFF * scale * 8


def masked_pair_weights(left, right):
    """The formula with a safe denominator and two np.where calls."""
    total, diff = left + right, left - right
    safe = np.where(total > 0.0, total, 1.0)
    return np.where(total >= PAIR_WEIGHT_CUTOFF, diff * diff / safe, 0.0)


def test_pair_weights_match_the_masked_formula_bit_for_bit():
    # Every pair of zeros, tiny and subnormal weights, sums just below, at
    # and above the cutoff, and equal weights; then Gibbs-like rows with
    # some weights pushed under the cutoff.
    cutoff = PAIR_WEIGHT_CUTOFF
    values = np.array([
        0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-200,
        np.nextafter(cutoff, 0.0), cutoff, np.nextafter(cutoff, 1.0),
        0.4 * cutoff, 0.5 * cutoff, 0.6 * cutoff, 0.3, 0.7, 1.0,
    ])
    got = pair_weights(values[:, None], values[None, :])
    assert got.tobytes() == masked_pair_weights(values[:, None], values[None, :]).tobytes()
    assert np.all(np.diag(got) == 0.0)
    assert got[6, 0] == 0.0 and got[7, 0] > 0.0 and got[8, 0] > 0.0
    weights = np.random.default_rng(4).dirichlet(np.ones(40), size=3)
    weights[:, ::5] *= 1e-13
    # A reused `out` buffer, stale values and all, gives the same bits.
    buffer = np.full((40, 40), np.nan)
    for row in weights:
        left, right = row[:, None], row[None, :]
        want = masked_pair_weights(left, right).tobytes()
        assert pair_weights(left, right).tobytes() == want
        assert pair_weights(left, right, out=buffer) is buffer
        assert buffer.tobytes() == want


def test_interferometric_power_given_matrix():
    report = interferometric_power(np.diag([0.5, 0.5, 1.0]))
    assert report.i_p == 0.5
    assert report.max_eigenvalue == 1.0
    assert abs(report.optimal_direction[2]) <= 1e-12
    assert np.linalg.norm(report.optimal_direction) == pytest.approx(1.0, abs=1e-10)


def test_interferometric_power_ordering_and_direction_sign():
    rng = np.random.default_rng(6)
    for _ in range(10):
        basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        eigenvalues = np.sort(rng.uniform(0.0, 2.0, 3))
        matrix = (basis * eigenvalues) @ basis.T
        report = interferometric_power(matrix)
        assert report.i_p == pytest.approx(eigenvalues[0], abs=1e-10)
        assert report.i_p <= eigenvalues[1] + 1e-10 <= report.max_eigenvalue + 2e-10
        first_nonzero = report.optimal_direction[np.abs(report.optimal_direction) > 1e-12][0]
        assert first_nonzero > 0.0


def test_interferometric_power_stack_applies_every_rule_per_matrix():
    rng = np.random.default_rng(8)
    basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    stack = np.stack([
        np.diag([-5e-11, 0.5, 1.0]),  # clamped
        (basis * [0.1, 0.4, 0.9]) @ basis.T,
        np.diag([0.5, 0.5, 1.0]),
        np.zeros((3, 3)),
    ])
    report = interferometric_power(stack)
    assert report.i_p.shape == (4,) and report.optimal_direction.shape == (4, 3)
    for i, matrix in enumerate(stack):
        alone = interferometric_power(matrix)
        assert report.i_p[i] == alone.i_p and report.max_eigenvalue[i] == alone.max_eigenvalue
        assert np.array_equal(report.optimal_direction[i], alone.optimal_direction)
    assert report.i_p[0] == 0.0

    for bad in (np.diag([-1e-8, 0.5, 1.0]), np.triu(np.ones((3, 3)))):
        with pytest.raises((ArithmeticError, ValueError)):
            interferometric_power(np.stack([np.eye(3), bad]))


def test_interferometric_power_clamps_and_rejects():
    report = interferometric_power(np.diag([-5e-11, 0.5, 1.0]))
    assert report.i_p == 0.0
    with pytest.raises(ArithmeticError):
        interferometric_power(np.diag([-1e-8, 0.5, 1.0]))
    with pytest.raises(ValueError):
        interferometric_power(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


@pytest.mark.parametrize("shape", [(2, 2), (3,), (3, 4), (2, 2, 3, 3)])
def test_interferometric_power_refuses_a_shape_other_than_3x3(shape):
    with pytest.raises(ValueError, match=r"expected a 3x3 matrix or a stack of them, got shape"):
        interferometric_power(np.zeros(shape))


@pytest.mark.parametrize("dim,dtype,message", [
    (3, float, "ensemble dimension must be even (two sublattices per cell)"),
    (4, complex, "the QFI matrix needs real eigenvectors"),
], ids=["odd-dimension", "complex-eigenvectors"])
def test_qfi_matrix_refuses_an_odd_dimension_or_complex_eigenvectors(dim, dtype, message):
    rng = np.random.default_rng(5)
    vectors = random_basis(rng, dim).astype(dtype)
    spectrum = Spectrum(energies=np.sort(rng.standard_normal(dim)), vectors=vectors)
    with pytest.raises(ValueError) as caught:
        qfi_matrix(gibbs_weights(spectrum, 0.5))
    assert str(caught.value) == message


def test_high_temperature_destroys_interferometric_power():
    params = ModelParams(n_cells=50, v=0.3, w=0.5, z=0.2)
    spectrum = diagonalize(build_hamiltonian(params))
    tail = [
        interferometric_power(qfi_matrix(gibbs_weights(spectrum, t))).i_p
        for t in (0.5, 1.0, 5.0)
    ]
    assert all(a >= b for a, b in zip(tail, tail[1:]))
    assert interferometric_power(qfi_matrix(gibbs_weights(spectrum, 1e6))).i_p <= 1e-6


def test_ring_state_is_separable_between_cell_and_sublattice():
    """A ring's i_p comes from a separable state; an open chain's need not.

    Each Bloch eigenstate of a ring is |k> (x) u(k), so the Gibbs mixture
    rho = V diag(lambda) V^T is a mixture of products and its partial
    transpose over the sublattice has no negative eigenvalue. The dense
    eigenvectors carry rounding: a pair of levels a, b with spacing dE is
    mixed by about eps |H| / dE, which moves rho by that times
    |lambda_a - lambda_b|. At T = 0 next to a flat band bottom this
    reaches -4e-10 in a wider sample, so each case allows 16 times
    eps |H| max |d lambda| / |dE| on top of 1e-12 (measured at most 5.7
    times on 16,000 rings). Open chains in the same sample go well below
    -1e-3, so the check tells separable from entangled, and over half the
    ring cases have i_p > 0.01, so the separable states are not trivial.
    """
    rng = np.random.default_rng(0)
    eps = np.finfo(float).eps
    open_lowest, ring_powers = [], []
    for _ in range(40):
        n = int(rng.integers(2, 51))
        v, w, z = rng.uniform(-1.0, 1.0, 3)
        for boundary in ("periodic", "open"):
            spectrum = diagonalize(build_hamiltonian(ModelParams(n, v, w, z, boundary)))
            energies, vectors = spectrum.energies, spectrum.vectors
            spacing = np.abs(energies[:, None] - energies[None, :])
            for temperature in (0.0, 0.05, 0.2, 1.0):
                ensemble = gibbs_weights(spectrum, temperature)
                weights = ensemble.weights
                rho = (vectors * weights) @ vectors.T
                transposed = rho.reshape(n, 2, n, 2).transpose(0, 3, 2, 1).reshape(2 * n, 2 * n)
                low = np.linalg.eigvalsh(transposed)[0]
                if boundary == "open":
                    open_lowest.append(low)
                    continue
                steps = np.abs(weights[:, None] - weights[None, :])
                sensitivity = np.divide(steps, spacing, out=np.zeros_like(steps), where=spacing > 0)
                tolerance = 1e-12 + 16 * eps * np.abs(energies).max() * sensitivity.max()
                assert low >= -tolerance, (n, v, w, z, temperature, low)
                ring_powers.append(interferometric_power(qfi_matrix(ensemble)).i_p)
    assert min(open_lowest) < -1e-3
    assert sum(power > 0.01 for power in ring_powers) >= len(ring_powers) / 2


def test_fidelity_oracle_stationary_for_maximally_mixed():
    spectrum = Spectrum(energies=np.arange(6.0), vectors=np.eye(6))
    uniform = GibbsEnsemble(temperature=np.inf, weights=np.full(6, 1.0 / 6.0), spectrum=spectrum)
    rng = np.random.default_rng(14)
    assert abs(qfi_fidelity_oracle(uniform, random_hermitian(rng, 6), 1e-2)) <= 1e-8


def test_fidelity_oracle_pure_sublattice_state():
    # |cell 0, A> against the sublattice-x generator: variance 1.
    energies = np.concatenate([[0.0], np.arange(1.0, 8.0)])
    spectrum = Spectrum(energies=energies, vectors=np.eye(8))
    ensemble = gibbs_weights(spectrum, 0.0)
    generator = sublattice_pauli("x", 4)
    value = qfi_fidelity_oracle(ensemble, generator, 1e-3)
    assert value == pytest.approx(1.0, rel=1e-4)


def test_fidelity_oracle_matches_qfi_scalar():
    rng = np.random.default_rng(19)
    dtheta = 1e-3
    tolerance = max(1e-4, 10.0 * dtheta**2)
    for _ in range(8):
        ensemble = seeded_ensemble(rng, 8)
        generator = random_hermitian(rng, 8)
        direct = qfi_scalar(ensemble, generator)
        oracle = qfi_fidelity_oracle(ensemble, generator, dtheta)
        assert abs(direct - oracle) / max(direct, 1e-12) <= tolerance


@pytest.mark.parametrize("boundary", ["periodic", "open"])
@pytest.mark.parametrize("v,w,z", [(0.3, 0.5, 0.2), (0.7, 0.3, 0.2), (0.3, 0.5, 0.8)])
def test_fidelity_oracle_matches_qfi_scalar_on_cold_chains(v, w, z, boundary):
    # Cold chains hold weights many orders below their largest one. A root
    # taken by eigh of the assembled, rounded state, with eigvalsh and
    # clipping for the fidelity, gives -7.5 against 4e-31 on the
    # (0.3, 0.5, 0.8) ring at T = 0.02 under sigma_x, dtheta = 1e-4. The
    # ensemble's own root and singular values: at most 6.1e-7 here.
    spectrum = diagonalize(
        build_hamiltonian(ModelParams(n_cells=6, v=v, w=w, z=z, boundary=boundary))
    )
    for temperature in (0.02, 0.05):
        ensemble = gibbs_weights(spectrum, temperature)
        for generator in sublattice_paulis(6):
            direct = qfi_scalar(ensemble, generator)
            for dtheta in (1e-4, 1e-3):
                oracle = qfi_fidelity_oracle(ensemble, generator, dtheta)
                assert abs(oracle - direct) <= 1e-5, (temperature, dtheta, oracle, direct)


def test_fidelity_oracle_rejects_bad_step():
    rng = np.random.default_rng(2)
    ensemble = seeded_ensemble(rng, 4)
    generator = random_hermitian(rng, 4)
    for bad in (1e-7, 0.1, 0.0):
        with pytest.raises(ValueError):
            qfi_fidelity_oracle(ensemble, generator, bad)


def test_fidelity_oracle_refuses_a_dimension_above_64():
    rng = np.random.default_rng(4)
    ensemble = seeded_ensemble(rng, 66)
    with pytest.raises(ValueError, match="oracle limited to dimension 64, got 66"):
        qfi_fidelity_oracle(ensemble, np.eye(66), 1e-4)


def test_generator_shape_is_checked_by_both_dense_qfis():
    rng = np.random.default_rng(3)
    ensemble = seeded_ensemble(rng, 4)
    for qfi in (qfi_scalar, lambda ens, gen: qfi_fidelity_oracle(ens, gen, 1e-4)):
        with pytest.raises(ValueError, match="does not match ensemble dimension 4"):
            qfi(ensemble, random_hermitian(rng, 6))
        with pytest.raises(ValueError, match="square"):
            qfi(ensemble, np.ones((4, 3)))
