"""Diagonalization, Gibbs weights, Fermi occupations and their band contrast, diagnostics."""

import warnings

import numpy as np
import pytest

from dense_engine import Spectrum, diagonalize
from topo_thermo.bloch import bloch_spectrum
from topo_thermo.chiral import chiral_spectrum
from topo_thermo.lattice import OPEN, PERIODIC, ModelParams, build_hamiltonian
from topo_thermo.thermal import (
    BandSpectrum,
    GibbsEnsemble,
    band_contrast,
    ensemble_diagnostics,
    fermi_occupations,
    gibbs_weights,
)


def random_model(rng, boundary=PERIODIC):
    return ModelParams(
        n_cells=int(rng.integers(3, 12)),
        v=rng.uniform(0.05, 1.0),
        w=rng.uniform(0.05, 1.0),
        z=rng.uniform(0.05, 1.0),
        boundary=boundary,
    )


def test_diagonalize_closed_forms():
    s = diagonalize(np.zeros((2, 2)))
    assert np.allclose(s.energies, [0.0, 0.0])
    s = diagonalize(np.array([[0.0, 0.3], [0.3, 0.0]]))
    assert np.allclose(s.energies, [-0.3, 0.3], atol=1e-14)


def test_diagonalize_rejects_bad_input():
    with pytest.raises(ValueError):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        diagonalize(np.zeros((2, 3)))


def test_diagonalize_orthonormality_and_residual():
    rng = np.random.default_rng(17)
    for _ in range(10):
        h = build_hamiltonian(random_model(rng))
        s = diagonalize(h)
        dim = s.dimension
        gram = s.vectors.T @ s.vectors
        assert np.abs(gram - np.eye(dim)).max() <= 1e-10
        residual = h @ s.vectors - s.vectors * s.energies
        bound = 1e-9 * max(1.0, np.linalg.norm(h))
        assert np.linalg.norm(residual, axis=0).max() <= bound
        assert np.all(np.diff(s.energies) >= 0.0)


def test_diagonalize_deterministic_for_identical_input():
    h = build_hamiltonian(ModelParams(n_cells=8, v=0.3, w=0.5, z=0.2))
    a = diagonalize(h)
    b = diagonalize(h.copy())
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.vectors, b.vectors)


def test_ssh_edge_modes_open_chain():
    # Topological side hosts exactly two near-zero modes, trivial side none.
    p = ModelParams(n_cells=50, v=0.1, w=0.5, z=0.0, boundary=OPEN)
    assert int((np.abs(diagonalize(build_hamiltonian(p)).energies) < 1e-3).sum()) == 2
    p = ModelParams(n_cells=50, v=0.5, w=0.1, z=0.0, boundary=OPEN)
    assert int((np.abs(diagonalize(build_hamiltonian(p)).energies) < 1e-3).sum()) == 0


def test_periodic_spectrum_is_chiral_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(5):
        s = diagonalize(build_hamiltonian(random_model(rng)))
        assert np.abs(s.energies + s.energies[::-1]).max() <= 1e-9


def two_level_spectrum():
    return Spectrum(energies=np.array([-1.0, 1.0]), vectors=np.eye(2))


def test_gibbs_closed_forms():
    ens = gibbs_weights(two_level_spectrum(), 1e9)
    assert np.abs(ens.weights - 0.5).max() <= 1e-8

    s = Spectrum(energies=np.array([-1.0, 0.0, 1.0]), vectors=np.eye(3))
    ens = gibbs_weights(s, 0.0)
    assert np.array_equal(ens.weights, [1.0, 0.0, 0.0])

    ens = gibbs_weights(two_level_spectrum(), 1.0)
    e2 = np.exp(2.0)
    assert ens.weights[0] == pytest.approx(e2 / (1.0 + e2), abs=1e-12)
    assert ens.weights[1] == pytest.approx(1.0 / (1.0 + e2), abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_gibbs_weights_are_uniform_at_infinite_temperature_whatever_the_spread():
    # The spread 2e308 overflows float64: the excitation is inf, never inf / inf.
    band = BandSpectrum(n_cells=1, energies=np.array([-1e308, 1e308]))
    weights = gibbs_weights(band, np.array([0.0, 0.1, np.inf])).weights
    assert np.array_equal(weights, [[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
    assert np.array_equal(fermi_occupations(band, np.array([0.1, np.inf])), [[1, 0], [0.5, 0.5]])


def test_gibbs_invariants():
    rng = np.random.default_rng(2)
    for _ in range(20):
        energies = np.sort(rng.standard_normal(12))
        s = Spectrum(energies=energies, vectors=np.eye(12))
        t = rng.uniform(0.05, 5.0)
        ens = gibbs_weights(s, t)
        assert abs(ens.weights.sum() - 1.0) <= 1e-12
        assert np.all(ens.weights >= 0.0)
        assert np.all(np.diff(ens.weights) <= 1e-15)
        shifted = gibbs_weights(Spectrum(energies=energies + 7.3, vectors=np.eye(12)), t)
        assert np.abs(shifted.weights - ens.weights).max() <= 1e-12


def test_batched_temperatures_match_single_calls_bitwise():
    rng = np.random.default_rng(12)
    energies = np.sort(np.concatenate([[-1.0, -1.0 + 1e-12], rng.standard_normal(9)]))
    s = Spectrum(energies=energies, vectors=np.eye(11))
    shifted = Spectrum(energies=energies - 0.1, vectors=np.eye(11))
    temps = np.array([0.0, 1e-3, 0.05, 0.7, 3.0, 1e12])
    ensemble = gibbs_weights(s, temps)
    occupations = fermi_occupations(shifted, temps)
    diagnostics = ensemble_diagnostics(ensemble)
    assert ensemble.weights.shape == occupations.shape == (6, 11)
    for i, t in enumerate(temps):
        alone = gibbs_weights(s, t)
        assert np.array_equal(ensemble.weights[i], alone.weights)
        assert np.array_equal(occupations[i], fermi_occupations(shifted, t))
        assert diagnostics.purity[i] == ensemble_diagnostics(alone).purity
        assert diagnostics.entropy[i] == ensemble_diagnostics(alone).entropy
    with pytest.raises(ValueError):
        gibbs_weights(s, np.array([0.1, -0.1]))
    with pytest.raises(ValueError):
        fermi_occupations(s, np.array([[0.1]]))


def test_gibbs_degenerate_ground_cluster_at_zero_temperature():
    s = Spectrum(energies=np.array([0.0, 0.0, 1.0, 2.0]), vectors=np.eye(4))
    ens = gibbs_weights(s, 0.0)
    assert np.array_equal(ens.weights, [0.5, 0.5, 0.0, 0.0])


def test_gibbs_underflow_flushes_to_exact_zero():
    s = Spectrum(energies=np.array([0.0, 800.0]), vectors=np.eye(2))
    ens = gibbs_weights(s, 1.0)
    assert ens.weights[1] == 0.0
    assert ens.weights[0] == 1.0


def test_gibbs_rejects_negative_temperature():
    with pytest.raises(ValueError):
        gibbs_weights(two_level_spectrum(), -0.1)
    with pytest.raises(ValueError):
        fermi_occupations(two_level_spectrum(), -0.1)


def test_ensemble_refuses_negative_weights():
    # The one check of an ensemble's weights, made when it is built, over
    # the dense spectrum and both engines' band spectra alike.
    params = ModelParams(n_cells=3, v=0.3, w=0.5, z=0.2)
    spectra = (
        diagonalize(build_hamiltonian(params)),
        bloch_spectrum(params),
        chiral_spectrum(ModelParams(n_cells=3, v=0.3, w=0.5, z=0.2, boundary=OPEN)),
    )
    for spectrum in spectra:
        one = np.full(6, 1.0 / 6.0)
        one[4] = -1e-300
        batched = np.full((4, 6), 1.0 / 6.0)
        batched[2, 5] = -0.1
        with pytest.raises(ValueError, match="ensemble weights must be nonnegative"):
            GibbsEnsemble(temperature=0.1, weights=one, spectrum=spectrum)
        with pytest.raises(ValueError, match="ensemble weights must be nonnegative"):
            GibbsEnsemble(temperature=np.full(4, 0.1), weights=batched, spectrum=spectrum)
        zero = np.array([0.5, 0.0, 0.5, 0.0, 0.0, 0.0])
        ensemble = GibbsEnsemble(temperature=0.0, weights=zero, spectrum=spectrum)
        assert ensemble.weights is zero


def test_nan_temperature_is_rejected():
    # NaN passes a `t < 0` test; every temperature entry point refuses it.
    for temperature in (np.nan, [0.1, np.nan]):
        with pytest.raises(ValueError):
            gibbs_weights(two_level_spectrum(), temperature)
        with pytest.raises(ValueError):
            fermi_occupations(two_level_spectrum(), temperature)


@pytest.mark.parametrize("boundary", [PERIODIC, OPEN])
def test_diagonalize_rejects_an_overflowing_spectrum(boundary):
    h = build_hamiltonian(ModelParams(n_cells=4, v=1e308, w=1e308, z=0.2, boundary=boundary))
    with pytest.raises(FloatingPointError):
        diagonalize(h)


def test_entropy_non_increasing_as_temperature_drops():
    rng = np.random.default_rng(9)
    energies = np.sort(rng.standard_normal(10))
    s = Spectrum(energies=energies, vectors=np.eye(10))
    temps = [5.0, 2.0, 1.0, 0.5, 0.2, 0.05]
    entropies = [ensemble_diagnostics(gibbs_weights(s, t)).entropy for t in temps]
    assert all(a >= b - 1e-12 for a, b in zip(entropies, entropies[1:]))


def test_fermi_closed_forms():
    occ = fermi_occupations(two_level_spectrum(), 1.0)
    assert occ[0] == pytest.approx(0.7310585786300049, abs=1e-12)
    assert occ[1] == pytest.approx(0.2689414213699951, abs=1e-12)

    # (E - mu)/T far beyond the exp range saturates exactly, without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        occ = fermi_occupations(two_level_spectrum(), np.array([1e-9, 1e-300]))
    assert np.array_equal(occ, [[1.0, 0.0], [1.0, 0.0]])

    s = Spectrum(energies=np.array([0.0]), vectors=np.eye(1))
    for t in (0.0, 0.3, 2.0):
        assert fermi_occupations(s, t)[0] == 0.5


def test_fermi_matches_logistic_formula():
    rng = np.random.default_rng(4)
    energies = np.sort(rng.standard_normal(9))
    for t, mu in [(0.7, 0.0), (1.3, 0.4), (0.2, -0.6)]:
        # Occupations are at half filling; a level shift stands in for mu.
        occ = fermi_occupations(Spectrum(energies=energies - mu, vectors=np.eye(9)), t)
        direct = 1.0 / (1.0 + np.exp((energies - mu) / t))
        assert np.abs(occ - direct).max() <= 1e-12
        assert np.all(np.diff(occ) <= 1e-15)


def test_band_order_matches_the_sorted_spectrum():
    # Band order [-e, +e] against the same levels sorted ascending. The
    # lowest level -2 sits twice in mid-array, and a zero level gives the
    # step's 1/2. At T = 0 both are exact; at T > 0 the weights differ only
    # in the order of the normalizing sum.
    rng = np.random.default_rng(15)
    clustered = np.array([0.5, 2.0, 1.0, 2.0, 0.0, 0.7])
    for e in (clustered, rng.uniform(0.0, 2.0, 9)):
        bands = BandSpectrum(n_cells=len(e), energies=np.concatenate([-e, e]))
        order = np.argsort(bands.energies, kind="stable")
        dense = Spectrum(energies=bands.energies[order], vectors=np.eye(2 * len(e)))
        temperatures = np.array([0.0, 0.05, 0.7, 3.0, 1e6])
        weights = gibbs_weights(bands, temperatures).weights[:, order]
        dense_weights = gibbs_weights(dense, temperatures).weights
        assert np.array_equal(weights[0], dense_weights[0])
        assert np.all(np.abs(weights - dense_weights) <= 1e-15 * dense_weights)
        occupations = fermi_occupations(bands, temperatures)[:, order]
        assert np.array_equal(occupations, fermi_occupations(dense, temperatures))
    clustered_bands = BandSpectrum(n_cells=6, energies=np.concatenate([-clustered, clustered]))
    ground = gibbs_weights(clustered_bands, 0.0).weights
    assert np.array_equal(ground, [0, 0.5, 0, 0.5, 0, 0, 0, 0, 0, 0, 0, 0])
    lower, upper = bands.bands(np.arange(18))
    assert np.array_equal(lower, np.arange(9)) and np.array_equal(upper, np.arange(9, 18))
    with pytest.raises(ValueError):
        bands.bands(np.arange(17))


def test_fermi_zero_temperature_step():
    s = Spectrum(energies=np.array([-1.0, 0.0, 1.0]), vectors=np.eye(3))
    occ = fermi_occupations(s, 0.0)
    assert np.array_equal(occ, [1.0, 0.5, 0.0])


@pytest.mark.parametrize(
    "spectrum,zero_levels",
    [
        (bloch_spectrum(ModelParams(n_cells=40, v=0.3, w=0.5, z=0.2)), 0),
        (chiral_spectrum(ModelParams(n_cells=40, v=0.3, w=0.5, z=0.2, boundary=OPEN)), 0),
        # v = -(w + z) closes the gap at k = 0: that level is exactly 0.
        (bloch_spectrum(ModelParams(n_cells=40, v=-(0.5 + 0.2), w=0.5, z=0.2)), 1),
    ],
    ids=["ring", "open-topological", "ring-zero-level"],
)
def test_band_contrast_is_tanh_of_the_half_level_over_t(spectrum, zero_levels):
    levels = spectrum.energies[spectrum.n_cells :]
    assert np.count_nonzero(levels == 0.0) == zero_levels
    temperatures = np.array([0.01, 0.02, 0.05, 0.2, 1.0, 5.0, 50.0])
    contrasts = band_contrast(spectrum, temperatures)
    assert contrasts.shape == (len(temperatures), spectrum.n_cells)
    # Measured: at most 2.3e-16 for T from 0.01 to 50.
    assert np.abs(contrasts - np.tanh(levels / (2.0 * temperatures[:, None]))).max() <= 4e-16
    # The step of fermi_occupations: 1 on a nonzero level, 0 on an exact zero level.
    cold = band_contrast(spectrum, 0.0)
    assert np.array_equal(cold, np.where(levels == 0.0, 0.0, 1.0))
    assert np.array_equal(band_contrast(spectrum, np.inf), np.zeros(spectrum.n_cells))


def test_diagnostics_closed_forms():
    s = Spectrum(energies=np.arange(4.0), vectors=np.eye(4))
    pure = gibbs_weights(s, 0.0)
    diag = ensemble_diagnostics(pure)
    assert diag.purity == 1.0 and diag.entropy == 0.0

    uniform = gibbs_weights(s, 1e12)
    diag = ensemble_diagnostics(uniform)
    assert diag.purity == pytest.approx(0.25, abs=1e-9)
    assert diag.entropy == pytest.approx(np.log(4.0), abs=1e-9)


def test_diagnostics_two_level_gibbs():
    # Independent closed form: purity = (1 + tanh(1)^2)/2,
    # entropy = beta*<E> + ln Z at beta = 1 for energies (-1, 1).
    ens = gibbs_weights(two_level_spectrum(), 1.0)
    diag = ensemble_diagnostics(ens)
    z = np.exp(1.0) + np.exp(-1.0)
    assert diag.purity == pytest.approx((1.0 + np.tanh(1.0) ** 2) / 2.0, abs=1e-12)
    assert diag.entropy == pytest.approx(-np.tanh(1.0) + np.log(z), abs=1e-12)


def test_diagnostics_ranges():
    rng = np.random.default_rng(31)
    for _ in range(10):
        dim = int(rng.integers(2, 16))
        s = Spectrum(energies=np.sort(rng.standard_normal(dim)), vectors=np.eye(dim))
        diag = ensemble_diagnostics(gibbs_weights(s, rng.uniform(0.05, 5.0)))
        assert 1.0 / dim - 1e-12 <= diag.purity <= 1.0 + 1e-12
        assert -1e-12 <= diag.entropy <= np.log(dim) + 1e-12
