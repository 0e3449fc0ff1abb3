"""Bloch engine for periodic rings against the dense oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from topo_thermo.bloch import (
    _ordered_product,
    bloch_polarization_determinant,
    bloch_qfi_matrix,
    bloch_spectrum,
    bloch_state_expectations,
)
from topo_thermo.chiral import winding_number
from topo_thermo.lattice import OPEN, ModelParams, build_hamiltonian
from topo_thermo.polarization import (
    polarization_from_states,
    thermal_polarization_determinant,
    thermal_polarization_literal,
    thermal_polarization_weighted,
)
from topo_thermo.qfi import interferometric_power, pair_weights, qfi_matrix
from topo_thermo.thermal import (
    GibbsEnsemble,
    diagonalize,
    ensemble_diagnostics,
    fermi_occupations,
    gibbs_weights,
)

QFI_TOL = 1e-13
DET_RTOL = 1e-11
DET_ATOL = 1e-14
DET_SCALE = 1e-3

# T = 0 examples keep every level either degenerate with the ground level
# (by symmetry, so within rounding) or this far above it, and every |a(k)|
# this far from 0: a zero mode is half occupied only if its energy is
# exactly 0, and near-degenerate dense eigenvectors mix by ~1e-16 / gap.
T0_MIN_GAP = 1e-3
SYMMETRY_DEGENERACY = 1e-12

hopping = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def rings(draw):
    """(N, v, w, z) with N = 2, odd and even N, and the w = z and v = w + z families."""
    n = draw(st.one_of(st.just(2), st.integers(3, 40)))
    w, z = draw(hopping), draw(hopping)
    family = draw(st.sampled_from(["generic", "w=z", "v=w+z", "v=-(w+z)"]))
    if family == "w=z":
        z = w
    v = {"v=w+z": w + z, "v=-(w+z)": -(w + z)}.get(family, None)
    if v is None:
        v = draw(hopping)
    return n, v, w, z


# Both engines get the energies to a few ulp, and a Gibbs weight turns an
# energy error dE into a relative error dE / T, so the fixed tolerances
# below hold for T >= 0.02 (the low end of the grid they were measured on).
temperatures = st.one_of(
    st.just(0.0),
    st.just(1e6),
    st.floats(0.02, 3.0),
)


def assert_determinants_agree(dense, bloch):
    reference = dense.expectation
    if abs(reference) >= DET_SCALE:
        assert abs(bloch.expectation - reference) <= DET_RTOL * abs(reference)
    else:
        assert abs(bloch.expectation - reference) <= DET_ATOL
    assert bloch.defined == dense.defined
    assert bloch.polarization == dense.polarization


@seed(20241018)
@settings(max_examples=400, deadline=None, database=None)
@given(ring=rings(), temperature=temperatures)
def test_bloch_matches_dense(ring, temperature):
    n, v, w, z = ring
    params = ModelParams(n_cells=n, v=v, w=w, z=z)
    bands = bloch_spectrum(params)
    if temperature == 0.0:
        excitation = bands.energies - bands.energies.min()
        near_ground = (excitation > SYMMETRY_DEGENERACY) & (excitation < T0_MIN_GAP)
        assume(np.abs(bands.coupling).min() >= T0_MIN_GAP and not near_ground.any())
    spectrum = diagonalize(build_hamiltonian(params))
    # Band order [-|a|, +|a|] against the dense ascending order.
    order = np.argsort(bands.energies, kind="stable")
    assert np.abs(bands.energies[order] - spectrum.energies).max() <= 1e-13

    ensemble = gibbs_weights(spectrum, temperature)
    bloch_ensemble = gibbs_weights(bands, temperature)
    assert np.abs(bloch_ensemble.weights[order] - ensemble.weights).max() <= QFI_TOL
    dense_matrix = qfi_matrix(ensemble)
    matrix = bloch_qfi_matrix(bloch_ensemble)
    assert np.abs(matrix - dense_matrix).max() <= QFI_TOL
    assert abs(interferometric_power(matrix).i_p - interferometric_power(dense_matrix).i_p) <= QFI_TOL
    for got, want in zip(ensemble_diagnostics(bloch_ensemble), ensemble_diagnostics(ensemble)):
        assert abs(got - want) <= QFI_TOL

    assert_determinants_agree(
        thermal_polarization_determinant(spectrum, temperature),
        bloch_polarization_determinant(bands, temperature),
    )

    per_state = bloch_state_expectations(bands)
    literal = thermal_polarization_literal(ensemble)
    bloch_literal = polarization_from_states(bloch_ensemble, per_state, "literal")
    assert (bloch_literal.polarization, bloch_literal.defined) == (
        literal.polarization,
        literal.defined,
    )
    # Inside a degenerate cluster that X connects (momenta k and k + 2 pi/N)
    # the dense weighted answer depends on the basis LAPACK picks there:
    # k, -k pairs at odd N, flat bands, and the k, pi - k pairs of v = 0.
    magnitude = np.abs(bands.coupling)
    connected = np.abs(magnitude - np.roll(magnitude, 1)).min() < 1e-9
    if n % 2 == 0 and not connected:
        weighted = thermal_polarization_weighted(ensemble)
        bloch_weighted = polarization_from_states(bloch_ensemble, per_state, "weighted")
        assert (bloch_weighted.polarization, bloch_weighted.defined) == (
            weighted.polarization,
            weighted.defined,
        )


TREE_ATOL = 1e-13

tree_temperatures = st.one_of(st.just(0.0), st.just(1e6), st.floats(0.01, 5.0))


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(
    n=st.one_of(st.just(2), st.integers(2, 64)),
    v=hopping,
    w=hopping,
    z=hopping,
    temperature_list=st.lists(tree_temperatures, min_size=1, max_size=4),
)
def test_ordered_product_matches_matrix_product(n, v, w, z, temperature_list):
    # Q_j = (1 - r_j h_j) / 2 from the band-ordered occupations, multiplied
    # as plain 2x2 complex matrices, later k on the left. The trace cannot
    # tell this order from its reversal or a cyclic shift, and neither can
    # the determinant it enters.
    bands = bloch_spectrum(ModelParams(n_cells=n, v=v, w=w, z=z))
    temperatures = np.array(temperature_list)
    lower, upper = bands.bands(fermi_occupations(bands, temperatures))
    t = lower - upper
    r = 2.0 * t / (1.0 + t * t)
    phase = np.exp(1j * np.angle(bands.coupling))
    q = -0.5 * r * phase

    def tree(columns):
        return _ordered_product(np.full(columns.shape, 0.5 + 0j), columns)

    for row in range(len(temperatures)):
        product = np.eye(2, dtype=complex)
        for j in range(n):
            factor = np.array([[0.5, q[row, j]], [np.conj(q[row, j]), 0.5]])
            assert np.linalg.norm(factor, 2) <= 1.0 + 1e-15
            product = factor @ product
        assert abs(2.0 * tree(q[row, :, None])[0] - np.trace(product)) <= TREE_ATOL

    # Each temperature of a batch is bitwise its single-temperature call.
    batch = tree(q.T.copy())
    result = bloch_polarization_determinant(bands, temperatures)
    for row, temperature in enumerate(temperatures):
        assert batch[row] == tree(q[row, :, None])[0]
        alone = bloch_polarization_determinant(bands, float(temperature))
        assert complex(result.expectation[row]) == alone.expectation
        assert float(result.magnitude[row]) == alone.magnitude
        assert float(result.polarization[row]) == alone.polarization
        assert bool(result.defined[row]) == alone.defined


def test_qfi_matches_the_full_generator_contraction_bitwise():
    # All nine Re(g_l conj(g_m)) rows summed along k. The diagonal sums as
    # the three diagonal rows do; every off-diagonal entry is exactly 0.
    # The xz and yz rows vanish term by term; the xy row is odd in k, so
    # its sum is only rounding noise, which bloch_qfi_matrix does not form.
    for n, v, w, z in ((2, 0.3, 0.5, 0.0), (7, 0.3, 0.5, 0.2), (50, 0.5, 0.3, 0.8)):
        bands = bloch_spectrum(ModelParams(n_cells=n, v=v, w=w, z=z))
        ensemble = gibbs_weights(bands, np.array([0.0, 0.05, 0.7, 1e6]))
        phi = np.angle(bands.coupling)
        g = np.stack([-1j * np.sin(phi), -1j * np.cos(phi), np.ones(n)])
        rows = (g[:, None, :] * g[None, :, :].conj()).real.reshape(9, n)
        lower, upper = bands.bands(ensemble.weights)
        pair = pair_weights(lower, upper)
        full = np.sum(pair[..., None, :] * rows, axis=-1).reshape(-1, 3, 3)
        matrices = bloch_qfi_matrix(ensemble)
        diagonal = np.diagonal(matrices, axis1=-2, axis2=-1)
        assert diagonal.tobytes() == np.diagonal(full, axis1=-2, axis2=-1).tobytes()
        off_diagonal = ~np.eye(3, dtype=bool)
        assert np.all(matrices[:, off_diagonal] == 0.0)
        scale = full[:, 0, 0] + full[:, 1, 1]
        assert np.all(np.abs(full[:, 0, 1]) <= 1e-15 * scale)


def test_bloch_hamiltonian_matches_real_space_convention():
    # h(k) in the Fourier basis of build_hamiltonian, N = 2 bond accumulation included.
    for n in (2, 3, 6):
        params = ModelParams(n_cells=n, v=0.3, w=-0.7, z=0.45)
        h = build_hamiltonian(params)
        bands = bloch_spectrum(params)
        cells = np.arange(n)
        for j, k in enumerate(2.0 * np.pi * cells / n):
            plane = np.exp(1j * k * cells) / np.sqrt(n)
            basis = np.zeros((2 * n, 2), dtype=complex)
            basis[0::2, 0] = plane
            basis[1::2, 1] = plane
            block = basis.conj().T @ h @ basis
            assert np.allclose(block, [[0.0, bands.coupling[j]], [np.conj(bands.coupling[j]), 0.0]])


def test_low_temperature_determinant_at_large_ring():
    # 1 - F(k) is singular in float64 here; the trace formula never inverts it.
    params = ModelParams(n_cells=120, v=0.3, w=0.5, z=0.2)
    dense = thermal_polarization_determinant(diagonalize(build_hamiltonian(params)), 1e-4)
    assert_determinants_agree(dense, bloch_polarization_determinant(bloch_spectrum(params), 1e-4))
    assert dense.defined and dense.polarization == 0.5


def test_infinite_temperature_determinant_closed_form():
    # t = 0: det M = 2 (1/4)^N + s (1/2)^N tr[(1/2)^N 1] = (1 + s) 2^(1 - 2N),
    # so with the background sign (-1)^(N-1) = s, E = 4^(1-N) at odd N and 0 at even N.
    for n in (3, 5, 7, 4, 6, 50):
        bands = bloch_spectrum(ModelParams(n_cells=n, v=0.3, w=-0.7, z=0.45))
        expectation = bloch_polarization_determinant(bands, 1e9).expectation
        if n % 2:
            assert abs(expectation - 4.0 ** (1 - n)) <= 1e-12 * 4.0 ** (1 - n)
        else:
            assert abs(expectation) <= 1e-15


@pytest.mark.parametrize(
    "v, w, z",
    [(1.0, 0.3, 0.2), (0.2, 0.9, 0.1), (0.1, 0.2, 0.8), (-0.6, 0.1, -0.3)],
    ids=["trivial", "topological", "w<z", "negative"],
)
@pytest.mark.parametrize("n", [2, 3, 7, 50, 121])
def test_zero_temperature_determinant_is_the_occupied_band_wilson_loop(n, v, w, z):
    # With a gap the T = 0 factors are the lower-band projectors, so
    # det M = s prod_j <u_-(k_{j+1})|u_-(k_j)>, u_-(k) = (exp(i phi), -1) / sqrt 2.
    k = 2.0 * np.pi * np.arange(n) / n
    phi = np.angle(v + w * np.exp(-1j * k) + z * np.exp(1j * k))
    lower = np.stack([np.exp(1j * phi), -np.ones(n)]) / np.sqrt(2.0)
    overlaps = np.sum(np.roll(lower, -1, axis=1).conj() * lower, axis=0)
    sign = (-1.0) ** (n + 1)
    background = (-1.0) ** (n - 1)
    want = sign * np.prod(overlaps) * background
    got = bloch_polarization_determinant(bloch_spectrum(ModelParams(n_cells=n, v=v, w=w, z=z)), 0.0)
    assert abs(got.expectation - want) <= DET_RTOL * abs(want) + DET_ATOL
    # At N = 2 with w or z dominant, phi turns by pi from k = 0 to pi: no overlap.
    if abs(want) >= DET_SCALE:
        assert got.defined and got.polarization == (0.0 if want.real > 0 else 0.5)


def test_ring_determinant_follows_the_winding_number():
    """Every defined ring P is 1/2 with winding and 0 without, when the k grid resolves a(k).

    At T = 0 the determinant is the occupied-band Wilson loop on the ring's
    own momenta k_j = 2 pi j / N, whose phase is half the sum of the steps
    of phi = arg a(k) between neighbours, each taken in (-pi, pi]. That sum
    is 2 pi times the winding only when phi truly turns by less than pi
    from each k_j to the next; a coarse grid across a steep stretch of phi
    breaks this at small N. With thermal weights a step of 0.69 pi already
    sufficed (N = 11 and 16 at T = 0.05, about 1.8 times the gap). So the
    rings are drawn with N in 2..60 and a bulk gap min |a(k)| >= 0.02, and
    kept when phi, followed on a grid 64 times finer, turns by less than
    pi / 2 between neighbouring k_j. Measured: no violation in 159,871
    defined rows of 40,000 such rings at these temperatures, T up to 2.5
    times the gap. Without that condition, 18 of 79,955 rows with N in
    10..60 broke, at N = 11 and 13 (phi steps of 0.69 pi to 1.03 pi), so N
    alone does not bound the domain.
    """
    rng = np.random.default_rng(0)
    temperatures = np.array([0.0, 0.01, 0.02, 0.05])
    checked, defined = 0, {0.0: 0, 0.5: 0}
    while checked < 400:
        n = int(rng.integers(2, 61))
        v, w, z = rng.uniform(-1.0, 1.0, 3)
        fine = np.linspace(0.0, 2.0 * np.pi, 64 * n + 1)
        coupling = v + w * np.exp(-1j * fine) + z * np.exp(1j * fine)
        steps = np.diff(np.unwrap(np.angle(coupling))[::64])
        if np.abs(coupling).min() < 0.02 or np.abs(steps).max() >= np.pi / 2:
            continue
        checked += 1
        expected = 0.5 if winding_number(v, w, z) else 0.0
        result = bloch_polarization_determinant(
            bloch_spectrum(ModelParams(n_cells=n, v=v, w=w, z=z)), temperatures
        )
        assert np.all(result.polarization[result.defined] == expected), (n, v, w, z)
        defined[expected] += int(np.count_nonzero(result.defined))
    # Both phases are sampled and their rows defined (measured 776 and 824 of 1600).
    assert min(defined.values()) >= 400


PHASES = {
    "trivial": lambda a, b, c: (a + b + c, b, c),
    "topological": lambda a, b, c: (b, a + b + c, c),
    "w<z": lambda a, b, c: (c, b, a + b + c),
}


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_low_temperature_determinant_against_dense(phase):
    # The dominant hopping exceeds the sum of the other two by a gap of
    # 0.005 to 0.05, so F(k) ranges from a projector (1 - F(k) singular in
    # float64) at T = 1e-4 to partly thermal at T = 1e-2.
    rng = np.random.default_rng(20261018)
    for n in (50, 121, 400):
        a, b, c = rng.uniform(0.005, 0.05), rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)
        v, w, z = PHASES[phase](a, b, c)
        params = ModelParams(n_cells=n, v=v, w=w, z=z)
        temperatures = np.array([1e-4, 1e-3, 1e-2])
        dense_spectrum = diagonalize(build_hamiltonian(params))
        dense = thermal_polarization_determinant(dense_spectrum, temperatures)
        bloch = bloch_polarization_determinant(bloch_spectrum(params), temperatures)
        assert np.all(bloch.expectation.imag == 0.0)
        for index in range(len(temperatures)):
            assert_determinants_agree(dense.row(index), bloch.row(index))


def test_bloch_rejects_bad_input():
    with pytest.raises(ValueError):
        bloch_spectrum(ModelParams(n_cells=4, v=0.3, w=0.5, z=0.0, boundary=OPEN))
    with pytest.raises(FloatingPointError):  # |a(0)| = v + w + z overflows
        bloch_spectrum(ModelParams(n_cells=4, v=1e308, w=1e308, z=0.2))
    bands = bloch_spectrum(ModelParams(n_cells=4, v=0.3, w=0.5, z=0.0))
    with pytest.raises(ValueError):  # six weights for eight levels, refused by bands()
        bloch_qfi_matrix(GibbsEnsemble(temperature=0.1, weights=np.ones(6) / 6, spectrum=bands))
    with pytest.raises(ValueError):  # refused when the ensemble is built
        GibbsEnsemble(temperature=0.1, weights=-np.ones(8) / 8, spectrum=bands)
    with pytest.raises(ValueError):
        bloch_polarization_determinant(bands, -0.1)
    ensemble, per_state = gibbs_weights(bands, 0.1), bloch_state_expectations(bands)
    with pytest.raises(ValueError):  # the determinant has no per-state reduction
        polarization_from_states(ensemble, per_state, "determinant")


def test_vanishing_modes_are_closed_form():
    # Every <k,b|X|k,b> is exactly 0, so literal and weighted reduce to
    # magnitude 0 and undefined at every temperature, T = 0 included.
    bands = bloch_spectrum(ModelParams(n_cells=6, v=0.3, w=0.5, z=0.2))
    per_state = bloch_state_expectations(bands)
    assert per_state.dtype == complex
    assert np.array_equal(per_state, np.zeros(12))
    for temperature in (0.0, 0.3, 1e6):
        ensemble = gibbs_weights(bands, temperature)
        for mode in ("literal", "weighted"):
            res = polarization_from_states(ensemble, per_state, mode)
            assert (res.expectation, res.magnitude, res.polarization, res.defined) == (0j, 0.0, 0.0, False)
            assert res.mode == mode
