"""Polarization modes: literal trace, weighted phases, determinant."""

import numpy as np
import pytest

from topo_thermo.bloch import (
    bloch_polarization_determinant,
    bloch_spectrum,
    bloch_state_expectations,
)
from topo_thermo.chiral import (
    chiral_polarization_determinant,
    chiral_spectrum,
    chiral_state_expectations,
)
from topo_thermo.lattice import (
    OPEN,
    PERIODIC,
    ModelParams,
    build_hamiltonian,
    flat_index,
)
from topo_thermo.polarization import (
    DEFAULT_MAGNITUDE_CUTOFF,
    MODE_DETERMINANT,
    MODE_LITERAL,
    MODE_WEIGHTED,
    _absolute,
    _determinant_result,
    _make_result,
    polarization_from_states,
    state_expectations,
    thermal_polarization_determinant,
    thermal_polarization_literal,
    thermal_polarization_weighted,
)
from topo_thermo.thermal import BandSpectrum, GibbsEnsemble, Spectrum, diagonalize, gibbs_weights


def basis_state(n_cells, cell, sublattice=0):
    state = np.zeros(2 * n_cells)
    state[flat_index(cell, sublattice)] = 1.0
    return state


def state_polarization(state, magnitude_cutoff=DEFAULT_MAGNITUDE_CUTOFF):
    """Literal polarization Tr[rho X] of the pure state rho = |state><state|."""
    expectation = state_expectations(np.asarray(state)[:, None])
    return _make_result(expectation, _absolute(expectation), MODE_LITERAL, magnitude_cutoff).row(0)


def occupied_band_determinant(spectrum):
    """Independent T -> 0 oracle: overlap determinant over the N lowest
    states, times the neutralizing-background parity."""
    n = spectrum.dimension // 2
    occupied = spectrum.vectors[:, :n]
    x_diagonal = np.repeat(np.exp(2j * np.pi * np.arange(n) / n), 2)
    overlap = occupied.T @ (x_diagonal[:, None] * occupied)
    parity = 1.0 if (n - 1) % 2 == 0 else -1.0
    return np.linalg.det(overlap) * parity


def test_pure_localized_state():
    res = state_polarization(basis_state(4, 2))
    assert abs(res.expectation - (-1.0)) <= 1e-12
    assert res.phase == pytest.approx(np.pi, abs=1e-12)
    assert res.polarization == pytest.approx(0.5, abs=1e-12)
    assert res.defined


def test_pure_uniform_state_is_undefined():
    n = 6
    state = np.full(2 * n, 1.0 / np.sqrt(2 * n))
    res = state_polarization(state)
    assert res.magnitude <= 1e-14
    assert not res.defined
    assert res.polarization == 0.0 and res.phase == 0.0


def test_pure_two_site_superposition():
    state = (basis_state(4, 0) + basis_state(4, 1)) / np.sqrt(2.0)
    res = state_polarization(state)
    assert abs(res.expectation - (0.5 + 0.5j)) <= 1e-12
    assert res.phase == pytest.approx(np.pi / 4.0, abs=1e-12)
    assert res.magnitude == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)


def test_literal_vanishes_for_periodic_thermal_states():
    rng = np.random.default_rng(41)
    for _ in range(8):
        n = int(rng.integers(3, 12))
        params = ModelParams(
            n_cells=n,
            v=rng.uniform(0.05, 1.0),
            w=rng.uniform(0.05, 1.0),
            z=rng.uniform(0.05, 1.0),
            boundary=PERIODIC,
        )
        spectrum = diagonalize(build_hamiltonian(params))
        for t in (0.05, 0.5):
            res = thermal_polarization_literal(gibbs_weights(spectrum, t))
            assert res.magnitude <= 1e-10
            assert not res.defined
            assert res.polarization == 0.0


def test_literal_infinite_temperature_trace():
    params = ModelParams(n_cells=8, v=0.3, w=0.5, z=0.2)
    spectrum = diagonalize(build_hamiltonian(params))
    res = thermal_polarization_literal(gibbs_weights(spectrum, 1e12))
    assert res.magnitude <= 1e-13
    assert not res.defined


def test_literal_pure_ensemble_matches_pure_mode_bitwise():
    params = ModelParams(n_cells=5, v=0.7, w=0.3, z=0.1)
    spectrum = diagonalize(build_hamiltonian(params))
    ensemble = gibbs_weights(spectrum, 0.0)
    assert np.array_equal(ensemble.weights[:1], [1.0])
    lit = thermal_polarization_literal(ensemble, magnitude_cutoff=0.0)
    pure = state_polarization(spectrum.vectors[:, 0], magnitude_cutoff=0.0)
    assert lit.phase == pure.phase
    assert lit.polarization == pure.polarization


def test_weighted_single_localized_state():
    vectors = np.eye(8)[:, [flat_index(2, 0)] + [i for i in range(8) if i != flat_index(2, 0)]]
    spectrum = Spectrum(energies=np.arange(8.0), vectors=vectors)
    res = thermal_polarization_weighted(gibbs_weights(spectrum, 0.0))
    assert res.mode == MODE_WEIGHTED
    assert res.polarization == pytest.approx(0.5, abs=1e-12)


def test_weighted_opposite_phases_cancel():
    # Equal weights on cells 1 and 3 of a 4-cell ring: phases +-pi/2.
    order = [flat_index(1, 0), flat_index(3, 0)]
    order += [i for i in range(8) if i not in order]
    vectors = np.eye(8)[:, order]
    spectrum = Spectrum(energies=np.array([0.0, 0.0, 1, 2, 3, 4, 5, 6]), vectors=vectors)
    ensemble = gibbs_weights(spectrum, 0.0)
    assert np.array_equal(ensemble.weights[:2], [0.5, 0.5])
    res = thermal_polarization_weighted(ensemble)
    assert res.polarization == pytest.approx(0.0, abs=1e-15)
    assert res.defined
    assert res.magnitude == pytest.approx(1.0, abs=1e-12)


def test_weighted_folds_a_state_phase_of_minus_pi_onto_plus_pi():
    # np.angle(-1 - 0j) is -pi. Unfolded, it would cancel the +pi of its
    # equal-weight partner to a total phase of 0; folded, both states
    # carry +pi and P = +1/2.
    spectrum = Spectrum(energies=np.array([0.0, 0.0, 1.0]), vectors=np.eye(3))
    ensemble = gibbs_weights(spectrum, 0.0)
    per_state = np.array([complex(-1.0, -0.0), complex(-1.0, 0.0), 1.0])
    assert np.angle(per_state[0]) == -np.pi
    res = polarization_from_states(ensemble, per_state, MODE_WEIGHTED)
    assert res.defined
    assert res.phase == np.pi
    assert res.polarization == 0.5


def test_weighted_all_states_below_cutoff_is_undefined():
    half = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
    other = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    rest = np.linalg.qr(np.column_stack([half, other, np.eye(4)[:, :2]]))[0]
    spectrum = Spectrum(energies=np.array([0.0, 0.0, 1.0, 2.0]), vectors=rest)
    res = thermal_polarization_weighted(gibbs_weights(spectrum, 0.0))
    assert not res.defined
    assert res.polarization == 0.0


@pytest.mark.filterwarnings("error")
def test_weighted_with_no_contributing_state_is_washed_out():
    # A uniform mixture over 2N = 1.2e6 states puts every weight below the
    # 1e-6 contributing cutoff: no state enters the average, so nothing is
    # left to carry a phase. The result is magnitude 0, not inf and NaN.
    # The second row, one pure state, is unaffected by the first.
    dimension = 1_200_000
    weights = np.zeros((2, dimension))
    weights[0] = 1.0 / dimension
    weights[1, 0] = 1.0
    ensemble = GibbsEnsemble(
        temperature=np.array([1e6, 0.0]),
        weights=weights,
        spectrum=BandSpectrum(n_cells=dimension // 2, energies=np.zeros(dimension)),
    )
    per_state = np.full(dimension, -1.0 + 0j)
    res = polarization_from_states(ensemble, per_state, MODE_WEIGHTED)
    assert res.expectation[0] == 0j
    assert res.magnitude.tolist() == [0.0, 1.0]
    assert res.defined.tolist() == [False, True]
    assert res.polarization.tolist() == [0.0, 0.5]
    # The cutoff alone decides whether a magnitude of 0 is defined.
    at_zero_cutoff = polarization_from_states(ensemble, per_state, MODE_WEIGHTED, 0.0)
    assert at_zero_cutoff.defined.tolist() == [True, True]


def test_determinant_quantization_topological_and_trivial():
    top = diagonalize(build_hamiltonian(ModelParams(n_cells=50, v=0.1, w=0.5, z=0.0)))
    res = thermal_polarization_determinant(top, 0.02)
    assert res.defined
    assert abs(res.polarization) == pytest.approx(0.5, abs=1e-2)

    triv = diagonalize(build_hamiltonian(ModelParams(n_cells=50, v=0.5, w=0.1, z=0.0)))
    res = thermal_polarization_determinant(triv, 0.02)
    assert res.defined
    assert res.polarization == pytest.approx(0.0, abs=1e-2)


def test_determinant_matches_occupied_band_oracle_at_low_temperature():
    rng = np.random.default_rng(13)
    for _ in range(6):
        n = int(rng.integers(3, 7))
        params = ModelParams(
            n_cells=n,
            v=rng.uniform(0.1, 0.4),
            w=rng.uniform(0.5, 1.0),
            z=rng.uniform(0.0, 0.3),
        )
        spectrum = diagonalize(build_hamiltonian(params))
        reference = occupied_band_determinant(spectrum)
        frozen = thermal_polarization_determinant(spectrum, 0.0)
        assert abs(frozen.expectation - reference) <= 1e-12
        cold = thermal_polarization_determinant(spectrum, 1e-6)
        assert abs(cold.expectation - reference) / abs(reference) <= 1e-8


def test_determinant_washout_is_monotone_until_undefined():
    spectrum = diagonalize(build_hamiltonian(ModelParams(n_cells=50, v=0.3, w=0.5, z=0.2)))
    previous = None
    for t in (0.02, 0.1, 0.2, 0.4, 0.6):
        res = thermal_polarization_determinant(spectrum, t)
        if not res.defined or abs(res.polarization) < 0.1:
            break
        if previous is not None:
            assert abs(res.polarization) <= previous + 1e-12
        previous = abs(res.polarization)


def test_determinant_branch_follows_real_part_not_rounding_noise():
    # E is exactly real at half filling; here its rounding noise is negative,
    # which used to print P = -1/2 where other points of the phase print +1/2.
    spectrum = diagonalize(build_hamiltonian(ModelParams(n_cells=50, v=0.3, w=0.5, z=0.0)))
    res = thermal_polarization_determinant(spectrum, 0.02)
    assert res.expectation.real < 0.0 and res.expectation.imag < 0.0
    assert res.defined and res.phase == np.pi and res.polarization == 0.5

    # N = 6: the background factor is (-1)^(N-1) = -1, so E = -det.
    for expectation, polarization in ((-0.4 - 1e-17j, 0.5), (-0.4 + 1e-17j, 0.5), (0.3 - 1e-17j, 0.0)):
        res = _determinant_result(-expectation, 6, 1e-3)
        assert res.polarization == polarization
        assert res.expectation == expectation
    genuinely_complex = _determinant_result(-0.3 + 0.2j, 6, 1e-3)
    assert genuinely_complex.phase == np.angle(0.3 - 0.2j)


def test_principal_branch_contract():
    rng = np.random.default_rng(29)
    params = ModelParams(n_cells=6, v=0.4, w=0.8, z=0.1)
    spectrum = diagonalize(build_hamiltonian(params))
    results = [
        thermal_polarization_determinant(spectrum, 0.05),
        thermal_polarization_literal(gibbs_weights(spectrum, 0.5)),
        state_polarization(basis_state(6, 4)),
    ]
    for _ in range(5):
        state = rng.standard_normal(12)
        state /= np.linalg.norm(state)
        results.append(state_polarization(state))
    for res in results:
        assert -0.5 < res.polarization <= 0.5
        assert res.polarization * 2.0 * np.pi == res.phase
        if res.defined:
            branch = res.expectation
            if res.mode == MODE_DETERMINANT and abs(branch.imag) <= 1e-10 * abs(branch):
                # A numerically real determinant takes its branch from Re E alone.
                branch = complex(branch.real, 0.0)
            expected = np.angle(branch)
            if expected == -np.pi:
                expected = np.pi
            assert res.phase == expected


def test_mode_consistency_for_pure_ensembles():
    params = ModelParams(n_cells=4, v=0.9, w=0.2, z=0.05)
    spectrum = diagonalize(build_hamiltonian(params))
    ensemble = gibbs_weights(spectrum, 0.0)
    lit = thermal_polarization_literal(ensemble, magnitude_cutoff=0.0)
    weighted = thermal_polarization_weighted(ensemble, magnitude_cutoff=0.0)
    pure = state_polarization(spectrum.vectors[:, 0], magnitude_cutoff=0.0)
    assert lit.phase == pure.phase == weighted.phase


def test_odd_dimension_rejected():
    # X = exp(2 pi i x / N) needs two sites per cell: a 2N + 1 level system has no N.
    spectrum = Spectrum(energies=np.arange(7.0), vectors=np.eye(7))
    with pytest.raises(ValueError, match="even"):
        thermal_polarization_literal(gibbs_weights(spectrum, 0.1))
    with pytest.raises(ValueError, match="even"):
        thermal_polarization_determinant(spectrum, 0.1)
    with pytest.raises(ValueError, match="even"):
        thermal_polarization_weighted(gibbs_weights(spectrum, 0.1))
    with pytest.raises(ValueError, match="even"):
        state_expectations(np.eye(7)[:, :1])


RESULT_FIELDS = ("expectation", "magnitude", "phase", "polarization", "defined")
SCALAR_TYPES = [complex, float, float, float, bool]


def assert_rows_are_single_calls(batched, singles):
    """Every row of a batched result is Python scalars, bit for bit its one-temperature result."""
    for index, single in enumerate(singles):
        row = batched.row(index)
        assert row.mode == single.mode and batched[index] == row
        for result in (row, single):
            assert [type(getattr(result, name)) for name in RESULT_FIELDS] == SCALAR_TYPES
        for name in RESULT_FIELDS:
            got, want = np.array(getattr(row, name)), np.array(getattr(single, name))
            assert got.tobytes() == want.tobytes()


def test_batched_results_are_bitwise_single_temperature_results():
    temperatures = np.array([0.0, 0.02, 0.3, np.inf])
    ring = ModelParams(n_cells=50, v=0.3, w=0.5, z=0.0)
    dense = diagonalize(build_hamiltonian(ring))
    bands = bloch_spectrum(ModelParams(n_cells=4, v=0.3, w=0.5, z=0.2))
    ring_per_state = bloch_state_expectations(bands)
    chain = ModelParams(n_cells=6, v=0.3, w=0.5, z=0.2, boundary=OPEN)
    block = chiral_spectrum(chain)
    per_state = chiral_state_expectations(block)
    evaluations = {
        "dense determinant": lambda t: thermal_polarization_determinant(dense, t),
        "dense literal": lambda t: thermal_polarization_literal(gibbs_weights(dense, t)),
        "dense weighted": lambda t: thermal_polarization_weighted(gibbs_weights(dense, t)),
        "ring determinant": lambda t: bloch_polarization_determinant(bands, t),
        "ring literal": lambda t: polarization_from_states(
            gibbs_weights(bands, t), ring_per_state, MODE_LITERAL
        ),
        "ring weighted": lambda t: polarization_from_states(
            gibbs_weights(bands, t), ring_per_state, MODE_WEIGHTED
        ),
        "chain determinant": lambda t: chiral_polarization_determinant(block, t),
        "chain literal": lambda t: polarization_from_states(
            gibbs_weights(block, t), per_state, MODE_LITERAL
        ),
        "chain weighted": lambda t: polarization_from_states(
            gibbs_weights(block, t), per_state, MODE_WEIGHTED
        ),
    }
    batches = {}
    for name, evaluate in evaluations.items():
        batches[name] = evaluate(temperatures)
        assert_rows_are_single_calls(batches[name], [evaluate(t) for t in temperatures.tolist()])

    # Sign-of-Re branch: E < 0 with a negative imaginary rounding noise gives +1/2.
    cold = batches["dense determinant"].row(1)
    assert cold.expectation.real < 0.0 and cold.expectation.imag < 0.0
    assert cold.polarization == 0.5
    # At T = inf every t_j is 0, and an even ring's determinant is exactly 0.
    hot = batches["ring determinant"].row(3)
    assert hot.expectation == 0.0 and not hot.defined and hot.polarization == 0.0

    dets = np.array([0.4 + 1e-17j, 0.4 - 1e-17j, -0.3 + 1e-17j, 0.3 - 0.2j, 0.0])
    assert_rows_are_single_calls(
        _determinant_result(dets, 6, 1e-3),
        [_determinant_result(dets[i : i + 1], 6, 1e-3).row(0) for i in range(len(dets))],
    )


def test_batched_minus_pi_fold_is_bitwise_single_temperature_results():
    # np.angle(-1 - 0j) is -pi. The weighted mode folds it onto +pi per state,
    # and every result folds its own phase; in a batch exactly as alone.
    spectrum = Spectrum(energies=np.array([0.0, 0.0, 1.0]), vectors=np.eye(3))
    per_state = np.full(3, complex(-1.0, -0.0))
    temperatures = np.array([0.0, 0.5, np.inf])
    ensemble = gibbs_weights(spectrum, temperatures)
    batched = polarization_from_states(ensemble, per_state, MODE_WEIGHTED)
    singles = [
        polarization_from_states(gibbs_weights(spectrum, t), per_state, MODE_WEIGHTED)
        for t in temperatures.tolist()
    ]
    assert_rows_are_single_calls(batched, singles)
    assert all(single.phase == np.pi and single.polarization == 0.5 for single in singles)

    expectations = np.array([complex(-1.0, -0.0), complex(-0.5, -0.0), 0.3 - 0.2j])
    magnitudes = np.abs(expectations)
    batched = _make_result(expectations, magnitudes, MODE_LITERAL, 1e-3)
    singles = [
        _make_result(expectations[i : i + 1], magnitudes[i : i + 1], MODE_LITERAL, 1e-3).row(0)
        for i in range(len(expectations))
    ]
    assert_rows_are_single_calls(batched, singles)
    assert [single.phase for single in singles[:2]] == [np.pi, np.pi]
