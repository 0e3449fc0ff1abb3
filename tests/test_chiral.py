"""Chiral-block evaluation of chains against the dense oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from topo_thermo import chiral as chiral_mod
from topo_thermo.chiral import (
    chiral_polarization_determinant,
    chiral_qfi_matrix,
    chiral_spectrum,
    chiral_state_expectations,
    winding_number,
)
from topo_thermo.lattice import (
    OPEN,
    PERIODIC,
    ModelParams,
    build_folded_block,
    build_hamiltonian,
    flat_index,
)
from topo_thermo.polarization import (
    DEFAULT_MAGNITUDE_CUTOFF,
    polarization_from_states,
    state_expectations,
    thermal_polarization_determinant,
    thermal_polarization_literal,
    thermal_polarization_weighted,
)
from topo_thermo.qfi import interferometric_power, qfi_matrix
from topo_thermo.thermal import (
    GibbsEnsemble,
    diagonalize,
    ensemble_diagnostics,
    fermi_occupations,
    gibbs_weights,
)

# The tolerances of the Bloch-vs-dense property test.
QFI_TOL = 1e-13
DET_RTOL = 1e-11
DET_ATOL = 1e-14
DET_SCALE = 1e-3
T0_MIN_GAP = 1e-3
SYMMETRY_DEGENERACY = 1e-12

# Dense eigenvectors inside a cluster of levels closer than this are mixed
# by up to ~1e-16 / gap, so the per-state <X> of the weighted mode is
# compared only on spectra whose 2N levels are all this far apart.
WEIGHTED_MIN_GAP = 1e-4
PER_STATE_TOL = 1e-10
LITERAL_TOL = 1e-12

hopping = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def chains(draw):
    """(N, v, w, z): N = 2, odd and even N; the v = +-(w+z), w = z and v = 0 families."""
    n = draw(st.one_of(st.just(2), st.integers(3, 40)))
    w, z = draw(hopping), draw(hopping)
    family = draw(st.sampled_from(["generic", "w=z", "v=w+z", "v=-(w+z)", "v=0"]))
    if family == "w=z":
        z = w
    v = {"v=w+z": w + z, "v=-(w+z)": -(w + z), "v=0": 0.0}.get(family, None)
    if v is None:
        v = draw(hopping)
    return n, v, w, z


temperatures = st.one_of(st.just(0.0), st.just(1e6), st.floats(0.02, 3.0))


def assert_determinants_agree(dense, chiral):
    reference = dense.expectation
    if abs(reference) >= DET_SCALE:
        assert abs(chiral.expectation - reference) <= DET_RTOL * abs(reference)
    else:
        assert abs(chiral.expectation - reference) <= DET_ATOL
    assert chiral.defined == dense.defined
    assert chiral.polarization == dense.polarization


def wrap_distance(a, b):
    gap = abs(a - b) % 1.0
    return min(gap, 1.0 - gap)


def singular_values(fast):
    """s, descending: the upper band of the band-ordered energies [-s, +s]."""
    return fast.energies[fast.n_cells :]


def right_vectors(fast):
    """V = J Q diag(sigma), the right singular vectors of D as columns."""
    return fast.fold_vectors[::-1] * fast.signs


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(chain=chains(), temperature=temperatures)
def test_chiral_matches_dense(chain, temperature):
    n, v, w, z = chain
    params = ModelParams(n_cells=n, v=v, w=w, z=z, boundary=OPEN)
    fast = chiral_spectrum(params)
    if temperature == 0.0:
        # As for rings: no zero modes, and every level degenerate with the
        # ground level by symmetry or clearly above it.
        excitation = fast.energies - fast.energies.min()
        near_ground = (excitation > SYMMETRY_DEGENERACY) & (excitation < T0_MIN_GAP)
        assume(singular_values(fast)[-1] >= T0_MIN_GAP and not near_ground.any())
    spectrum = diagonalize(build_hamiltonian(params))
    # Band order [-s, +s] against the dense ascending order.
    order = np.argsort(fast.energies, kind="stable")
    assert np.abs(fast.energies[order] - spectrum.energies).max() <= 1e-13

    ensemble = gibbs_weights(spectrum, temperature)
    fast_ensemble = gibbs_weights(fast, temperature)
    assert np.abs(fast_ensemble.weights[order] - ensemble.weights).max() <= QFI_TOL
    dense_matrix = qfi_matrix(ensemble)
    matrix = chiral_qfi_matrix(fast_ensemble)
    assert np.abs(matrix - dense_matrix).max() <= QFI_TOL
    assert matrix[0, 1] == matrix[0, 2] == matrix[1, 2] == 0.0
    assert np.array_equal(matrix, matrix.T)
    assert abs(interferometric_power(matrix).i_p - interferometric_power(dense_matrix).i_p) <= QFI_TOL
    for got, want in zip(ensemble_diagnostics(fast_ensemble), ensemble_diagnostics(ensemble)):
        assert abs(got - want) <= QFI_TOL

    determinant = chiral_polarization_determinant(fast, temperature)
    assert determinant.expectation.imag == 0.0  # real by construction, for any N
    assert_determinants_agree(thermal_polarization_determinant(spectrum, temperature), determinant)

    per_state = chiral_state_expectations(fast)
    assert np.array_equal(per_state[:n], per_state[n:])  # chiral partners share <X>
    literal = polarization_from_states(fast_ensemble, per_state, "literal")
    dense_literal = thermal_polarization_literal(ensemble)
    assert abs(literal.expectation - dense_literal.expectation) <= LITERAL_TOL
    levels = np.sort(fast.energies)
    if np.diff(levels).min() >= WEIGHTED_MIN_GAP:
        dense_states = state_expectations(spectrum.vectors)
        assert np.abs(per_state[order] - dense_states).max() <= PER_STATE_TOL
        weighted = polarization_from_states(fast_ensemble, per_state, "weighted")
        dense_weighted = thermal_polarization_weighted(ensemble)
        assert abs(weighted.magnitude - dense_weighted.magnitude) <= PER_STATE_TOL
        assert weighted.defined == dense_weighted.defined
        assert wrap_distance(weighted.polarization, dense_weighted.polarization) <= 1e-8

    # A batched call gives each temperature's row exactly as a call alone.
    batch = np.array([0.0, temperature, 0.7])
    batched = gibbs_weights(fast, batch)
    assert np.array_equal(batched.weights[1], fast_ensemble.weights)
    assert np.array_equal(chiral_qfi_matrix(batched)[1], matrix)
    batched_determinants = chiral_polarization_determinant(fast, batch)
    assert batched_determinants.row(1) == determinant
    assert np.all(batched_determinants.expectation.imag == 0.0)
    for mode in ("literal", "weighted"):
        alone = polarization_from_states(fast_ensemble, per_state, mode)
        assert polarization_from_states(batched, per_state, mode).row(1) == alone


# The fold's decomposition against an SVD of D.
FOLD_TOL = 1e-13
hopping_or_zero = st.one_of(st.just(0.0), hopping)


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(
    n=st.integers(2, 60),
    boundary=st.sampled_from([OPEN, PERIODIC]),
    v=hopping_or_zero,
    w=hopping_or_zero,
    z=hopping_or_zero,
)
def test_fold_is_a_singular_value_decomposition(n, boundary, v, w, z):
    # v = z = 0 gives an exact zero singular value, v = 0 clusters of
    # degenerate ones, and rings pairs of equal ones.
    params = ModelParams(n_cells=n, v=v, w=w, z=z, boundary=boundary)
    h = build_hamiltonian(params)
    folded = h[0::2, -1::-2]
    assert np.array_equal(folded, folded.T)
    block = h[0::2, 1::2]
    fast = chiral_spectrum(params)
    s = singular_values(fast)
    assert np.all(s >= 0.0) and np.all(np.diff(s) <= 0.0)
    assert np.abs(s - np.linalg.svd(block, compute_uv=False)).max() <= FOLD_TOL * max(1.0, s[0])
    assert np.all(np.abs(fast.signs) == 1.0)
    u, vt = fast.fold_vectors, right_vectors(fast).T
    assert np.abs((u * s) @ vt - block).max() <= FOLD_TOL
    assert np.abs(u.T @ u - np.eye(n)).max() <= FOLD_TOL
    assert np.abs(vt @ vt.T - np.eye(n)).max() <= FOLD_TOL
    assert np.array_equal(fast.energies, np.concatenate([-s, s]))


def test_fold_rejects_a_block_that_is_not_persymmetric(monkeypatch):
    # eigh reads one triangle, so an asymmetric D J would be decomposed
    # silently wrong. Only D[0, 0] = <0,A|H|0,B> moves, the (0, N - 1)
    # entry of D J, as if H stayed symmetric and D lost its persymmetry.
    def skewed(params):
        folded = build_folded_block(params)
        folded[0, -1] = np.nextafter(folded[0, -1], 1.0)
        return folded

    monkeypatch.setattr(chiral_mod, "build_folded_block", skewed)
    with pytest.raises(ValueError, match="not symmetric"):
        chiral_spectrum(ModelParams(n_cells=4, v=0.3, w=0.5, z=0.2, boundary=OPEN))


def full_real_matrix(fast, temperature):
    """[[C, G S], [-G^T S, C]] over all 2N sites, whose determinant E the chiral path factors."""
    half_angles = np.pi * np.arange(fast.n_cells) / fast.n_cells
    cosines, sines = np.diag(np.cos(half_angles)), np.sin(half_angles)
    lower, upper = fast.bands(fermi_occupations(fast, temperature))
    tanh_block = (fast.fold_vectors * (lower - upper)) @ right_vectors(fast).T
    upper_right, lower_left = tanh_block * sines, -tanh_block.T * sines
    return np.block([[cosines, upper_right], [lower_left, cosines]])


def assert_matches_the_full_real_determinant(n, temperatures):
    # Winding +1, winding -1, and two trivial chains.
    for v, w, z in ((0.3, 0.5, 0.2), (0.3, 0.2, 0.5), (0.5, 0.3, 0.1), (-0.8, 0.5, -0.2)):
        fast = chiral_spectrum(ModelParams(n_cells=n, v=v, w=w, z=z, boundary=OPEN))
        chain_temperatures = list(temperatures)
        if singular_values(fast)[-1] >= T0_MIN_GAP:
            chain_temperatures.insert(0, 0.0)
        batched = chiral_polarization_determinant(fast, np.array(chain_temperatures))
        for index, temperature in enumerate(chain_temperatures):
            got = chiral_polarization_determinant(fast, temperature)
            assert batched.row(index) == got
            want = np.linalg.det(full_real_matrix(fast, temperature))
            assert got.expectation.imag == 0.0
            tolerance = 1e-11 * abs(want) if abs(want) >= 1e-10 else 1e-15
            assert abs(got.expectation.real - want) <= tolerance, (v, w, z, temperature)
            defined = abs(want) >= DEFAULT_MAGNITUDE_CUTOFF
            assert got.defined == defined
            assert got.polarization == (0.5 if defined and want < 0.0 else 0.0)


@pytest.mark.parametrize("n", (2, 3, 4, 5, 40, 41, 200, 201))
def test_eliminated_determinant_matches_the_full_real_determinant(n):
    # Every N has a cot border cell at m = 0 and even N a tan border cell
    # at m = N / 2; N = 201 has two, on either side of it.
    assert_matches_the_full_real_determinant(n, (0.02, 0.5, 1e6))


def test_determinant_with_nearly_every_cell_bordered(monkeypatch):
    # At 0.7 a cell stays in both sums only if sin and cos of its half
    # angle both exceed 0.7, a window 0.02 wide around pi / 4 and 3 pi / 4:
    # at most one such cell each for these N, and none at N = 2, 3 or 4.
    monkeypatch.setattr(chiral_mod, "BORDER_COSINE", 0.7)
    for n in (2, 3, 4, 5, 8, 9, 40, 41):
        assert_matches_the_full_real_determinant(n, (0.02, 0.5, 5.0, 1e9))


# ln|E| of the chiral path against a dense float64 slogdet of the full
# 2N x 2N matrix. Both carry rounding: against an extended-precision LU
# of the same matrix, each was within 1.3e-12 at N <= 401 on the chains
# below and seeded random ones.
LOG_DET_TOL = 5e-12


def test_determinant_at_n_400_against_a_dense_log_determinant():
    n = 400
    temperatures = np.array([0.0, 0.02, 0.1, 0.5, 1.0, 2.0, 5.0])
    for v, w, z in ((0.3, 0.5, 0.2), (0.3, 0.2, 0.5), (0.5, 0.3, 0.1)):
        fast = chiral_spectrum(ModelParams(n_cells=n, v=v, w=w, z=z, boundary=OPEN))
        result = chiral_polarization_determinant(fast, temperatures)
        for index, temperature in enumerate(temperatures):
            sign, log_magnitude = np.linalg.slogdet(full_real_matrix(fast, temperature))
            got = result.expectation[index].real
            assert np.sign(got) == sign
            assert abs(np.log(abs(got)) - log_magnitude) <= LOG_DET_TOL, (v, w, z, temperature)


def test_determinant_infinite_temperature_closed_form():
    # As T -> oo, t_k -> 0 and G -> 0, so E -> det C^2 = prod_m cos^2(pi m / N)
    # whatever the hoppings: 4^(1 - N) for odd N, and 0 for even N, where
    # the factor m = N / 2 vanishes.
    hoppings = ((0.3, 0.5, 0.2), (0.1, 0.5, 0.2), (0.5, 0.3, 0.1), (0.2, -0.4, 0.9))
    for n in (3, 4, 5, 6, 7, 50):
        for v, w, z in hoppings:
            fast = chiral_spectrum(ModelParams(n_cells=n, v=v, w=w, z=z, boundary=OPEN))
            result = chiral_polarization_determinant(fast, 1e9)
            if n % 2:
                assert abs(result.expectation - 4.0 ** (1 - n)) <= 1e-12 * 4.0 ** (1 - n)
                assert result.polarization == 0.0
            else:
                assert abs(result.expectation) <= 1e-15
                assert not result.defined


def test_determinant_half_fills_an_exact_zero_mode_at_zero_temperature():
    # Fully dimerized chain (v = z = 0): A of cell 0 and B of cell N - 1
    # are isolated, so D has an exact zero singular value. At T = 0 the
    # step rule of fermi_occupations puts 1/2 on each partner of the pair
    # (t = 0). Oracle: F built by hand from the N - 1 bonding dimers
    # (B_m, A_m+1) plus 1/2 on each isolated site, through a complex LU.
    n, w = 6, 0.5
    fast = chiral_spectrum(ModelParams(n_cells=n, v=0.0, w=w, z=0.0, boundary=OPEN))
    assert singular_values(fast)[-1] == 0.0
    occupation = np.zeros((2 * n, 2 * n))
    for m in range(n - 1):
        bonding = np.zeros(2 * n)
        bonding[flat_index(m, 1)], bonding[flat_index(m + 1, 0)] = 1.0, -np.sign(w)
        occupation += np.outer(bonding, bonding) / 2.0
    for site in (flat_index(0, 0), flat_index(n - 1, 1)):
        occupation[site, site] = 0.5
    x_diagonal = np.repeat(np.exp(2j * np.pi * np.arange(n) / n), 2)
    oracle = (-1) ** (n - 1) * np.linalg.det(np.eye(2 * n) + occupation * (x_diagonal - 1.0))
    result = chiral_polarization_determinant(fast, 0.0)
    assert abs(result.expectation - oracle) <= 1e-14
    assert result.expectation.imag == 0.0
    assert result.defined and result.polarization == 0.5


def test_edge_pair_is_the_equal_weight_sublattice_combination():
    # Topological chain (winding +1): one singular value of D is ~1e-16 and
    # the pair +-s_0 is degenerate to rounding. Whatever basis a dense eigh
    # picks inside the pair, its A and B projections are one edge state
    # each; the chiral pair is their equal-weight combination, so both
    # partners carry the mean of their <X>, and the weighted mode follows.
    n = 400
    params = ModelParams(n_cells=n, v=0.1, w=0.5, z=0.2, boundary=OPEN)
    fast = chiral_spectrum(params)
    assert winding_number(0.1, 0.5, 0.2) == 1
    assert np.count_nonzero(singular_values(fast) < 1e-8) == 1
    assert singular_values(fast)[-2] > 0.1
    per_state = chiral_state_expectations(fast)
    assert per_state[n - 1] == per_state[2 * n - 1]
    # In ascending order, the edge pair sits at n - 1 and n, as in the dense spectrum.
    ascending = per_state[np.argsort(fast.energies, kind="stable")]

    spectrum = diagonalize(build_hamiltonian(params))
    pair = spectrum.vectors[:, n - 1 : n + 1]
    dense_states = state_expectations(spectrum.vectors)
    edges = []
    for sublattice in (0, 1):
        projected, _, _ = np.linalg.svd(pair[sublattice::2])
        edge = np.zeros(2 * n)
        edge[sublattice::2] = projected[:, 0]
        edges.append(state_expectations(edge[:, None])[0])
    rule = 0.5 * (edges[0] + edges[1])
    assert abs(per_state[n - 1] - rule) <= PER_STATE_TOL
    # Away from the pair, the levels are nondegenerate and the dense
    # per-state values agree.
    bulk = np.r_[0 : n - 1, n + 1 : 2 * n]
    assert np.abs(ascending[bulk] - dense_states[bulk]).max() <= PER_STATE_TOL

    expected = dense_states.copy()
    expected[n - 1 : n + 1] = rule
    for temperature in (0.0, 0.02, 0.5):
        got = polarization_from_states(gibbs_weights(fast, temperature), per_state, "weighted")
        want = polarization_from_states(gibbs_weights(spectrum, temperature), expected, "weighted")
        assert got.defined == want.defined
        assert abs(got.polarization - want.polarization) <= 1e-10


def test_open_chain_of_the_degenerate_ring_case_is_basis_independent():
    # (0, 0.5, -1) at N = 18 and T = 0: on the ring the ground level is
    # four-fold degenerate and the dense weighted answer depends on the
    # basis LAPACK picks. The open chain's ground state is nondegenerate,
    # so the chiral and dense answers agree and are defined.
    params = ModelParams(n_cells=18, v=0.0, w=0.5, z=-1.0, boundary=OPEN)
    fast = chiral_spectrum(params)
    assert singular_values(fast)[0] - singular_values(fast)[1] > 1e-3
    per_state = chiral_state_expectations(fast)
    got = polarization_from_states(gibbs_weights(fast, 0.0), per_state, "weighted")
    want = thermal_polarization_weighted(gibbs_weights(diagonalize(build_hamiltonian(params)), 0.0))
    assert got.defined and want.defined
    assert abs(got.polarization - want.polarization) <= 1e-12
    assert abs(got.polarization - 0.4722222222222) <= 1e-12


def test_winding_number_values_and_gap_closings():
    assert winding_number(0.3, 0.5, 0.2) == 1
    assert winding_number(0.3, 0.5, 0.8) == -1
    assert winding_number(0.5, 0.3, 0.1) == 0
    assert winding_number(0.1, 0.5, 0.0) == 1
    assert winding_number(0.6, 0.5, 0.0) == 0
    assert winding_number(0.0, 0.0, 0.4) == -1
    for closing in ((0.7, 0.5, 0.2), (-0.7, 0.5, 0.2), (0.1, 0.5, 0.5), (0.0, 0.0, 0.0)):
        with pytest.raises(ValueError):
            winding_number(*closing)


def test_winding_number_counts_roots_and_turns():
    # Against root finding and against the turns of conj(a(k)) on a k grid.
    rng = np.random.default_rng(7)
    k = np.linspace(0.0, 2.0 * np.pi, 4001)
    checked = 0
    for v, w, z in rng.uniform(-1.0, 1.0, size=(300, 3)):
        roots = np.abs(np.roots([w, v, z]))
        if np.abs(roots - 1.0).min() < 1e-3:
            continue
        coupling = v + w * np.exp(1j * k) + z * np.exp(-1j * k)
        turns = np.sum(np.diff(np.unwrap(np.angle(coupling)))) / (2.0 * np.pi)
        assert winding_number(v, w, z) == np.count_nonzero(roots < 1.0) - 1 == round(turns)
        checked += 1
    assert checked > 250


def test_bulk_boundary_correspondence():
    # |winding| open-chain singular values below 1e-8, away from gap
    # closings: every root of w xi^2 + v xi + z at least 20 % off |xi| = 1,
    # so edge states decay at least as 0.8^N.
    rng = np.random.default_rng(20261018)
    counts = {0: 0, 1: 0}
    for index, (v, w, z) in enumerate(rng.uniform(-1.0, 1.0, size=(200, 3))):
        roots = np.abs(np.roots([w, v, z]))
        if np.any((roots > 0.8) & (roots < 1.25)) or max(abs(v), abs(w), abs(z)) < 0.2:
            continue
        n = 120 + index % 2
        fast = chiral_spectrum(ModelParams(n_cells=n, v=v, w=w, z=z, boundary=OPEN))
        nu = winding_number(v, w, z)
        assert np.count_nonzero(singular_values(fast) < 1e-8) == abs(nu)
        counts[abs(nu)] += 1
    assert counts[0] >= 10 and counts[1] >= 10


def test_chiral_rejects_bad_input():
    fast = chiral_spectrum(ModelParams(n_cells=4, v=0.3, w=0.5, z=0.0, boundary=OPEN))
    with pytest.raises(ValueError):  # six weights for eight levels, refused by bands()
        chiral_qfi_matrix(GibbsEnsemble(temperature=0.1, weights=np.ones(6) / 6, spectrum=fast))
    with pytest.raises(ValueError):  # refused when the ensemble is built
        GibbsEnsemble(temperature=0.1, weights=-np.ones(8) / 8, spectrum=fast)
    with pytest.raises(ValueError):
        chiral_polarization_determinant(fast, -0.1)
    with pytest.raises(ValueError):
        polarization_from_states(gibbs_weights(fast, 0.1), np.ones(6, dtype=complex), "weighted")
    with pytest.raises(ValueError):
        polarization_from_states(gibbs_weights(fast, 0.1), np.ones(8, dtype=complex), "determinant")
    with pytest.raises(FloatingPointError):  # the largest singular value overflows
        chiral_spectrum(ModelParams(n_cells=4, v=1e308, w=1e308, z=0.2, boundary=OPEN))
