"""Hamiltonian construction, basis bookkeeping, and operator building blocks."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from topo_thermo.lattice import (
    OPEN,
    PERIODIC,
    ModelParams,
    build_folded_block,
    build_hamiltonian,
    cell_phases,
    flat_index,
)
from topo_thermo.polarization import state_expectations
from topo_thermo.qfi import sublattice_paulis


def idx(cell, sub):
    return flat_index(cell, 0 if sub == "A" else 1)


def test_hand_expanded_entries_n3_periodic():
    h = build_hamiltonian(ModelParams(n_cells=3, v=0.3, w=0.5, z=0.2, boundary=PERIODIC))
    assert h[idx(1, "A"), idx(0, "B")] == 0.5
    assert h[idx(1, "B"), idx(0, "A")] == 0.2
    assert h[idx(0, "A"), idx(0, "B")] == 0.3


def test_all_zero_couplings_give_zero_matrix():
    h = build_hamiltonian(ModelParams(n_cells=2, v=0.0, w=0.0, z=0.0, boundary=PERIODIC))
    assert h.shape == (4, 4)
    assert np.all(h == 0.0)


def test_periodic_wrap_entry_vanishes_for_open_boundary():
    periodic = build_hamiltonian(ModelParams(n_cells=3, v=0.3, w=0.5, z=0.2, boundary=PERIODIC))
    open_h = build_hamiltonian(ModelParams(n_cells=3, v=0.3, w=0.5, z=0.2, boundary=OPEN))
    assert periodic[idx(0, "A"), idx(2, "B")] == 0.5
    assert open_h[idx(0, "A"), idx(2, "B")] == 0.0


def test_boundary_flip_changes_exactly_two_symmetric_pairs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        v, w, z = rng.uniform(0.05, 1.0, size=3)
        p = ModelParams(n_cells=n, v=v, w=w, z=z, boundary=PERIODIC)
        o = ModelParams(n_cells=n, v=v, w=w, z=z, boundary=OPEN)
        delta = build_hamiltonian(p) - build_hamiltonian(o)
        assert np.count_nonzero(delta) == 4


def test_symmetry_and_sparsity_on_seeded_grid():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(3, 12))
        v, w, z = rng.uniform(0.05, 1.0, size=3)
        boundary = PERIODIC if rng.integers(2) else OPEN
        h = build_hamiltonian(ModelParams(n_cells=n, v=v, w=w, z=z, boundary=boundary))
        assert np.array_equal(h, h.T)
        bonds = n if boundary == PERIODIC else n - 1
        assert np.count_nonzero(h) == 2 * (n + 2 * bonds)
        assert np.all(np.diag(h) == 0.0)


def bond_by_bond_hamiltonian(params):
    """The couplings added one bond at a time, in cell order: v bonds, then w and z."""
    n = params.n_cells
    h = np.zeros((2 * n, 2 * n))
    for m in range(n):
        a, b = flat_index(m, 0), flat_index(m, 1)
        h[a, b] += params.v
        h[b, a] += params.v
    for m in range(n if params.boundary == PERIODIC else n - 1):
        a, b = flat_index(m, 0), flat_index(m, 1)
        ap, bp = flat_index((m + 1) % n, 0), flat_index((m + 1) % n, 1)
        h[ap, b] += params.w
        h[b, ap] += params.w
        h[bp, a] += params.z
        h[a, bp] += params.z
    return h


def test_matches_the_bond_by_bond_sum_bit_for_bit():
    # Includes the N = 2 ring, whose w and z bonds land on the same entries,
    # and exact and signed zeros.
    rng = np.random.default_rng(12)
    for n in range(2, 13):
        for boundary in (PERIODIC, OPEN):
            hoppings = [rng.uniform(-1.0, 1.0, size=3), (0.0, -0.0, 0.7), (0.1, 0.2, 0.3)]
            for v, w, z in hoppings:
                params = ModelParams(n_cells=n, v=v, w=w, z=z, boundary=boundary)
                want = bond_by_bond_hamiltonian(params)
                assert build_hamiltonian(params).tobytes() == want.tobytes()
    ring = build_hamiltonian(ModelParams(n_cells=2, v=0.3, w=0.1, z=0.2, boundary=PERIODIC))
    assert ring[idx(0, "A"), idx(1, "B")] == ring[idx(1, "A"), idx(0, "B")] == 0.1 + 0.2


hopping_or_zero = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
)


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(
    n=st.one_of(st.just(2), st.integers(2, 40)),
    boundary=st.sampled_from([OPEN, PERIODIC]),
    v=hopping_or_zero,
    w=hopping_or_zero,
    z=hopping_or_zero,
)
def test_folded_block_is_the_reversed_a_to_b_block_bit_for_bit(n, boundary, v, w, z):
    # The N = 2 ring puts its w and z bonds on the same entries.
    params = ModelParams(n_cells=n, v=v, w=w, z=z, boundary=boundary)
    folded = build_folded_block(params)
    assert folded.shape == (n, n)
    want = np.ascontiguousarray(build_hamiltonian(params)[0::2, -1::-2])
    assert folded.tobytes() == want.tobytes()


def test_z_zero_removes_second_neighbor_pattern():
    h = build_hamiltonian(ModelParams(n_cells=6, v=0.4, w=0.7, z=0.0, boundary=PERIODIC))
    for m in range(6):
        assert h[idx((m + 1) % 6, "B"), idx(m, "A")] == 0.0


def test_rejects_small_chains():
    with pytest.raises(ValueError):
        ModelParams(n_cells=1, v=0.1, w=0.1, z=0.0)
    with pytest.raises(ValueError):
        ModelParams(n_cells=4, v=np.inf, w=0.1, z=0.0)
    with pytest.raises(ValueError):
        ModelParams(n_cells=4, v=0.1, w=0.1, z=0.0, boundary="twisted")


@pytest.mark.parametrize("n_cells", [4.0, "4", True, np.float64(4.0)])
def test_rejects_a_cell_count_that_is_not_an_integer(n_cells):
    with pytest.raises(ValueError, match=r"n_cells must be an integer, got"):
        ModelParams(n_cells=n_cells, v=0.1, w=0.1, z=0.0)


def test_flat_index_bijection():
    n = 7
    seen = set()
    for m in range(n):
        for sub in (0, 1):
            i = flat_index(m, sub)
            assert divmod(i, 2) == (m, sub)
            seen.add(i)
    assert seen == set(range(2 * n))


def test_position_phase_entries():
    assert cell_phases(4)[2] == pytest.approx(-1.0)
    assert np.allclose(cell_phases(2), [1.0, -1.0])
    for n in (3, 8, 25):
        expected = [np.exp(2j * np.pi * m / n) for m in range(n)]
        assert np.abs(cell_phases(n) - expected).max() <= 1e-12


def test_position_phase_unitary_and_sublattice_blind():
    for n in (2, 3, 8, 25):
        assert np.abs(np.abs(cell_phases(n)) - 1.0).max() <= 1e-12
        # A site state's <X> is its cell's phase, on either sublattice.
        sites = state_expectations(np.eye(2 * n))
        assert np.array_equal(sites[0::2], cell_phases(n))
        assert np.array_equal(sites[1::2], cell_phases(n))
    with pytest.raises(ValueError):
        state_expectations(np.eye(5))


def test_pauli_axis_blocks():
    z = sublattice_paulis(3)[2]
    assert z[0, 0] == 1.0 and z[1, 1] == -1.0 and z[4, 4] == 1.0
    x = sublattice_paulis(2)[0]
    assert x[0, 1] == 1.0 and x[1, 0] == 1.0 and x[0, 0] == 0.0


def test_pauli_tilted_direction_block():
    n = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    block = sum(component * pauli for component, pauli in zip(n, sublattice_paulis(1)))
    expected = np.array([[0.0, (1 - 1j) / np.sqrt(2)], [(1 + 1j) / np.sqrt(2), 0.0]])
    assert np.abs(block - expected).max() <= 1e-12


def test_pauli_squares_to_identity():
    rng = np.random.default_rng(3)
    paulis = sublattice_paulis(4)
    for _ in range(10):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        matrix = sum(component * pauli for component, pauli in zip(n, paulis))
        assert np.abs(matrix @ matrix - np.eye(8)).max() <= 1e-12
        assert np.abs(matrix - matrix.conj().T).max() <= 1e-12
