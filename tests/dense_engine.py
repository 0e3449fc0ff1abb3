"""The dense path as a third sweep engine, and the rules it is held to.

`DENSE_ENGINE` is the record `sweep._engine` returns, with the same four
fields, built from the package's dense functions: a full 2N x 2N
eigendecomposition of the real-space Hamiltonian, `qfi_matrix` on its
GibbsEnsemble, `thermal_polarization_determinant`, and
`state_expectations` of its eigenvectors. A test that rebinds
`sweep._engine` to return it runs `run_sweep` through the dense path, so
a whole table of the Bloch or chiral engine can be held to a dense
table, column by column.

A new output gets its oracle here. If it reads an engine function, it
adds a field to this record (the dense function, as written) next to the
`bloch_` and `chiral_` fields of `sweep._engine`; if it reads a new
`sweep._Work` property, the property is built from the record's fields
and the dense table follows with no edit. Either way its column then
needs a rule in `tests/test_dense_engine.py`, stated with the constants
below, or that test fails on the unknown column.

The constants and functions below are the agreement rules of the
engine-against-dense property tests (`tests/test_bloch.py`,
`tests/test_chiral.py`), defined once for them and the table test.
"""

from types import SimpleNamespace

import numpy as np

from topo_thermo.lattice import PERIODIC, build_hamiltonian
from topo_thermo.polarization import state_expectations, thermal_polarization_determinant
from topo_thermo.qfi import qfi_matrix
from topo_thermo.thermal import diagonalize

DENSE_ENGINE = SimpleNamespace(
    spectrum=lambda params: diagonalize(build_hamiltonian(params)),
    polarization_determinant=thermal_polarization_determinant,
    qfi_matrix=qfi_matrix,
    state_expectations=lambda spectrum: state_expectations(spectrum.vectors),
)

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

# Dense eigenvectors inside a cluster of levels closer than this are mixed
# by up to ~1e-16 / gap, so the per-state <X> of the weighted mode is
# compared only on open chains whose 2N levels are all this far apart.
WEIGHTED_MIN_GAP = 1e-4
PER_STATE_TOL = 1e-10
LITERAL_TOL = 1e-12


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


def weighted_comparable(fast, boundary: str) -> bool:
    """Whether the dense weighted mode is basis independent on this chain.

    Inside a degenerate cluster that X connects (momenta k and k + 2 pi/N)
    the dense weighted answer on a ring depends on the basis LAPACK picks
    there: k, -k pairs at odd N, flat bands, and the k, pi - k pairs of
    v = 0. An open chain is compared when its levels are WEIGHTED_MIN_GAP
    apart.
    """
    if boundary == PERIODIC:
        magnitude = fast.energies[fast.n_cells :]
        connected = np.abs(magnitude - np.roll(magnitude, 1)).min() < 1e-9
        return bool(fast.n_cells % 2 == 0 and not connected)
    return bool(np.diff(np.sort(fast.energies)).min() >= WEIGHTED_MIN_GAP)
