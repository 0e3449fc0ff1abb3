"""The dense path as a third sweep engine, and every rule it is held to.

`DENSE_ENGINE` is the record `sweep._engine` returns, with the same four
fields, built from the package's dense functions: a full 2N x 2N
eigendecomposition of the real-space Hamiltonian, `qfi_matrix` on its
GibbsEnsemble, `thermal_polarization_determinant`, and
`state_expectations` of its eigenvectors. A test that rebinds
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

The constants and functions below are every agreement rule of the fast
engines against this one, used by the property test and the table test
alike.
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
