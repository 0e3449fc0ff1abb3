"""Determinant polarization of the three engines against the exact Fock-space oracle."""

import numpy as np
import pytest
from fock import position_phase_expectations

from topo_thermo.bloch import bloch_polarization_determinant, bloch_spectrum
from topo_thermo.chiral import chiral_polarization_determinant, chiral_spectrum
from topo_thermo.lattice import OPEN, PERIODIC, ModelParams, build_hamiltonian
from topo_thermo.polarization import thermal_polarization_determinant
from topo_thermo.thermal import diagonalize

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
# elimination keeps the B site; N = 3 has none.
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
