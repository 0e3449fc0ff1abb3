"""Exact Fock-space oracle for the determinant polarization of small chains.

The single-particle Hamiltonian h = build_hamiltonian(params) is second
quantized, H = sum_ij h_ij c_i^dagger c_j, with Jordan-Wigner fermion
operators c_j on the 2N sites, and the position phase is evaluated in the
full 2^(2N)-dimensional Fock space:

  E = Tr[rho exp(i delta sum_j x_j n_j)] exp(-i delta N (N - 1) / 2),

with rho = exp(-H / T) / Z the grand-canonical state at mu = 0, x_j the
cell of site j, delta = 2 pi / N, and the last factor the phase of the
neutralizing background. At T = 0, rho projects on the many-body ground
state, which is unique when no single-particle level is zero. Nothing
here goes through Fermi occupations, the determinant identity
Tr[rho e^{i A}] = det[1 - F + F e^{i A}] or any spectrum class of the
package, so it checks them all independently.
"""

import numpy as np

from topo_thermo.lattice import ModelParams, build_hamiltonian

# 2^8 = 256 Fock states, N <= 4 cells.
MAX_SITES = 8


def annihilators(sites: int) -> list[np.ndarray]:
    """Jordan-Wigner c_j = Z (x) ... (x) Z (x) a (x) 1 (x) ... (x) 1, site 0 leftmost."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # a|1> = |0>
    parity = np.diag([1.0, -1.0])
    operators = []
    for j in range(sites):
        operator = np.ones((1, 1))
        for factor in [parity] * j + [lower] + [np.eye(2)] * (sites - j - 1):
            operator = np.kron(operator, factor)
        operators.append(operator)
    return operators


def many_body_hamiltonian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H = sum_ij h_ij c_i^dagger c_j, and the occupations n_j of every Fock state, (2N, 2^2N)."""
    sites = h.shape[0]
    if sites > MAX_SITES:
        raise ValueError(f"the Fock space of {sites} sites is too large for a dense oracle")
    c = annihilators(sites)
    hamiltonian = sum(c[i].T @ sum(h[i, j] * c[j] for j in range(sites)) for i in range(sites))
    occupations = np.array([np.diag(op.T @ op) for op in c])
    return hamiltonian, occupations


def position_phase_expectations(params: ModelParams, temperatures) -> np.ndarray:
    """E = Tr[rho exp(i delta sum_j x_j n_j)] exp(-i delta N (N - 1) / 2) at mu = 0.

    One value per entry of `temperatures`; H is diagonalized once.
    """
    n = params.n_cells
    hamiltonian, occupations = many_body_hamiltonian(build_hamiltonian(params))
    levels, states = np.linalg.eigh(hamiltonian)
    excitation = levels - levels[0]
    delta = 2.0 * np.pi / n
    cells = np.arange(2 * n) // 2
    # The position phase and the background, per Fock state, rotated into
    # the eigenbasis of H: <a| exp(i delta sum_j x_j n_j) |a>.
    phases = np.exp(1j * delta * (cells @ occupations - n * (n - 1) / 2))
    diagonal = phases @ (states * states)
    expectations = []
    for temperature in temperatures:
        if temperature == 0.0:
            populations = (excitation <= 1e-9).astype(float)
            if populations.sum() != 1.0:
                raise ValueError("the many-body ground state is degenerate: T = 0 is not defined")
        else:
            populations = np.exp(-excitation / temperature)
        expectations.append(diagonal @ populations / populations.sum())
    return np.array(expectations)
