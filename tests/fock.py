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

# 2^10 = 1024 Fock states, N <= 5 cells.
MAX_SITES = 10


def many_body_hamiltonian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H = sum_ij h_ij c_i^dagger c_j, and the occupations n_j of every Fock state, (2N, 2^2N).

    Fock state s has n_j = bit (2N - 1 - j) of s, site 0 leading. The
    Jordan-Wigner operators act as c_j |n> = (-1)^(n_0 + ... + n_(j-1))
    |n - e_j> when n_j = 1, and c_i^dagger |n> = (-1)^(n_0 + ... + n_(i-1))
    |n + e_i> when n_i = 0; each term h_ij c_i^dagger c_j is written from
    these rules, one column per Fock state it does not annihilate.
    """
    sites = h.shape[0]
    if sites > MAX_SITES:
        raise ValueError(f"the Fock space of {sites} sites is too large for a dense oracle")
    states = np.arange(2**sites)
    bits = 1 << np.arange(sites - 1, -1, -1)
    occupations = ((states & bits[:, None]) != 0).astype(int)
    strings = np.cumsum(occupations, axis=0) - occupations  # n_0 + ... + n_(j-1)
    hamiltonian = np.zeros((2**sites, 2**sites))
    for i, j in zip(*np.nonzero(h)):
        if i == j:
            hamiltonian[states, states] += h[i, i] * occupations[i]
            continue
        hop = (occupations[j] == 1) & (occupations[i] == 0)
        # c_j empties site j, which leaves one fewer particle ahead of i when j < i.
        parity = strings[j, hop] + strings[i, hop] - (j < i)
        hamiltonian[states[hop] - bits[j] + bits[i], states[hop]] += h[i, j] * (-1.0) ** parity
    return hamiltonian, occupations


def position_phase_expectations(params: ModelParams, temperatures) -> np.ndarray:
    """E = Tr[rho exp(i delta sum_j x_j n_j)] exp(-i delta N (N - 1) / 2) at mu = 0.

    One value per entry of `temperatures`; H is diagonalized once, one
    particle-number sector at a time.
    """
    n = params.n_cells
    hamiltonian, occupations = many_body_hamiltonian(build_hamiltonian(params))
    delta = 2.0 * np.pi / n
    cells = np.arange(2 * n) // 2
    # The position phase and the background, per Fock state.
    phases = np.exp(1j * delta * (cells @ occupations - n * (n - 1) / 2))
    # H conserves the particle number: diagonalize it one number sector
    # at a time, and rotate the phases into each sector's eigenbasis,
    # <a| exp(i delta sum_j x_j n_j) |a>.
    levels, diagonal = [], []
    counts = occupations.sum(axis=0)
    for count in range(2 * n + 1):
        sector = np.flatnonzero(counts == count)
        sector_levels, states = np.linalg.eigh(hamiltonian[np.ix_(sector, sector)])
        levels.append(sector_levels)
        diagonal.append(phases[sector] @ (states * states))
    levels, diagonal = np.concatenate(levels), np.concatenate(diagonal)
    excitation = levels - levels.min()
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
