"""Extended SSH chain in real space: Hamiltonian, basis, and operators.

The chain has N two-atom unit cells (A, B). Couplings: v inside a cell,
w from B of cell m to A of cell m+1, z from A of cell m to B of cell m+1.
Charge and lattice constant are set to 1. States are stored interleaved,
flat index i = 2*m + (0 for A, 1 for B), so each cell occupies a
contiguous 2x2 block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PERIODIC = "periodic"
OPEN = "open"
BOUNDARIES = (PERIODIC, OPEN)

SUBLATTICE_A = 0
SUBLATTICE_B = 1

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

AXIS_VECTORS = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}

UNIT_NORM_TOL = 1e-10


@dataclass(frozen=True)
class ModelParams:
    """One physical system: cell count, hoppings and boundary condition."""

    n_cells: int
    v: float
    w: float
    z: float
    boundary: str = PERIODIC

    def __post_init__(self):
        if not isinstance(self.n_cells, (int, np.integer)) or isinstance(self.n_cells, bool):
            raise ValueError(f"n_cells must be an integer, got {self.n_cells!r}")
        if self.n_cells < 2:
            raise ValueError(f"n_cells must be >= 2, got {self.n_cells}")
        for name in ("v", "w", "z"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"hopping {name} must be finite, got {value!r}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")

    @property
    def dimension(self) -> int:
        return 2 * self.n_cells


def flat_index(cell: int, sublattice: int) -> int:
    """Flat index of |cell, sublattice>, sublattice 0 = A, 1 = B."""
    return 2 * cell + sublattice


def _bond_table(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every bond as (A cell, B cell, hopping): v bonds, then w, then z, in cell order.

    Bond j joins |a_j, A> to |b_j, B>: v inside each cell, w from B of
    cell m to A of cell m+1 and z from A of cell m to B of cell m+1, with
    the m+1 = 0 wrap bonds only for periodic boundaries.
    """
    n = params.n_cells
    cells = np.arange(n)
    last_bond = n if params.boundary == PERIODIC else n - 1
    bonds, neighbors = cells[:last_bond], (cells[:last_bond] + 1) % n
    a_cells = np.concatenate([cells, neighbors, bonds])
    b_cells = np.concatenate([cells, bonds, neighbors])
    values = np.repeat([params.v, params.w, params.z], [n, last_bond, last_bond])
    return a_cells, b_cells, values


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """Real symmetric 2N x 2N Hamiltonian of the extended SSH chain.

    Nonzero couplings (plus transposes):
      <m,A|H|m,B>   = v   for every cell m,
      <m+1,A|H|m,B> = w   and  <m+1,B|H|m,A> = z   for neighboring cells,
    with the m+1 = 0 wrap terms included only for periodic boundaries.
    Overlapping bonds accumulate (relevant for N=2 periodic rings).

    Every bond joins an A row to a B column. The bonds are accumulated
    at (A, B) and at the mirrored (B, A) from index arrays, O(N) work with
    no full-matrix pass. Only the N = 2 ring puts two bonds on one entry
    (w + z, the same in either order), so the result equals the
    bond-by-bond sum bit for bit.
    """
    a_cells, b_cells, values = _bond_table(params)
    rows = flat_index(a_cells, SUBLATTICE_A)
    columns = flat_index(b_cells, SUBLATTICE_B)
    h = np.zeros((params.dimension, params.dimension))
    np.add.at(h, (rows, columns), values)
    np.add.at(h, (columns, rows), values)
    return h


def build_folded_block(params: ModelParams) -> np.ndarray:
    """N x N folded chiral block D J, D = H[A, B] and J the cell index reversal.

    Entry (a, N - 1 - b) accumulates every bond from A of cell a to B of
    cell b, in the bond order of build_hamiltonian, so the result equals
    build_hamiltonian(params)[0::2, -1::-2] bit for bit without forming
    the 2N x 2N matrix.
    """
    a_cells, b_cells, values = _bond_table(params)
    n = params.n_cells
    folded = np.zeros((n, n))
    np.add.at(folded, (a_cells, n - 1 - b_cells), values)
    return folded


@dataclass(frozen=True)
class PositionPhaseOperator:
    """Diagonal unitary exp(i * delta * x) with delta = 2*pi/N.

    The position operator weights both sublattices of cell m with the cell
    coordinate m, so the entry at (m, A) equals the entry at (m, B).
    """

    n_cells: int
    delta: float
    diagonal: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return 2 * self.n_cells


def position_phase_operator(n_cells: int) -> PositionPhaseOperator:
    """Build exp(i * 2*pi/N * x) for an N-cell chain."""
    if not isinstance(n_cells, (int, np.integer)) or isinstance(n_cells, bool):
        raise ValueError(f"n_cells must be an integer, got {n_cells!r}")
    if n_cells < 2:
        raise ValueError(f"n_cells must be >= 2, got {n_cells}")
    delta = 2.0 * np.pi / n_cells
    cell_phases = np.exp(1j * delta * np.arange(n_cells))
    return PositionPhaseOperator(
        n_cells=int(n_cells),
        delta=delta,
        diagonal=np.repeat(cell_phases, 2),
    )


@dataclass(frozen=True)
class PauliObservable:
    """Sublattice observable n . sigma replicated over all cells."""

    direction: np.ndarray = field(repr=False)
    matrix: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def pauli_observable(direction, n_cells: int) -> PauliObservable:
    """2N x 2N observable I_cells (x) (n . sigma).

    `direction` is either an axis name ('x', 'y', 'z') or a real unit
    3-vector (|n| = 1 within 1e-10).
    """
    if isinstance(direction, str):
        if direction not in AXIS_VECTORS:
            raise ValueError(f"unknown axis {direction!r}, expected one of x, y, z")
        vec = AXIS_VECTORS[direction]
    else:
        vec = np.asarray(direction, dtype=float)
        if vec.shape != (3,):
            raise ValueError(f"direction must be a 3-vector, got shape {vec.shape}")
        if abs(np.linalg.norm(vec) - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"direction must have unit norm, got |n| = {np.linalg.norm(vec)}")
    block = vec[0] * PAULI["x"] + vec[1] * PAULI["y"] + vec[2] * PAULI["z"]
    return PauliObservable(
        direction=vec,
        matrix=np.kron(np.eye(n_cells), block),
    )
