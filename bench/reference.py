"""Independent NumPy reference for sampled sweep output rows.

Nothing here imports topo_thermo: the Hamiltonian, spectrum, Gibbs
weights, QFI matrix, interferometric power and determinant polarization
are rebuilt from their definitions (see the README of the package under
test) with different formulas where one exists, so a defect in the
program does not cancel against the same defect in the check.

Tolerances (absolute unless stated; `scale` is max(1, max |M_ref|)):
  QFI entries and i_p       1e-9 * scale
  optimal direction         |dir| = 1 within 1e-9 and
                            |M dir - i_p dir| <= 1e-7 * scale
  P (modulo 1)              1e-8, compared when both sides are defined
  magnitude                 1e-8 relative + 1e-12
  P_defined                 must agree unless magnitude is within
                            1e-8 relative of the cutoff
  purity, entropy           1e-10 * max(1, |value|)
Output is printed with 12 significant digits, so rounding adds at most
5e-13 relative. The program drops QFI pairs with l_m + l_n < 1e-12; with
Pauli generators that changes an entry by at most 2N * 1e-12, below the
QFI tolerance for N <= 400.
"""

from __future__ import annotations

import math

import numpy as np

QFI_TOL = 1e-9
DIRECTION_TOL = 1e-7
NORM_TOL = 1e-9
P_TOL = 1e-8
MAGNITUDE_RTOL = 1e-8
MAGNITUDE_ATOL = 1e-12
DIAGNOSTIC_TOL = 1e-10
DEFAULT_TAU_MAG = 1e-3

QFI_COLUMNS = ("M_xx", "M_xy", "M_xz", "M_yy", "M_yz", "M_zz")
QFI_INDEX = {"M_xx": (0, 0), "M_xy": (0, 1), "M_xz": (0, 2),
             "M_yy": (1, 1), "M_yz": (1, 2), "M_zz": (2, 2)}


def hamiltonian(n_cells: int, v: float, w: float, z: float, boundary: str) -> np.ndarray:
    """Dense 2N x 2N extended-SSH Hamiltonian, flat index 2*cell + sublattice."""
    h = np.zeros((2 * n_cells, 2 * n_cells))
    cells = np.arange(n_cells)
    bonds = cells if boundary == "periodic" else cells[:-1]
    nxt = (bonds + 1) % n_cells
    # One direction of every bond; symmetrising adds the other. Bonds that
    # land on the same entry (N = 2 rings) accumulate.
    np.add.at(h, (2 * cells, 2 * cells + 1), v)
    np.add.at(h, (2 * nxt, 2 * bonds + 1), w)
    np.add.at(h, (2 * nxt + 1, 2 * bonds), z)
    return h + h.T


class Model:
    """Spectrum of one (N, v, w, z, boundary) and its rotated Pauli generators."""

    def __init__(self, n_cells, v, w, z, boundary):
        self.n_cells = n_cells
        self.energies, self.vectors = np.linalg.eigh(hamiltonian(n_cells, v, w, z, boundary))
        self._generators = None

    def generators(self):
        """Real matrices G_x, G_y / i, G_z of V^T (I (x) sigma_l) V."""
        if self._generators is None:
            vec = self.vectors
            swapped = vec[np.arange(vec.shape[0]) ^ 1]
            sign = np.tile([1.0, -1.0], self.n_cells)[:, None]
            # sigma_y = i * [[0, -1], [1, 0]] acting on each cell's (A, B) pair.
            self._generators = (vec.T @ swapped, vec.T @ (-sign * swapped), vec.T @ (sign * vec))
        return self._generators

    def gibbs(self, temperature: float) -> np.ndarray:
        shifted = -(self.energies - self.energies.min()) / temperature
        weights = np.exp(shifted)
        return weights / weights.sum()

    def qfi(self, temperature: float) -> np.ndarray:
        """F_ab = 1/2 sum_mn (l_m - l_n)^2 / (l_m + l_n) Re(G_a,mn conj(G_b,mn))."""
        lam = self.gibbs(temperature)
        total = lam[:, None] + lam[None, :]
        pair = np.divide((lam[:, None] - lam[None, :]) ** 2, total,
                         out=np.zeros_like(total), where=total > 0.0)
        gx, gy, gz = self.generators()
        # G_y is i * gy with gy real, so every x-y and y-z entry is exactly 0.
        m = np.zeros((3, 3))
        m[0, 0] = 0.5 * np.sum(pair * gx * gx)
        m[1, 1] = 0.5 * np.sum(pair * gy * gy)
        m[2, 2] = 0.5 * np.sum(pair * gz * gz)
        m[0, 2] = m[2, 0] = 0.5 * np.sum(pair * gx * gz)
        return m

    def determinant_expectation(self, temperature: float) -> complex:
        """(-1)^(N-1) det[1 + F (U - 1)], F the mu = 0 Fermi projector."""
        occupations = 0.5 * (1.0 - np.tanh(self.energies / (2.0 * temperature)))
        fermi = (self.vectors * occupations) @ self.vectors.T
        phases = np.repeat(np.exp(2j * np.pi * np.arange(self.n_cells) / self.n_cells), 2)
        sign, logabs = np.linalg.slogdet(np.eye(fermi.shape[0]) + fermi * (phases - 1.0)[None, :])
        background = 1.0 if (self.n_cells - 1) % 2 == 0 else -1.0
        return complex(background * sign * math.exp(logabs))


def _wrap_distance(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def compare_row(row: dict, model: Model, tau_mag: float = DEFAULT_TAU_MAG) -> list[str]:
    """Mismatches between one parsed output row and the reference, as text."""
    bad = []
    temperature = row["T"]
    if row.get("M_xx") is not None or row.get("i_p") is not None:
        m = model.qfi(temperature)
        scale = max(1.0, float(np.abs(m).max()))
        for column in QFI_COLUMNS:
            got = row.get(column)
            want = float(m[QFI_INDEX[column]])
            if got is not None and abs(got - want) > QFI_TOL * scale:
                bad.append(f"{column} {got!r} != {want!r}")
        if row.get("i_p") is not None:
            i_p = max(float(np.linalg.eigvalsh(m)[0]), 0.0)
            if abs(row["i_p"] - i_p) > QFI_TOL * scale:
                bad.append(f"i_p {row['i_p']!r} != {i_p!r}")
            direction = np.array([row["dir_x"], row["dir_y"], row["dir_z"]], dtype=float)
            if abs(np.linalg.norm(direction) - 1.0) > NORM_TOL:
                bad.append(f"|dir| = {np.linalg.norm(direction)!r} != 1")
            elif np.linalg.norm(m @ direction - i_p * direction) > DIRECTION_TOL * scale:
                bad.append(f"dir {direction.tolist()} is not the i_p eigenvector")
    if row.get("mode") == "determinant":
        expectation = model.determinant_expectation(temperature)
        magnitude = abs(expectation)
        if abs(row["magnitude"] - magnitude) > MAGNITUDE_RTOL * magnitude + MAGNITUDE_ATOL:
            bad.append(f"magnitude {row['magnitude']!r} != {magnitude!r}")
        near_cutoff = abs(magnitude - tau_mag) <= MAGNITUDE_RTOL * tau_mag
        defined = magnitude >= tau_mag
        if row["P_defined"] != defined and not near_cutoff:
            bad.append(f"P_defined {row['P_defined']!r} != {defined!r}")
        elif defined and row["P_defined"]:
            p = math.atan2(expectation.imag, expectation.real) / (2.0 * math.pi)
            if _wrap_distance(row["P"], p) > P_TOL:
                bad.append(f"P {row['P']!r} != {p!r} (mod 1)")
        elif not row["P_defined"] and row["P"] != 0.0:
            bad.append(f"undefined P reported as {row['P']!r}, expected 0")
    if row.get("purity") is not None:
        lam = model.gibbs(temperature)
        positive = lam[lam > 0.0]
        for column, want in (("purity", float(np.sum(lam * lam))),
                             ("entropy", float(-np.sum(positive * np.log(positive))))):
            if abs(row[column] - want) > DIAGNOSTIC_TOL * max(1.0, abs(want)):
                bad.append(f"{column} {row[column]!r} != {want!r}")
    return bad


def check_rows(rows: list[dict], indices) -> dict[int, list[str]]:
    """Reference-check rows[i] for i in indices; returns {index: mismatches}."""
    models = {}
    failures = {}
    for index in indices:
        row = rows[index]
        key = (int(row["N"]), row["v"], row["w"], row["z"], row["boundary"])
        if key not in models:
            models[key] = Model(*key)
        bad = compare_row(row, models[key])
        if bad:
            failures[index] = bad
    return failures
