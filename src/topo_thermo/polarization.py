"""Electric polarization of pure states and thermal ensembles.

P = Im ln <exp(i * delta * x)> / (2*pi) under periodic boundaries, with
the principal branch in (-pi, pi] so P lies in (-1/2, 1/2]. Because the
exact answer depends on which state the average is taken over, the modes
are explicit and a required argument downstream:

  pure        single eigenstate expectation,
  literal     Tr[rho X] over the single-particle Gibbs mixture (vanishes
              identically for translation-invariant rings; exposed to make
              that fact observable),
  weighted    weight-averaged per-state phases,
  determinant free-fermion expectation det[(1-F) + F U] times the
              neutralizing-background phase, in the grand-canonical
              state at mu = 0: half-filled on average, and exactly
              half-filled at T = 0 without zero modes. This is the mode
              with quantized structure. The expectation is real for the
              chiral chain at mu = 0, so P is 0 or +1/2: the branch
              follows the sign of its real part, not of its rounding
              noise.

Results whose magnitude falls below the cutoff are flagged undefined and
reported with P = 0; the flag is preserved so downstream analysis can
tell "trivial" from "washed out".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import PositionPhaseOperator
from .thermal import GibbsEnsemble, Spectrum, fermi_occupations

MODE_PURE = "pure"
MODE_LITERAL = "literal"
MODE_WEIGHTED = "weighted"
MODE_DETERMINANT = "determinant"
MODES = (MODE_LITERAL, MODE_WEIGHTED, MODE_DETERMINANT, MODE_PURE)

# Expectation magnitudes below this are numerically unreliable and mapped
# to "undefined" (configurable per call).
DEFAULT_MAGNITUDE_CUTOFF = 1e-3

STATE_NORM_TOL = 1e-10

# Weights below this do not contribute to the weighted-phase average.
CONTRIBUTING_WEIGHT_CUTOFF = 1e-6

# A determinant expectation with |Im E| at most this fraction of |E| is
# treated as real: its branch comes from the sign of Re E.
REAL_EXPECTATION_TOL = 1e-10


@dataclass(frozen=True)
class PolarizationResult:
    """Polarization of one state or temperature, or of a batch of temperatures.

    Python scalars for one state or temperature; for a batch, every field
    but `mode` is an array with one entry per temperature, as QfiReport
    holds a stack.
    """

    expectation: complex | np.ndarray
    magnitude: float | np.ndarray
    phase: float | np.ndarray
    polarization: float | np.ndarray
    defined: bool | np.ndarray
    mode: str

    def row(self, index: int) -> PolarizationResult:
        """The one-temperature result at `index` of a batch, as Python scalars."""
        return PolarizationResult(
            expectation=complex(self.expectation[index]),
            magnitude=float(self.magnitude[index]),
            phase=float(self.phase[index]),
            polarization=float(self.polarization[index]),
            defined=bool(self.defined[index]),
            mode=self.mode,
        )


def _make_result(
    expectation: np.ndarray,
    magnitude: np.ndarray,
    mode: str,
    cutoff: float,
    branch: np.ndarray | None = None,
) -> PolarizationResult:
    """Batched result from 1-D arrays; `branch`, when given, sets the phase by its angle.

    np.angle returns [-pi, pi]; the closed lower endpoint folds onto +pi.
    Every entry is elementwise arithmetic, so a row does not depend on the
    batch it is computed in.
    """
    magnitude = np.asarray(magnitude, dtype=float)
    defined = magnitude >= cutoff
    angle = np.angle(expectation if branch is None else branch)
    phase = np.where(defined, np.where(angle == -np.pi, np.pi, angle), 0.0)
    return PolarizationResult(
        expectation=np.asarray(expectation, dtype=complex),
        magnitude=magnitude,
        phase=phase,
        polarization=phase / (2.0 * np.pi),
        defined=defined,
        mode=mode,
    )


def _absolute(values: np.ndarray) -> np.ndarray:
    # hypot, as Python's abs(complex) computes it: np.abs of a complex array
    # differs from it in the last bit.
    return np.hypot(values.real, values.imag)


def _per_temperature(result: PolarizationResult, temperature) -> PolarizationResult:
    """The batch as computed, or its one row for a scalar temperature, as thermal.per_temperature."""
    return result if np.ndim(temperature) else result.row(0)


def state_expectations(vectors: np.ndarray, x_operator: PositionPhaseOperator) -> np.ndarray:
    """<n|X|n> for every column n of `vectors`, in one pass.

    Each entry is a sum along a contiguous row, so it does not depend on
    how many states are evaluated together.
    """
    probabilities = np.ascontiguousarray(np.abs(vectors.T) ** 2)
    diagonal = x_operator.diagonal
    expectations = np.empty(probabilities.shape[0], dtype=complex)
    expectations.real = np.sum(probabilities * diagonal.real, axis=1)
    expectations.imag = np.sum(probabilities * diagonal.imag, axis=1)
    return expectations


def _check_dimension(dimension: int, x_operator: PositionPhaseOperator, what: str) -> None:
    if dimension != x_operator.dimension:
        raise ValueError(
            f"{what} dimension {dimension} does not match operator dimension {x_operator.dimension}"
        )


def pure_state_phase(
    state: np.ndarray,
    x_operator: PositionPhaseOperator,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
) -> PolarizationResult:
    """Polarization of a single normalized state."""
    state = np.asarray(state)
    if state.shape != (x_operator.dimension,):
        raise ValueError(
            f"state has shape {state.shape}, operator dimension is {x_operator.dimension}"
        )
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state must be normalized, got |state| = {norm}")
    expectation = state_expectations(state[:, None], x_operator)
    return _make_result(expectation, _absolute(expectation), MODE_PURE, magnitude_cutoff).row(0)


def polarization_from_states(
    ensemble: GibbsEnsemble,
    per_state: np.ndarray,
    mode: str,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Literal or weighted polarization from per-state expectations <n|X|n>.

    `per_state` lists <n|X|n> in the order of the ensemble's weights, as
    state_expectations or chiral.chiral_state_expectations give it; the
    dense and the chiral path share these reductions. A batched ensemble
    gives one result of arrays with an entry per temperature.

      literal   Tr[rho X] = sum_n lambda_n <n|X|n>;
      weighted  P = sum_n lambda_n gamma_n / (2*pi) over the per-state
                phases gamma_n. States with weight below 1e-6 are ignored.
                Contributing states whose own expectation magnitude falls
                below the cutoff are excluded from the average and force
                the result to undefined; the reported magnitude is the
                minimum over contributing states.
    """
    if per_state.shape != (ensemble.dimension,):
        raise ValueError(
            f"expected {ensemble.dimension} per-state expectations, got shape {per_state.shape}"
        )
    weights = np.atleast_2d(ensemble.weights)
    if mode == MODE_LITERAL:
        expectations = np.sum(weights * per_state, axis=1)
        result = _make_result(expectations, _absolute(expectations), MODE_LITERAL, magnitude_cutoff)
        return _per_temperature(result, ensemble.temperature)
    if mode != MODE_WEIGHTED:
        raise ValueError(f"mode must be {MODE_LITERAL!r} or {MODE_WEIGHTED!r}, got {mode!r}")
    magnitudes = np.abs(per_state)
    phases = np.angle(per_state)
    phases = np.where(phases == -np.pi, np.pi, phases)
    contributing = weights > CONTRIBUTING_WEIGHT_CUTOFF
    min_magnitudes = np.min(np.where(contributing, magnitudes, np.inf), axis=1)
    counted = contributing & (magnitudes >= magnitude_cutoff)
    phase_sums = np.sum(np.where(counted, weights * phases, 0.0), axis=1)
    phase_sums = np.where(phase_sums == -np.pi, np.pi, phase_sums)
    synthetic = min_magnitudes * np.exp(1j * phase_sums)
    result = _make_result(synthetic, min_magnitudes, MODE_WEIGHTED, magnitude_cutoff)
    return _per_temperature(result, ensemble.temperature)


def thermal_polarization_literal(
    ensemble: GibbsEnsemble,
    x_operator: PositionPhaseOperator,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Tr[rho X] with rho in spectral form (see polarization_from_states).

    For a periodic chain this trace is forced to zero by translation
    symmetry at any temperature, so the result is typically undefined;
    the computation is exposed precisely to document that behavior. A
    batched ensemble gives one result of arrays with an entry per
    temperature.
    """
    _check_dimension(ensemble.dimension, x_operator, "ensemble")
    per_state = state_expectations(ensemble.spectrum.vectors, x_operator)
    return polarization_from_states(ensemble, per_state, MODE_LITERAL, magnitude_cutoff)


def thermal_polarization_weighted(
    ensemble: GibbsEnsemble,
    x_operator: PositionPhaseOperator,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Weight-averaged per-state phases, P = sum_n lambda_n gamma_n / (2*pi).

    The reduction and its cutoffs are those of polarization_from_states,
    over the eigenvectors of a dense spectrum. A batched ensemble gives one
    result of arrays with an entry per temperature.
    """
    _check_dimension(ensemble.dimension, x_operator, "ensemble")
    per_state = state_expectations(ensemble.spectrum.vectors, x_operator)
    return polarization_from_states(ensemble, per_state, MODE_WEIGHTED, magnitude_cutoff)


def _background_phase_factor(n: int, delta: float) -> complex:
    # exp(-i*delta*sum_m m) for one unit of neutralizing charge per cell
    # at the cell coordinate. For the canonical delta = 2*pi/N this is
    # exactly (-1)^(N-1); evaluate it as an integer parity to avoid
    # injecting float-pi noise into the determinant's branch.
    if delta == 2.0 * np.pi / n:
        return 1.0 if (n - 1) % 2 == 0 else -1.0
    return complex(np.exp(-1j * delta * (n * (n - 1) // 2)))


def _determinant_result(dets, n: int, delta: float, cutoff: float) -> PolarizationResult:
    """Determinant-mode results from an array of det[(1 - F) + F U], background included.

    For a real chiral Hamiltonian at mu = 0 the expectation is exactly
    real, so an imaginary part within REAL_EXPECTATION_TOL of |E| is
    rounding noise; the branch then follows the sign of Re E (P in
    {0, +1/2}) instead of the sign of that noise. The expectation is kept
    as computed.
    """
    expectation = (np.asarray(dets) * _background_phase_factor(n, delta)).astype(complex)
    magnitude = _absolute(expectation)
    real = np.abs(expectation.imag) <= REAL_EXPECTATION_TOL * magnitude
    branch = np.where(real, expectation.real, expectation)
    return _make_result(expectation, magnitude, MODE_DETERMINANT, cutoff, branch)


def thermal_polarization_determinant(
    spectrum: Spectrum,
    temperature,
    x_operator: PositionPhaseOperator,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Half-filled free-fermion expectation of the position phase.

    expectation = exp(-i delta sum_m m) * det[(1 - F) + F U] with F the
    Fermi occupation operator at mu = 0 and U the diagonal position-phase
    unitary. The prefactor is the phase of the neutralizing ionic
    background (one positive charge per cell at the cell coordinate),
    equal to (-1)^(N-1) for the canonical delta = 2*pi/N; without it the
    quantized values come out shifted by 1/2 for even N. At T = 0 this
    reduces to the occupied-band overlap determinant. A numerically real
    expectation takes its branch from the sign of its real part. An array
    of temperatures gives one result of arrays with an entry per
    temperature.

    With real eigenvectors V, F = V diag(f) V^T and W = V^T U V (two real
    matrix products), (1 - F) + F U = V [(1 - f) + diag(f) W] V^T. V is
    orthogonal, so only the bracket's determinant is formed per temperature.
    """
    _check_dimension(spectrum.dimension, x_operator, "spectrum")
    occupations = fermi_occupations(spectrum, temperature)
    vectors, diagonal = spectrum.vectors, x_operator.diagonal
    rotated = np.empty(vectors.shape, dtype=complex)
    rotated.real = (vectors.T * diagonal.real) @ vectors
    rotated.imag = (vectors.T * diagonal.imag) @ vectors
    dets = []
    for row in np.atleast_2d(occupations):
        mixture = rotated * row[:, None]
        mixture[np.diag_indices_from(mixture)] += 1.0 - row
        dets.append(np.linalg.det(mixture))
    result = _determinant_result(
        np.array(dets), x_operator.n_cells, x_operator.delta, magnitude_cutoff
    )
    return _per_temperature(result, temperature)
