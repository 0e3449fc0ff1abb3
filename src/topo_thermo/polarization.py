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
  determinant half-filled free-fermion expectation det[(1-F) + F U] times
              the neutralizing-background phase; this is the mode with
              quantized structure. The expectation is real for the
              half-filled chain, so P is 0 or +1/2: the branch follows
              the sign of its real part, not of its rounding noise.

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
    expectation: complex
    magnitude: float
    phase: float
    polarization: float
    defined: bool
    mode: str


def _principal(angle: float) -> float:
    # np.angle returns [-pi, pi]; fold the closed lower endpoint onto +pi.
    if angle == -np.pi:
        return np.pi
    return angle


def _make_result(
    expectation: complex, magnitude: float, mode: str, cutoff: float, branch: complex | None = None
) -> PolarizationResult:
    """`branch`, when given, is the value whose angle sets the phase."""
    defined = bool(magnitude >= cutoff)
    angle_of = expectation if branch is None else branch
    phase = _principal(float(np.angle(angle_of))) if defined else 0.0
    return PolarizationResult(
        expectation=complex(expectation),
        magnitude=float(magnitude),
        phase=phase,
        polarization=phase / (2.0 * np.pi),
        defined=defined,
        mode=mode,
    )


def _diag_expectation(state: np.ndarray, diagonal: np.ndarray) -> complex:
    """<state| diag |state> for a diagonal operator."""
    probabilities = np.abs(state) ** 2
    return complex(np.dot(probabilities, diagonal))


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
    expectation = _diag_expectation(state, x_operator.diagonal)
    return _make_result(expectation, abs(expectation), MODE_PURE, magnitude_cutoff)


def thermal_polarization_literal(
    ensemble: GibbsEnsemble,
    x_operator: PositionPhaseOperator,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
) -> PolarizationResult:
    """Tr[rho X] with rho in spectral form.

    For a periodic chain this trace is forced to zero by translation
    symmetry at any temperature, so the result is typically undefined;
    the computation is exposed precisely to document that behavior.
    """
    if ensemble.dimension != x_operator.dimension:
        raise ValueError(
            f"ensemble dimension {ensemble.dimension} does not match "
            f"operator dimension {x_operator.dimension}"
        )
    vectors = ensemble.spectrum.vectors
    per_state = np.array(
        [_diag_expectation(vectors[:, n], x_operator.diagonal) for n in range(ensemble.dimension)]
    )
    expectation = complex(np.dot(ensemble.weights, per_state))
    return _make_result(expectation, abs(expectation), MODE_LITERAL, magnitude_cutoff)


def thermal_polarization_weighted(
    ensemble: GibbsEnsemble,
    x_operator: PositionPhaseOperator,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
) -> PolarizationResult:
    """Weight-averaged per-state phases, P = sum_n lambda_n gamma_n / (2*pi).

    States with weight below 1e-6 are ignored. Contributing states whose
    own expectation magnitude falls below the cutoff are excluded from the
    average and force the result to undefined; the reported magnitude is
    the minimum over contributing states.
    """
    if ensemble.dimension != x_operator.dimension:
        raise ValueError(
            f"ensemble dimension {ensemble.dimension} does not match "
            f"operator dimension {x_operator.dimension}"
        )
    vectors = ensemble.spectrum.vectors
    phase_sum = 0.0
    min_magnitude = np.inf
    for n in range(ensemble.dimension):
        weight = ensemble.weights[n]
        if weight <= CONTRIBUTING_WEIGHT_CUTOFF:
            continue
        expectation = _diag_expectation(vectors[:, n], x_operator.diagonal)
        magnitude = abs(expectation)
        min_magnitude = min(min_magnitude, magnitude)
        if magnitude >= magnitude_cutoff:
            phase_sum += weight * _principal(float(np.angle(expectation)))
    phase = _principal(phase_sum)
    synthetic = min_magnitude * np.exp(1j * phase)
    return _make_result(synthetic, min_magnitude, MODE_WEIGHTED, magnitude_cutoff)


def _background_phase_factor(n: int, delta: float) -> complex:
    # exp(-i*delta*sum_m m) for one unit of neutralizing charge per cell
    # at the cell coordinate. For the canonical delta = 2*pi/N this is
    # exactly (-1)^(N-1); evaluate it as an integer parity to avoid
    # injecting float-pi noise into the determinant's branch.
    if delta == 2.0 * np.pi / n:
        return 1.0 if (n - 1) % 2 == 0 else -1.0
    return complex(np.exp(-1j * delta * (n * (n - 1) // 2)))


def _determinant_result(det: complex, n: int, delta: float, cutoff: float) -> PolarizationResult:
    """Determinant-mode result from det[(1 - F) + F U], background included.

    For a real chiral Hamiltonian at mu = 0 the expectation is exactly
    real, so an imaginary part within REAL_EXPECTATION_TOL of |E| is
    rounding noise; the branch then follows the sign of Re E (P in
    {0, +1/2}) instead of the sign of that noise. The expectation is kept
    as computed.
    """
    expectation = complex(det * _background_phase_factor(n, delta))
    magnitude = abs(expectation)
    branch = None
    if abs(expectation.imag) <= REAL_EXPECTATION_TOL * magnitude:
        branch = complex(expectation.real, 0.0)
    return _make_result(expectation, magnitude, MODE_DETERMINANT, cutoff, branch)


def thermal_polarization_determinant(
    spectrum: Spectrum,
    temperature: float,
    x_operator: PositionPhaseOperator,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
) -> PolarizationResult:
    """Half-filled free-fermion expectation of the position phase.

    expectation = exp(-i delta sum_m m) * det[(1 - F) + F U] with F the
    Fermi occupation operator at mu = 0 and U the diagonal position-phase
    unitary. The prefactor is the phase of the neutralizing ionic
    background (one positive charge per cell at the cell coordinate),
    equal to (-1)^(N-1) for the canonical delta = 2*pi/N; without it the
    quantized values come out shifted by 1/2 for even N. At T = 0 this
    reduces to the occupied-band overlap determinant. A numerically real
    expectation takes its branch from the sign of its real part.
    """
    if spectrum.dimension != x_operator.dimension:
        raise ValueError(
            f"spectrum dimension {spectrum.dimension} does not match "
            f"operator dimension {x_operator.dimension}"
        )
    occ = fermi_occupations(spectrum, temperature, chemical_potential=0.0)
    vectors = spectrum.vectors
    fermi_operator = (vectors * occ.occupations) @ vectors.T
    dim = spectrum.dimension
    mixture = np.eye(dim, dtype=complex) - fermi_operator
    mixture += fermi_operator * x_operator.diagonal[None, :]
    return _determinant_result(
        np.linalg.det(mixture), x_operator.n_cells, x_operator.delta, magnitude_cutoff
    )
