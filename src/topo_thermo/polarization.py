"""Electric polarization of thermal ensembles.

P = Im ln <X> / (2*pi) with X = exp(i * 2*pi/N * x), Resta's position
phase of an N-cell chain, with the principal branch in (-pi, pi] so P
lies in (-1/2, 1/2]. The chain's dimension 2N fixes X, so every function
takes a spectrum or an ensemble and derives X from it. Because the exact
answer depends on which state the average is taken over, the modes are
explicit and a required argument downstream:

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
              follows the sign of its real part. The fast Bloch and
              chiral paths compute it as a real number; only the dense
              path rounds it with an imaginary part, which its branch
              rule ignores.

Results whose magnitude falls below the cutoff are flagged undefined and
reported with P = 0; the flag is preserved so downstream analysis can
tell "trivial" from "washed out".
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .lattice import cell_phases
from .thermal import GibbsEnsemble, Spectrum, fermi_occupations, per_temperature

MODE_LITERAL = "literal"
MODE_WEIGHTED = "weighted"
MODE_DETERMINANT = "determinant"
MODES = (MODE_LITERAL, MODE_WEIGHTED, MODE_DETERMINANT)

# Expectation magnitudes below this are numerically unreliable and mapped
# to "undefined" (configurable per call).
DEFAULT_MAGNITUDE_CUTOFF = 1e-3

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
        return replace(self, **{name: getattr(self, name)[index].item() for name in RESULT_FIELDS})

    # result[i] is row i, so thermal.per_temperature shapes a result as it does an array.
    __getitem__ = row


# The fields with one entry per temperature in a batch: every field but `mode`.
RESULT_FIELDS = tuple(f.name for f in fields(PolarizationResult) if f.name != "mode")


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


def _cell_count(dimension: int) -> int:
    """N of a 2N-dimensional chain; an odd dimension has no two-site cells."""
    if dimension % 2 != 0:
        raise ValueError(f"dimension must be even (two sublattices per cell), got {dimension}")
    return dimension // 2


def state_expectations(vectors: np.ndarray) -> np.ndarray:
    """<n|X|n> for every column n of `vectors`, in one pass.

    The 2N rows fix X; an odd row count raises ValueError. Each entry is
    a sum along a contiguous row, so it does not depend on how many
    states are evaluated together.
    """
    probabilities = np.ascontiguousarray(np.abs(vectors.T) ** 2)
    # X on the interleaved basis: each cell's phase on both of its sites.
    diagonal = np.repeat(cell_phases(_cell_count(vectors.shape[0])), 2)
    expectations = np.empty(probabilities.shape[0], dtype=complex)
    expectations.real = np.sum(probabilities * diagonal.real, axis=1)
    expectations.imag = np.sum(probabilities * diagonal.imag, axis=1)
    return expectations


def polarization_from_states(
    ensemble: GibbsEnsemble,
    per_state: np.ndarray,
    mode: str,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Literal or weighted polarization from per-state expectations <n|X|n>.

    `per_state` lists <n|X|n> in the order of the ensemble's weights, as
    state_expectations, chiral.chiral_state_expectations or
    bloch.bloch_state_expectations give it; the dense, chiral and Bloch
    paths share these reductions. A batched ensemble gives one result of
    arrays with an entry per temperature.

      literal   Tr[rho X] = sum_n lambda_n <n|X|n>;
      weighted  P = sum_n lambda_n gamma_n / (2*pi) over the per-state
                phases gamma_n. States with weight below 1e-6 are ignored.
                Contributing states whose own expectation magnitude falls
                below the cutoff are excluded from the average and force
                the result to undefined; the reported magnitude is the
                minimum over contributing states. With no contributing
                state at all, as once 2N > 1e6 at high T, the average is
                washed out: magnitude 0, undefined under any positive
                cutoff.
    """
    if per_state.shape != (ensemble.dimension,):
        raise ValueError(
            f"expected {ensemble.dimension} per-state expectations, got shape {per_state.shape}"
        )
    weights = np.atleast_2d(ensemble.weights)
    if mode == MODE_LITERAL:
        expectations = np.sum(weights * per_state, axis=1)
        result = _make_result(expectations, _absolute(expectations), MODE_LITERAL, magnitude_cutoff)
        return per_temperature(result, ensemble.temperature)
    if mode != MODE_WEIGHTED:
        raise ValueError(f"mode must be {MODE_LITERAL!r} or {MODE_WEIGHTED!r}, got {mode!r}")
    magnitudes = np.abs(per_state)
    phases = np.angle(per_state)
    phases = np.where(phases == -np.pi, np.pi, phases)
    contributing = weights > CONTRIBUTING_WEIGHT_CUTOFF
    min_magnitudes = np.where(
        contributing.any(axis=1), np.min(np.where(contributing, magnitudes, np.inf), axis=1), 0.0
    )
    counted = contributing & (magnitudes >= magnitude_cutoff)
    phase_sums = np.sum(np.where(counted, weights * phases, 0.0), axis=1)
    phase_sums = np.where(phase_sums == -np.pi, np.pi, phase_sums)
    synthetic = min_magnitudes * np.exp(1j * phase_sums)
    result = _make_result(synthetic, min_magnitudes, MODE_WEIGHTED, magnitude_cutoff)
    return per_temperature(result, ensemble.temperature)


def thermal_polarization_literal(
    ensemble: GibbsEnsemble,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Tr[rho X] with rho in spectral form (see polarization_from_states).

    For a periodic chain this trace is forced to zero by translation
    symmetry at any temperature, so the result is typically undefined;
    the computation is exposed precisely to document that behavior. A
    batched ensemble gives one result of arrays with an entry per
    temperature.
    """
    per_state = state_expectations(ensemble.spectrum.vectors)
    return polarization_from_states(ensemble, per_state, MODE_LITERAL, magnitude_cutoff)


def thermal_polarization_weighted(
    ensemble: GibbsEnsemble,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Weight-averaged per-state phases, P = sum_n lambda_n gamma_n / (2*pi).

    The reduction and its cutoffs are those of polarization_from_states,
    over the eigenvectors of a dense spectrum. A batched ensemble gives one
    result of arrays with an entry per temperature.
    """
    per_state = state_expectations(ensemble.spectrum.vectors)
    return polarization_from_states(ensemble, per_state, MODE_WEIGHTED, magnitude_cutoff)


def _real_determinant_result(expectations: np.ndarray, cutoff: float, temperature):
    """Determinant-mode result of the fast paths, from their real expectations E.

    E carries the background phase already and has no imaginary part, so
    its sign alone gives the branch, a signed zero's included: P is 0 for
    E >= +0 and +1/2 for E <= -0. The result is shaped by per_temperature
    for the `temperature` the fast path was called with.
    """
    result = _make_result(expectations, np.abs(expectations), MODE_DETERMINANT, cutoff)
    return per_temperature(result, temperature)


def _determinant_result(dets, n: int, cutoff: float) -> PolarizationResult:
    """Determinant-mode results from an array of det[(1 - F) + F U], the dense path's.

    The neutralizing background, one unit of charge per cell at the cell
    coordinate, contributes exp(-i * 2*pi/N * sum_m m) = (-1)^(N-1). It is
    applied as an integer parity, so no float-pi noise enters the branch.

    For a real chiral Hamiltonian at mu = 0 the expectation is exactly
    real, but a complex 2N x 2N determinant rounds it with an imaginary
    part. One within REAL_EXPECTATION_TOL of |E| is rounding noise; the
    branch then follows the sign of Re E (P in {0, +1/2}) instead of the
    sign of that noise. The expectation is kept as computed.
    """
    parity = 1.0 if (n - 1) % 2 == 0 else -1.0
    expectation = (np.asarray(dets) * parity).astype(complex)
    magnitude = _absolute(expectation)
    real = np.abs(expectation.imag) <= REAL_EXPECTATION_TOL * magnitude
    branch = np.where(real, expectation.real, expectation)
    return _make_result(expectation, magnitude, MODE_DETERMINANT, cutoff, branch)


def thermal_polarization_determinant(
    spectrum: Spectrum,
    temperature,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Half-filled free-fermion expectation of the position phase.

    expectation = exp(-i 2 pi/N sum_m m) * det[(1 - F) + F U] with F the
    Fermi occupation operator at mu = 0 and U the diagonal position-phase
    unitary X. The prefactor is the phase of the neutralizing ionic
    background (one positive charge per cell at the cell coordinate),
    equal to (-1)^(N-1); without it the quantized values come out shifted
    by 1/2 for even N. At T = 0 this reduces to the occupied-band overlap
    determinant. A numerically real expectation takes its branch from the
    sign of its real part. An array of temperatures gives one result of
    arrays with an entry per temperature.

    Each temperature forms F = V diag(f) V^dagger from the eigenvectors V
    and the occupations f, and takes det[(1 - F) + F U] as written; U is
    diagonal, so F U scales the columns of F by its phases.
    """
    n = _cell_count(spectrum.dimension)
    occupations = fermi_occupations(spectrum, temperature)
    vectors, diagonal = spectrum.vectors, np.repeat(cell_phases(n), 2)
    identity = np.eye(spectrum.dimension)
    dets = []
    for row in np.atleast_2d(occupations):
        occupied = (vectors * row) @ vectors.conj().T
        dets.append(np.linalg.det(identity - occupied + occupied * diagonal))
    result = _determinant_result(np.array(dets), n, magnitude_cutoff)
    return per_temperature(result, temperature)
