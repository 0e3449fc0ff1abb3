"""Electric polarization of thermal ensembles: the modes and their shared reductions.

P = Im ln <X> / (2*pi) with X = exp(i * 2*pi/N * x), Resta's position
phase of an N-cell chain, with the principal branch in (-pi, pi] so P
lies in (-1/2, 1/2]. Because the exact answer depends on which state the
average is taken over, the modes are explicit and a required argument
downstream:

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
              follows the sign of its real part.

The Bloch and chiral engines compute the per-state <n|X|n> of their own
states, which polarization_from_states reduces to the literal and
weighted modes, and the determinant expectation as a real number, which
_real_determinant_result turns into a result. The dense forms of all
three modes, as written, are their oracle in `tests/dense_engine.py`.

Results whose magnitude falls below the cutoff are flagged undefined and
reported with P = 0; the flag is preserved so downstream analysis can
tell "trivial" from "washed out".
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .thermal import GibbsEnsemble, per_temperature

MODE_LITERAL = "literal"
MODE_WEIGHTED = "weighted"
MODE_DETERMINANT = "determinant"
MODES = (MODE_LITERAL, MODE_WEIGHTED, MODE_DETERMINANT)

# Expectation magnitudes below this are numerically unreliable and mapped
# to "undefined" (configurable per call).
DEFAULT_MAGNITUDE_CUTOFF = 1e-3

# Weights below this do not contribute to the weighted-phase average.
CONTRIBUTING_WEIGHT_CUTOFF = 1e-6


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


def polarization_from_states(
    ensemble: GibbsEnsemble,
    per_state: np.ndarray,
    mode: str,
    magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF,
):
    """Literal or weighted polarization from per-state expectations <n|X|n>.

    `per_state` lists <n|X|n> in the order of the ensemble's weights, as
    chiral.chiral_state_expectations or bloch.bloch_state_expectations
    give it; the chiral and Bloch engines, and the dense oracle, share
    these reductions. A batched ensemble gives one result of
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


def _real_determinant_result(expectations: np.ndarray, cutoff: float, temperature):
    """Determinant-mode result of the Bloch and chiral engines, from their real expectations E.

    E carries the background phase already and has no imaginary part, so
    its sign alone gives the branch, a signed zero's included: P is 0 for
    E >= +0 and +1/2 for E <= -0. The result is shaped by per_temperature
    for the `temperature` the engine was called with.
    """
    result = _make_result(expectations, np.abs(expectations), MODE_DETERMINANT, cutoff)
    return per_temperature(result, temperature)
