"""Band spectra and the thermal ensembles over them.

Temperatures are in hopping units with k_B = 1. The thermal state is the
canonical Gibbs mixture exp(-H/T)/Z over the single-particle spectrum;
Fermi occupations at half filling (mu = 0) back the determinant
polarization route, and their band contrast tanh(e_k / 2T) backs the
fast determinants. Weights and occupations take one temperature or a
1-D array of them, so a sweep evaluates a spectrum's whole temperature
column in one call. Weights and occupations read only a spectrum's
`energies`, in any order, so the dense spectra of the test oracle in
`tests/dense_engine.py` take them as a BandSpectrum does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Ground-cluster detection scale for T = 0 and the underflow floor below
# which weights are flushed to exactly zero.
DEGENERACY_SCALE = 1e-9
WEIGHT_FLOOR = 1e-300


@dataclass(frozen=True)
class BandSpectrum:
    """The 2N levels of a chiral chain in band order.

    `energies` lists the lower band -e_k for every k, then the upper band
    +e_k in the same k order, so state k and state N + k are chiral
    partners. The Bloch engine's k is the momentum, the chiral engine's the
    index of a singular value of the A-to-B block.
    """

    n_cells: int
    energies: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return 2 * self.n_cells

    def bands(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-state values in `energies` order, split into (lower, upper) bands.

        Works along the last axis, so rows of per-temperature values split
        row by row.
        """
        values = np.asarray(values)
        if values.shape[-1:] != (self.dimension,):
            raise ValueError(f"expected {self.dimension} per-state values, got shape {values.shape}")
        return values[..., : self.n_cells], values[..., self.n_cells :]


@dataclass(frozen=True)
class GibbsEnsemble:
    """Normalized spectral weights lambda_n attached to a spectrum, aligned with its `energies`.

    `spectrum` is a BandSpectrum, or any spectrum with `energies`, such as
    the dense oracle's. For an array of temperatures, `weights` has one
    row per temperature. Building an ensemble with any negative weight
    raises ValueError, so every consumer reads weights checked once, here,
    and no kernel checks them again.
    """

    temperature: float | np.ndarray
    weights: np.ndarray = field(repr=False)
    spectrum: BandSpectrum = field(repr=False)

    def __post_init__(self):
        if np.any(self.weights < 0.0):
            raise ValueError("ensemble weights must be nonnegative")

    @property
    def dimension(self) -> int:
        return self.weights.shape[-1]


class EnsembleDiagnostics(NamedTuple):
    purity: float | np.ndarray
    entropy: float | np.ndarray


def _require_finite_energies(energies: np.ndarray) -> None:
    """Raise FloatingPointError unless every energy is finite.

    Weights, occupations and phases of an overflowed spectrum come out as
    NaN or as silent zeros, so every function that builds a spectrum checks
    its energies.
    """
    if not np.isfinite(energies).all():
        raise FloatingPointError("non-finite energies: the spectrum overflows float64")


def _temperature_column(temperature) -> np.ndarray:
    """Temperatures as an (n_T, 1) column; rejects negative and NaN values."""
    temperatures = np.asarray(temperature, dtype=float)
    if temperatures.ndim > 1:
        raise ValueError(f"expected one temperature or a 1-D array, got shape {temperatures.shape}")
    if not np.all(temperatures >= 0.0):
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    return temperatures.reshape(-1, 1)


def per_temperature(values, temperature):
    """Per-temperature rows as computed, or the one row of a scalar temperature.

    Every function that takes `temperature` as a scalar or a 1-D array
    shapes its result through this, so a scalar call is the same
    computation with one row.
    """
    return values if np.ndim(temperature) else values[0]


def gibbs_weights(spectrum: BandSpectrum, temperature) -> GibbsEnsemble:
    """Canonical weights exp(-(E_n - E_0)/T) / Z, aligned with the spectrum's energies.

    Reads only `spectrum.energies`, which may come in any order; E_0 is
    their minimum, subtracted before exponentiating for overflow safety.
    Weights below 1e-300 are flushed to exactly zero. At T = 0 the weight is spread uniformly over
    the ground-degenerate cluster {n : E_n - E_0 <= 1e-9 * max(1, |E_0|)},
    and at T = inf uniformly over every level. A scalar temperature gives
    weights of shape (2N,), a 1-D array of n_T temperatures (n_T, 2N);
    each row is computed exactly as for that temperature alone.
    """
    column = _temperature_column(temperature)
    energies = spectrum.energies
    ground = energies.min()
    frozen = column == 0.0
    # A spread beyond float64 overflows to an infinite excitation, whose weight is 0 at finite T.
    with np.errstate(over="ignore", invalid="ignore"):
        excitation = energies - ground
        weights = np.exp(-excitation / np.where(frozen, 1.0, column))
    weights[weights < WEIGHT_FLOOR] = 0.0
    weights[np.isinf(column[:, 0])] = 1.0  # whatever the spread, not inf / inf
    eps = DEGENERACY_SCALE * max(1.0, abs(ground))
    weights = np.where(frozen, (excitation <= eps).astype(float), weights)
    weights /= weights.sum(axis=1, keepdims=True)
    temperatures = column[:, 0] if np.ndim(temperature) else float(temperature)
    return GibbsEnsemble(
        temperature=temperatures, weights=per_temperature(weights, temperature), spectrum=spectrum
    )


def fermi_occupations(spectrum: BandSpectrum, temperature) -> np.ndarray:
    """Half-filling Fermi-Dirac occupations 1 / (1 + exp(E_n / T)), aligned with the spectrum.

    Reads only `spectrum.energies`. T = 0 degrades to the step function
    with occupation exactly 1/2 at E_n == 0. Shapes follow gibbs_weights:
    (2N,) for a scalar temperature, (n_T, 2N) for an array.
    """
    column = _temperature_column(temperature)
    energies = spectrum.energies
    frozen = column == 0.0
    step = np.where(energies < 0.0, 1.0, np.where(energies > 0.0, 0.0, 0.5))
    with np.errstate(over="ignore"):  # E / T and exp overflow to inf, the occupation to 0
        exponent = energies / np.where(frozen, 1.0, column)
        fermi = 1.0 / (1.0 + np.exp(exponent))
    return per_temperature(np.where(frozen, step, fermi), temperature)


def band_contrast(spectrum: BandSpectrum, temperature) -> np.ndarray:
    """Fermi contrast t_k = f(-e_k) - f(+e_k) = tanh(e_k / 2T) of every band pair k.

    The lower band's occupations minus the upper band's, from
    fermi_occupations, so the T = 0 step and the 1/2 of an exact zero
    level carry over: t is 1 on a nonzero level and 0 on a zero one at
    T = 0, and 0 at T = inf. (N,) for a scalar temperature, (n_T, N) for
    an array.
    """
    lower, upper = spectrum.bands(fermi_occupations(spectrum, temperature))
    return lower - upper


def ensemble_diagnostics(ensemble: GibbsEnsemble) -> EnsembleDiagnostics:
    """Purity sum(lambda^2) and von Neumann entropy -sum(lambda ln lambda).

    Floats for a single ensemble, arrays with one entry per temperature
    for a batched one.
    """
    weights = ensemble.weights
    purity = np.sum(weights * weights, axis=-1)
    entropy = -np.sum(weights * np.log(np.where(weights > 0.0, weights, 1.0)), axis=-1)
    if weights.ndim == 1:
        return EnsembleDiagnostics(purity=float(purity), entropy=float(entropy))
    return EnsembleDiagnostics(purity=purity, entropy=entropy)
