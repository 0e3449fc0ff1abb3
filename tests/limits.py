"""Brillouin-zone oracle for the closed forms of the periodic ring.

Everything here is built from the hoppings (v, w, z) alone: nothing reads
`BlochSpectrum.coupling` or any other part of the package, so a test can
hold the Bloch engine to it. The ring's off-diagonal Bloch entry and its
k derivatives are

  a(k) = v + w exp(-ik) + z exp(ik),   a'(k) = i (z exp(ik) - w exp(-ik)),
  a''(k) = -(z exp(ik) + w exp(-ik)),

and a Brillouin-zone mean is the periodic trapezoid rule over n_k points
k_j = 2 pi j / n_k, which for a smooth periodic integrand converges
faster than any power of 1 / n_k.

  metric_mean  <g> = <(Im a'/a)^2> / 4, the zone mean of the quantum
               (Fubini-Study) metric g(k) = |<u_+(k)|d_k u_-(k)>|^2
               = (d_k phi)^2 / 4 of the lower band, phi = arg a(k) and
               d_k phi = Im(a'/a). It is the quarter-normalized QFI of
               u_-(k) under a shift of k; N <g> is the ground state's
               variance of the total cell position (Resta and Sorella,
               Phys. Rev. Lett. 82, 370 (1999)).

  phase_derivatives  phi' = Im(a'/a) and phi'' = Im(a''/a - (a'/a)^2),
               the first two k derivatives of phi = arg a(k).

  full_band_log_probability  ln of the Gibbs probability that a ring of
               n cells at temperature T is in its ground configuration,
               lower band full and upper band empty: every k of the ring
               contributes f(-|a|) (1 - f(+|a|)) = f(-|a|)^2 with the Fermi
               function f(e) = 1 / (1 + exp(e / T)).
"""

import numpy as np

# 2^14 points put <g> within 1e-16 of its limit on gapped chains as close
# to a gap closing as (v, w, z) = (0.45, 0.5, 0).
ZONE_POINTS = 2**14


def momenta(n_k: int) -> np.ndarray:
    """The n_k points k_j = 2 pi j / n_k of the periodic trapezoid rule."""
    return 2.0 * np.pi * np.arange(n_k) / n_k


def coupling(v: float, w: float, z: float, k: np.ndarray) -> np.ndarray:
    """a(k) = v + w exp(-ik) + z exp(ik)."""
    return v + w * np.exp(-1j * k) + z * np.exp(1j * k)


def coupling_derivative(v: float, w: float, z: float, k: np.ndarray) -> np.ndarray:
    """a'(k) = i (z exp(ik) - w exp(-ik))."""
    return 1j * (z * np.exp(1j * k) - w * np.exp(-1j * k))


def coupling_second_derivative(v: float, w: float, z: float, k: np.ndarray) -> np.ndarray:
    """a''(k) = -(z exp(ik) + w exp(-ik))."""
    return -(z * np.exp(1j * k) + w * np.exp(-1j * k))


def phase_derivatives(v: float, w: float, z: float, k: np.ndarray) -> tuple:
    """(phi', phi'') at k: Im(a'/a) and Im(a''/a - (a'/a)^2)."""
    a = coupling(v, w, z, k)
    slope = coupling_derivative(v, w, z, k) / a
    return np.imag(slope), np.imag(coupling_second_derivative(v, w, z, k) / a - slope**2)


def zone_mean(values: np.ndarray) -> float:
    """Brillouin-zone mean of a periodic function sampled at `momenta(len(values))`.

    The periodic trapezoid rule weighs every point 1 / n_k, as the end
    points k = 0 and k = 2 pi are one point.
    """
    return float(np.mean(values))


def metric_mean(v: float, w: float, z: float, n_k: int = ZONE_POINTS) -> float:
    """<g> = <(Im a'/a)^2> / 4, the zone mean of the lower band's quantum metric."""
    phase_slope, _ = phase_derivatives(v, w, z, momenta(n_k))
    return zone_mean(phase_slope**2) / 4.0


def full_band_log_probability(v: float, w: float, z: float, n: int, temperature: float) -> float:
    """-2 sum_j log1p(exp(-|a(k_j)| / T)) over the ring's own n momenta k_j = 2 pi j / n."""
    energies = np.abs(coupling(v, w, z, momenta(n)))
    return float(-2.0 * np.sum(np.log1p(np.exp(-energies / temperature))))
