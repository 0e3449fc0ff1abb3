"""Brillouin-zone oracle for the closed forms of the periodic ring.

Everything here is built from the hoppings (v, w, z) alone: nothing reads
`BlochSpectrum.coupling` or any other part of the package, so a test can
hold the Bloch engine to it. The ring's off-diagonal Bloch entry and its
k derivative are

  a(k) = v + w exp(-ik) + z exp(ik),   a'(k) = i (z exp(ik) - w exp(-ik)),

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


def zone_mean(values: np.ndarray) -> float:
    """Brillouin-zone mean of a periodic function sampled at `momenta(len(values))`.

    The periodic trapezoid rule weighs every point 1 / n_k, as the end
    points k = 0 and k = 2 pi are one point.
    """
    return float(np.mean(values))


def metric_mean(v: float, w: float, z: float, n_k: int = ZONE_POINTS) -> float:
    """<g> = <(Im a'/a)^2> / 4, the zone mean of the lower band's quantum metric."""
    k = momenta(n_k)
    phase_slope = np.imag(coupling_derivative(v, w, z, k) / coupling(v, w, z, k))
    return zone_mean(phase_slope**2) / 4.0
