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

  coupling_phase_mean  m = <a / conj(a)>, the zone mean of exp(2 i phi).
               On |xi| = 1, xi = exp(ik), a / conj(a) = P(xi) / Q(xi) with
               P = z xi^2 + v xi + w and Q = w xi^2 + v xi + z, so by
               residues m = w / z + sum over the roots xi_i of Q in |xi| < 1
               of P(xi_i) / (xi_i Q'(xi_i)), and m = (z / w)^nu for winding
               nu = +-1. The ring's Gaussian state at T = 0 has i_p / N =
               (1 - |m|) / 2.

  thermal_winding  nu_T = -<tanh^2(|a| / 2T) phi'>, the zone mean of the
               winding density weighted by the squared Fermi contrast
               t_k = tanh(|a(k)| / 2T) (Mondragon-Shem, Hughes, Song and
               Prodan, Phys. Rev. Lett. 113, 046802 (2014)). At T = 0 it
               is the winding number; at T > 0 it is smooth and not
               quantized.

  bures_metric  the diagonal (g_vv, g_ww, g_zz) of the Bures metric of
               the ring's thermal Gaussian state (grand canonical, mu = 0)
               over the hoppings, quarter normalized so that a small
               step d lambda costs 2 (1 - sqrt(F)) = g d lambda^2
               (Zanardi, Campos Venuti and Giorda, Phys. Rev. A 76, 062318
               (2007); Hubner, Phys. Lett. A 163, 239 (1992)). Each k is a
               two-mode block with levels -+|a|, so with e = exp(-|a| / T)
               the sum over the ring's own momenta is of

                 (d|a|)^2 e / (2 T^2 (1 + e)^2)  +  (1 - e)^2 / (1 + e^2) (d phi)^2 / 4,

               the first term the occupations' Fisher information and the
               second the rotation of the band states. d|a| = |a| Re(da / a)
               and d phi = Im(da / a), with da = 1, exp(-ik) or exp(ik)
               for v, w or z. e <= 1, so neither term overflows; T = 0
               leaves sum (d phi)^2 / 4, the ground state's fidelity
               susceptibility.

  uhlmann_overlap  Tr[rho_(k_0) U_loop] of the ring's thermal Bloch states
               rho_k = exp(-h(k) / T) / Tr, h(k) = [[0, a], [conj(a), 0]],
               with the amplitude w_k = sqrt(rho_k) U_k transported round the
               ring's own momenta under Uhlmann's condition w_k^+ w_(k+1) > 0
               (Viyuela, Rivas and Martin-Delgado, Phys. Rev. Lett. 112,
               130401 (2014)). It is real for these chains, and its sign is
               the Uhlmann phase: negative, Phi_U = pi, on a winding chain
               below its critical temperature.
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


def coupling_phase_mean(v: float, w: float, z: float, n_k: int = ZONE_POINTS) -> complex:
    """m = <a / conj(a)>, the periodic-trapezoid mean over n_k points."""
    a = coupling(v, w, z, momenta(n_k))
    return complex(np.mean(a / np.conj(a)))


def thermal_winding(v: float, w: float, z: float, temperature: float, n_k: int = ZONE_POINTS):
    """nu_T = -<tanh^2(|a| / 2T) phi'> over n_k points; tanh is 1 at T = 0."""
    k = momenta(n_k)
    phase_slope, _ = phase_derivatives(v, w, z, k)
    if temperature == 0.0:
        return -zone_mean(phase_slope)
    contrast = np.tanh(np.abs(coupling(v, w, z, k)) / (2.0 * temperature))
    return -zone_mean(contrast**2 * phase_slope)


def bures_metric(v: float, w: float, z: float, n: int, temperature: float) -> tuple:
    """(g_vv, g_ww, g_zz) in total over the ring's own n momenta k_j = 2 pi j / n."""
    k = momenta(n)
    a = coupling(v, w, z, k)
    magnitude = np.abs(a)
    if temperature == 0.0:
        fade = occupation_term = np.zeros(n)
    else:
        fade = np.exp(-magnitude / temperature)
        occupation_term = fade / (2.0 * temperature**2 * (1.0 + fade) ** 2)
    rotation_term = (1.0 - fade) ** 2 / (1.0 + fade**2) / 4.0
    metric = []
    for slope in (np.ones(n), np.exp(-1j * k), np.exp(1j * k)):  # da / d(v, w, z)
        ratio = slope / a
        terms = occupation_term * (magnitude * ratio.real) ** 2 + rotation_term * ratio.imag**2
        metric.append(float(np.sum(terms)))
    return tuple(metric)


def uhlmann_overlap(v: float, w: float, z: float, n: int, temperature: float) -> complex:
    """Tr[rho_(k_0) U_loop] over the ring's own n momenta k_j = 2 pi j / n, at T > 0.

    With h(k) = |a| H(k), H = [[0, a / |a|], [conj(a) / |a|, 0]], H^2 = 1,
    rho_k = (1 - tanh(|a| / T) H) / 2 and sqrt(rho_k) is proportional to
    (1 + e) / 2 - (1 - e) H / 2, e = exp(-|a| / T): that scaling by
    exp(-|a| / 2T) does not overflow at low T, and a positive factor moves
    no singular vector. For sqrt(rho_k) sqrt(rho_(k+1)) = Q_k S_k R_k^+ the
    transport is U_(k+1) = R_k Q_k^+ U_k, and U_loop, from U_0 = 1 back to
    k_n = k_0, is the ordered product of the n steps, multiplied pairwise.
    """
    a = coupling(v, w, z, momenta(n))
    phase = a / np.abs(a)
    unit = np.zeros((n, 2, 2), complex)
    unit[:, 0, 1], unit[:, 1, 0] = phase, np.conj(phase)
    fade = np.exp(-np.abs(a) / temperature)[:, None, None]
    root = (1.0 + fade) / 2.0 * np.eye(2) - (1.0 - fade) / 2.0 * unit
    left, _, right = np.linalg.svd(root @ np.roll(root, -1, axis=0))
    steps = np.conj(np.swapaxes(left @ right, -1, -2))
    while len(steps) > 1:  # steps[j] acts after steps[j - 1]
        if len(steps) % 2:
            steps = np.concatenate([steps, np.eye(2)[None]])
        steps = steps[1::2] @ steps[0::2]
    rho = (np.eye(2) - np.tanh(np.abs(a[0]) / temperature) * unit[0]) / 2.0
    return complex(np.trace(rho @ steps[0]))
