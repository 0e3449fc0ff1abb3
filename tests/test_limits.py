"""The ring's Fisher-metric identity at T = 0 and below the gap, against the zone oracle.

At T = 0 the ring's determinant polarization has magnitude
|E| = exp(-2 pi^2 <g> / N + O(N^-2)), with <g> the zone mean of the
lower band's quantum (Fubini-Study) metric (Resta and Sorella, Phys. Rev.
Lett. 82, 370 (1999); Souza, Wilkens and Martin, Phys. Rev. B 62, 1666
(2000)). Since <g> = <(d_k phi)^2> / 4 >= <d_k phi>^2 / 4 and phi turns by
2 pi nu over the zone, a chain of winding nu carries <g> >= nu^2 / 4.

|E(0)| is the product of the overlaps |<u_-(k_j)|u_-(k_(j+1))>| = |cos(dphi / 2)|
over the ring's momenta, so expanding ln cos to fourth order in the step
dphi = phi(k_(j+1)) - phi(k_j) gives the N^-2 term of the identity:
N (-ln|E(0)|) / (2 pi^2) = <g> + pi^2 (<phi'^4> / 24 - <phi''^2> / 12) / N^2 + O(N^-4).

Below the gap, heat enters |E| as one factor: ln|E(T)| = ln|E(0)| plus the
log-probability that the ring is in its ground configuration.

The oracle's other closed forms are tested here too: m = <a / conj(a)>
against its residue sum, (z / w)^nu on a winding chain and its z = 0
form; and the Uhlmann loop of the thermal ring, whose overlap is real,
negative on a winding chain when cold, and changes sign at a critical
temperature that does not grow with N (Viyuela, Rivas and
Martin-Delgado, Phys. Rev. Lett. 112, 130401 (2014)).

The ring's half-filled Gaussian state at T = 0 has i_p = (1 - |m|) N / 2,
held to the test-side Gaussian QFI of test_fock.py on cold rings.

Two more ring oracles stand ready for their sweep outputs: the thermal
winding nu_T, which is the winding number at T = 0 and fades smoothly as
T grows, and the Bures metric of the thermal Gaussian state over the
hoppings, held to the fidelity decay of the exact Fock state and to its
z = 0 forms, and shown to mark both gap closings at low T without
growing with N once T > 0.
"""

import numpy as np
import pytest
from fock import many_body_hamiltonian
from limits import (
    ZONE_POINTS,
    bures_metric,
    coupling,
    coupling_phase_mean,
    full_band_log_probability,
    gaussian_ground_interferometric_power,
    metric_mean,
    momenta,
    phase_derivatives,
    thermal_winding,
    uhlmann_overlap,
    zone_mean,
)
from test_fock import gaussian_qfi_matrix

from topo_thermo.bloch import bloch_polarization_determinant, bloch_spectrum
from topo_thermo.chiral import winding_number
from topo_thermo.lattice import ModelParams, build_hamiltonian
from topo_thermo.qfi import interferometric_power

# Seeded chains with hoppings in [-1, 1] and a bulk gap min_k |a(k)| >= 0.2.
GAP_FLOOR = 0.2


def gapped_chains(count: int = 40) -> list:
    rng = np.random.default_rng(0)
    chains = []
    while len(chains) < count:
        v, w, z = rng.uniform(-1.0, 1.0, 3)
        if np.abs(coupling(v, w, z, momenta(4096))).min() >= GAP_FLOOR:
            chains.append((float(v), float(w), float(z)))
    return chains


CHAINS = gapped_chains()


def metric_z0(v: float, w: float) -> float:
    """<g> at z = 0: 1/4 + v^2 / (8 (w^2 - v^2)) for |v| < |w|, w^2 / (8 (v^2 - w^2)) above."""
    if abs(v) < abs(w):
        return 0.25 + v * v / (8.0 * (w * w - v * v))
    return w * w / (8.0 * (v * v - w * w))


def test_the_oracle_gives_the_rational_metric_of_a_chain():
    assert metric_mean(0.3, 0.5, 0.2) == pytest.approx(343 / 960, abs=1e-15)


@pytest.mark.parametrize("n_cells", [50, 51, 200, 800])
def test_zero_temperature_determinant_magnitude_is_the_metric(n_cells):
    # N (-ln|E|) / (2 pi^2) - <g> is O(N^-2). Measured on these 40 chains
    # at N = 50, 51, 200 and 800: the largest N^2 |residual| is 21.95, on
    # (-0.19, -0.60, -0.82) with min |a| = 0.21; on (0.3, 0.5, 0.2) it is
    # 0.008. The bound keeps a margin of 1.8 over that.
    for v, w, z in CHAINS:
        spectrum = bloch_spectrum(ModelParams(n_cells=n_cells, v=v, w=w, z=z))
        magnitude = bloch_polarization_determinant(spectrum, 0.0).magnitude
        residual = n_cells * -np.log(magnitude) / (2.0 * np.pi**2) - metric_mean(v, w, z)
        assert abs(residual) <= 40.0 / n_cells**2, (v, w, z)


@pytest.mark.parametrize("n_cells", [200, 800, 3200])
def test_the_inverse_square_term_of_the_metric_identity(n_cells):
    # N^2 (N (-ln|E(0)|) / (2 pi^2) - <g>) approaches the N^-2 coefficient
    # as N^-2. Measured on these 40 chains, the largest distances are
    # 5.5e-2, 3.5e-3 and 2.1e-4 at N = 200, 800 and 3200: a margin of 1.8
    # under 4000 / N^2.
    for v, w, z in CHAINS:
        spectrum = bloch_spectrum(ModelParams(n_cells=n_cells, v=v, w=w, z=z))
        magnitude = bloch_polarization_determinant(spectrum, 0.0).magnitude
        residual = n_cells * -np.log(magnitude) / (2.0 * np.pi**2) - metric_mean(v, w, z)
        slope, curvature = phase_derivatives(v, w, z, momenta(ZONE_POINTS))
        coefficient = np.pi**2 * (zone_mean(slope**4) / 24.0 - zone_mean(curvature**2) / 12.0)
        assert abs(n_cells**2 * residual - coefficient) <= 4000.0 / n_cells**2, (v, w, z)


@pytest.mark.parametrize("n_cells", [50, 51, 200, 800])
@pytest.mark.parametrize("divisor,bound", [(16, 1e-6), (32, 1e-11)])
def test_below_the_gap_heat_enters_the_magnitude_as_the_ground_probability(
    n_cells, divisor, bound
):
    # N |ln|E(T)| - ln|E(0)| - full_band_log_probability| / (2 pi^2) at
    # T = gap / divisor, gap = 2 min_k |a(k)|. Measured on these 40 chains at
    # N = 50 to 1600, the largest values are 6.9e-8 at gap / 16 and 2.9e-12
    # at gap / 32. The split stops at gap / 8, where the largest is 2.7e-4.
    for v, w, z in CHAINS:
        spectrum = bloch_spectrum(ModelParams(n_cells=n_cells, v=v, w=w, z=z))
        temperature = 2.0 * np.abs(coupling(v, w, z, momenta(4096))).min() / divisor
        cold, warm = (
            np.log(bloch_polarization_determinant(spectrum, t).magnitude)
            for t in (0.0, temperature)
        )
        split = warm - cold - full_band_log_probability(v, w, z, n_cells, temperature)
        assert n_cells * abs(split) / (2.0 * np.pi**2) <= bound, (v, w, z)


def test_a_winding_carries_at_least_a_quarter_of_metric():
    windings = [winding_number(v, w, z) for v, w, z in CHAINS]
    assert set(windings) == {-1, 0, 1}
    for (v, w, z), nu in zip(CHAINS, windings):
        # Smallest margin measured on these chains: 0.0018.
        assert metric_mean(v, w, z) >= nu * nu / 4.0, (v, w, z)


@pytest.mark.parametrize("v,w", [(0.3, 0.5), (0.1, 0.5), (0.45, 0.5), (0.2, 0.9)])
def test_swapping_the_hoppings_at_z0_moves_the_metric_by_a_quarter(v, w):
    # (v, w) and (w, v) have the same spectrum |a(k)|, and winding 1 and 0.
    assert (winding_number(v, w, 0.0), winding_number(w, v, 0.0)) == (1, 0)
    assert metric_mean(v, w, 0.0) - metric_mean(w, v, 0.0) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("v,w", [(0.3, 0.5), (0.5, 0.3), (0.45, 0.5), (0.5, 0.45), (0.1, 0.5)])
def test_the_metric_at_z0_has_its_closed_form(v, w):
    assert abs(metric_mean(v, w, 0.0) - metric_z0(v, w)) <= 1e-12


def test_m_is_the_residue_sum_of_its_rational_integrand():
    # On |xi| = 1, a / conj(a) = P(xi) / Q(xi), P = z xi^2 + v xi + w and
    # Q = w xi^2 + v xi + z, so m is the sum of the residues of P / (xi Q)
    # inside the unit circle: w / z at 0, and one term per root of Q there.
    for v, w, z in CHAINS:
        roots = [xi for xi in np.roots([w, v, z]) if abs(xi) < 1.0]
        inside = sum((z * xi**2 + v * xi + w) / (xi * (2.0 * w * xi + v)) for xi in roots)
        assert abs(coupling_phase_mean(v, w, z) - (w / z + inside)) <= 1e-12, (v, w, z)


def test_a_winding_chain_has_m_of_z_over_w_to_the_winding():
    # nu = -1: only the pole at 0 lies inside, giving w / z. nu = +1: every
    # pole lies inside, so m is minus the residue at infinity, z / w.
    windings = [winding_number(v, w, z) for v, w, z in CHAINS]
    assert {-1, 1} <= set(windings)
    for (v, w, z), nu in zip(CHAINS, windings):
        if nu:
            assert abs(coupling_phase_mean(v, w, z) - (z / w) ** nu) <= 1e-12, (v, w, z)


@pytest.mark.parametrize("v,w", [(0.3, 0.5), (0.5, 0.3), (0.45, 0.5), (0.5, 0.45), (0.1, 0.5)])
def test_m_at_z0_has_its_closed_form(v, w):
    expected = 0.0 if abs(v) < abs(w) else 1.0 - (w / v) ** 2
    assert abs(coupling_phase_mean(v, w, 0.0) - expected) <= 1e-12


# Named chains of both windings, trivial ones and z = 0 ones, then seeded draws.
COLD_RING_CHAINS = ((0.3, 0.5, 0.2), (0.7, 0.3, 0.2), (0.3, 0.5, 0.8), (0.1, 0.5, 0.0),
                    (0.6, 0.5, 0.0)) + tuple(CHAINS[:10])


@pytest.mark.parametrize("n", [20, 40])
def test_the_cold_gaussian_ring_has_the_closed_form_interferometric_power(n):
    # At T = 1e-4 every ring here has min_j |a(k_j)| >= 0.05, so the state is
    # its ground state to exp(-500). Measured: i_p within 3.6e-16 per cell
    # and M_zz / N within 6.7e-16 of 1.
    for v, w, z in COLD_RING_CHAINS:
        assert np.abs(coupling(v, w, z, momenta(n))).min() >= 0.05
        matrix = gaussian_qfi_matrix(ModelParams(n_cells=n, v=v, w=w, z=z), 1e-4)
        i_p = interferometric_power(matrix).i_p
        assert abs(i_p - gaussian_ground_interferometric_power(v, w, z, n)) <= 1e-12 * n, (v, w, z)
        assert abs(matrix[2, 2] - n) <= 1e-12 * n, (v, w, z)


def uhlmann_critical_temperature(v: float, w: float, z: float, n: int) -> float:
    """The T in [0.05, 1.5] where Re Tr[rho U_loop] turns positive, by bisection."""
    cold, hot = 0.05, 1.5
    assert uhlmann_overlap(v, w, z, n, cold).real < 0.0 < uhlmann_overlap(v, w, z, n, hot).real
    for _ in range(45):
        middle = (cold + hot) / 2.0
        if uhlmann_overlap(v, w, z, n, middle).real < 0.0:
            cold = middle
        else:
            hot = middle
    return (cold + hot) / 2.0


def test_the_flat_band_uhlmann_phase_turns_at_its_known_critical_temperature():
    # Viyuela et al.'s T_c = 1 / ln(2 + sqrt(3)) = 0.759326 for the flat
    # band (0, 1, 0); measured 0.759315 at N = 400.
    expected = 1.0 / np.log(2.0 + np.sqrt(3.0))
    assert abs(uhlmann_critical_temperature(0.0, 1.0, 0.0, 400) - expected) <= 1e-4


@pytest.mark.parametrize(
    "v,w,z", [(0.3, 0.5, 0.2), (0.3, 0.5, 0.8), (0.2, 0.2, 0.5), (0.3, 0.5, 0.0), (0.1, 0.5, 0.0)]
)
def test_the_uhlmann_critical_temperature_does_not_grow_with_the_ring(v, w, z):
    # Measured: T_c at N = 50 and 400 differ by at most 4.4e-4, on (0.3, 0.5, 0).
    small, large = (uhlmann_critical_temperature(v, w, z, n) for n in (50, 400))
    assert abs(small - large) <= 1e-3


@pytest.mark.parametrize("temperature", [0.02, 0.05])
def test_the_cold_uhlmann_phase_is_pi_exactly_on_a_winding_chain(temperature):
    for v, w, z in CHAINS:
        overlap = uhlmann_overlap(v, w, z, 50, temperature)
        assert (overlap.real < 0.0) == (winding_number(v, w, z) != 0), (v, w, z)


@pytest.mark.parametrize("temperature", [0.2, 0.5, 1.0])
def test_the_uhlmann_overlap_is_real(temperature):
    # Largest |Im| measured on these chains at N = 50: 1.4e-10.
    for v, w, z in CHAINS:
        assert abs(uhlmann_overlap(v, w, z, 50, temperature).imag) <= 1e-9, (v, w, z)


def test_the_cold_thermal_winding_is_the_winding_number():
    for v, w, z in CHAINS:
        assert abs(thermal_winding(v, w, z, 0.0) - winding_number(v, w, z)) <= 1e-9, (v, w, z)


@pytest.mark.parametrize(
    "v,w,z,expected",
    [
        (0.3, 0.5, 0.2, (0.9924, 0.5348, 0.163, 0.0488)),
        (0.3, 0.5, 0.8, (-0.9963, -0.641, -0.2442, -0.0835)),
    ],
)
def test_the_thermal_winding_fades_with_temperature(v, w, z, expected):
    # The real-space nu_T of open N = 400 chains, as quoted to four
    # decimals; the k-space form lies within 5e-5 of each.
    for temperature, value in zip((0.05, 0.2, 0.5, 1.0), expected):
        assert thermal_winding(v, w, z, temperature) == pytest.approx(value, abs=1e-4)


def fock_root(v: float, w: float, z: float, n: int, temperature: float) -> np.ndarray:
    """sqrt(rho) of the ring's grand-canonical Fock state at mu = 0, from its spectrum."""
    params = ModelParams(n_cells=n, v=v, w=w, z=z)
    hamiltonian, _ = many_body_hamiltonian(build_hamiltonian(params))
    levels, states = np.linalg.eigh(hamiltonian)
    populations = np.exp(-(levels - levels.min()) / temperature)
    return (states * np.sqrt(populations / populations.sum())) @ states.T


@pytest.mark.parametrize("temperature", [0.1, 0.2, 0.5, 2.0])
def test_the_bures_metric_is_the_fidelity_decay_of_the_fock_state(temperature):
    # 2 (1 - sqrt(F)) / (2 d)^2 between the states at lambda -+ d, with
    # sqrt(F) the sum of the singular values of their roots' product.
    # Measured: at most 4.2e-5 relative, the O(d^2) of the quotient.
    step = 2e-3
    for chain in ((0.3, 0.5, 0.2), (0.7, 0.3, 0.2), (0.3, 0.5, 0.8)):
        metric = bures_metric(*chain, 3, temperature)
        for index in range(3):
            low, high = np.array(chain), np.array(chain)
            low[index] -= step
            high[index] += step
            product = fock_root(*low, 3, temperature) @ fock_root(*high, 3, temperature)
            root_fidelity = np.linalg.svd(product, compute_uv=False).sum()
            quotient = 2.0 * (1.0 - root_fidelity) / (2.0 * step) ** 2
            assert abs(quotient / metric[index] - 1.0) <= 1e-4, (chain, index)


def bures_z0(v: float, w: float) -> float:
    """g_vv / N at z = 0, T = 0; g_ww / N is the same with v and w swapped.

    1 / (8 (w^2 - v^2)) for |v| < |w|, and w^2 / (8 v^2 (v^2 - w^2)) for |v| > |w|.
    """
    if abs(v) < abs(w):
        return 1.0 / (8.0 * (w * w - v * v))
    return w * w / (8.0 * v * v * (v * v - w * w))


@pytest.mark.parametrize("v,w", [(0.3, 0.5), (0.5, 0.3), (0.45, 0.5), (0.5, 0.45), (0.1, 0.5)])
def test_the_cold_bures_metric_at_z0_has_its_closed_form(v, w):
    # Measured: 2.2e-16 relative at N = 4096.
    n = 4096
    g_vv, g_ww, _ = bures_metric(v, w, 0.0, n, 0.0)
    assert abs(g_vv / n / bures_z0(v, w) - 1.0) <= 1e-12
    assert abs(g_ww / n / bures_z0(w, v) - 1.0) <= 1e-12


def test_the_cold_bures_metric_peaks_at_both_gap_closings():
    # At T = 1e-3 and N = 400 the maximum sits at the grid point nearest the
    # closing: v = w on the v cut, and z = w, where the winding goes from
    # +1 to -1, on the z cut. Neither grid holds the closing itself.
    v_cut = 0.301 + 0.005 * np.arange(80)
    g_vv = [bures_metric(v, 0.5, 0.0, 400, 1e-3)[0] for v in v_cut]
    assert v_cut[np.argmax(g_vv)] == pytest.approx(0.501, abs=1e-12)
    z_cut = 0.001 + 0.01 * np.arange(100)
    g_zz = [bures_metric(0.3, 0.5, z, 400, 1e-3)[2] for z in z_cut]
    assert z_cut[np.argmax(g_zz)] == pytest.approx(0.501, abs=1e-12)


@pytest.mark.parametrize("n", [50, 100, 200, 400, 800])
def test_the_warm_bures_metric_does_not_grow_with_the_ring(n):
    # At T = 0 the value at v = w - 1/N grows like N; at T = 0.05 it
    # saturates. Measured g_vv / N: 3.491 to 3.513.
    assert 3.49 <= bures_metric(0.5 - 1.0 / n, 0.5, 0.0, n, 0.05)[0] / n <= 3.52
