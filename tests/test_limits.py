"""The T = 0 Fisher-metric identity of the ring, against the Brillouin-zone oracle.

At T = 0 the ring's determinant polarization has magnitude
|E| = exp(-2 pi^2 <g> / N + O(N^-2)), with <g> the zone mean of the
lower band's quantum (Fubini-Study) metric (Resta and Sorella, Phys. Rev.
Lett. 82, 370 (1999); Souza, Wilkens and Martin, Phys. Rev. B 62, 1666
(2000)). Since <g> = <(d_k phi)^2> / 4 >= <d_k phi>^2 / 4 and phi turns by
2 pi nu over the zone, a chain of winding nu carries <g> >= nu^2 / 4.
"""

import numpy as np
import pytest
from limits import coupling, metric_mean, momenta

from topo_thermo.bloch import bloch_polarization_determinant, bloch_spectrum
from topo_thermo.chiral import winding_number
from topo_thermo.lattice import ModelParams

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
