"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Criteria 7 and 9b encode claims the implemented estimators measurably do
not satisfy (details in the assertion messages); they are asserted as
stated rather than weakened, so they fail.
"""

import time
from functools import lru_cache

import numpy as np

from dense_engine import (
    Spectrum,
    diagonalize,
    qfi_fidelity_oracle,
    qfi_matrix,
    qfi_scalar,
    thermal_polarization_determinant,
    thermal_polarization_literal,
)
from topo_thermo.cli import EXIT_OK, cli_main
from topo_thermo.figures import build_figure_spec
from topo_thermo.lattice import OPEN, PERIODIC, ModelParams, build_hamiltonian
from topo_thermo.qfi import interferometric_power
from topo_thermo.sweep import SweepSpec, locate_extremum, run_sweep
from topo_thermo.thermal import gibbs_weights


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@lru_cache(maxsize=None)
def _spectrum(n, v, w, z, boundary=PERIODIC):
    params = ModelParams(n_cells=n, v=v, w=w, z=z, boundary=boundary)
    return diagonalize(build_hamiltonian(params))


def _ip(n, v, w, z, t):
    return interferometric_power(qfi_matrix(gibbs_weights(_spectrum(n, v, w, z), t))).i_p


def _random_basis(rng, dim):
    return np.linalg.qr(rng.standard_normal((dim, dim)))[0]


def _random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2.0


def test_criterion_1_hamiltonian_structure():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(3, 12))
        v, w, z = rng.uniform(0.05, 1.0, size=3)
        periodic = build_hamiltonian(ModelParams(n_cells=n, v=v, w=w, z=z, boundary=PERIODIC))
        open_h = build_hamiltonian(ModelParams(n_cells=n, v=v, w=w, z=z, boundary=OPEN))
        assert np.array_equal(periodic, periodic.T)
        assert np.array_equal(open_h, open_h.T)
        expected = np.zeros_like(periodic)
        for m in range(n):
            expected[2 * m, 2 * m + 1] = v
        for m in range(n):
            mp = (m + 1) % n
            expected[2 * mp, 2 * m + 1] = w
            expected[2 * mp + 1, 2 * m] = z
        assert np.array_equal(periodic, expected + expected.T)
        delta = periodic - open_h
        assert np.count_nonzero(delta) == 4
        assert delta[0, 2 * n - 1] == w and delta[1, 2 * n - 2] == z
    _report(1, True, "100 seeded Hamiltonians: exact symmetry, sparsity, wrap terms")


def test_criterion_2_pure_state_qfi_reduces_to_variance():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 17))
        energies = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 2.0, dim - 1))])
        spectrum = Spectrum(energies=energies, vectors=_random_basis(rng, dim))
        ensemble = gibbs_weights(spectrum, 0.0)
        generator = _random_hermitian(rng, dim)
        state = spectrum.vectors[:, 0]
        mean = (state.conj() @ generator @ state).real
        variance = (state.conj() @ (generator @ generator) @ state).real - mean**2
        worst = max(worst, abs(qfi_scalar(ensemble, generator) - variance))
    _report(2, worst <= 1e-9, f"max |QFI - variance| = {worst:.3e} (tolerance 1e-9)")


def test_criterion_3_fidelity_oracle_equivalence():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(25):
        dim = int(rng.integers(2, 17))
        spectrum = Spectrum(
            energies=np.sort(rng.standard_normal(dim)), vectors=_random_basis(rng, dim)
        )
        ensemble = gibbs_weights(spectrum, rng.uniform(0.3, 3.0))
        generator = _random_hermitian(rng, dim)
        direct = qfi_scalar(ensemble, generator)
        oracle = qfi_fidelity_oracle(ensemble, generator, 1e-3)
        worst = max(worst, abs(direct - oracle) / max(direct, 1e-12))
    _report(3, worst <= 1e-4, f"max relative deviation = {worst:.3e} (tolerance 1e-4)")


def test_criterion_4_power_vanishes_when_inter_hoppings_match():
    worst = 0.0
    for v in (0.1, 0.3, 0.5):
        for t in (0.05, 0.2, 0.5):
            worst = max(worst, _ip(50, v, 0.5, 0.5, t))
    _report(4, worst <= 1e-6, f"max i_p over the w=z grid = {worst:.3e} (tolerance 1e-6)")


def test_criterion_5_flat_band_closed_form():
    ensemble = gibbs_weights(_spectrum(50, 0.0, 0.5, 0.0), 5e-4)
    matrix = qfi_matrix(ensemble)
    deviation = np.abs(matrix - np.diag([0.5, 0.5, 1.0])).max()
    power = interferometric_power(matrix).i_p
    ok = deviation <= 1e-3 and abs(power - 0.5) <= 1e-3
    _report(5, ok, f"matrix deviation {deviation:.2e}, i_p = {power:.6f} (tolerance 1e-3)")


def test_criterion_6_dimerized_limit_power_maximum():
    spec = SweepSpec(
        axes=(("T", tuple(np.linspace(0.01, 1.0, 101))),),
        fixed={"v": 0.01, "w": 0.5, "z": 0.0, "N": 50},
        quantities=("qfi_matrix", "interferometric_power"),
    )
    records = run_sweep(spec)
    best, value = locate_extremum(records, "i_p", "max")
    ok = 0.45 <= value <= 0.75
    _report(
        6,
        ok,
        f"max i_p = {value:.4f} at T = {best.temperature:.3f} "
        f"(reference value 0.6, acceptance window [0.45, 0.75])",
    )


def test_criterion_7_high_temperature_death():
    temps = (0.05, 0.1, 0.2, 0.5, 1.0, 5.0)
    values = [_ip(50, 0.3, 0.5, 0.2, t) for t in temps]
    residual = _ip(50, 0.3, 0.5, 0.2, 1e6)
    monotone = all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    dead = residual <= 1e-6
    sequence = ", ".join(f"{v:.4f}" for v in values)
    _report(
        7,
        monotone and dead,
        f"i_p(T) = [{sequence}] non-increasing={monotone}; i_p(T=1e6) = {residual:.2e} "
        f"(the single-particle Gibbs power rises from the pure ground state "
        f"to a maximum near T~0.5 before decaying, so the non-increasing "
        f"clause is not satisfiable at these parameters)",
    )


def test_criterion_8_literal_trace_null():
    rng = np.random.default_rng(108)
    worst = 0.0
    all_undefined = True
    for _ in range(20):
        n = int(rng.integers(3, 12))
        v, w, z = rng.uniform(0.05, 1.0, size=3)
        spectrum = _spectrum(n, v, w, z)
        for t in (0.05, 0.5):
            res = thermal_polarization_literal(gibbs_weights(spectrum, t))
            worst = max(worst, res.magnitude)
            all_undefined = all_undefined and not res.defined
    ok = worst <= 1e-10 and all_undefined
    _report(8, ok, f"max |Tr[rho X]| = {worst:.3e} (tolerance 1e-10), all flagged undefined")


def test_criterion_9a_determinant_quantization():
    violations = []
    for v in (0.1, 0.3, 0.5):
        for w in (0.1, 0.3, 0.5):
            for z in (0.1, 0.3, 0.5):
                res = thermal_polarization_determinant(_spectrum(50, v, w, z), 0.02)
                if not res.defined:
                    continue
                distance = min(abs(res.polarization - q) for q in (-0.5, 0.0, 0.5))
                if distance > 1e-2:
                    violations.append((v, w, z, res.polarization))
    _report(
        "9a",
        not violations,
        f"every defined P within 1e-2 of {{-1/2, 0, 1/2}}; violations: {violations or 'none'}",
    )


def test_criterion_9b_sign_split_across_hopping_crossing():
    low = thermal_polarization_determinant(_spectrum(50, 0.3, 0.5, 0.2), 0.02)
    high = thermal_polarization_determinant(_spectrum(50, 0.3, 0.5, 0.8), 0.02)
    magnitudes_ok = (
        abs(abs(low.polarization) - 0.5) <= 1e-2 and abs(abs(high.polarization) - 0.5) <= 1e-2
    )
    signs_differ = bool(np.sign(low.polarization) != np.sign(high.polarization))
    _report(
        "9b",
        magnitudes_ok and signs_differ,
        f"P(z=0.2) = {low.polarization:+.6f}, P(z=0.8) = {high.polarization:+.6f}; "
        f"|P| = 1/2 holds on both sides but the determinant is exactly real for "
        f"the half-filled chiral-symmetric chain (imaginary parts "
        f"{low.expectation.imag:.1e}, {high.expectation.imag:.1e} are rounding "
        f"noise), so the two phases share one principal-branch sign",
    )


def test_criterion_9c_thermal_washout():
    res = thermal_polarization_determinant(_spectrum(50, 0.3, 0.5, 0.2), 0.6)
    ok = (not res.defined) or abs(res.polarization) < 0.1
    _report(
        "9c",
        ok,
        f"at T = 0.6: defined={res.defined}, |expectation| = {res.magnitude:.2e} "
        f"(washed out)",
    )


def test_criterion_10_edge_mode_count():
    topological = diagonalize(
        build_hamiltonian(ModelParams(n_cells=50, v=0.1, w=0.5, z=0.0, boundary=OPEN))
    )
    trivial = diagonalize(
        build_hamiltonian(ModelParams(n_cells=50, v=0.5, w=0.1, z=0.0, boundary=OPEN))
    )
    n_top = int((np.abs(topological.energies) < 1e-3).sum())
    n_triv = int((np.abs(trivial.energies) < 1e-3).sum())
    _report(
        10,
        n_top == 2 and n_triv == 0,
        f"near-zero modes: topological side {n_top} (want 2), trivial side {n_triv} (want 0)",
    )


def test_criterion_11_determinism_and_runtime(tmp_path):
    first = tmp_path / "one.csv"
    second = tmp_path / "eight.csv"
    assert cli_main(["figure", "3b", "--workers", "1", "--out", str(first)]) == EXIT_OK
    assert cli_main(["figure", "3b", "--workers", "8", "--out", str(second)]) == EXIT_OK
    identical = first.read_bytes() == second.read_bytes()

    started = time.perf_counter()
    records = run_sweep(build_figure_spec("3a"))
    elapsed = time.perf_counter() - started
    ok = identical and len(records) == 101 * 101 and elapsed < 300.0
    _report(
        11,
        ok,
        f"1-worker vs 8-worker bytes identical: {identical}; "
        f"101x101 grid in {elapsed:.1f} s (limit 300 s)",
    )


def test_criterion_12_transition_blindness():
    values = [_ip(50, v, 0.5, 0.0, 0.1) for v in np.linspace(0.4, 0.6, 21)]
    smallest = min(values)
    _report(
        12,
        smallest > 1e-3,
        f"min i_p across v in [0.4, 0.6] = {smallest:.4f} (must stay above 1e-3: "
        f"the v = w crossing leaves no signature)",
    )
