"""The Bloch and chiral engines against the dense engine, each shared property once.

Every test here is parametrized over both boundaries and reads the fields
of `sweep._engine(boundary)`: each field against `DENSE_ENGINE` on drawn
chains, the T = infinity determinant, the refusals of bad input, and
every column of a sweep table against the dense table. The agreement
rules are those of `tests/dense_engine.py`.
"""

import numpy as np
import pytest
from dense_engine import (
    DENSE_ENGINE,
    ENERGY_TOL,
    PER_STATE_TOL,
    QFI_TOL,
    SWEEP_QFI_TOL,
    SWEEP_STATE_TOL,
    WEIGHTED_MIN_GAP,
    assert_mode_agrees,
    connected_gap,
    zero_temperature_comparable,
)
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st
from test_sweep import ALL_MODES, ALL_QUANTITIES, small_qfi_spec

import topo_thermo.sweep as sweep_mod
from topo_thermo.lattice import BOUNDARIES, OPEN, PERIODIC, ModelParams
from topo_thermo.polarization import polarization_from_states
from topo_thermo.qfi import interferometric_power
from topo_thermo.sweep import SweepSpec, run_sweep
from topo_thermo.thermal import GibbsEnsemble, ensemble_diagnostics, gibbs_weights

hopping = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def chains(draw):
    """(N, v, w, z): N = 2, odd and even N; the v = +-(w+z), w = z and v = 0 families."""
    n = draw(st.one_of(st.just(2), st.integers(3, 40)))
    w, z = draw(hopping), draw(hopping)
    family = draw(st.sampled_from(["generic", "w=z", "v=w+z", "v=-(w+z)", "v=0"]))
    if family == "w=z":
        z = w
    v = {"v=w+z": w + z, "v=-(w+z)": -(w + z), "v=0": 0.0}.get(family, None)
    if v is None:
        v = draw(hopping)
    return n, v, w, z


# Both engines get the energies to a few ulp, and a Gibbs weight turns an
# energy error dE into a relative error dE / T, so the fixed tolerances
# hold for T >= 0.02 (the low end of the grid they were measured on).
temperatures = st.one_of(st.just(0.0), st.just(1e6), st.floats(0.02, 3.0))

# The record fields the property test holds to DENSE_ENGINE, each by its rule.
RULED_FIELDS = ["polarization_determinant", "qfi_matrix", "spectrum", "state_expectations"]

# An N = 2 ring whose two X-connected levels |a(0)|, |a(pi)| are 2e-9
# apart. The Bloch weighted magnitude is exactly 0; the dense eigenvectors
# mix the pair by ~1e-16 / 2e-9, and the dense magnitude is 1.1e-7 to
# 1.3e-7. P = 0 and undefined on both sides.
CLOSE_RING = (2, 1.0, 0.0, 1e-9)


@pytest.mark.parametrize("boundary", BOUNDARIES)
@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(chain=chains(), temperature=temperatures)
@example(chain=CLOSE_RING, temperature=0.05)
@example(chain=CLOSE_RING, temperature=1e6)
def test_engine_matches_the_dense_engine(boundary, chain, temperature):
    assert sorted(vars(DENSE_ENGINE)) == RULED_FIELDS, "an engine field has no rule here"
    engine, n = sweep_mod._engine(boundary), chain[0]
    params = ModelParams(*chain, boundary=boundary)
    fast = engine.spectrum(params)
    if temperature == 0.0:
        assume(zero_temperature_comparable(fast))
    spectrum = DENSE_ENGINE.spectrum(params)
    # Band order [-|e|, +|e|] against the dense ascending order.
    order = np.argsort(fast.energies, kind="stable")
    assert np.abs(fast.energies[order] - spectrum.energies).max() <= ENERGY_TOL

    ensemble, fast_ensemble = gibbs_weights(spectrum, temperature), gibbs_weights(fast, temperature)
    assert np.abs(fast_ensemble.weights[order] - ensemble.weights).max() <= QFI_TOL
    dense_matrix, matrix = DENSE_ENGINE.qfi_matrix(ensemble), engine.qfi_matrix(fast_ensemble)
    assert np.abs(matrix - dense_matrix).max() <= QFI_TOL
    assert matrix[0, 1] == matrix[0, 2] == matrix[1, 2] == 0.0
    assert np.array_equal(matrix, matrix.T)
    assert abs(interferometric_power(matrix).i_p - interferometric_power(dense_matrix).i_p) <= QFI_TOL
    for got, want in zip(ensemble_diagnostics(fast_ensemble), ensemble_diagnostics(ensemble)):
        assert abs(got - want) <= QFI_TOL

    determinant = engine.polarization_determinant(fast, temperature)
    assert determinant.expectation.imag == 0.0  # real by construction, for any N
    dense = DENSE_ENGINE.polarization_determinant(spectrum, temperature)
    assert_mode_agrees("determinant", determinant, dense, boundary, fast)

    per_state = engine.state_expectations(fast)
    dense_states = DENSE_ENGINE.state_expectations(spectrum)
    assert np.array_equal(per_state[:n], per_state[n:])  # chiral partners share <X>
    if connected_gap(fast, boundary) >= WEIGHTED_MIN_GAP:
        assert np.abs(per_state[order] - dense_states).max() <= PER_STATE_TOL
    states = {}
    for mode in ("literal", "weighted"):
        states[mode] = polarization_from_states(fast_ensemble, per_state, mode)
        dense = polarization_from_states(ensemble, dense_states, mode)
        assert_mode_agrees(mode, states[mode], dense, boundary, fast)

    # A batched call gives each temperature's row exactly as a call alone.
    batch = np.array([0.0, temperature, 0.7])
    batched = gibbs_weights(fast, batch)
    assert np.array_equal(batched.weights[1], fast_ensemble.weights)
    assert np.array_equal(engine.qfi_matrix(batched)[1], matrix)
    batched_determinants = engine.polarization_determinant(fast, batch)
    assert batched_determinants.row(1) == determinant
    assert np.all(batched_determinants.expectation.imag == 0.0)
    for mode, alone in states.items():
        assert polarization_from_states(batched, per_state, mode).row(1) == alone


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_infinite_temperature_determinant_closed_form(boundary):
    # At T = oo every occupation is 1/2, so E = s det((1 + X) / 2) over the
    # 2N sites, whatever the hoppings and the boundary: the background sign
    # s cancels the phases, leaving prod_m cos^2(pi m / N), 4^(1 - N) at odd
    # N and 0 at even N, where the factor m = N / 2 vanishes.
    engine = sweep_mod._engine(boundary)
    for n in (3, 4, 5, 6, 7, 50):
        for v, w, z in ((0.3, -0.7, 0.45), (0.3, 0.5, 0.2), (0.1, 0.5, 0.2), (0.5, 0.3, 0.1),
                        (0.2, -0.4, 0.9)):
            fast = engine.spectrum(ModelParams(n_cells=n, v=v, w=w, z=z, boundary=boundary))
            result = engine.polarization_determinant(fast, 1e9)
            if n % 2:
                assert abs(result.expectation - 4.0 ** (1 - n)) <= 1e-12 * 4.0 ** (1 - n)
                assert result.polarization == 0.0
            else:
                assert abs(result.expectation) <= 1e-15
                assert not result.defined


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_engine_rejects_bad_input(boundary):
    engine = sweep_mod._engine(boundary)
    with pytest.raises(FloatingPointError):  # the largest level (v + w + z on a ring) overflows
        engine.spectrum(ModelParams(n_cells=4, v=1e308, w=1e308, z=0.2, boundary=boundary))
    fast = engine.spectrum(ModelParams(n_cells=4, v=0.3, w=0.5, z=0.0, boundary=boundary))
    with pytest.raises(ValueError):  # six weights for eight levels, refused by bands()
        engine.qfi_matrix(GibbsEnsemble(temperature=0.1, weights=np.ones(6) / 6, spectrum=fast))
    with pytest.raises(ValueError):  # refused when the ensemble is built
        GibbsEnsemble(temperature=0.1, weights=-np.ones(8) / 8, spectrum=fast)
    with pytest.raises(ValueError):
        engine.polarization_determinant(fast, -0.1)
    ensemble, per_state = gibbs_weights(fast, 0.1), engine.state_expectations(fast)
    with pytest.raises(ValueError):  # six expectations for eight levels
        polarization_from_states(ensemble, per_state[:6], "weighted")
    with pytest.raises(ValueError):  # the determinant has no per-state reduction
        polarization_from_states(ensemble, per_state, "determinant")
    if boundary == PERIODIC:  # only the Bloch engine needs a ring; the chiral one takes either
        with pytest.raises(ValueError):
            engine.spectrum(ModelParams(n_cells=4, v=0.3, w=0.5, z=0.0, boundary=OPEN))


TEMPERATURES = (0.0, 0.05, 0.2, 0.5, 1.0, 3.0)

# The printed columns by rule (see assert_tables_agree): parameters exact;
# QFI columns within QFI_TOL, or a sweep's tighter bound; the direction
# an eigenvector of the dense QFI matrix within that bound; and the fields
# of each mode's PolarizationResult by the mode's rule.
PARAMETER_COLUMNS = ("T", "v", "w", "z", "N")
QFI_COLUMNS = ("M_xx", "M_xy", "M_xz", "M_yy", "M_yz", "M_zz", "i_p", "purity", "entropy")
DIRECTION_COLUMNS = ("dir_x", "dir_y", "dir_z")
POLARIZATION_COLUMNS = ("P", "P_defined", "magnitude")


def seeded_chains(seed: int, count: int = 20):
    """(N, v, w, z): N from 2 to 12 and v, w, z uniform in [-1, 1]."""
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(2, 13)), *rng.uniform(-1.0, 1.0, 3).tolist()) for _ in range(count)]


def chain_spec(boundary, n, v, w, z, temperatures=TEMPERATURES):
    return SweepSpec(
        axes=(("T", temperatures),),
        fixed={"v": v, "w": w, "z": z, "N": n},
        boundary=boundary,
        quantities=ALL_QUANTITIES,
        polarization_modes=ALL_MODES,
    )


# Sweeps held to tighter bounds than the property test's rules: (spec,
# bound on the QFI columns, bound on E and P of the literal and weighted
# modes or None for their usual rules).
TIGHT_SWEEPS = (
    (small_qfi_spec(), SWEEP_QFI_TOL, None),
    (chain_spec("periodic", 5, 0.4, 0.7, 0.1, (0.37,)), QFI_TOL, None),
    (chain_spec("open", 5, 0.4, 0.7, 0.1, (0.37,)), QFI_TOL, SWEEP_STATE_TOL),
)


def dense_table(spec, monkeypatch):
    """The sweep of `spec` with `sweep._engine` rebound to the dense engine."""
    with monkeypatch.context() as patch:
        patch.setattr(sweep_mod, "_engine", lambda boundary: DENSE_ENGINE)
        return run_sweep(spec)


def assert_tables_agree(fast, dense, qfi_bound=QFI_TOL, state_bound=None) -> np.ndarray:
    """Every column of `fast` against `dense`, two tables of one spec; the temperatures compared.

    A T = 0 point is compared only where zero_temperature_comparable holds
    for its spectrum, the rule of the engine-against-dense property test.
    A table with direction columns needs the QFI matrix in its spec too.
    """
    assert not fast.errors and not dense.errors
    columns, reference = fast.columns(), dense.columns()
    known = {*PARAMETER_COLUMNS, *QFI_COLUMNS, *DIRECTION_COLUMNS, *POLARIZATION_COLUMNS}
    assert columns.keys() == reference.keys()
    assert columns.keys() <= known, f"no dense rule for {sorted(columns.keys() - known)}"
    for name in PARAMETER_COLUMNS:
        assert np.array_equal(columns[name], reference[name])
    boundary, engine = fast.spec.boundary, sweep_mod._engine(fast.spec.boundary)
    spectra = [
        engine.spectrum(ModelParams(n_cells=p.n_cells, v=p.v, w=p.w, z=p.z, boundary=boundary))
        for p in fast
    ]
    compared = np.array([
        t != 0.0 or zero_temperature_comparable(spectrum)
        for t, spectrum in zip(columns["T"], spectra)
    ])
    for name in QFI_COLUMNS:
        if name in columns:
            assert np.abs(columns[name] - reference[name])[compared].max() <= qfi_bound, name
    if fast.optimal_direction is not None:
        # Near a degenerate smallest eigenvalue the dense direction turns by
        # |dM| / gap, so the fast one is held to the dense matrix instead.
        directions = fast.optimal_direction[compared]
        images = np.einsum("pij,pj->pi", dense.qfi[compared], directions)
        assert np.abs(np.linalg.norm(directions, axis=1) - 1.0).max() <= qfi_bound
        assert np.abs(images - dense.i_p[compared, None] * directions).max() <= qfi_bound
    for index in np.flatnonzero(compared):
        for mode, result in fast.polarization.items():
            got, want = result.row(index), dense.polarization[mode].row(index)
            assert_mode_agrees(mode, got, want, boundary, spectra[index], state_bound)
    return columns["T"][compared]


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_every_sweep_column_matches_the_dense_engine(boundary, monkeypatch):
    # 20 seeded chains per boundary, and CLOSE_RING on a ring, at T = 0 and
    # five temperatures, every quantity and mode, then TIGHT_SWEEPS.
    seed = {"periodic": 20261021, "open": 20261022}[boundary]
    sampled = seeded_chains(seed) + ([CLOSE_RING] if boundary == PERIODIC else [])
    compared = np.concatenate([
        assert_tables_agree(run_sweep(spec), dense_table(spec, monkeypatch))
        for spec in (chain_spec(boundary, *chain) for chain in sampled)
    ])
    assert np.count_nonzero(compared > 0.0) == len(sampled) * 5
    assert np.count_nonzero(compared == 0.0) >= 15
    for spec, qfi_bound, state_bound in TIGHT_SWEEPS:
        if spec.boundary == boundary:
            fast = run_sweep(spec)
            assert_tables_agree(fast, dense_table(spec, monkeypatch), qfi_bound, state_bound)


def test_the_engine_records_share_one_field_list(monkeypatch):
    # Each fast field is the sweep module's binding of its bloch_ or
    # chiral_ name when _engine is called, so a rebound name is the one a
    # sweep calls: the trace seams rely on it.
    fields = sorted(vars(DENSE_ENGINE))
    for boundary, prefix in (("periodic", "bloch_"), ("open", "chiral_")):
        assert sorted(vars(sweep_mod._engine(boundary))) == fields
        for name in fields:
            fake = object()
            monkeypatch.setattr(sweep_mod, prefix + name, fake)
            assert getattr(sweep_mod._engine(boundary), name) is fake
