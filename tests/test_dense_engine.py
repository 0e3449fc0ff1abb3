"""Every column of a Bloch or chiral sweep table against the dense engine's table."""

import numpy as np
import pytest
from dense_engine import (
    DENSE_ENGINE,
    LITERAL_TOL,
    PER_STATE_TOL,
    QFI_TOL,
    assert_determinants_agree,
    weighted_comparable,
    wrap_distance,
    zero_temperature_comparable,
)
from test_sweep import ALL_MODES, ALL_QUANTITIES, small_qfi_spec

import topo_thermo.sweep as sweep_mod
from topo_thermo.lattice import PERIODIC, ModelParams
from topo_thermo.sweep import SweepSpec, run_sweep

TEMPERATURES = (0.0, 0.05, 0.2, 0.5, 1.0, 3.0)

# The printed columns by rule (see assert_tables_agree): parameters exact;
# QFI columns within QFI_TOL, or a sweep's tighter bound; the direction
# an eigenvector of the dense QFI matrix within that bound; and the fields
# of each mode's PolarizationResult by the mode's rule.
PARAMETER_COLUMNS = ("T", "v", "w", "z", "N")
QFI_COLUMNS = ("M_xx", "M_xy", "M_xz", "M_yy", "M_yz", "M_zz", "i_p", "purity", "entropy")
DIRECTION_COLUMNS = ("dir_x", "dir_y", "dir_z")
POLARIZATION_COLUMNS = ("P", "P_defined", "magnitude")

# Wrap distance of P between an open chain's fast and dense literal or
# weighted result, as test_chiral_matches_dense states it for weighted.
STATE_P_TOL = 1e-8


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


# Sweeps held to tighter bounds than the property tests' rules: (spec,
# bound on the QFI columns, bound on E and P of the literal and weighted
# modes or None for their usual rules).
TIGHT_SWEEPS = (
    (small_qfi_spec(), 1e-14, None),
    (chain_spec("periodic", 5, 0.4, 0.7, 0.1, (0.37,)), QFI_TOL, None),
    (chain_spec("open", 5, 0.4, 0.7, 0.1, (0.37,)), QFI_TOL, 1e-13),
)


def dense_table(spec, monkeypatch):
    """The sweep of `spec` with `sweep._engine` rebound to the dense engine."""
    with monkeypatch.context() as patch:
        patch.setattr(sweep_mod, "_engine", lambda boundary: DENSE_ENGINE)
        return run_sweep(spec)


def assert_state_mode_agrees(fast, dense, boundary, bound):
    """Literal or weighted at one point: magnitude within `bound`, P_defined exactly, and P.

    P is exact on a ring, the Bloch rule, and within STATE_P_TOL of wrap
    distance on an open chain.
    """
    assert abs(fast.magnitude - dense.magnitude) <= bound
    assert fast.defined == dense.defined
    if boundary == PERIODIC:
        assert fast.polarization == dense.polarization
    else:
        assert wrap_distance(fast.polarization, dense.polarization) <= STATE_P_TOL


def assert_mode_agrees(mode, fast, dense, boundary, spectrum, state_bound):
    """One mode's results at one point, by the rule the property tests state for it."""
    if mode == "determinant":
        assert_determinants_agree(dense, fast)
    elif state_bound is not None:
        assert abs(fast.expectation - dense.expectation) <= state_bound
        assert abs(fast.polarization - dense.polarization) <= state_bound
        assert fast.defined == dense.defined
    elif mode == "literal":
        assert abs(fast.expectation - dense.expectation) <= LITERAL_TOL
        assert_state_mode_agrees(fast, dense, boundary, LITERAL_TOL)
    elif weighted_comparable(spectrum, boundary):
        assert_state_mode_agrees(fast, dense, boundary, PER_STATE_TOL)


def assert_tables_agree(fast, dense, qfi_bound=QFI_TOL, state_bound=None) -> np.ndarray:
    """Every column of `fast` against `dense`, two tables of one spec; the temperatures compared.

    A T = 0 point is compared only where zero_temperature_comparable holds
    for its spectrum, the rule of the engine-against-dense property tests.
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


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_every_sweep_column_matches_the_dense_engine(boundary, monkeypatch):
    # 20 seeded chains per boundary at T = 0 and five temperatures, every
    # quantity and mode, then TIGHT_SWEEPS.
    seed = {"periodic": 20261021, "open": 20261022}[boundary]
    compared = np.concatenate([
        assert_tables_agree(run_sweep(spec), dense_table(spec, monkeypatch))
        for spec in (chain_spec(boundary, *chain) for chain in seeded_chains(seed))
    ])
    assert np.count_nonzero(compared > 0.0) == 20 * 5 and np.count_nonzero(compared == 0.0) >= 15
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
