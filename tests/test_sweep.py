"""Sweep engine: ordering, determinism, reuse, failure capture, extrema."""

import importlib
import itertools
import pkgutil
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import topo_thermo
import topo_thermo.sweep as sweep_mod
from topo_thermo.figures import build_figure_spec
from topo_thermo.lattice import ModelParams
from topo_thermo.polarization import polarization_from_states
from topo_thermo.qfi import interferometric_power
from topo_thermo.sweep import SweepSpec, locate_extremum, run_sweep
from topo_thermo.thermal import ensemble_diagnostics, gibbs_weights

QFI_QUANTITIES = ("qfi_matrix", "interferometric_power")


def small_qfi_spec(**overrides):
    settings = dict(
        axes=(("T", (0.05, 0.2, 0.8)), ("z", (0.0, 0.3))),
        fixed={"v": 0.3, "w": 0.5, "N": 6},
        quantities=QFI_QUANTITIES + ("diagnostics",),
    )
    settings.update(overrides)
    return SweepSpec(**settings)


def records_equal(a, b):
    if (a.error, b.error) != (None, None):
        return a.error == b.error
    checks = [
        a.temperature == b.temperature,
        a.v == b.v and a.w == b.w and a.z == b.z,
        a.n_cells == b.n_cells and a.boundary == b.boundary,
        (a.i_p is None) == (b.i_p is None),
        (a.purity is None) == (b.purity is None),
    ]
    if a.i_p is not None:
        checks.append(a.i_p == b.i_p)
        checks.append(np.array_equal(a.qfi, b.qfi))
        checks.append(np.array_equal(a.optimal_direction, b.optimal_direction))
    if a.purity is not None:
        checks.append(a.purity == b.purity and a.entropy == b.entropy)
    checks.append(sorted(a.polarization) == sorted(b.polarization))
    for mode, res in a.polarization.items():
        other = b.polarization[mode]
        checks.append(res.expectation == other.expectation)
        checks.append(res.polarization == other.polarization)
        checks.append(res.defined == other.defined)
    return all(checks)


# (axes, fixed) with T the first axis, the middle axis, and fixed.
ORDERING_CASES = (
    ((("T", (0.1,)), ("z", (0.0, 0.5))), {"v": 0.3, "w": 0.5, "N": 50}),
    ((("z", (0.0, 0.5)), ("T", (0.0, 0.1, 0.5)), ("v", (0.2, 0.4))), {"w": 0.5, "N": 6}),
    ((("N", (3, 5)), ("z", (0.0, 0.5))), {"T": 0.1, "v": 0.3, "w": 0.5}),
)


def test_record_ordering_contract():
    # Row-major order of the axes as declared, wherever T is, and each row
    # is the one-point sweep of its own parameters.
    outputs = dict(quantities=ALL_QUANTITIES, polarization_modes=ALL_MODES)
    for (axes, fixed), boundary in itertools.product(ORDERING_CASES, ("periodic", "open")):
        table = run_sweep(SweepSpec(axes=axes, fixed=fixed, boundary=boundary, **outputs))
        names = [name for name, _ in axes]
        rows = [table.parameters(index) for index in range(len(table))]
        assert [tuple(row[name] for name in names) for row in rows] == list(
            itertools.product(*(grid for _, grid in axes))
        )
        for row, record in zip(rows, table):
            assert row.items() >= fixed.items() and type(row["N"]) is int
            assert {type(value) for name, value in row.items() if name != "N"} == {float}
            (single,) = run_sweep(SweepSpec(fixed=row, boundary=boundary, **outputs))
            assert record.error is None and records_equal(record, single)


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_single_point_sweep_matches_direct_evaluation(boundary):
    # Each boundary goes through the public functions of its engine record,
    # bit for bit, and both reduce literal and weighted from per-state
    # <n|X|n>. tests/test_dense_engine.py holds this chain to the dense path.
    spec = SweepSpec(
        axes=(("T", (0.37,)),),
        fixed={"v": 0.4, "w": 0.7, "z": 0.1, "N": 5},
        boundary=boundary,
        quantities=QFI_QUANTITIES + ("diagnostics", "polarization"),
        polarization_modes=("determinant", "literal", "weighted"),
    )
    (record,) = run_sweep(spec)

    engine = sweep_mod._engine(boundary)
    fast = engine.spectrum(ModelParams(n_cells=5, v=0.4, w=0.7, z=0.1, boundary=boundary))
    ensemble = gibbs_weights(fast, 0.37)
    matrix = engine.qfi_matrix(ensemble)
    per_state = engine.state_expectations(fast)
    state_modes = {
        mode: polarization_from_states(ensemble, per_state, mode) for mode in ("literal", "weighted")
    }
    report = interferometric_power(matrix)
    diagnostics = ensemble_diagnostics(ensemble)

    assert np.array_equal(record.qfi, matrix)
    assert record.i_p == report.i_p
    assert np.array_equal(record.optimal_direction, report.optimal_direction)
    assert record.purity == diagnostics.purity
    assert record.entropy == diagnostics.entropy
    determinant = engine.polarization_determinant(fast, 0.37)
    assert record.polarization == {"determinant": determinant, **state_modes}


def test_per_point_failure_degrades_to_error_record(monkeypatch):
    # The seam sees each spectrum's whole temperature column first; when that
    # batch raises, the column is evaluated again one temperature at a time.
    real = sweep_mod.gibbs_weights
    calls = []

    def explode(spectrum, temperature):
        calls.append(tuple(np.atleast_1d(temperature)))
        if np.any(np.asarray(temperature) == 0.2):
            raise ArithmeticError("synthetic failure")
        return real(spectrum, temperature)

    monkeypatch.setattr(sweep_mod, "gibbs_weights", explode)
    records = run_sweep(small_qfi_spec())
    assert calls[:4] == [(0.05, 0.2, 0.8), (0.05,), (0.2,), (0.8,)]
    failed = [r for r in records if r.error is not None]
    assert len(failed) == 2
    assert all("synthetic failure" in r.error for r in failed)
    assert all(r.temperature == 0.2 for r in failed)
    assert all(r.i_p is not None for r in records if r.error is None)
    clean = run_sweep(small_qfi_spec())
    assert all(records_equal(a, b) for a, b in zip(records, clean) if a.error is None)


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_row_view_is_the_table_declarations_at_one_point(boundary, monkeypatch):
    # For every quantity subset, with the T = 0.2 points failing: each row
    # holds exactly the parameters, boundary, polarization, every output of
    # _OUTPUTS and error; a requested output is its column's entry (a float,
    # or a copy of its array), any other None, and a failed point has none.
    real = sweep_mod.gibbs_weights

    def explode(spectrum, temperature):
        if np.any(np.asarray(temperature) == 0.2):
            raise ArithmeticError("synthetic failure")
        return real(spectrum, temperature)

    monkeypatch.setattr(sweep_mod, "gibbs_weights", explode)
    fields = sweep_mod._PARAMETER_FIELDS
    attributes = [*fields.values(), "boundary", "polarization", *sweep_mod._OUTPUTS, "error"]
    for size in range(1, len(ALL_QUANTITIES) + 1):
        for quantities in itertools.combinations(ALL_QUANTITIES, size):
            modes = ALL_MODES if "polarization" in quantities else ()
            spec = small_qfi_spec(boundary=boundary, quantities=quantities, polarization_modes=modes)
            table = run_sweep(spec)
            assert len(table.errors) == 2
            for index, row in enumerate(table):
                assert list(vars(row)) == attributes
                for name, value in table.parameters(index).items():
                    got = getattr(row, fields[name])
                    assert got == value and type(got) is type(value)
                assert row.boundary == boundary and row.error == table.errors.get(index)
                failed = row.error is not None
                assert row.polarization == {
                    mode: result.row(index)
                    for mode, result in table.polarization.items() if not failed
                }
                for name, output in sweep_mod._OUTPUTS.items():
                    value, column = getattr(row, name), getattr(table, name)
                    assert (column is None) == (output.quantity not in quantities)
                    if failed or column is None:
                        assert value is None
                    elif output.shape:
                        assert type(value) is np.ndarray and np.array_equal(value, column[index])
                        assert not np.shares_memory(value, column)
                    else:
                        assert type(value) is float and value == column[index]


def test_workspace_failure_flags_all_points_of_that_model(monkeypatch):
    # Each boundary has its own per-model seam: the Bloch builder for rings,
    # the chiral-block SVD for open chains.
    seams = {
        "periodic": ("bloch_spectrum", lambda params: params.n_cells == 6),
        "open": ("chiral_spectrum", lambda params: params.n_cells == 6),
    }
    for boundary, (seam, fails) in seams.items():
        real = getattr(sweep_mod, seam)

        def explode(argument, _real=real, _fails=fails):
            if _fails(argument):
                raise np.linalg.LinAlgError("did not converge")
            return _real(argument)

        with monkeypatch.context() as patch:
            patch.setattr(sweep_mod, seam, explode)
            spec = SweepSpec(
                axes=(("T", (0.1, 0.5)), ("N", (5, 6))),
                fixed={"v": 0.3, "w": 0.5, "z": 0.0},
                boundary=boundary,
                quantities=QFI_QUANTITIES,
            )
            records = run_sweep(spec)
        assert len(records) == 4
        for record in records:
            if record.n_cells == 6:
                assert record.error is not None and "converge" in record.error
            else:
                assert record.error is None


ALL_QUANTITIES = ("polarization", "qfi_matrix", "interferometric_power", "diagnostics")
ALL_MODES = ("literal", "weighted", "determinant")

hopping = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def subsets(items):
    """The full tuple, or any nonempty subset of it in its original order."""
    chosen = st.sets(st.sampled_from(items), min_size=1)
    return st.one_of(st.just(items), chosen.map(lambda s: tuple(i for i in items if i in s)))


@seed(20261018)
@settings(max_examples=80, deadline=None, database=None)
@given(
    n=st.integers(2, 12),
    boundary=st.sampled_from(["periodic", "open"]),
    hoppings=st.tuples(hopping, hopping, hopping),
    temperatures=st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=8, unique=True),
    quantities=subsets(ALL_QUANTITIES),
    modes=subsets(ALL_MODES),
)
def test_batched_rows_equal_single_temperature_sweeps(
    n, boundary, hoppings, temperatures, quantities, modes
):
    # Batching over T is safe only if each row is computed exactly as alone.
    v, w, z = hoppings
    grid = tuple(sorted({0.0, *temperatures}))
    spec = SweepSpec(
        axes=(("T", grid),),
        fixed={"v": v, "w": w, "z": z, "N": n},
        boundary=boundary,
        quantities=quantities,
        polarization_modes=modes if "polarization" in quantities else (),
    )
    batched = run_sweep(spec)
    assert all(record.error is None for record in batched)
    for record in batched:
        spec.axes = (("T", (record.temperature,)),)
        (single,) = run_sweep(spec)
        assert records_equal(record, single)
        assert record.polarization.keys() == single.polarization.keys()


@seed(20261018)
@settings(max_examples=84, deadline=None, database=None)
@given(
    n=st.integers(2, 12),
    boundary=st.sampled_from(["periodic", "open"]),
    hoppings=st.tuples(hopping, hopping, hopping),
    closing=st.sampled_from(["none", "w = z", "v = -(w + z)"]),
    temperatures=st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=6, unique=True),
)
def test_qfi_matrices_are_diagonal_and_i_p_is_their_smallest_entry(
    n, boundary, hoppings, closing, temperatures
):
    # Both fast engines give M_xy = M_xz = M_yz = 0 exactly, at T = 0 and
    # at gap closings too, so i_p is the smallest diagonal entry and the
    # optimal direction is the axis that carries it.
    v, w, z = hoppings
    if closing == "w = z":
        z = w
    elif closing == "v = -(w + z)":
        v = -(w + z)
    spec = SweepSpec(
        axes=(("T", tuple(sorted({0.0, *temperatures}))),),
        fixed={"v": v, "w": w, "z": z, "N": n},
        boundary=boundary,
        quantities=QFI_QUANTITIES,
    )
    table = run_sweep(spec)
    assert not table.errors
    assert np.all(table.qfi[:, ~np.eye(3, dtype=bool)] == 0.0)
    diagonal = np.diagonal(table.qfi, axis1=1, axis2=2)
    assert np.array_equal(table.i_p, np.maximum(diagonal.min(axis=1), 0.0))
    directions = table.optimal_direction
    assert np.all((directions == 0.0) | (directions == 1.0))
    assert np.all(directions.sum(axis=1) == 1.0)
    axis = np.argmax(directions, axis=1)
    assert np.array_equal(diagonal[np.arange(len(table)), axis], table.i_p)


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_each_quantity_alone_matches_the_full_sweep(boundary):
    # A sweep that asks for one quantity (figure 1a asks for determinant
    # polarization only) computes it exactly as a sweep that asks for all.
    full = SweepSpec(
        axes=(("T", (0.0, 0.1, 0.6)), ("z", (0.2, 0.7))),
        fixed={"v": 0.3, "w": 0.5, "N": 5},
        boundary=boundary,
        quantities=ALL_QUANTITIES,
        polarization_modes=ALL_MODES,
    )
    reference = run_sweep(full)
    requests = [("polarization", (mode,)) for mode in ALL_MODES]
    requests += [(quantity, ()) for quantity in ALL_QUANTITIES[1:]]
    for quantity, modes in requests:
        spec = SweepSpec(
            axes=full.axes, fixed=full.fixed, boundary=boundary,
            quantities=(quantity,), polarization_modes=modes,
        )
        for alone, record in zip(run_sweep(spec), reference):
            assert alone.error is None
            for mode in modes:
                assert alone.polarization[mode] == record.polarization[mode]
            if quantity == "qfi_matrix":
                assert np.array_equal(alone.qfi, record.qfi) and alone.i_p is None
            if quantity == "interferometric_power":
                assert alone.i_p == record.i_p and alone.qfi is None
            if quantity == "diagnostics":
                assert (alone.purity, alone.entropy) == (record.purity, record.entropy)


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_an_output_is_filled_from_its_declaration_alone(boundary, monkeypatch):
    # A sixth output, registered here only: its _OUTPUTS entry names the
    # quantity that requests it and the source of its value, and the sweep,
    # the columns and the rows fill it with no other edit.
    output = ("interferometric_power", (), {"max_eig": ()}, "report.max_eigenvalue")
    monkeypatch.setitem(sweep_mod._OUTPUTS, "max_eigenvalue", sweep_mod._Output(*output))
    table = run_sweep(small_qfi_spec(boundary=boundary))
    assert not table.errors
    expected = interferometric_power(table.qfi).max_eigenvalue
    assert np.array_equal(table.max_eigenvalue, expected)
    assert np.array_equal(table.columns()["max_eig"], expected)
    assert [row.max_eigenvalue for row in table] == expected.tolist()


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_each_spectrum_forms_each_shared_intermediate_at_most_once(boundary, monkeypatch):
    # Counted through the names the sweep module calls: every quantity and
    # mode forms each intermediate once per spectrum, and a determinant-only
    # sweep (figure 1a's request) forms none of them.
    engine = "bloch" if boundary == "periodic" else "chiral"
    names = (
        "gibbs_weights", f"{engine}_qfi_matrix", "interferometric_power",
        "ensemble_diagnostics", f"{engine}_state_expectations",
    )
    calls = []
    for name in names:
        real = getattr(sweep_mod, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, name, counted)
    grid = dict(
        axes=(("T", (0.0, 0.1, 0.6)), ("z", (0.2, 0.7))),
        fixed={"v": 0.3, "w": 0.5, "N": 5},
        boundary=boundary,
    )
    table = run_sweep(SweepSpec(**grid, quantities=ALL_QUANTITIES, polarization_modes=ALL_MODES))
    assert not table.errors and table.spectra == 2
    assert sorted(calls) == sorted(names * table.spectra)
    calls.clear()
    table = run_sweep(
        SweepSpec(**grid, quantities=("polarization",), polarization_modes=("determinant",))
    )
    assert not table.errors and calls == []


def test_line_cut_rows_equal_the_matching_rows_of_a_heatmap():
    # Figure 3b is the T = 0.05 cut of the 3a model; a (T, z) sweep that
    # contains T = 0.05 reproduces it record for record, bit for bit.
    cut = build_figure_spec("3b")
    (z_axis,) = cut.axes
    fixed = {name: value for name, value in cut.fixed.items() if name != "T"}
    heatmap = SweepSpec(
        axes=(("T", (0.01, 0.05, 1.0)), z_axis),
        fixed=fixed,
        quantities=cut.quantities,
    )
    rows = [r for r in run_sweep(heatmap) if r.temperature == 0.05]
    records = run_sweep(cut)
    assert len(rows) == len(records) == 101
    assert all(records_equal(a, b) for a, b in zip(rows, records))


DENSE_CALLS = (
    "diagonalize",
    "qfi_matrix",
    "state_expectations",
    "thermal_polarization_determinant",
    "thermal_polarization_literal",
    "thermal_polarization_weighted",
)
CHIRAL_CALLS = (
    "build_folded_block",
    "cell_phases",
    "chiral_spectrum",
    "chiral_qfi_matrix",
    "chiral_polarization_determinant",
    "chiral_state_expectations",
)
BLOCH_CALLS = (
    "bloch_spectrum",
    "bloch_qfi_matrix",
    "bloch_polarization_determinant",
    "bloch_state_expectations",
)


def log_calls(monkeypatch, names, calls, forbidden):
    """Wrap every binding of each name in the topo_thermo modules and log its calls."""
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "topo_thermo"]
    for name in names:
        for module in modules:
            real = getattr(module, name, None)
            if real is None:
                continue

            def guarded(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                if forbidden:
                    raise AssertionError(f"sweep called {_name}")
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, guarded)


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_sweeps_never_touch_the_dense_path(monkeypatch, boundary):
    # The dense functions live in tests/dense_engine.py: no module of the
    # package binds one, so no sweep can call it. Each boundary calls every
    # function of its own engine and none of the other's.
    modules = [topo_thermo] + [
        importlib.import_module(f"topo_thermo.{info.name}")
        for info in pkgutil.iter_modules(topo_thermo.__path__)
    ]
    assert [(m.__name__, name) for m in modules for name in DENSE_CALLS if hasattr(m, name)] == []
    chiral_calls, bloch_calls = [], []
    log_calls(monkeypatch, CHIRAL_CALLS, chiral_calls, forbidden=boundary == "periodic")
    log_calls(monkeypatch, BLOCH_CALLS, bloch_calls, forbidden=boundary == "open")
    spec = SweepSpec(
        axes=(("T", (0.0, 0.3)), ("v", (0.2, 0.6))),
        fixed={"w": 0.5, "z": 0.2, "N": 7},
        boundary=boundary,
        quantities=("polarization", "qfi_matrix", "interferometric_power", "diagnostics"),
        polarization_modes=("literal", "weighted", "determinant"),
    )
    records = run_sweep(spec)
    assert all(record.error is None for record in records)
    if boundary == "periodic":
        assert chiral_calls == []
        assert sorted(set(bloch_calls)) == sorted(BLOCH_CALLS)
    else:
        assert bloch_calls == []
        assert sorted(set(chiral_calls)) == sorted(CHIRAL_CALLS)


# Traced peak of one open-chain spectrum's sweep, in N x N float64 arrays.
# ChiralSpectrum holds one (Q); each chiral function adds its own buffers
# on top while it runs.
OPEN_SWEEP_PEAK_MATRICES = 6.5


def test_open_chain_sweep_stays_in_a_bounded_working_set():
    # tracemalloc sees every NumPy array, but not the workspaces LAPACK and
    # OpenBLAS allocate inside eigh, matmul and det, so this bounds the
    # arrays the program itself forms.
    n = 200
    spec = SweepSpec(
        axes=(("T", (0.02, 0.05, 0.1, 0.2, 0.5)),),
        fixed={"v": 0.3, "w": 0.5, "z": 0.2, "N": n},
        boundary="open",
        quantities=("polarization", "qfi_matrix", "interferometric_power", "diagnostics"),
        polarization_modes=("literal", "weighted", "determinant"),
    )
    run_sweep(spec)
    tracemalloc.start()
    try:
        table = run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not table.errors
    matrices = peak / (8 * n * n)
    assert matrices <= OPEN_SWEEP_PEAK_MATRICES, f"traced peak {matrices:.2f} N x N arrays"


def test_spec_validation():
    good = dict(
        axes=(("T", (0.1, 0.2)),),
        fixed={"v": 0.3, "w": 0.5, "z": 0.0, "N": 4},
        quantities=QFI_QUANTITIES,
    )
    SweepSpec(**good).validate()

    bad_cases = [
        dict(good, axes=(("T", ()),)),
        dict(good, axes=(("T", (0.2, 0.1)),)),
        dict(good, axes=(("Q", (0.1,)),)),
        dict(good, axes=(("T", (0.1,)), ("v", (0.0, 1.0)))),  # v appears twice
        dict(good, fixed={"v": 0.3, "w": 0.5, "z": 0.0}),  # N missing
        dict(good, quantities=()),
        dict(good, quantities=("qfi_matrix", "nonsense")),
        dict(good, quantities=("polarization",)),  # modes missing
        dict(good, polarization_modes=("determinant",)),  # modes without quantity
        dict(good, axes=(("T", (-0.1, 0.2)),)),
        dict(good, axes=(("T", (0.1, float("nan"))),)),
        dict(good, fixed={"v": 0.3, "w": 0.5, "z": 0.0, "N": 1}),
        dict(good, boundary="mixed"),
        dict(good, fixed={"v": float("nan"), "w": 0.5, "z": 0.0, "N": 4}),
        dict(good, fixed={"v": 0.3, "w": float("inf"), "z": 0.0, "N": 4}),
        dict(good, fixed={"v": 0.3, "w": 0.5, "z": 0.0, "N": float("inf")}),
        dict(good, axes=(("T", (0.1,)), ("z", (0.0, float("nan")))),
             fixed={"v": 0.3, "w": 0.5, "N": 4}),
        dict(good, axes=(("T", (0.1,)), ("N", (2, float("inf")))),
             fixed={"v": 0.3, "w": 0.5, "z": 0.0}),
        dict(good, magnitude_cutoff=float("nan")),
        dict(good, magnitude_cutoff=-1e-3),
    ]
    for case in bad_cases:
        with pytest.raises(ValueError):
            SweepSpec(**case).validate()
    SweepSpec(**dict(good, axes=(("T", (0.1, float("inf"))),))).validate()


@pytest.mark.parametrize("change,message", [
    ({"fixed": {"v": 0.3, "w": 0.5, "z": 0.0, "N": 4, "Q": 1.0}}, "unknown fixed parameter 'Q'"),
    ({"quantities": ("polarization",), "polarization_modes": ("bogus",)},
     "unknown polarization mode 'bogus'"),
    ({"polarization_modes": ("determinant",)},
     "polarization modes are only meaningful for polarization output"),
], ids=["fixed-parameter", "mode", "modes-without-polarization"])
def test_spec_validation_names_what_it_refuses(change, message):
    good = dict(
        axes=(("T", (0.1, 0.2)),), fixed={"v": 0.3, "w": 0.5, "z": 0.0, "N": 4},
        quantities=QFI_QUANTITIES,
    )
    with pytest.raises(ValueError) as caught:
        SweepSpec(**{**good, **change}).validate()
    assert str(caught.value) == message


def test_locate_extremum_basics():
    # Points in row-major order of (T, z): index p is T[p // 2], z[p % 2].
    table = run_sweep(small_qfi_spec())
    table.i_p[:] = (0.2, 0.6, 0.4, 0.6, 0.1, 0.1)  # ties keep the first point
    best, value = locate_extremum(table, "i_p", "max")
    assert value == 0.6 and (best.temperature, best.z) == (0.05, 0.3)
    best, value = locate_extremum(table, "i_p", "min")
    assert value == 0.1 and (best.temperature, best.z) == (0.8, 0.0)
    # Printed column -> (table and record attribute, index of its entry per point).
    entries = {
        "purity": ("purity", ()), "entropy": ("entropy", ()),
        "M_zz": ("qfi", (2, 2)), "dir_x": ("optimal_direction", (0,)),
    }
    for quantity, (attribute, entry) in entries.items():
        best, value = locate_extremum(table, quantity, "min")
        column = getattr(table, attribute)[(slice(None), *entry)]
        assert value == column.min() == np.asarray(getattr(best, attribute))[entry]

    fixed = {"v": 0.3, "w": 0.5, "z": 0.0, "N": 6}
    single = run_sweep(small_qfi_spec(axes=(("T", (0.1,)),), fixed=fixed))
    best, value = locate_extremum(single, "i_p", "min")
    assert value == single.i_p[0] == best.i_p

    spec = SweepSpec(
        axes=(("T", (0.02, 0.7)), ("z", (0.2, 0.8))),
        fixed={"v": 0.3, "w": 0.5, "N": 8},
        boundary="open",
        quantities=("polarization",),
        polarization_modes=("determinant", "weighted"),
    )
    modes = run_sweep(spec)
    for mode in ("determinant", "weighted"):
        column = modes.polarization[mode]
        best, value = locate_extremum(modes, "magnitude", "max", mode=mode)
        assert value == column.magnitude.max() == best.polarization[mode].magnitude
        _, value = locate_extremum(modes, "P", "min", mode=mode)
        assert value == column.polarization[column.defined].min()


def test_locate_extremum_errors(monkeypatch):
    table = run_sweep(small_qfi_spec())
    with pytest.raises(ValueError):
        locate_extremum(table, "i_p", "sideways")
    with pytest.raises(ValueError):
        locate_extremum(table, "banana", "max")
    with pytest.raises(ValueError):  # not requested
        locate_extremum(table, "P", "max")
    determinant = run_sweep(
        small_qfi_spec(quantities=("polarization",), polarization_modes=("determinant",))
    )
    with pytest.raises(ValueError):
        locate_extremum(determinant, "i_p", "max")
    with pytest.raises(ValueError):
        locate_extremum(determinant, "P", "max", mode="weighted")
    several = run_sweep(
        small_qfi_spec(quantities=("polarization",), polarization_modes=("determinant", "literal"))
    )
    with pytest.raises(ValueError):
        locate_extremum(several, "P", "max")
    # A mode that names no swept mode is refused whatever the column.
    for quantity in ("P", "magnitude"):
        with pytest.raises(ValueError, match="mode='bogus' names no swept mode"):
            locate_extremum(several, quantity, "max", mode="bogus")
    for mode in ("bogus", "determinant"):
        with pytest.raises(ValueError, match=f"mode={mode!r} names no swept mode"):
            locate_extremum(table, "i_p", "max", mode=mode)

    real = sweep_mod.gibbs_weights

    def explode(spectrum, temperature):
        if np.any(np.asarray(temperature) == 0.8):
            raise ArithmeticError("synthetic failure")
        return real(spectrum, temperature)

    monkeypatch.setattr(sweep_mod, "gibbs_weights", explode)
    failed = run_sweep(small_qfi_spec())
    assert len(failed.errors) == 2
    with pytest.raises(ValueError):
        locate_extremum(failed, "i_p", "max")


def test_locate_extremum_ranks_p_only_where_it_is_defined():
    # Every Bloch state has <X> = 0, so ring literal P is undefined at every
    # point and holds a meaningless 0.
    ring = run_sweep(SweepSpec(
        axes=(("T", (0.02, 0.5, 2.0)),),
        fixed={"v": 0.3, "w": 0.5, "z": 0.0, "N": 50},
        quantities=("polarization",),
        polarization_modes=("literal",),
    ))
    assert not ring.polarization["literal"].defined.any()
    for objective in ("min", "max"):
        with pytest.raises(ValueError, match="P is undefined or NaN at every point"):
            locate_extremum(ring, "P", objective)
    assert locate_extremum(ring, "magnitude", "max")[1] == 0.0  # the magnitude still ranks

    table = run_sweep(
        small_qfi_spec(quantities=("polarization",), polarization_modes=("determinant",))
    )
    result = table.polarization["determinant"]
    result.polarization[:] = (0.5, 0.0, 0.5, 0.5, 0.0, 0.25)
    result.defined[:] = (True, False, True, True, True, True)
    best, value = locate_extremum(table, "P", "min")
    assert value == 0.0 and (best.temperature, best.z) == (0.8, 0.0)
    result.defined[4] = False
    best, value = locate_extremum(table, "P", "min")
    assert value == 0.25 and (best.temperature, best.z) == (0.8, 0.3)


def test_locate_extremum_skips_nan_cells():
    # Points in row-major order of (T, z): index p is T[p // 2], z[p % 2].
    table = run_sweep(small_qfi_spec())
    table.entropy[:] = (np.nan, 0.3, np.nan, 0.7, 0.1, np.nan)
    best, value = locate_extremum(table, "entropy", "max")
    assert value == 0.7 and (best.temperature, best.z) == (0.2, 0.3)
    best, value = locate_extremum(table, "entropy", "min")
    assert value == 0.1 and (best.temperature, best.z) == (0.8, 0.0)
    table.entropy[:] = np.nan
    with pytest.raises(ValueError, match="entropy is NaN at every point"):
        locate_extremum(table, "entropy", "max")


def test_interferometric_power_dies_at_hopping_crossing():
    spec = SweepSpec(
        axes=(("z", (0.0, 0.25, 0.5, 0.75, 1.0)),),
        fixed={"v": 0.3, "w": 0.5, "N": 50, "T": 0.05},
        quantities=QFI_QUANTITIES,
    )
    records = run_sweep(spec)
    crossing = [r for r in records if r.z == 0.5]
    assert len(crossing) == 1 and crossing[0].i_p <= 1e-6
    best, _ = locate_extremum(records, "i_p", "min")
    assert best.z == 0.5


def test_spec_refuses_a_repeated_mode_or_quantity():
    spec = dict(
        axes=(("T", (0.1, 0.2)),),
        fixed={"v": 0.3, "w": 0.5, "z": 0.0, "N": 4},
        quantities=("polarization", "diagnostics"),
        polarization_modes=("literal", "weighted"),
    )
    SweepSpec(**spec).validate()
    for repeated, case in (
        ("mode 'literal'", dict(spec, polarization_modes=("literal", "weighted", "literal"))),
        ("quantity 'diagnostics'", dict(spec, quantities=("diagnostics", "polarization") * 2)),
    ):
        with pytest.raises(ValueError, match=f"{repeated} is requested more than once"):
            SweepSpec(**case).validate()
        with pytest.raises(ValueError, match=repeated):
            run_sweep(SweepSpec(**case))
