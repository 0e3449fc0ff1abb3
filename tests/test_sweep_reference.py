"""Sweep outputs against committed reference values.

tests/data/sweep_reference.json holds every output column of these
sweeps:
- `open_n400` and `ring_n400`: the seed-0 configs of the benchmark
  workloads of the same names (N = 400, w = 0.5, z = 0.2, 4 values of v
  by 5 temperatures, all quantities and modes, 60 rows each);
- `2a`, `2b`, `3a`, `3b`, `3c` and `3d`: the QFI figure presets on every
  10th grid value of each axis (121 rows for a (T, hopping) map, 11 for
  a line cut).
Rows do not depend on the batch they are computed in, so the subsampled
spec reproduces the full grid's rows.

Tolerances:
- P and P_defined match exactly, except the open-chain `literal` and
  `weighted` P and magnitudes, which may move by 1e-12 absolute;
- the QFI matrix, i_p, the other magnitudes, purity and entropy match
  within 1e-12 relative or 1e-15 absolute;
- the optimal directions match within 1e-12 absolute.

The file was generated with the BLAS thread count left at its default
(2 cores, OpenBLAS 0.3.31). Open-chain values are not bit-stable across
BLAS thread counts (README, "Output format"): with
OPENBLAS_NUM_THREADS=1, the setting bench/run.py pins, the `weighted`
magnitudes move by up to 1.3e-13 absolute, more than 1e-12 relative on
the smallest of them. Those per-state sums of squared eigenvector
entries carry absolute rounding, so they get the absolute tolerance of
their P. The `open_n400` case is also checked at one BLAS thread, in a
child process, since the thread count is fixed when the BLAS library
loads.

Regenerate the file only in a change that means to move these values,
and say which cells moved and why. Named cases are recomputed and the
others kept as they are; with no names, every case is recomputed:

    PYTHONPATH=src python tests/test_sweep_reference.py [case ...]
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from topo_thermo.figures import FIGURE_PRESETS, build_figure_spec
from topo_thermo.polarization import MODE_LITERAL, MODE_WEIGHTED
from topo_thermo.sweep import SweepSpec, run_sweep

REFERENCE = Path(__file__).parent / "data" / "sweep_reference.json"
SUBSAMPLE = 10
RTOL = 1e-12
ATOL = 1e-15
STATE_P_ATOL = 1e-12
DIRECTION_ATOL = 1e-12

CHAIN_AXES = (("v", (0.1, 0.3, 0.5, 0.7)), ("T", (0.02, 0.05, 0.1, 0.2, 0.5)))
ALL_QUANTITIES = ("polarization", "qfi_matrix", "interferometric_power", "diagnostics")
ALL_MODES = ("literal", "weighted", "determinant")


def _spec(name: str) -> SweepSpec:
    if name in FIGURE_PRESETS:
        spec = build_figure_spec(name)
        spec.axes = tuple((axis, grid[::SUBSAMPLE]) for axis, grid in spec.axes)
        return spec
    return SweepSpec(
        axes=CHAIN_AXES,
        fixed={"N": 400, "w": 0.5, "z": 0.2},
        boundary="open" if name == "open_n400" else "periodic",
        quantities=ALL_QUANTITIES,
        polarization_modes=ALL_MODES,
    )


CASES = {
    "open_n400": 60, "ring_n400": 60, "3a": 121,
    "2a": 121, "2b": 11, "3b": 11, "3c": 121, "3d": 11,
}


def _columns(name: str) -> dict:
    spec = _spec(name)
    table = run_sweep(spec)
    assert not table.errors
    columns = {"axes": {axis: list(grid) for axis, grid in spec.axes}}
    for mode, result in table.polarization.items():
        columns[mode] = {
            "P": result.polarization.tolist(),
            "P_defined": result.defined.tolist(),
            "magnitude": result.magnitude.tolist(),
        }
    optional = {
        "qfi": table.qfi,
        "i_p": table.i_p,
        "optimal_direction": table.optimal_direction,
        "purity": table.purity,
        "entropy": table.entropy,
    }
    columns.update((key, value.tolist()) for key, value in optional.items() if value is not None)
    return columns


def assert_close(actual, expected, rtol=RTOL, atol=ATOL):
    """|actual - expected| within rtol relative or within atol absolute, entry by entry."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    error = np.abs(actual - expected)
    bad = (error > rtol * np.abs(expected)) & (error > atol)
    assert not bad.any(), f"{bad.sum()} entries moved, max {error[bad].max():.3e}"


def assert_matches_reference(name, actual):
    expected = json.loads(REFERENCE.read_text())[name]
    assert actual.keys() == expected.keys()
    assert actual["axes"] == expected["axes"]
    modes = [mode for mode in ALL_MODES if mode in expected]
    rows = sum(len(expected[mode]["P"]) for mode in modes) or len(expected["qfi"])
    assert rows == CASES[name]
    for mode in modes:
        got, want = actual[mode], expected[mode]
        assert got["P_defined"] == want["P_defined"]
        if name == "open_n400" and mode in (MODE_LITERAL, MODE_WEIGHTED):
            assert_close(got["P"], want["P"], rtol=0.0, atol=STATE_P_ATOL)
            assert_close(got["magnitude"], want["magnitude"], atol=STATE_P_ATOL)
        else:
            assert got["P"] == want["P"]
            assert_close(got["magnitude"], want["magnitude"])
    for key in ("qfi", "i_p", "purity", "entropy"):
        if key in expected:
            assert_close(actual[key], expected[key])
    if "optimal_direction" in expected:
        assert_close(actual["optimal_direction"], expected["optimal_direction"], 0.0, DIRECTION_ATOL)


@pytest.mark.parametrize("name", CASES)
def test_sweep_matches_reference(name):
    assert_matches_reference(name, _columns(name))


ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def test_open_chain_matches_reference_at_one_blas_thread():
    here = Path(__file__).parent
    path = os.pathsep.join(map(str, (here.parent / "src", here)))
    script = "import json, sys; from test_sweep_reference import _columns; "
    script += "json.dump(_columns('open_n400'), sys.stdout)"
    child = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, **ONE_THREAD, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert_matches_reference("open_n400", json.loads(child.stdout))


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference.update((name, _columns(name)) for name in names)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
