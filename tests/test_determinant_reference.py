"""Determinant presets against committed reference values.

tests/data/determinant_reference.json holds figure 1a and 1b on every
10th grid value of each axis (121 rows each). Rows do not depend on the
batch they are computed in, so the subsampled spec reproduces the full
grid's rows. P and P_defined must match exactly, the magnitude within
1e-12 relative on defined rows and 1e-15 absolute on undefined ones.

Regenerate the file only in a change that means to move these values,
and say which rows moved and why:

    PYTHONPATH=src python tests/test_determinant_reference.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from topo_thermo.figures import build_figure_spec
from topo_thermo.polarization import MODE_DETERMINANT
from topo_thermo.sweep import run_sweep

REFERENCE = Path(__file__).parent / "data" / "determinant_reference.json"
FIGURES = ("1a", "1b")
SUBSAMPLE = 10
DEFINED_RTOL = 1e-12
UNDEFINED_ATOL = 1e-15


def _subsampled_rows(figure_id: str) -> dict:
    spec = build_figure_spec(figure_id)
    spec.axes = tuple((name, grid[::SUBSAMPLE]) for name, grid in spec.axes)
    table = run_sweep(spec)
    assert not table.errors
    result = table.polarization[MODE_DETERMINANT]
    return {
        "axes": {name: list(grid) for name, grid in spec.axes},
        "P": result.polarization.tolist(),
        "P_defined": result.defined.tolist(),
        "magnitude": result.magnitude.tolist(),
    }


@pytest.mark.parametrize("figure_id", FIGURES)
def test_determinant_preset_matches_reference(figure_id):
    expected = json.loads(REFERENCE.read_text())[figure_id]
    actual = _subsampled_rows(figure_id)
    assert actual["axes"] == expected["axes"]
    assert len(expected["P"]) == 121
    assert actual["P"] == expected["P"]
    assert actual["P_defined"] == expected["P_defined"]
    defined = np.array(expected["P_defined"])
    magnitude, reference = np.array(actual["magnitude"]), np.array(expected["magnitude"])
    np.testing.assert_allclose(magnitude[defined], reference[defined], rtol=DEFINED_RTOL, atol=0.0)
    np.testing.assert_allclose(
        magnitude[~defined], reference[~defined], rtol=0.0, atol=UNDEFINED_ATOL
    )


if __name__ == "__main__":
    REFERENCE.parent.mkdir(exist_ok=True)
    rows = {figure_id: _subsampled_rows(figure_id) for figure_id in FIGURES}
    REFERENCE.write_text(json.dumps(rows, indent=1) + "\n")
