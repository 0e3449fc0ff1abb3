"""Bundled phase-diagram presets behind the `figure` CLI subcommand.

Each preset freezes the chain size, hoppings and grids of one reference
heatmap or line cut: the 1* presets map the determinant polarization over
(T, z); the 2*/3* presets map the interferometric power over (T, v),
(T, z), or a low-temperature line cut. Default resolution is 101 points
per axis with T in [0.01, 1] and hoppings in [0, 1].
"""

from __future__ import annotations

import numpy as np

from .polarization import DEFAULT_MAGNITUDE_CUTOFF, MODE_DETERMINANT
from .sweep import (
    QUANTITY_INTERFEROMETRIC_POWER,
    QUANTITY_POLARIZATION,
    QUANTITY_QFI_MATRIX,
    SweepSpec,
)

GRID_POINTS = 101
TEMPERATURE_RANGE = (0.01, 1.0)
HOPPING_RANGE = (0.0, 1.0)

# Reference temperature for the low-T line cuts, chosen well below the
# band gap scale of the presets.
LOW_TEMPERATURE = 0.05

CHAIN_CELLS = 50

FIGURE_PRESETS = {
    "1a": {"quantity": "polarization", "fixed": {"v": 0.3, "w": 0.5}, "axes": ("T", "z")},
    "1b": {"quantity": "polarization", "fixed": {"v": 0.5, "w": 0.3}, "axes": ("T", "z")},
    "2a": {"quantity": "qfi", "fixed": {"w": 0.5, "z": 0.0}, "axes": ("T", "v")},
    "2b": {"quantity": "qfi", "fixed": {"w": 0.5, "z": 0.0, "T": LOW_TEMPERATURE}, "axes": ("v",)},
    "3a": {"quantity": "qfi", "fixed": {"v": 0.3, "w": 0.5}, "axes": ("T", "z")},
    "3b": {"quantity": "qfi", "fixed": {"v": 0.3, "w": 0.5, "T": LOW_TEMPERATURE}, "axes": ("z",)},
    "3c": {"quantity": "qfi", "fixed": {"v": 0.5, "w": 0.3}, "axes": ("T", "z")},
    "3d": {"quantity": "qfi", "fixed": {"v": 0.5, "w": 0.3, "T": LOW_TEMPERATURE}, "axes": ("z",)},
}

FIGURE_IDS = tuple(sorted(FIGURE_PRESETS))


def _axis_grid(name: str) -> tuple:
    low, high = TEMPERATURE_RANGE if name == "T" else HOPPING_RANGE
    return tuple(float(x) for x in np.linspace(low, high, GRID_POINTS))


def build_figure_spec(
    figure_id: str, magnitude_cutoff: float = DEFAULT_MAGNITUDE_CUTOFF
) -> SweepSpec:
    """SweepSpec reproducing the named preset."""
    if figure_id not in FIGURE_PRESETS:
        raise ValueError(f"unknown figure {figure_id!r}, expected one of {FIGURE_IDS}")
    preset = FIGURE_PRESETS[figure_id]
    fixed = dict(preset["fixed"])
    fixed["N"] = CHAIN_CELLS
    axes = tuple((name, _axis_grid(name)) for name in preset["axes"])
    if preset["quantity"] == "polarization":
        quantities = (QUANTITY_POLARIZATION,)
        modes = (MODE_DETERMINANT,)
    else:
        quantities = (QUANTITY_QFI_MATRIX, QUANTITY_INTERFEROMETRIC_POWER)
        modes = ()
    return SweepSpec(
        axes=axes,
        fixed=fixed,
        quantities=quantities,
        polarization_modes=modes,
        magnitude_cutoff=magnitude_cutoff,
    )
