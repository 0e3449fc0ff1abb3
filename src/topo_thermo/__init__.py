"""Thermal extended SSH chain: polarization and quantum Fisher information."""

from .bloch import (
    BlochSpectrum,
    bloch_polarization_determinant,
    bloch_qfi_matrix,
    bloch_spectrum,
    bloch_state_expectations,
)
from .chiral import (
    ChiralSpectrum,
    chiral_polarization_determinant,
    chiral_qfi_matrix,
    chiral_spectrum,
    chiral_state_expectations,
    winding_number,
)
from .lattice import (
    OPEN,
    PERIODIC,
    ModelParams,
    build_folded_block,
    build_hamiltonian,
)
from .polarization import (
    DEFAULT_MAGNITUDE_CUTOFF,
    MODE_DETERMINANT,
    MODE_LITERAL,
    MODE_WEIGHTED,
    PolarizationResult,
    polarization_from_states,
    thermal_polarization_determinant,
    thermal_polarization_literal,
    thermal_polarization_weighted,
)
from .qfi import (
    QfiReport,
    interferometric_power,
    qfi_fidelity_oracle,
    qfi_matrix,
    qfi_scalar,
)
from .sweep import ResultRecord, SweepSpec, SweepTable, locate_extremum, run_sweep
from .thermal import (
    GibbsEnsemble,
    Spectrum,
    diagonalize,
    ensemble_diagnostics,
    fermi_occupations,
    gibbs_weights,
)

__version__ = "0.1.0"

__all__ = [
    "BlochSpectrum",
    "ChiralSpectrum",
    "ModelParams",
    "PolarizationResult",
    "GibbsEnsemble",
    "QfiReport",
    "ResultRecord",
    "Spectrum",
    "SweepSpec",
    "SweepTable",
    "PERIODIC",
    "OPEN",
    "MODE_DETERMINANT",
    "MODE_LITERAL",
    "MODE_WEIGHTED",
    "DEFAULT_MAGNITUDE_CUTOFF",
    "bloch_polarization_determinant",
    "bloch_qfi_matrix",
    "bloch_spectrum",
    "bloch_state_expectations",
    "build_folded_block",
    "build_hamiltonian",
    "chiral_polarization_determinant",
    "chiral_qfi_matrix",
    "chiral_spectrum",
    "chiral_state_expectations",
    "diagonalize",
    "ensemble_diagnostics",
    "fermi_occupations",
    "gibbs_weights",
    "interferometric_power",
    "locate_extremum",
    "polarization_from_states",
    "qfi_fidelity_oracle",
    "qfi_matrix",
    "qfi_scalar",
    "run_sweep",
    "thermal_polarization_determinant",
    "thermal_polarization_literal",
    "thermal_polarization_weighted",
    "winding_number",
]
