"""Thermal extended SSH chain: polarization and quantum Fisher information."""

from .bloch import (
    BlochSpectrum,
    bloch_polarization_determinant,
    bloch_polarization_vanishing,
    bloch_qfi_matrix,
    bloch_spectrum,
)
from .lattice import (
    OPEN,
    PERIODIC,
    ModelParams,
    PauliObservable,
    PositionPhaseOperator,
    build_hamiltonian,
    pauli_observable,
    position_phase_operator,
)
from .polarization import (
    DEFAULT_MAGNITUDE_CUTOFF,
    MODE_DETERMINANT,
    MODE_LITERAL,
    MODE_PURE,
    MODE_WEIGHTED,
    PolarizationResult,
    pure_state_phase,
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
from .sweep import ResultRecord, SweepSpec, locate_extremum, run_sweep
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
    "ModelParams",
    "PauliObservable",
    "PolarizationResult",
    "PositionPhaseOperator",
    "GibbsEnsemble",
    "QfiReport",
    "ResultRecord",
    "Spectrum",
    "SweepSpec",
    "PERIODIC",
    "OPEN",
    "MODE_DETERMINANT",
    "MODE_LITERAL",
    "MODE_PURE",
    "MODE_WEIGHTED",
    "DEFAULT_MAGNITUDE_CUTOFF",
    "bloch_polarization_determinant",
    "bloch_polarization_vanishing",
    "bloch_qfi_matrix",
    "bloch_spectrum",
    "build_hamiltonian",
    "diagonalize",
    "ensemble_diagnostics",
    "fermi_occupations",
    "gibbs_weights",
    "interferometric_power",
    "locate_extremum",
    "pauli_observable",
    "position_phase_operator",
    "pure_state_phase",
    "qfi_fidelity_oracle",
    "qfi_matrix",
    "qfi_scalar",
    "run_sweep",
    "thermal_polarization_determinant",
    "thermal_polarization_literal",
    "thermal_polarization_weighted",
]
