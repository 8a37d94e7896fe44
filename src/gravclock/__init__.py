"""Atomic-clock interferometry in weak gravity: Fisher-information toolkit.

Simulates a two-level clock riding an atom through a freely falling or a
trapped Mach-Zehnder interferometer (plus the floored "quantum bouncer"
variant), and quantifies how gravitational time dilation changes what the
setup can learn about the local gravitational acceleration.  Closed-form
quantum/classical Fisher information, an independent parametric engine,
and grid-based brute-force oracles cross-check each other throughout.
"""

from .core import (
    ConfigError,
    ParamsError,
    PhysicalParams,
    RegimeEntry,
    RegimeReport,
    UnknownPresetError,
    build_params,
    check_regime,
    load_config,
    params_from_config,
    preset,
    proper_time_rate,
    shifted_frequency,
)
from .gaussian import (
    ClockState,
    EvolutionError,
    GaussianBranch,
    PhaseLedger,
    PrecisionError,
    evolve_freefall_approx,
    evolve_freefall_full,
    evolve_mz,
    evolve_state,
    make_initial_state,
    overlap,
    piecewise_potential,
    state_norm_sq,
)
from .estimation import (
    EstimationReport,
    NotIdentifiableError,
    QubitModel,
    Scenario,
    StepUnderflowError,
    classical_fi,
    cramer_rao,
    detection_probabilities,
    fi_ff_closed,
    fi_mz_closed,
    fi_numeric,
    qfi_ff_asymptotic,
    qfi_ff_closed,
    qfi_ff_reduced_closed,
    qfi_mixed_gram,
    qfi_mz_closed,
    qfi_mz_reduced_closed,
    qfi_pure_parametric,
    quadrature_phi,
    reduce_to_qubit,
    reduced_qfi_gram,
)
from .oracle import (
    Grid,
    GridError,
    GridWavefunction,
    OracleError,
    fidelity,
    grid_for_states,
    probabilities_numeric,
    qfi_numeric,
    render,
)
from .bouncer import (
    AiryEngine,
    BouncerProjection,
    BouncerSpectrum,
    airy_ai,
    airy_ai_prime,
    airy_zero,
    bouncer_coefficients,
    bouncer_qfi_longtime,
    bouncer_qfi_numeric,
    bouncer_spectrum,
    gravitational_length,
)

__version__ = "0.1.0"
