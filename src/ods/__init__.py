"""Oscillating-dark-state laboratory for a three-level Lambda atom.

Simulates a three-level atom driven by two pairs of detuned laser
fields whose dark state rotates periodically between the two ground
levels, enabling automated population transfer and superposition
preparation at predictable retrieval times.
"""

from .adiabaticity import AdiabaticityReport, evolving_margin, ramp_margin, theta_rate
from .core import (
    StateQuality,
    basis_state,
    fidelity_to_pure,
    hermitize,
    projection_operator,
    pure_density,
    state_overlap,
    state_quality,
)
from .drive import (
    DriveParams,
    EffectiveFields,
    RampSchedule,
    couplings,
    effective_fields,
    hamiltonian,
    with_delta_phi,
)
from .eigensystem import (
    EigenSystem,
    analytic_eigensystem,
    bright_states,
    dark_state,
    mixing_theta,
    mixing_varphi,
    numerical_eigensystem,
    unwrap_theta,
)
from .errors import (
    ConfigError,
    DivergenceError,
    IntegratorError,
    NotOdsError,
    NumericalStateError,
    OdsError,
    ValidationError,
)
from .evolver import (
    DecoherenceRates,
    IntegratorConfig,
    Trajectory,
    evolve,
)
from .planner import (
    ProtocolPlan,
    ProtocolResult,
    TargetState,
    fidelity_scan,
    plan_superposition,
    plan_transfer,
    plan_transfer_protocol,
    run_protocol,
)

__version__ = "0.1.0"
