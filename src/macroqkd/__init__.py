"""Simulator for quantum key distribution with macroscopic two-mode
squeezed light pulses: Gaussian pulse physics, photon-difference-number
statistics, the full Alice/Bob protocol and four eavesdropping attacks,
validated against an exact small-scale Fock-space oracle.
"""

from .attacks import AttackConfig, AttackKind
from .fock import (
    FockState,
    build_state_exact,
    difference_moments,
    exact_diff_distribution,
    exact_loss_distribution,
)
from .gaussian import (
    GaussianState,
    SourceParams,
    alice_source,
    apply_loss,
    apply_rotation,
    apply_two_mode_squeeze,
    make_coherent_seed,
    tap_split,
)
from .photostats import (
    Basis,
    DetectorModel,
    DiffMoments,
    NOISELESS,
    bob_error_curve,
    bob_error_vs_loss,
    diff_number_moments,
    distribution_curve,
    error_probability,
    eve_tap_curve,
    eve_tap_probability,
    joint_diff_moments,
)
from .protocol import RunReport, SessionConfig, run_session

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "AttackKind",
    "Basis",
    "DetectorModel",
    "DiffMoments",
    "FockState",
    "GaussianState",
    "NOISELESS",
    "RunReport",
    "SessionConfig",
    "SourceParams",
    "alice_source",
    "apply_loss",
    "apply_rotation",
    "apply_two_mode_squeeze",
    "bob_error_curve",
    "bob_error_vs_loss",
    "build_state_exact",
    "diff_number_moments",
    "difference_moments",
    "distribution_curve",
    "error_probability",
    "eve_tap_curve",
    "eve_tap_probability",
    "exact_diff_distribution",
    "exact_loss_distribution",
    "joint_diff_moments",
    "make_coherent_seed",
    "run_session",
    "tap_split",
]
