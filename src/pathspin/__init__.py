"""Deterministic simulator and security analysis for a path-spin QKD protocol.

The package is organised in layers:

``errors``
    The ``PathSpinError`` family and the one reader of outside JSON, ``read_json``.
``qmath``
    State/operator helpers, symmetric 3x3 eigenvalues, checked finite
    distributions and a counter-based deterministic random generator.
``optics``
    The four signal states, the receiver interferometer chain and projective
    spin measurements at the two output ports.
``protocol``
    Round simulation, the receiver outcome table, sifting, key decoding,
    transcripts and replay.
``security``
    Abort-ensemble correlation matrices, the M(rho) violation criterion and
    the closed-form single-parameter family.
``adversary``
    An intercept-resend attacker and a QBER estimator.
``cli``
    The ``pathspin`` command-line entry point.
"""

from .adversary import InterceptResend, QberEstimate, qber
from .errors import (
    ConfigError,
    DecodingError,
    DimensionError,
    DomainError,
    InsufficientDataError,
    InvalidDistributionError,
    InvalidMatrixError,
    InvalidMeasurementError,
    InvalidStateError,
    ParseError,
    PathSpinError,
)
from .optics import (
    BeamSplitterSpec,
    Group,
    OutcomePair,
    OUTCOMES,
    Port,
    SpinBasis,
    SpinOutcome,
    StateLabel,
    bob_transform,
    hadamard_stage,
    measure_distribution,
    outcome_support,
    path_observable,
    pipeline_distribution,
    prepare,
    source_state,
)
from .protocol import (
    AlicePolicy,
    BasisMode,
    BobPolicy,
    PhaseChoice,
    RoundRecord,
    Transcript,
    Verdict,
    decode_bit,
    load_transcript,
    replay_session,
    run_round,
    run_session,
    save_transcript,
    sift,
)
from .qmath import Rng, sym3_eigs
from .security import (
    AbortEnsemble,
    Frame,
    SecurityReport,
    closed_form_family,
    correlation_matrix,
    density_from_ensemble,
    ensemble_from_aborts,
    eta_rates,
    horodecki_m,
    is_violation,
    require_aborts,
    security_decision,
    violation_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "AbortEnsemble",
    "AlicePolicy",
    "BasisMode",
    "BeamSplitterSpec",
    "BobPolicy",
    "ConfigError",
    "DecodingError",
    "DimensionError",
    "DomainError",
    "Frame",
    "Group",
    "InsufficientDataError",
    "InterceptResend",
    "InvalidDistributionError",
    "InvalidMatrixError",
    "InvalidMeasurementError",
    "InvalidStateError",
    "OUTCOMES",
    "OutcomePair",
    "ParseError",
    "PathSpinError",
    "PhaseChoice",
    "Port",
    "QberEstimate",
    "Rng",
    "RoundRecord",
    "SecurityReport",
    "SpinBasis",
    "SpinOutcome",
    "StateLabel",
    "Transcript",
    "Verdict",
    "bob_transform",
    "closed_form_family",
    "correlation_matrix",
    "decode_bit",
    "density_from_ensemble",
    "ensemble_from_aborts",
    "eta_rates",
    "hadamard_stage",
    "horodecki_m",
    "is_violation",
    "load_transcript",
    "measure_distribution",
    "outcome_support",
    "path_observable",
    "pipeline_distribution",
    "prepare",
    "qber",
    "replay_session",
    "require_aborts",
    "run_round",
    "run_session",
    "save_transcript",
    "security_decision",
    "sift",
    "source_state",
    "sym3_eigs",
    "violation_threshold",
    "__version__",
]
