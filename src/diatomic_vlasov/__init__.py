"""1D diatomic Vlasov-Poisson system with oscillatory molecular bonds.

A weighted-particle solver for the kinetic density of bonded atom pairs,
the self-consistent step field it generates, characteristic integration
with oscillation-event detection, the a-priori bounds of the underlying
analysis as a certificate that sampled paths are checked against, and
the fixed-point (frozen-field) construction of the solution on short
horizons.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DiatomicVlasovError,
    DomainError,
    EmptyEnsembleError,
    InvalidCError,
    NoConfinementError,
    QuadratureError,
    RangeError,
    StepUnderflowError,
    ToleranceError,
)
from .hooke import (
    BalancePoints,
    Branch,
    HookeKind,
    HookeModel,
    balance_points,
    custom_model,
    force,
    inverse_potential,
    load_table_model,
    potential_to_midpoint,
    table_model,
    tangent_model,
    validate_model,
)
from .field import (
    ConstantField,
    Ensemble,
    FieldSnapshot,
    ParticleState,
    build_field,
    field_w1,
    zero_field,
)
from .trajectory import (
    EventKind,
    OscillationEvent,
    StepControl,
    TrajectoryPath,
    detect_events,
    integrate,
    integrate_batch,
    jacobian_estimate,
)
from .bounds import (
    BoundCertificate,
    BoundParameters,
    CertReport,
    build_certificate,
    certificate_parameters,
    certify,
    chaotic_bound,
    confinement_time,
    displacement_bound,
    excursion_envelope,
    global_envelope,
    gronwall_constants,
    omega_confinement,
    phase_bound,
)
from .datum import BumpDatum, sample_datum
from .picard import (
    IterationRecord,
    SupportBounds,
    iterate,
    support_bounds,
)
from .simulator import (
    ContinuationStatus,
    Diagnostics,
    RunConfig,
    RunResult,
    check_continuation,
    diagnostics,
    run,
)
