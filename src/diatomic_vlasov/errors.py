"""Exception types shared across the package."""


class DiatomicVlasovError(Exception):
    """Base class for all package errors."""


class DomainError(DiatomicVlasovError):
    """An argument lies outside the bond-length domain (0, epsilon)."""


class QuadratureError(DiatomicVlasovError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class RangeError(DiatomicVlasovError):
    """A requested potential level exceeds the supremum on the branch."""


class ToleranceError(DiatomicVlasovError):
    """A bracketing root search could not establish or shrink a bracket."""


class EmptyEnsembleError(DiatomicVlasovError):
    """An operation that needs particles received an empty ensemble."""


class StepUnderflowError(DiatomicVlasovError):
    """Step halving reached dt_min with the bond length still leaving the
    bond domain.  Carries the offending state and the start time of the
    failing step, once known, for post-mortem inspection; the message
    names that time."""

    def __init__(self, message, state=None, time=None):
        super().__init__(message)
        self.state = state
        self.time = time

    def __str__(self):
        text = super().__str__()
        return text if self.time is None else f"{text}; in the step from t={self.time!r}"


class InvalidCError(DiatomicVlasovError):
    """The chosen field constant violates a certificate precondition."""


class NoConfinementError(DiatomicVlasovError):
    """The potential never reaches the required energy level, so no
    confinement interval exists (finite-well custom models)."""


class ConfigError(DiatomicVlasovError):
    """A run configuration is malformed or violates an invariant."""
