"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A physical parameter or configuration value violates its invariant."""


class UsageError(Exception):
    """Malformed command line or configuration input."""


class NonConvergence(RuntimeError):
    """Eigensolver failed to reach the requested tolerance.

    Carries the worst eigenpair residual ||Hv - Ev|| that failed the check
    and the coupling value at which it happened.
    """

    def __init__(self, message, residual=None, lam=None):
        super().__init__(message)
        self.residual = residual
        self.lam = lam


class BasisMismatch(ValueError):
    """Two state vectors do not live on the same truncated basis."""


class SchemaMismatch(ValueError):
    """A dataset row does not match the declared column schema."""
