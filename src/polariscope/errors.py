"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A physical parameter or configuration value violates its invariant."""


class UsageError(Exception):
    """Malformed command line or configuration input."""


class NonConvergence(RuntimeError):
    """Eigensolver failed to reach the requested tolerance.

    Carries the residual that failed the check (the off-diagonal norm for
    Jacobi, the worst eigenpair residual for the structured solvers) and,
    when raised by a structured solver, the coupling value at which it
    happened.
    """

    def __init__(self, message, residual=None, lam=None):
        super().__init__(message)
        self.residual = residual
        self.lam = lam


class BlockLeak(ValueError):
    """Nonzero matrix entry between opposite-parity basis states.

    Signals a Hamiltonian-builder bug: parity superselection requires such
    entries to be exactly zero.
    """


class BasisMismatch(ValueError):
    """Two state vectors do not live on the same truncated basis."""


class SchemaMismatch(ValueError):
    """A dataset row does not match the declared column schema."""
