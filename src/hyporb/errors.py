"""Exception types shared across the package.

Every mathematically meaningful failure gets its own class so callers can
distinguish "the input is outside the contract" (DomainError) from numeric
breakdowns (NoConvergence, BranchBreak, ...).  Violations of verified
inequalities are reported as data, never as exceptions.
"""


class HyporbError(Exception):
    """Base class for all package errors."""


class DomainError(HyporbError):
    """Input lies outside the mathematical domain of the operation."""


class Overflow(HyporbError):
    """Evaluation left the double-precision range."""

    def __init__(self, z):
        super().__init__(f"evaluation overflowed at z={z!r}")


class NoConvergence(HyporbError):
    """An iterative solver exhausted its budget."""

    def __init__(self, iterations, residual):
        super().__init__(f"no convergence after {iterations} iterations (residual {residual:.3e})")


class NearCritical(HyporbError):
    """The derivative dropped below the configured floor mid-iteration."""

    def __init__(self, z, deriv_modulus):
        super().__init__(f"|f'| = {deriv_modulus:.3e} below floor near z={z!r}")


class BranchBreak(HyporbError):
    """Inverse-branch continuation could not maintain continuity."""

    def __init__(self, vertex_index, detail=""):
        super().__init__(f"branch continuity lost at vertex {vertex_index} {detail}".rstrip())


class CycleCollision(HyporbError):
    """A proposed marking cycle meets the truncated postsingular set."""


class DivisibilityError(HyporbError):
    """A local degree fails to divide the ramification of the image point."""


class NotFound(HyporbError):
    """A search (cycle, absorbing radius) produced no certified result."""


class PathBlocked(HyporbError):
    """No mark-avoiding path between the point and the boundary set."""


class EmptyInput(HyporbError):
    """An operation that needs at least one point received none."""


class UsageError(HyporbError):
    """Malformed CLI configuration or arguments (exit code 64)."""
