"""Exception types shared across the package.

The hierarchy mirrors how the command line tool maps failures to exit
codes: a hypothesis the computation needs fails (`HypothesisError`,
exit 2); a determinant whose sign it needs lies inside the sign band
(`IndeterminateSignError`, exit 3), which for a starred chain B(0*J)
means that S_J shrinks to a point (`TangencyError`); any other
geometric impossibility or numerical degeneracy exits 4.  Which class
a chain with no sign raises is decided by the sign band alone
(`CMTable.signed`, `ConfigMatrix.signed`), never by the caller.
"""


class SphexError(Exception):
    """Base class for errors raised by this package."""


class NonRealizableError(SphexError, ValueError):
    """Squared-distance data admits no Euclidean point configuration."""


class DegenerateConfigError(SphexError, ValueError):
    """Configuration is numerically degenerate (flat simplex, dependent
    planes, ...)."""


class EmptyIntersectionError(SphexError, ValueError):
    """Requested sphere intersection is empty."""


class HypothesisError(SphexError, ValueError):
    """A sign hypothesis required by the requested computation fails."""


class IndeterminateSignError(SphexError, ValueError):
    """A required determinant sign is inside the sign band."""


class TangencyError(IndeterminateSignError):
    """Spheres touch: a starred determinant B(0*J), or a configuration
    minor A'(J), has no sign, so S_J is a single point."""


class FdNoiseError(SphexError, ArithmeticError):
    """Finite-difference estimate is dominated by sampling noise."""
