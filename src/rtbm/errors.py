"""Exception types shared across the package."""


class RtbmError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefinite(RtbmError):
    """A matrix required to be symmetric positive definite is not."""


class NotSymmetric(RtbmError):
    """A matrix required to be symmetric (to relative tolerance) is not."""


class RankDeficient(RtbmError):
    """A matrix required to have full column rank does not."""


class DegenerateBasis(RtbmError):
    """Lattice basis vectors are (numerically) linearly dependent."""


class PointBudgetExceeded(RtbmError):
    """Ellipsoid enumeration passed the configured point cap."""


class InvalidModel(RtbmError):
    """Model parameters violate one or more invariants.

    ``violations`` lists every violated invariant by name.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class UnsupportedDimension(RtbmError):
    """Operation restricted to a particular visible dimension."""


class TruncationMassTooLarge(RtbmError):
    """Probability mass outside the certification ellipsoid is not negligible."""


class ObjectiveNonFinite(RtbmError):
    """Optimizer objective is non-finite at the starting point."""


class LengthMismatch(RtbmError, ValueError):
    """Vector arguments required to have equal length do not."""
