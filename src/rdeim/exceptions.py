"""Failure types raised by the library.

Parameter-domain violations raise plain ValueError; the classes below mark
algorithmic failures that callers may want to catch and handle.
"""


class RdeimError(Exception):
    """Base class for algorithmic failures in this package."""


class ConvergenceError(RdeimError):
    """A dense kernel failed: an SVD did not converge, a LAPACK routine
    returned a nonzero info, or the srrqr swap loop hit its budget."""


class OverflowingProductError(RdeimError):
    """A product a kernel forms of a finite input overflowed to a
    non-finite entry."""


class RankDeficiencyError(RdeimError):
    """A factorization met a numerically singular leading block."""


class DegenerateSelectionError(RdeimError):
    """A point selection does not expose full rank against the basis."""


class DegenerateBasisError(RdeimError):
    """A basis is unusable for greedy selection (zero pivot in the greedy
    elimination)."""


class SpectralGapError(RdeimError):
    """A perturbation bound is undefined because the spectral gap closes."""


class AdaptiveRangeError(RdeimError):
    """Adaptive range finding hit its block budget before the tolerance.

    Carries the orthonormal columns accumulated so far and the relative
    Frobenius residual they achieve, so callers can inspect or keep them.
    """

    def __init__(self, message, partial_basis, residual):
        super().__init__(message)
        self.partial_basis = partial_basis
        self.residual = residual
