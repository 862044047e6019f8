"""Exception hierarchy shared across the library.

Every domain-level failure raises a subclass of :class:`LatconfError`.
The CLI reports the class name as the error ``kind`` of its JSON error
document, so callers never need to match message strings.
"""

from __future__ import annotations


class LatconfError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(LatconfError):
    """Operands have incompatible or unsupported dimensions."""


class SingularMatrixError(LatconfError):
    """A matrix required to be invertible is singular."""


class NonIntegralLattice(LatconfError):
    """An operation requiring an integral Gram matrix got a non-integral one."""


class DegenerateGram(LatconfError):
    """The Gram matrix is degenerate where nondegeneracy is required."""


class IntegralityViolation(LatconfError):
    """Overlattice gluing along a non-isotropic subgroup.

    ``pair`` names the offending pair of subgroup generators.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class GroupTooLarge(LatconfError):
    """A finite-group search exceeded the fixed backtracking bound."""


class NotPrimitive(LatconfError):
    """A vector or sublattice required to be primitive is not."""


class NotIsotropic(LatconfError):
    """A vector or sublattice required to be isotropic is not."""


class NoFrame(LatconfError):
    """No 4 columns of a configuration form a projective frame."""


class VerticesCollinear(LatconfError):
    """The three pair-vertices of a configuration are collinear."""


class LabelError(LatconfError):
    """Configuration labels are missing or malformed."""


class SmoothnessRequired(LatconfError):
    """A Jacobian-ring computation requires a smooth quadric system."""


class InvalidName(LatconfError):
    """Unknown named-lattice constructor or bad parameters."""
