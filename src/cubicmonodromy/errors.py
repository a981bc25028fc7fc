"""Exception hierarchy shared across the package.

Numerical errors signal that a tolerance could not be certified (the usual
remedy is a finer step size).  Geometry and lattice errors signal malformed
input and are not retryable.
"""


class NumericalError(Exception):
    """A tolerance or convergence requirement could not be certified."""


class NonConvergence(NumericalError):
    """Iteration failed to reach the requested residual."""


class AmbiguousMatching(NumericalError):
    """Nearest-neighbour matching stayed ambiguous after all refinements."""


class InconsistentProjection(NumericalError):
    """Tracked inflection points disagree with the tracked branch roots."""


class NoUniqueMatch(NumericalError):
    """A nearest-neighbour match missed its margin, its tolerance, or its
    bijection: of roots, inflections, lines or transcribed values alike."""


class TransformResidual(NumericalError):
    """A claimed coordinate change does not map the surface where it should."""


class GeometryError(Exception):
    """Base class for malformed geometric input."""


class SingularParameter(GeometryError):
    """Family parameter hits the discriminant locus."""


class DegenerateCurve(GeometryError):
    """Cubic curve is singular or its inflection scheme is not reduced."""


class NotAFlex(GeometryError):
    """Line construction was requested over a non-inflection point."""


class NoSixer(GeometryError):
    """No six pairwise-disjoint lines found (incidence data is broken)."""


class BadIncidencePattern(GeometryError):
    """A line meets the chosen sixer in a pattern no line class allows."""


class LatticeError(Exception):
    """Base class for lattice map construction failures."""


class NonIntegralImage(LatticeError):
    """Forced image of a basis vector is not an integer vector."""


class FormViolation(LatticeError):
    """Matrix does not preserve the intersection form."""


class FixtureError(Exception):
    """Bundled fixture data failed its checksum or invariants."""


class GroupError(Exception):
    """Base class for group machinery failures."""


class CapExceeded(GroupError):
    """Closure grew past the configured element cap."""


class NotAMember(GroupError):
    """Element does not belong to the given group."""


class NotASubgroup(GroupError):
    """Claimed subgroup is not contained in the ambient group."""


class WrongOrder(GroupError):
    """Group order rules out the requested identification."""


class NotIsomorphic(GroupError):
    """Generator map does not extend to an isomorphism; carries a witness."""
