"""Exception hierarchy shared across the pricing engine."""


class PricingError(Exception):
    """Base class for all domain errors raised by this package."""


class NonIntegrableJump(PricingError):
    """An exponential moment of the jump law diverges."""


class InvalidDomain(PricingError):
    """Initial prices outside the positive orthant."""


class BetaTooSmall(PricingError):
    """Weight exponent does not dominate the payoff growth exponent."""


class KinkTooClose(PricingError):
    """Finite-difference check requested too close to a kink or tie set."""


class QuadratureTailTooHeavy(PricingError):
    """Jump-law mass beyond the stencil radius exceeds the requested quantile."""


class SchemeNotMonotone(PricingError):
    """Grid and model break the explicit jump step (dt * lambda < 1) or the
    monotone cross-derivative stencil."""


class LinearSolveFailure(PricingError):
    """Implicit banded system could not be factorized."""


class PenaltyNonMonotone(PricingError):
    """Solution decreased along the penalty ladder beyond slack."""


class NewtonStall(PricingError):
    """Inner penalty iterations exceeded the cap."""


class OutOfDomain(PricingError):
    """A premium integral asked to start at s != 0 (`estimate_premium_mc`)."""


class GridCoverageTooSmall(PricingError):
    """Too many Monte Carlo paths exited the PIDE grid."""


class ModelRejected(PricingError):
    """Integrability report contains a failure; pricing refused."""
