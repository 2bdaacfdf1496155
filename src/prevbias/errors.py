"""Exception types shared across the package."""


class PrevBiasError(Exception):
    """Base class for every error raised by this package."""


class InvalidSpec(PrevBiasError, ValueError):
    """A population, mechanism, or configuration input violates an invariant."""


class MechanismMismatch(PrevBiasError):
    """The operation needs sampling probabilities that depend on the symptom
    level only, but the supplied population varies them with infection status."""


class ZeroTestingMass(PrevBiasError):
    """The expected number of tested individuals is zero."""


class UndefinedActiveInfo(PrevBiasError):
    """log(p / p0) is undefined because one of the prevalences is zero."""


class EmptySample(PrevBiasError):
    """No individuals were tested."""


class EmptyStratum(PrevBiasError):
    """A positively weighted symptom class contains no tested individuals."""

    def __init__(self, strata, message=None):
        self.strata = tuple(int(s) for s in strata)
        super().__init__(message or f"no tested individuals in symptom classes {self.strata}")


class TooLarge(InvalidSpec):
    """An exact enumeration or sum was requested above its supported size."""


class EmptyRegion(InvalidSpec):
    """The constrained share region contains no share vector."""


class BoundaryEstimate(PrevBiasError):
    """A prevalence estimate of exactly 0 or 1 has no logit confidence interval."""


class NegativeVarianceCombination(PrevBiasError, ValueError):
    """A plug-in variance or variance combination is negative beyond numerical
    tolerance, as when a symptom class was tested beyond N times its share, or
    not finite, as when a share or an estimate is too close to 0 for floats."""
