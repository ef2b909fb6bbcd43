"""Exception hierarchy for scatmap.

Every numeric failure mode has its own class so callers (and the CLI)
can distinguish "the geometry genuinely forbids this" from bad input.
"""


class ScatmapError(Exception):
    """Base class for all scatmap-specific failures."""


class DomainError(ScatmapError):
    """A crest parameterization was evaluated outside its domain."""


class NoCrossing(ScatmapError):
    """A torus segment does not cross the requested crest (hole)."""


class SingularCrest(ScatmapError):
    """Crest is singular at this action (|mu*alpha(I)| == 1)."""


class TangencyPoint(ScatmapError):
    """Evaluation too close to a segment/crest tangency."""


class BranchUnavailable(ScatmapError):
    """No crossing lies in the requested branch domain."""


class NotInDomain(ScatmapError):
    """Action outside the highway domain.

    When raised mid-trace, ``partial`` holds the samples computed so far.
    """

    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial if partial is not None else []


class DegenerateAction(ScatmapError):
    """Action too small for the rotor to move the torus angle."""


class StalledProgress(ScatmapError):
    """Pseudo-orbit construction stopped making progress."""


class ConstantUndefined(ScatmapError):
    """Homoclinic travel-time constant undefined (mu*max(alpha) >= 1)."""


class DomainExit(ScatmapError):
    """Trajectory of the reduced flow left the branch domain."""
