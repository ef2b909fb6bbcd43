"""Exception hierarchy for scatmap: one class per distinction a caller makes.

ScatmapError is any numeric failure; bad input raises ValueError (the CLI
exits 1 on the one, 2 on the other).  NotInDomain carries a partial highway
trace, DomainError marks the crest window's edge, and the benchmark tracer
counts NoCrossing, SingularCrest, TangencyPoint and BranchUnavailable as
crossing misses.  Every other failure raises ScatmapError.
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
