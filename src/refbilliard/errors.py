"""Exception hierarchy for the refraction-billiard library.

All library errors derive from :class:`BilliardError` so callers can catch the
whole family at once.  Orbit-terminating conditions (total reflection,
tangential crossings, failed event detection) carry enough context to be
recorded on an orbit trace instead of aborting a sweep.
"""


class BilliardError(Exception):
    """Base class for all library-specific errors."""


class DomainError(BilliardError):
    """Input outside the physical domain of the requested quantity."""


class SingularityError(BilliardError):
    """Evaluation exactly at the Kepler singularity z = 0."""


class EnergyMismatch(BilliardError):
    """An initial condition violates the zero-energy relation 1/2|v|^2 = V(z)."""


class AntipodalEndpoints(BilliardError):
    """Fixed-end arc endpoints are (numerically) antipodal; branch undefined."""


class ShootingDiverged(BilliardError):
    """Newton shooting (fixed-end arc or generating-function action) failed
    to converge."""


class OutOfActionRange(BilliardError):
    """Action outside the admissible band (-I_c, I_c) (or radius outside it)."""


class TotalReflectionTermination(BilliardError):
    """Inner incidence exceeded the critical angle; the orbit terminates.

    Attributes
    ----------
    xi : float
        Boundary angle of the offending crossing.
    beta : float
        Inner incidence angle that failed to refract.
    """

    def __init__(self, message, xi=None, beta=None):
        super().__init__(message)
        self.xi = xi
        self.beta = beta


class EventDetectionFailed(BilliardError):
    """No boundary crossing found within the search window."""


class TangentialCrossing(BilliardError):
    """Arc meets the boundary tangentially; the return map is not defined."""


class NoFixedPoint(BilliardError):
    """No non-homothetic fixed point exists for these parameters."""


class DegenerateStationarity(BilliardError):
    """The generating function is degenerate: the return map's lifted
    advance is stationary in the launch action (|d delta/d I0| too small)."""


class RangeEmpty(BilliardError):
    """Requested rotation number lies outside the attainable shift range."""


class DescentStalled(BilliardError):
    """Discrete-action descent failed to make progress."""


class OrbitTerminated(BilliardError):
    """An orbit required to keep running terminated early."""


class InsufficientLength(BilliardError):
    """Orbit too short for the requested statistic."""


class ResidualTooLarge(BilliardError):
    """A polished solution still violates its defining equations."""


class DegenerateEnvelope(BilliardError):
    """A conic family has no caustic point near its tangent circle: a radial
    arc or collision ray supports no envelope, the envelope system has no
    real solution, or its solution lies off the tangent-circle branch."""

