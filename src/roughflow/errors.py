"""Exception hierarchy for roughflow.

Everything raised on purpose derives from :class:`RoughFlowError`, so callers
can catch library failures without masking genuine bugs.  Subclasses that also
derive from ``ValueError`` signal bad arguments rather than bad numerics.
"""


class RoughFlowError(Exception):
    """Base class for all errors raised by roughflow."""


class GridError(RoughFlowError, ValueError):
    """A time or spatial grid is malformed, mismatched, or a point is off-grid."""


class ControlError(RoughFlowError, ValueError):
    """A control violates its contract (diagonal, superadditivity, sign)."""


class InfeasibleLocalizationError(RoughFlowError):
    """No admissible partition exists under the localization threshold."""

    def __init__(self, message, step=None):
        super().__init__(message)
        #: index ``i`` of an offending consecutive step (t_i, t_{i+1}), if located
        self.step = step


class HypothesisError(RoughFlowError, ValueError):
    """Explicit hypotheses of an estimate are violated by the inputs."""


class StepSizeError(RoughFlowError):
    """A time step is too large for the scheme's validity guard (or CFL).

    ``step`` is the index ``k`` of the offending step, ``interval`` its
    ``(s, t)``, and ``value`` the quantity that tripped the guard (or the
    count of non-finite position coordinates); each may be ``None``.
    """

    def __init__(self, message, step=None, interval=None, value=None):
        super().__init__(message)
        self.step = step
        self.interval = interval
        self.value = value


class UndersamplingError(RoughFlowError, ValueError):
    """Too few particles (or nodes) to resolve the requested grid."""


class QuadratureError(RoughFlowError):
    """A quadrature self-check (refinement comparison) disagreed beyond tolerance."""
