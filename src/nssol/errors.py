"""Exception types shared across the package."""


class NssolError(Exception):
    """Base class for all package-specific errors."""


class DomainError(NssolError):
    """A function was evaluated outside its domain of definition."""


class OutOfRangeError(NssolError):
    """A tabulated trajectory or a bounded shape was queried beyond its range."""


class StepFailureError(NssolError):
    """The adaptive integrator could not continue.

    Carries the last good state so callers can report how far the
    integration got before the controller gave up.
    """

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class StencilOutOfDomainError(NssolError):
    """A finite-difference stencil point fell outside the field domain."""


class NonFiniteFieldError(NssolError):
    """A residual stencil touched vacuum or produced a non-finite sample."""
