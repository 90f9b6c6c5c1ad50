"""Exception types shared across the package."""

import numpy as np


class NssolError(Exception):
    """Base class for all package-specific errors."""

    #: mask of the offending elements of an array argument (see refuse)
    where = None


def refuse(error, bad, message, **values):
    """Raise error for the first True of the boolean array bad (C order),
    with message formatted by each of values (arrays broadcasting to bad)
    at that element; bad goes along as the error's ``where``."""
    bad = np.asarray(bad)
    if bad.any():
        k = np.argmax(bad)
        at = {n: float(np.broadcast_to(v, bad.shape).flat[k]) for n, v in values.items()}
        exc = error(message.format(**at))
        exc.where = bad
        raise exc


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
