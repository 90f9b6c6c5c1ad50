"""Exception types shared across the package."""

import numpy as np


class NssolError(Exception):
    """Base class for all package-specific errors."""

    #: mask of the offending elements of an array argument (see refuse)
    where = None


def refuse(error, bad, message, **values):
    """Raise error for the first True of bad, a numpy bool array or scalar
    (C order), with message formatted by each of values (arrays broadcasting
    to bad) at that element; bad goes along as the error's ``where``."""
    # bad's bytes, 1 for True: no array conversion of a numpy scalar, and a
    # Python bool, which has no buffer, fails here instead of passing.  A
    # mask that is not C-contiguous (a transposed or strided view) is
    # reduced where it lies: its bytes would be gathered one by one.
    view = memoryview(bad)
    if (1 in view.tobytes()) if view.c_contiguous else bad.any():
        bad = np.asarray(bad)
        k = np.argmax(bad)
        at = {n: float(np.broadcast_to(v, bad.shape).flat[k]) for n, v in values.items()}
        exc = error(message.format(**at))
        exc.where = bad
        raise exc


class DomainError(NssolError):
    """A function was evaluated outside its domain of definition."""


class OutOfRangeError(NssolError):
    """A trajectory was queried beyond its range, or a shape off its domain."""


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
    """A field sample or a residual is not finite (NaN or infinite)."""
